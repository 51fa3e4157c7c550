#include "core/itq.hh"

#include "tensor/linalg.hh"
#include "tensor/svd.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace longsight {

namespace {

/** B = sign(X R), entries in {-1, +1} (zero maps to +1). */
Matrix
signMatrix(const Matrix &rotated)
{
    Matrix b(rotated.rows(), rotated.cols());
    for (size_t i = 0; i < rotated.size(); ++i)
        b.data()[i] = rotated.data()[i] >= 0.0f ? 1.0f : -1.0f;
    return b;
}

} // namespace

double
signQuantizationLoss(const Matrix &data, const Matrix &rotation)
{
    LS_ASSERT(data.cols() == rotation.rows(),
              "ITQ loss shape mismatch");
    const Matrix rotated = matmul(data, rotation);
    double loss = 0.0;
    for (size_t i = 0; i < rotated.size(); ++i) {
        const double v = rotated.data()[i];
        const double b = v >= 0.0 ? 1.0 : -1.0;
        loss += (b - v) * (b - v);
    }
    return loss / static_cast<double>(data.rows());
}

Matrix
trainItqRotation(const Matrix &data, int iterations, Rng &rng)
{
    const size_t d = data.cols();
    LS_ASSERT(data.rows() >= d,
              "ITQ needs at least dim training vectors (", data.rows(),
              " < ", d, ")");
    Matrix r = randomOrthogonal(d, rng);

    for (int it = 0; it < iterations; ++it) {
        const Matrix rotated = matmul(data, r);
        // Maximize tr(R^T X^T B): R = U W^T for svd(X^T B) = U S W^T.
        r = procrustesRotation(signMatrix(rotated), data);
    }
    return r;
}

} // namespace longsight
