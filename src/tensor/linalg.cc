#include "tensor/linalg.hh"

#include <cmath>

#include "util/logging.hh"
#include "util/rng.hh"

namespace longsight {

float
dot(const float *a, const float *b, size_t n)
{
    // Accumulate in double: attention scores feed a softmax whose
    // exactness tests compare the hardware and software paths.
    double acc = 0.0;
    for (size_t i = 0; i < n; ++i)
        acc += static_cast<double>(a[i]) * static_cast<double>(b[i]);
    return static_cast<float>(acc);
}

float
norm2(const float *a, size_t n)
{
    double acc = 0.0;
    for (size_t i = 0; i < n; ++i)
        acc += static_cast<double>(a[i]) * static_cast<double>(a[i]);
    return static_cast<float>(std::sqrt(acc));
}

Matrix
matmul(const Matrix &a, const Matrix &b)
{
    LS_ASSERT(a.cols() == b.rows(), "matmul shape mismatch: ",
              a.rows(), "x", a.cols(), " * ", b.rows(), "x", b.cols());
    Matrix c(a.rows(), b.cols());
    for (size_t i = 0; i < a.rows(); ++i) {
        const float *arow = a.row(i);
        float *crow = c.row(i);
        for (size_t k = 0; k < a.cols(); ++k) {
            const float aik = arow[k];
            if (aik == 0.0f)
                continue;
            const float *brow = b.row(k);
            for (size_t j = 0; j < b.cols(); ++j)
                crow[j] += aik * brow[j];
        }
    }
    return c;
}

Matrix
matmulBt(const Matrix &a, const Matrix &b)
{
    LS_ASSERT(a.cols() == b.cols(), "matmulBt inner-dim mismatch: ",
              a.cols(), " vs ", b.cols());
    Matrix c(a.rows(), b.rows());
    for (size_t i = 0; i < a.rows(); ++i)
        for (size_t j = 0; j < b.rows(); ++j)
            c(i, j) = dot(a.row(i), b.row(j), a.cols());
    return c;
}

std::vector<float>
gemv(const Matrix &a, const std::vector<float> &x)
{
    LS_ASSERT(a.cols() == x.size(), "gemv shape mismatch");
    std::vector<float> y(a.rows());
    for (size_t i = 0; i < a.rows(); ++i)
        y[i] = dot(a.row(i), x.data(), a.cols());
    return y;
}

std::vector<float>
gemvT(const Matrix &a, const std::vector<float> &x)
{
    LS_ASSERT(a.rows() == x.size(), "gemvT shape mismatch");
    std::vector<float> y(a.cols());
    gemvT(a, x.data(), y.data());
    return y;
}

void
gemvT(const Matrix &a, const float *x, float *y)
{
    for (size_t j = 0; j < a.cols(); ++j)
        y[j] = 0.0f;
    for (size_t i = 0; i < a.rows(); ++i) {
        const float xi = x[i];
        const float *arow = a.row(i);
        for (size_t j = 0; j < a.cols(); ++j)
            y[j] += xi * arow[j];
    }
}

Matrix
transpose(const Matrix &a)
{
    Matrix t(a.cols(), a.rows());
    for (size_t i = 0; i < a.rows(); ++i)
        for (size_t j = 0; j < a.cols(); ++j)
            t(j, i) = a(i, j);
    return t;
}

float
maxAbsDiff(const Matrix &a, const Matrix &b)
{
    LS_ASSERT(a.rows() == b.rows() && a.cols() == b.cols(),
              "maxAbsDiff shape mismatch");
    float m = 0.0f;
    for (size_t i = 0; i < a.size(); ++i)
        m = std::max(m, std::abs(a.data()[i] - b.data()[i]));
    return m;
}

Matrix
randomOrthogonal(size_t n, Rng &rng)
{
    Matrix g(n, n, rng.gaussianVec(n * n));
    // Modified Gram-Schmidt over rows.
    for (size_t i = 0; i < n; ++i) {
        float *ri = g.row(i);
        for (size_t j = 0; j < i; ++j) {
            const float *rj = g.row(j);
            const float proj = dot(ri, rj, n);
            for (size_t k = 0; k < n; ++k)
                ri[k] -= proj * rj[k];
        }
        const float nrm = norm2(ri, n);
        LS_ASSERT(nrm > 1e-6f, "rank-deficient Gaussian draw in QR");
        for (size_t k = 0; k < n; ++k)
            ri[k] /= nrm;
    }
    return g;
}

bool
isOrthogonal(const Matrix &q, float tol)
{
    if (q.rows() != q.cols())
        return false;
    const Matrix gram = matmulBt(q, q);
    const Matrix eye = Matrix::identity(q.rows());
    return maxAbsDiff(gram, eye) <= tol;
}

} // namespace longsight
