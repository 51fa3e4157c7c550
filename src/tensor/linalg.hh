/**
 * @file
 * Dense linear-algebra kernels over Matrix/float vectors: GEMM, GEMV,
 * dot products, norms, transpose, Gram-Schmidt QR (for random orthogonal
 * initialization in ITQ), and small utilities shared by the attention
 * and quantization code.
 */

#ifndef LONGSIGHT_TENSOR_LINALG_HH
#define LONGSIGHT_TENSOR_LINALG_HH

#include <cstddef>
#include <vector>

#include "tensor/tensor.hh"

namespace longsight {

class Rng;

/** Dot product of two length-n float spans. */
float dot(const float *a, const float *b, size_t n);

/** Euclidean norm of a length-n float span. */
float norm2(const float *a, size_t n);

/** c = a * b  (a: m x k, b: k x n). */
Matrix matmul(const Matrix &a, const Matrix &b);

/** c = a * b^T (a: m x k, b: n x k) — the attention QK^T shape. */
Matrix matmulBt(const Matrix &a, const Matrix &b);

/** y = a * x  (a: m x n, x: length n). */
std::vector<float> gemv(const Matrix &a, const std::vector<float> &x);

/** y = a^T * x (a: m x n, x: length m). */
std::vector<float> gemvT(const Matrix &a, const std::vector<float> &x);

/** gemvT into caller storage (y: length a.cols(), overwritten). */
void gemvT(const Matrix &a, const float *x, float *y);

/** Transposed copy. */
Matrix transpose(const Matrix &a);

/** Max |a[i,j] - b[i,j]|. */
float maxAbsDiff(const Matrix &a, const Matrix &b);

/**
 * Random orthogonal matrix of order n: QR of a Gaussian matrix via
 * modified Gram-Schmidt, sign-corrected so the distribution is Haar.
 */
Matrix randomOrthogonal(size_t n, Rng &rng);

/**
 * Check ||Q^T Q - I||_max <= tol.
 */
bool isOrthogonal(const Matrix &q, float tol = 1e-3f);

} // namespace longsight

#endif // LONGSIGHT_TENSOR_LINALG_HH
