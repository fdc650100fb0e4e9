#ifndef PAQOC_LINALG_KERNELS_H_
#define PAQOC_LINALG_KERNELS_H_

#include <complex>
#include <cstddef>
#include <string>

namespace paqoc {
namespace kernels {

using Complex = std::complex<double>;

/**
 * Runtime-dispatched dense complex kernels.
 *
 * Every backend implements the SAME arithmetic contract: for each
 * output element, terms are accumulated in exactly the scalar order
 * (ascending k for GEMM, ascending i for reductions) and every
 * product/sum is rounded individually -- vector backends widen across
 * independent output elements (columns), never across a reduction,
 * and never fuse multiply-add. The result is bit-identical output
 * across backends, which is what lets PAQOC_KERNEL switch freely
 * under the engine-wide determinism guarantee (results are a pure
 * function of the request, not of the host's ISA).
 *
 * Backend selection, in priority order:
 *   1. setBackend()/setBackendByName() (CLI override),
 *   2. the PAQOC_KERNEL environment variable (scalar | avx2 | auto),
 *   3. auto-detection (best backend the build and CPU support).
 * Requesting an unavailable backend degrades to scalar, never fails.
 */
enum class Backend
{
    Scalar, ///< portable reference path
    Avx2,   ///< AVX2 256-bit lanes (split re/im via vaddsubpd, no FMA)
};

/** Backend the dispatched entry points currently use. */
Backend activeBackend();

/** True when the build carries AVX2 kernels and the CPU executes them. */
bool avx2Available();

/** Stable lowercase name ("scalar", "avx2"). */
const char *backendName(Backend backend);

/**
 * Force a backend; unavailable requests degrade to Scalar. Returns
 * the backend actually installed.
 */
Backend setBackend(Backend backend);

/**
 * Parse and install "scalar", "avx2" or "auto" (case-sensitive).
 * Returns false (state unchanged) for anything else.
 */
bool setBackendByName(const std::string &name);

/**
 * GEMM rows [row0, row1) of out = a * b with a: n x k, b: k x m, all
 * row-major. i-k-j loop order with exact-zero a(i,k) terms skipped;
 * each out element accumulates in ascending-k order. `out` must not
 * alias `a` or `b`.
 */
void gemmRows(const Complex *a, const Complex *b, Complex *out,
              std::size_t k, std::size_t m, std::size_t row0,
              std::size_t row1);

/** y[i] += x[i] * alpha for i in [0, n). x and y must not alias. */
void axpy(Complex alpha, const Complex *x, Complex *y, std::size_t n);

/**
 * sum_i x[i] * y[i] (no conjugation), accumulated in ascending-i
 * order. With x = transpose(A) and y = B row-major this is Tr(A B).
 */
Complex dotu(const Complex *x, const Complex *y, std::size_t n);

/**
 * Tr(R H F) for n x n row-major R and F and a control H whose row i
 * is phase[i] at column col[i] (phase[i] == 0: an all-zero row).
 * Bit-identical to dotu(transpose(R), H F) with H F from gemmRows:
 * row i of H F is +0 + phase[i] * F[col[i]], and the terms fold into
 * the accumulator in the same ascending order with the same
 * roundings. A zero row only adds signed zeros to an accumulator that
 * is never -0, so it is skipped. One scalar path serves every backend.
 */
Complex traceRowMap(const Complex *r, const Complex *f,
                    const std::size_t *col, const Complex *phase,
                    std::size_t n);

/**
 * out = conj(transpose(a)) with a: rows x cols row-major; out must be
 * pre-sized cols x rows and must not alias a.
 */
void adjointInto(const Complex *a, Complex *out, std::size_t rows,
                 std::size_t cols);

/** out = transpose(a); same shape/aliasing contract as adjointInto. */
void transposeInto(const Complex *a, Complex *out, std::size_t rows,
                   std::size_t cols);

namespace detail {

/** Scalar reference implementations (the bit-identity oracle). */
void gemmRowsScalar(const Complex *a, const Complex *b, Complex *out,
                    std::size_t k, std::size_t m, std::size_t row0,
                    std::size_t row1);
void axpyScalar(Complex alpha, const Complex *x, Complex *y,
                std::size_t n);
Complex dotuScalar(const Complex *x, const Complex *y, std::size_t n);

/** AVX2 implementations; only linked on x86-64 builds with -mavx2. */
void gemmRowsAvx2(const Complex *a, const Complex *b, Complex *out,
                  std::size_t k, std::size_t m, std::size_t row0,
                  std::size_t row1);
void axpyAvx2(Complex alpha, const Complex *x, Complex *y,
              std::size_t n);
Complex dotuAvx2(const Complex *x, const Complex *y, std::size_t n);

} // namespace detail

} // namespace kernels
} // namespace paqoc

#endif // PAQOC_LINALG_KERNELS_H_
