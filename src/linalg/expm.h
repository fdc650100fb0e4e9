#ifndef PAQOC_LINALG_EXPM_H_
#define PAQOC_LINALG_EXPM_H_

#include <cstdint>

#include "linalg/matrix.h"

namespace paqoc {

/**
 * Scratch buffers for one matrix-exponential evaluation, reusable
 * across calls of the same (or different) dimension. The GRAPE hot
 * path exponentiates one slice Hamiltonian per time step per
 * iteration; without a workspace every call paid ~10 fresh n x n
 * allocations for the Pade ladder. All buffers are resized lazily, so
 * a default-constructed workspace is valid for any dimension, and keep
 * their shape across calls. The result leaves by swap: the output
 * matrix's previous storage becomes the workspace's `r`.
 */
struct ExpmWorkspace
{
    Matrix as;   ///< scaled argument
    Matrix a2;   ///< as^2
    Matrix pow;  ///< running even power a2^k
    Matrix tmp;  ///< product scratch (matmulInto cannot alias)
    Matrix even; ///< even-coefficient Pade accumulator
    Matrix odd;  ///< odd-coefficient Pade accumulator
    Matrix u;    ///< as * odd
    Matrix q;    ///< denominator even - u
    Matrix r;    ///< Pade quotient / squaring ladder
};

/**
 * Matrix exponential exp(A) via [6/6] Pade approximation with scaling
 * and squaring. A must be square. Accurate to near machine precision
 * for the well-conditioned (anti-Hermitian) arguments QOC produces.
 */
Matrix expm(const Matrix &a);

/** expm into a pre-existing output using caller-owned scratch. */
void expmInto(const Matrix &a, Matrix &out, ExpmWorkspace &ws);

/**
 * Propagator exp(-i * H * dt) for a Hermitian H. This is the hot path
 * of GRAPE: each time slice of each fidelity evaluation calls it once.
 */
Matrix expmPropagator(const Matrix &h, double dt);

/**
 * Workspace variant of expmPropagator: scales -i * dt * H directly
 * into the workspace (one pass, no temporary) and writes the
 * propagator to `out`. Bit-identical to expmPropagator.
 */
void expmPropagatorInto(const Matrix &h, double dt, Matrix &out,
                        ExpmWorkspace &ws);

/**
 * Number of times the scaling step clamped the squaring count at its
 * cap since process start. A clamp means the argument norm was so
 * large (> 0.5 * 2^40) that the Pade result is no longer trustworthy;
 * the first clamp emits a one-time diagnostic on stderr, and this
 * counter makes the event observable to callers and tests.
 */
std::uint64_t expmSquaringClampCount();

} // namespace paqoc

#endif // PAQOC_LINALG_EXPM_H_
