#include "linalg/expm.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <iostream>

#include "common/error.h"
#include "linalg/kernels.h"
#include "linalg/solve.h"

namespace paqoc {

namespace {

// Coefficients of the [6/6] Pade approximant to exp(x).
constexpr double kPade6[] = {
    1.0, 0.5, 5.0 / 44.0, 1.0 / 66.0, 1.0 / 792.0, 1.0 / 15840.0,
    1.0 / 665280.0,
};

/** Squaring cap of the scaling step; see expmSquaringClampCount(). */
constexpr int kMaxSquarings = 40;

std::atomic<std::uint64_t> g_squaring_clamps{0};

void
noteSquaringClamp(double norm)
{
    if (g_squaring_clamps.fetch_add(1, std::memory_order_relaxed)
        == 0) {
        // One-time diagnostic: a clamped argument is (norm/0.5)/2^40
        // times larger than the Pade kernel's design range, so the
        // result is numerically suspect. Later clamps only bump the
        // counter.
        std::cerr << "paqoc: expm: argument norm " << norm
                  << " exceeds the scaling range (squarings clamped "
                     "at "
                  << kMaxSquarings
                  << "); result accuracy is not guaranteed. This "
                     "warning is printed once per process; see "
                     "expmSquaringClampCount().\n";
    }
}

/** Fill `m` with the n x n identity, reusing its storage. */
void
identityInto(Matrix &m, std::size_t n)
{
    m.resize(n, n);
    for (std::size_t i = 0; i < n; ++i)
        m(i, i) = Complex(1.0, 0.0);
}

/**
 * Give `m` the n x n shape, keeping its contents when it already has
 * it: for buffers every element of which is written before it is read.
 */
void
shapeInto(Matrix &m, std::size_t n)
{
    if (m.rows() != n || m.cols() != n)
        m.resize(n, n);
}

/**
 * Largest row sum of |re| + |im|: an upper bound on infinityNorm()
 * (|z| <= |re z| + |im z|) that needs no hypot.
 */
double
manhattanRowBound(const Matrix &a)
{
    double best = 0.0;
    for (std::size_t r = 0; r < a.rows(); ++r) {
        double row_sum = 0.0;
        for (std::size_t c = 0; c < a.cols(); ++c)
            row_sum += std::abs(a(r, c).real()) + std::abs(a(r, c).imag());
        best = std::max(best, row_sum);
    }
    return best;
}

/**
 * exp(ws.as) -> out. Consumes the workspace contents; every product
 * lands in a preallocated buffer via matmulInto, so a warm workspace
 * performs zero heap allocations, and only the buffers read before
 * they are written (the Pade accumulators and the identity) are
 * zeroed. The arithmetic (and therefore the bits) matches the
 * historical allocate-per-product implementation operation for
 * operation. The result leaves by swap; `ws.r` keeps out's old
 * storage.
 */
void
expmCore(Matrix &out, ExpmWorkspace &ws)
{
    const std::size_t n = ws.as.rows();

    // Scale so the argument norm is small enough for the Pade kernel.
    // The hypot norm is needed only when its cheap upper bound does
    // not already rule squaring out; the margin below 0.5 absorbs the
    // two sums' rounding, so "no squaring" is decided exactly as the
    // norm would decide it.
    int squarings = 0;
    const double norm = manhattanRowBound(ws.as) <= 0.5 * (1.0 - 1e-12)
        ? 0.0
        : ws.as.infinityNorm();
    if (norm > 0.5) {
        squarings = static_cast<int>(std::ceil(std::log2(norm / 0.5)));
        if (squarings > kMaxSquarings) {
            squarings = kMaxSquarings;
            noteSquaringClamp(norm);
        }
    }
    const double scale = std::pow(2.0, -squarings);
    ws.as *= Complex(scale, 0.0);

    // Horner-style evaluation of even/odd parts: p = U + V, q = -U + V
    // with U odd powers, V even powers, exp(A) ~ q^{-1} p.
    shapeInto(ws.a2, n);
    matmulInto(ws.as, ws.as, ws.a2);
    ws.even.resize(n, n);
    ws.odd.resize(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        ws.even(i, i) = Complex(kPade6[0], 0.0);
        ws.odd(i, i) = Complex(kPade6[1], 0.0);
    }
    identityInto(ws.pow, n); // a2^k
    shapeInto(ws.tmp, n);
    for (int k = 1; k <= 3; ++k) {
        matmulInto(ws.pow, ws.a2, ws.tmp);
        std::swap(ws.pow, ws.tmp);
        kernels::axpy(Complex(kPade6[2 * k], 0.0), ws.pow.data(),
                      ws.even.data(), n * n);
        if (2 * k + 1 <= 6)
            kernels::axpy(Complex(kPade6[2 * k + 1], 0.0),
                          ws.pow.data(), ws.odd.data(), n * n);
    }
    shapeInto(ws.u, n);
    matmulInto(ws.as, ws.odd, ws.u); // U = as * (odd-power sum)
    ws.q = ws.even;
    ws.q -= ws.u;   // q = V - U
    ws.even += ws.u; // even now holds p = V + U
    solveLinearInPlace(ws.q, ws.even, ws.r);

    for (int s = 0; s < squarings; ++s) {
        matmulInto(ws.r, ws.r, ws.tmp);
        std::swap(ws.r, ws.tmp);
    }
    std::swap(out, ws.r);
}

} // namespace

std::uint64_t
expmSquaringClampCount()
{
    return g_squaring_clamps.load(std::memory_order_relaxed);
}

void
expmInto(const Matrix &a, Matrix &out, ExpmWorkspace &ws)
{
    PAQOC_ASSERT(a.isSquare(), "expm of non-square matrix");
    ws.as = a;
    expmCore(out, ws);
}

Matrix
expm(const Matrix &a)
{
    ExpmWorkspace ws;
    Matrix out;
    expmInto(a, out, ws);
    return out;
}

void
expmPropagatorInto(const Matrix &h, double dt, Matrix &out,
                   ExpmWorkspace &ws)
{
    PAQOC_ASSERT(h.isSquare(), "expm of non-square matrix");
    const std::size_t n = h.rows();
    // One fused pass: as = h * (-i dt), elementwise, straight into
    // the workspace. Same complex product as the historical
    // copy-then-*= sequence, minus the copy.
    ws.as.resize(n, n);
    const Complex factor(0.0, -dt);
    const Complex *src = h.data();
    Complex *dst = ws.as.data();
    for (std::size_t i = 0; i < n * n; ++i)
        dst[i] = src[i] * factor;
    expmCore(out, ws);
}

Matrix
expmPropagator(const Matrix &h, double dt)
{
    ExpmWorkspace ws;
    Matrix out;
    expmPropagatorInto(h, dt, out, ws);
    return out;
}

} // namespace paqoc
