#include "linalg/solve.h"

#include <cmath>

#include "common/error.h"

namespace paqoc {

namespace {

/**
 * dst[c] -= f * src[c] for c in [0, len): std::complex's finite
 * multiply spelled out (re = fr*sr - fi*si, im = fr*si + fi*sr, each
 * product and sum rounded once), minus its per-element NaN branch.
 */
void
subtractScaledRow(Complex f, const Complex *src, Complex *dst,
                  std::size_t len)
{
    const double fr = f.real(), fi = f.imag();
    for (std::size_t c = 0; c < len; ++c) {
        const double sr = src[c].real(), si = src[c].imag();
        dst[c] = Complex(dst[c].real() - (fr * sr - fi * si),
                         dst[c].imag() - (fr * si + fi * sr));
    }
}

} // namespace

Matrix
solveLinear(Matrix a, Matrix b)
{
    Matrix x;
    solveLinearInPlace(a, b, x);
    return x;
}

void
solveLinearInPlace(Matrix &a, Matrix &b, Matrix &x)
{
    PAQOC_ASSERT(a.isSquare(), "solveLinear needs a square matrix");
    PAQOC_ASSERT(a.rows() == b.rows(), "shape mismatch in solveLinear");
    const std::size_t n = a.rows();
    const std::size_t m = b.cols();

    for (std::size_t col = 0; col < n; ++col) {
        // Partial pivoting: pick the largest remaining entry in column.
        std::size_t pivot = col;
        double best = std::abs(a(col, col));
        for (std::size_t r = col + 1; r < n; ++r) {
            const double v = std::abs(a(r, col));
            if (v > best) {
                best = v;
                pivot = r;
            }
        }
        PAQOC_FATAL_IF(best < 1e-14, "singular matrix in solveLinear");
        if (pivot != col) {
            for (std::size_t c = 0; c < n; ++c)
                std::swap(a(col, c), a(pivot, c));
            for (std::size_t c = 0; c < m; ++c)
                std::swap(b(col, c), b(pivot, c));
        }
        const Complex inv_p = Complex(1.0, 0.0) / a(col, col);
        for (std::size_t r = col + 1; r < n; ++r) {
            const Complex f = a(r, col) * inv_p;
            if (f == Complex(0.0, 0.0))
                continue;
            subtractScaledRow(f, a.data() + col * n + col,
                              a.data() + r * n + col, n - col);
            subtractScaledRow(f, b.data() + col * m, b.data() + r * m,
                              m);
        }
    }

    // Back substitution: every x(k, c) it reads was written first.
    PAQOC_ASSERT(x.data() != a.data() && x.data() != b.data(),
                 "solveLinearInPlace output aliases an input");
    if (x.rows() != n || x.cols() != m)
        x.resize(n, m);
    for (std::size_t ri = n; ri-- > 0;) {
        for (std::size_t c = 0; c < m; ++c) {
            Complex s = b(ri, c);
            for (std::size_t k = ri + 1; k < n; ++k)
                s -= a(ri, k) * x(k, c);
            x(ri, c) = s / a(ri, ri);
        }
    }
}

Matrix
inverse(const Matrix &a)
{
    return solveLinear(a, Matrix::identity(a.rows()));
}

} // namespace paqoc
