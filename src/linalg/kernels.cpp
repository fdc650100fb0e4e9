#include "linalg/kernels.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>

namespace paqoc {
namespace kernels {

namespace {

/**
 * The installed backend, encoded as int for a lock-free read on the
 * hot path. Resolution order: explicit setBackend > PAQOC_KERNEL env
 * > auto-detection. The env variable is folded in exactly once, at
 * first use, by resolveInitialBackend().
 */
std::atomic<int> g_backend{-1};

Backend
bestAvailable()
{
    return avx2Available() ? Backend::Avx2 : Backend::Scalar;
}

Backend
resolveInitialBackend()
{
    const char *env = std::getenv("PAQOC_KERNEL");
    if (env != nullptr) {
        const std::string name(env);
        if (name == "scalar")
            return Backend::Scalar;
        if (name == "avx2")
            return avx2Available() ? Backend::Avx2 : Backend::Scalar;
        // Unknown values (including "auto") fall through to detection:
        // a typo must never silently change numerics, and with the
        // bit-identity contract it cannot change results either way.
    }
    return bestAvailable();
}

Backend
loadBackend()
{
    int current = g_backend.load(std::memory_order_relaxed);
    if (current < 0) {
        const Backend resolved = resolveInitialBackend();
        // Racing first readers resolve to the same value (the env and
        // CPU are process-constant), so a plain store is fine.
        g_backend.store(static_cast<int>(resolved),
                        std::memory_order_relaxed);
        return resolved;
    }
    return static_cast<Backend>(current);
}

} // namespace

bool
avx2Available()
{
#if defined(PAQOC_HAVE_AVX2_KERNELS)
    return __builtin_cpu_supports("avx2");
#else
    return false;
#endif
}

Backend
activeBackend()
{
    return loadBackend();
}

const char *
backendName(Backend backend)
{
    return backend == Backend::Avx2 ? "avx2" : "scalar";
}

Backend
setBackend(Backend backend)
{
    if (backend == Backend::Avx2 && !avx2Available())
        backend = Backend::Scalar;
    g_backend.store(static_cast<int>(backend),
                    std::memory_order_relaxed);
    return backend;
}

bool
setBackendByName(const std::string &name)
{
    if (name == "scalar") {
        setBackend(Backend::Scalar);
        return true;
    }
    if (name == "avx2") {
        setBackend(Backend::Avx2);
        return true;
    }
    if (name == "auto") {
        setBackend(bestAvailable());
        return true;
    }
    return false;
}

namespace detail {

void
gemmRowsScalar(const Complex *a, const Complex *b, Complex *out,
               std::size_t k, std::size_t m, std::size_t row0,
               std::size_t row1)
{
    for (std::size_t i = row0; i < row1; ++i) {
        const Complex *arow = a + i * k;
        Complex *orow = out + i * m;
        std::fill(orow, orow + m, Complex(0.0, 0.0));
        for (std::size_t kk = 0; kk < k; ++kk) {
            const Complex aik = arow[kk];
            if (aik == Complex(0.0, 0.0))
                continue;
            const Complex *brow = b + kk * m;
            for (std::size_t j = 0; j < m; ++j)
                orow[j] += aik * brow[j];
        }
    }
}

void
axpyScalar(Complex alpha, const Complex *x, Complex *y, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        y[i] += x[i] * alpha;
}

Complex
dotuScalar(const Complex *x, const Complex *y, std::size_t n)
{
    Complex t(0.0, 0.0);
    for (std::size_t i = 0; i < n; ++i)
        t += x[i] * y[i];
    return t;
}

#if !defined(PAQOC_HAVE_AVX2_KERNELS)

// Stubs keep the dispatch table total on builds without the AVX2
// translation unit (non-x86 hosts, compilers without -mavx2); the
// runtime check in avx2Available() guarantees they are unreachable.
void
gemmRowsAvx2(const Complex *a, const Complex *b, Complex *out,
             std::size_t k, std::size_t m, std::size_t row0,
             std::size_t row1)
{
    gemmRowsScalar(a, b, out, k, m, row0, row1);
}

void
axpyAvx2(Complex alpha, const Complex *x, Complex *y, std::size_t n)
{
    axpyScalar(alpha, x, y, n);
}

Complex
dotuAvx2(const Complex *x, const Complex *y, std::size_t n)
{
    return dotuScalar(x, y, n);
}

#endif // !PAQOC_HAVE_AVX2_KERNELS

} // namespace detail

void
gemmRows(const Complex *a, const Complex *b, Complex *out,
         std::size_t k, std::size_t m, std::size_t row0,
         std::size_t row1)
{
    if (loadBackend() == Backend::Avx2)
        detail::gemmRowsAvx2(a, b, out, k, m, row0, row1);
    else
        detail::gemmRowsScalar(a, b, out, k, m, row0, row1);
}

void
axpy(Complex alpha, const Complex *x, Complex *y, std::size_t n)
{
    if (loadBackend() == Backend::Avx2)
        detail::axpyAvx2(alpha, x, y, n);
    else
        detail::axpyScalar(alpha, x, y, n);
}

Complex
dotu(const Complex *x, const Complex *y, std::size_t n)
{
    if (loadBackend() == Backend::Avx2)
        return detail::dotuAvx2(x, y, n);
    return detail::dotuScalar(x, y, n);
}

Complex
traceRowMap(const Complex *r, const Complex *f, const std::size_t *col,
            const Complex *phase, std::size_t n)
{
    // Real arithmetic spelled out with std::complex's finite-multiply
    // roundings (re = ar*br - ai*bi, im = ar*bi + ai*br).
    double tr = 0.0, ti = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const Complex p = phase[i];
        if (p == Complex(0.0, 0.0))
            continue;
        const Complex *frow = f + col[i] * n;
        for (std::size_t j = 0; j < n; ++j) {
            const double fr = frow[j].real(), fi = frow[j].imag();
            const double hr = 0.0 + (p.real() * fr - p.imag() * fi);
            const double hi = 0.0 + (p.real() * fi + p.imag() * fr);
            const Complex x = r[j * n + i]; // transpose(R)[i][j]
            tr += x.real() * hr - x.imag() * hi;
            ti += x.real() * hi + x.imag() * hr;
        }
    }
    return Complex(tr, ti);
}

void
adjointInto(const Complex *a, Complex *out, std::size_t rows,
            std::size_t cols)
{
    for (std::size_t r = 0; r < rows; ++r)
        for (std::size_t c = 0; c < cols; ++c)
            out[c * rows + r] = std::conj(a[r * cols + c]);
}

void
transposeInto(const Complex *a, Complex *out, std::size_t rows,
              std::size_t cols)
{
    for (std::size_t r = 0; r < rows; ++r)
        for (std::size_t c = 0; c < cols; ++c)
            out[c * rows + r] = a[r * cols + c];
}

} // namespace kernels
} // namespace paqoc
