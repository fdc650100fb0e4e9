/**
 * @file
 * Tests of the runtime-dispatched kernel layer (DESIGN.md §11):
 * backend selection and naming, and the bit-identity contract between
 * the scalar reference kernels and the vectorized backends across
 * randomized shapes -- including dimensions that are not a multiple of
 * the vector width -- and across thread counts. The GRAPE loop's
 * shortcuts (the fused control trace, the bound-first squaring
 * decision, the spelled-out elimination) are each checked bit for bit
 * against the formulation they replace.
 */

#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "linalg/expm.h"
#include "linalg/kernels.h"
#include "linalg/matrix.h"
#include "linalg/solve.h"
#include "qoc/device.h"

namespace paqoc {
namespace {

std::vector<Complex>
randomVec(std::size_t n, Rng &rng)
{
    std::vector<Complex> v(n);
    for (Complex &c : v)
        c = Complex(rng.uniform(-1, 1), rng.uniform(-1, 1));
    return v;
}

Matrix
randomMatrix(std::size_t n, Rng &rng)
{
    Matrix m(n, n);
    for (std::size_t r = 0; r < n; ++r)
        for (std::size_t c = 0; c < n; ++c)
            m(r, c) = Complex(rng.uniform(-1, 1), rng.uniform(-1, 1));
    return m;
}

/** Random entries, about a third of the components exactly +0 or -0. */
Matrix
randomMatrixWithZeros(std::size_t n, Rng &rng)
{
    const auto component = [&rng]() {
        const double pick = rng.uniform(0, 1);
        if (pick < 0.2)
            return 0.0;
        if (pick < 0.33)
            return -0.0;
        return rng.uniform(-1, 1);
    };
    Matrix m(n, n);
    for (std::size_t r = 0; r < n; ++r)
        for (std::size_t c = 0; c < n; ++c) {
            const double re = component();
            m(r, c) = Complex(re, component());
        }
    return m;
}

bool
bitIdentical(Complex a, Complex b)
{
    return std::memcmp(&a, &b, sizeof(Complex)) == 0;
}

bool
bitIdentical(const Matrix &a, const Matrix &b)
{
    return a.rows() == b.rows() && a.cols() == b.cols()
        && std::memcmp(a.data(), b.data(),
                       a.rows() * a.cols() * sizeof(Complex))
        == 0;
}

/** RAII guard restoring the backend installed at scope entry. */
class BackendGuard
{
  public:
    BackendGuard() : entry_(kernels::activeBackend()) {}
    ~BackendGuard() { kernels::setBackend(entry_); }

  private:
    kernels::Backend entry_;
};

TEST(KernelDispatch, BackendNamesAreStable)
{
    EXPECT_STREQ(kernels::backendName(kernels::Backend::Scalar),
                 "scalar");
    EXPECT_STREQ(kernels::backendName(kernels::Backend::Avx2),
                 "avx2");
}

TEST(KernelDispatch, SetBackendByNameParsesAndRejects)
{
    BackendGuard guard;
    EXPECT_TRUE(kernels::setBackendByName("scalar"));
    EXPECT_EQ(kernels::activeBackend(), kernels::Backend::Scalar);
    // Unknown names are rejected without disturbing the state.
    EXPECT_FALSE(kernels::setBackendByName("sse9"));
    EXPECT_FALSE(kernels::setBackendByName("AVX2"));
    EXPECT_EQ(kernels::activeBackend(), kernels::Backend::Scalar);
    EXPECT_TRUE(kernels::setBackendByName("auto"));
}

TEST(KernelDispatch, UnavailableBackendDegradesToScalar)
{
    BackendGuard guard;
    const kernels::Backend got =
        kernels::setBackend(kernels::Backend::Avx2);
    if (kernels::avx2Available())
        EXPECT_EQ(got, kernels::Backend::Avx2);
    else
        EXPECT_EQ(got, kernels::Backend::Scalar);
    EXPECT_EQ(kernels::activeBackend(), got);
}

TEST(KernelBitIdentity, GemmScalarVsAvx2RandomShapes)
{
    if (!kernels::avx2Available())
        GTEST_SKIP() << "no AVX2 backend in this build/host";
    Rng rng(101);
    // Shapes straddle the 4-, 2- and 1-column vector tails.
    const std::size_t ns[] = {1, 2, 3, 5, 8, 13};
    const std::size_t ks[] = {1, 3, 4, 7};
    const std::size_t ms[] = {1, 2, 3, 4, 5, 9, 16, 17};
    for (std::size_t n : ns) {
        for (std::size_t k : ks) {
            for (std::size_t m : ms) {
                const auto a = randomVec(n * k, rng);
                const auto b = randomVec(k * m, rng);
                std::vector<Complex> ref(n * m), simd(n * m);
                kernels::detail::gemmRowsScalar(
                    a.data(), b.data(), ref.data(), k, m, 0, n);
                kernels::detail::gemmRowsAvx2(
                    a.data(), b.data(), simd.data(), k, m, 0, n);
                ASSERT_EQ(std::memcmp(ref.data(), simd.data(),
                                      n * m * sizeof(Complex)),
                          0)
                    << "n=" << n << " k=" << k << " m=" << m;
            }
        }
    }
}

TEST(KernelBitIdentity, GemmExactZeroSkipPathMatches)
{
    if (!kernels::avx2Available())
        GTEST_SKIP() << "no AVX2 backend in this build/host";
    Rng rng(102);
    constexpr std::size_t n = 6, k = 6, m = 6;
    auto a = randomVec(n * k, rng);
    const auto b = randomVec(k * m, rng);
    // Both backends must skip exact-zero a(i,k) terms identically.
    for (std::size_t i = 0; i < a.size(); i += 3)
        a[i] = Complex(0.0, 0.0);
    std::vector<Complex> ref(n * m), simd(n * m);
    kernels::detail::gemmRowsScalar(a.data(), b.data(), ref.data(), k,
                                    m, 0, n);
    kernels::detail::gemmRowsAvx2(a.data(), b.data(), simd.data(), k,
                                  m, 0, n);
    EXPECT_EQ(
        std::memcmp(ref.data(), simd.data(), n * m * sizeof(Complex)),
        0);
}

TEST(KernelBitIdentity, DotuAndAxpyAllSmallLengths)
{
    if (!kernels::avx2Available())
        GTEST_SKIP() << "no AVX2 backend in this build/host";
    Rng rng(103);
    for (std::size_t n = 1; n <= 35; ++n) {
        const auto x = randomVec(n, rng);
        const auto y = randomVec(n, rng);
        const Complex ds =
            kernels::detail::dotuScalar(x.data(), y.data(), n);
        const Complex dv =
            kernels::detail::dotuAvx2(x.data(), y.data(), n);
        ASSERT_EQ(std::memcmp(&ds, &dv, sizeof(Complex)), 0)
            << "dotu n=" << n;
        const Complex alpha(0.37, -1.25);
        std::vector<Complex> ys = y, yv = y;
        kernels::detail::axpyScalar(alpha, x.data(), ys.data(), n);
        kernels::detail::axpyAvx2(alpha, x.data(), yv.data(), n);
        ASSERT_EQ(std::memcmp(ys.data(), yv.data(),
                              n * sizeof(Complex)),
                  0)
            << "axpy n=" << n;
    }
}

TEST(KernelBitIdentity, MatmulAcrossBackendsAndThreadCounts)
{
    BackendGuard guard;
    const unsigned entry_threads = ThreadPool::global().size();
    Rng rng(104);
    // 80x80 goes through the cache-blocked, pooled matmulInto path.
    const Matrix a = randomMatrix(80, rng);
    const Matrix b = randomMatrix(80, rng);
    std::vector<Matrix> results;
    for (const kernels::Backend backend :
         {kernels::Backend::Scalar, kernels::Backend::Avx2}) {
        kernels::setBackend(backend);
        for (const unsigned threads : {1u, 8u}) {
            ThreadPool::setGlobalThreads(threads);
            Matrix out(80, 80);
            matmulInto(a, b, out);
            results.push_back(out);
        }
    }
    ThreadPool::setGlobalThreads(entry_threads);
    for (std::size_t i = 1; i < results.size(); ++i)
        EXPECT_TRUE(bitIdentical(results[0], results[i]))
            << "variant " << i;
}

TEST(KernelBitIdentity, ExpmPropagatorAcrossBackends)
{
    BackendGuard guard;
    Rng rng(105);
    Matrix m = randomMatrix(8, rng);
    Matrix h = m + m.adjoint();
    h *= Complex(0.5, 0.0);
    kernels::setBackend(kernels::Backend::Scalar);
    const Matrix u_scalar = expmPropagator(h, 1.3);
    kernels::setBackend(kernels::Backend::Avx2);
    const Matrix u_simd = expmPropagator(h, 1.3);
    EXPECT_TRUE(bitIdentical(u_scalar, u_simd));
}

TEST(KernelBitIdentity, TraceRowMapMatchesDenseControlTrace)
{
    // GRAPE's gradient reads Tr(R H_k F) through the control's row
    // map; it must equal dotu(R^T, H_k F) bit for bit, on both
    // backends, for every control the device builds.
    BackendGuard guard;
    Rng rng(106);
    for (int qubits = 1; qubits <= 3; ++qubits) {
        const DeviceModel device(qubits);
        const std::size_t n = device.dim();
        for (int trial = 0; trial < 25; ++trial) {
            const Matrix r = randomMatrixWithZeros(n, rng);
            const Matrix f = randomMatrixWithZeros(n, rng);
            const Matrix r_t = r.transpose();
            for (std::size_t k = 0; k < device.numControls(); ++k) {
                const ControlRowMap &map = device.controlRowMap(k);
                const Complex fused = kernels::traceRowMap(
                    r.data(), f.data(), map.column.data(),
                    map.phase.data(), n);
                for (const kernels::Backend backend :
                     {kernels::Backend::Scalar, kernels::Backend::Avx2}) {
                    kernels::setBackend(backend);
                    Matrix hf(n, n);
                    matmulInto(device.control(k), f, hf);
                    const Complex dense =
                        kernels::dotu(r_t.data(), hf.data(), n * n);
                    EXPECT_TRUE(bitIdentical(fused, dense))
                        << device.controlName(k) << " on " << qubits
                        << " qubits, trial " << trial << ": " << fused
                        << " vs " << dense;
                }
            }
        }
    }
}

/** solveLinearInPlace as first written, std::complex arithmetic. */
void
referenceSolve(Matrix &a, Matrix &b, Matrix &x)
{
    const std::size_t n = a.rows();
    const std::size_t m = b.cols();
    for (std::size_t col = 0; col < n; ++col) {
        std::size_t pivot = col;
        double best = std::abs(a(col, col));
        for (std::size_t r = col + 1; r < n; ++r) {
            const double v = std::abs(a(r, col));
            if (v > best) {
                best = v;
                pivot = r;
            }
        }
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
            for (std::size_t c = col; c < n; ++c)
                a(r, c) -= f * a(col, c);
            for (std::size_t c = 0; c < m; ++c)
                b(r, c) -= f * b(col, c);
        }
    }
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

TEST(KernelBitIdentity, EliminationMatchesComplexArithmetic)
{
    Rng rng(107);
    for (std::size_t n = 2; n <= 8; ++n) {
        for (std::size_t m = 1; m <= 8; ++m) {
            Matrix a = randomMatrixWithZeros(n, rng);
            // A small diagonal forces a row swap at every column.
            for (std::size_t i = 0; i < n; ++i)
                a(i, i) = Complex(1e-3, 0.0) + a(i, i) * 1e-3;
            Matrix b(n, m);
            for (std::size_t r = 0; r < n; ++r)
                for (std::size_t c = 0; c < m; ++c)
                    b(r, c) = Complex(rng.uniform(-1, 1), -0.0);
            Matrix a_ref = a, b_ref = b, x_ref, x;
            referenceSolve(a_ref, b_ref, x_ref);
            solveLinearInPlace(a, b, x);
            EXPECT_TRUE(bitIdentical(x, x_ref)) << n << "x" << m;
            EXPECT_TRUE(bitIdentical(a, a_ref)) << n << "x" << m;
        }
    }
}

/**
 * expmPropagatorInto as first written: the hypot norm always, fresh
 * zeroed buffers, the result copied out.
 */
Matrix
referencePropagator(const Matrix &h, double dt)
{
    constexpr double kPade6[] = {
        1.0, 0.5, 5.0 / 44.0, 1.0 / 66.0, 1.0 / 792.0, 1.0 / 15840.0,
        1.0 / 665280.0,
    };
    const std::size_t n = h.rows();
    Matrix as(n, n);
    for (std::size_t i = 0; i < n * n; ++i)
        as.data()[i] = h.data()[i] * Complex(0.0, -dt);
    const double norm = as.infinityNorm();
    int squarings = 0;
    if (norm > 0.5)
        squarings = std::min(
            40, static_cast<int>(std::ceil(std::log2(norm / 0.5))));
    as *= Complex(std::pow(2.0, -squarings), 0.0);
    Matrix a2(n, n);
    matmulInto(as, as, a2);
    Matrix even(n, n), odd(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        even(i, i) = Complex(kPade6[0], 0.0);
        odd(i, i) = Complex(kPade6[1], 0.0);
    }
    Matrix pow = Matrix::identity(n), tmp(n, n);
    for (int k = 1; k <= 3; ++k) {
        matmulInto(pow, a2, tmp);
        std::swap(pow, tmp);
        kernels::axpy(Complex(kPade6[2 * k], 0.0), pow.data(),
                      even.data(), n * n);
        if (2 * k + 1 <= 6)
            kernels::axpy(Complex(kPade6[2 * k + 1], 0.0), pow.data(),
                          odd.data(), n * n);
    }
    Matrix u(n, n);
    matmulInto(as, odd, u);
    Matrix q = even;
    q -= u;
    even += u;
    Matrix r;
    referenceSolve(q, even, r);
    for (int s = 0; s < squarings; ++s) {
        Matrix sq(n, n);
        matmulInto(r, r, sq);
        r = sq;
    }
    return r;
}

TEST(KernelBitIdentity, ExpmPropagatorMatchesNormPath)
{
    // Argument norms on both sides of 0.5, where squaring starts, and
    // GRAPE slice Hamiltonians; one warm workspace across all calls,
    // with the output reused too, on both backends.
    BackendGuard guard;
    Rng rng(108);
    std::vector<Matrix> hs;
    for (std::size_t n : {2, 4, 8}) {
        for (double norm : {0.05, 0.3, 0.45, 0.4999, 0.5, 0.5001, 0.55,
                            0.9, 3.0, 40.0}) {
            Matrix m = randomMatrixWithZeros(n, rng);
            Matrix h = m + m.adjoint();
            h *= Complex(norm / h.infinityNorm(), 0.0);
            hs.push_back(std::move(h));
        }
    }
    const DeviceModel device(3);
    for (int slice = 0; slice < 20; ++slice) {
        std::vector<double> amps(device.numControls());
        for (std::size_t k = 0; k < amps.size(); ++k)
            amps[k] = device.bound(k) * rng.uniform(-1, 1);
        hs.push_back(device.sliceHamiltonian(amps));
    }
    for (const kernels::Backend backend :
         {kernels::Backend::Scalar, kernels::Backend::Avx2}) {
        kernels::setBackend(backend);
        ExpmWorkspace ws;
        Matrix out;
        for (std::size_t i = 0; i < hs.size(); ++i) {
            expmPropagatorInto(hs[i], 1.0, out, ws);
            EXPECT_TRUE(bitIdentical(out, referencePropagator(hs[i], 1.0)))
                << "case " << i << " on "
                << kernels::backendName(kernels::activeBackend());
        }
    }
}

} // namespace
} // namespace paqoc
