/**
 * @file
 * Unit and property tests for the dense complex linear algebra layer:
 * matrix arithmetic, linear solves, the Pade matrix exponential, the
 * Hermitian Jacobi eigensolver, and unitary utilities.
 */

#include <array>
#include <cmath>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"

#include "linalg/eig.h"
#include "linalg/expm.h"
#include "linalg/matrix.h"
#include "linalg/solve.h"
#include "linalg/unitary_util.h"

namespace paqoc {
namespace {

constexpr double kPi = 3.14159265358979323846;
const Complex kI(0.0, 1.0);

Matrix
randomMatrix(std::size_t n, Rng &rng)
{
    Matrix m(n, n);
    for (std::size_t r = 0; r < n; ++r)
        for (std::size_t c = 0; c < n; ++c)
            m(r, c) = Complex(rng.uniform(-1, 1), rng.uniform(-1, 1));
    return m;
}

Matrix
randomHermitian(std::size_t n, Rng &rng)
{
    Matrix m = randomMatrix(n, rng);
    Matrix h = m + m.adjoint();
    h *= Complex(0.5, 0.0);
    return h;
}

Matrix
randomUnitary(std::size_t n, Rng &rng)
{
    return expm(randomHermitian(n, rng) * Complex(0.0, -1.0));
}

TEST(Matrix, IdentityAndZero)
{
    const Matrix id = Matrix::identity(3);
    const Matrix z = Matrix::zero(3);
    EXPECT_EQ(id(0, 0), Complex(1.0, 0.0));
    EXPECT_EQ(id(0, 1), Complex(0.0, 0.0));
    EXPECT_DOUBLE_EQ(z.frobeniusNorm(), 0.0);
    EXPECT_TRUE((id * id).approxEqual(id));
}

TEST(Matrix, ArithmeticMatchesHandComputation)
{
    const Matrix a{{1.0, 2.0}, {3.0, 4.0}};
    const Matrix b{{0.0, 1.0}, {1.0, 0.0}};
    const Matrix sum = a + b;
    EXPECT_EQ(sum(0, 1), Complex(3.0, 0.0));
    const Matrix prod = a * b;
    EXPECT_EQ(prod(0, 0), Complex(2.0, 0.0));
    EXPECT_EQ(prod(0, 1), Complex(1.0, 0.0));
    EXPECT_EQ(prod(1, 0), Complex(4.0, 0.0));
    EXPECT_EQ(prod(1, 1), Complex(3.0, 0.0));
}

TEST(Matrix, AdjointConjugatesAndTransposes)
{
    const Matrix a{{Complex(1, 2), Complex(3, 4)},
                   {Complex(5, 6), Complex(7, 8)}};
    const Matrix ad = a.adjoint();
    EXPECT_EQ(ad(0, 1), Complex(5, -6));
    EXPECT_EQ(ad(1, 0), Complex(3, -4));
}

TEST(Matrix, TraceAndNorms)
{
    const Matrix a{{Complex(1, 0), Complex(0, 2)},
                   {Complex(0, 0), Complex(3, 0)}};
    EXPECT_EQ(a.trace(), Complex(4.0, 0.0));
    EXPECT_NEAR(a.frobeniusNorm(), std::sqrt(1.0 + 4.0 + 9.0), 1e-12);
    EXPECT_NEAR(a.infinityNorm(), 3.0, 1e-12);
    EXPECT_NEAR(a.maxAbs(), 3.0, 1e-12);
}

TEST(Matrix, KronMatchesPauliIdentity)
{
    const Matrix x{{0.0, 1.0}, {1.0, 0.0}};
    const Matrix id = Matrix::identity(2);
    const Matrix xi = kron(x, id);
    // X (x) I swaps the two-qubit basis blocks.
    EXPECT_EQ(xi(0, 2), Complex(1.0, 0.0));
    EXPECT_EQ(xi(1, 3), Complex(1.0, 0.0));
    EXPECT_EQ(xi(2, 0), Complex(1.0, 0.0));
    EXPECT_EQ(xi(0, 0), Complex(0.0, 0.0));
    EXPECT_EQ(xi.rows(), 4u);
}

TEST(Matrix, KronMixedProductProperty)
{
    Rng rng(11);
    const Matrix a = randomMatrix(2, rng), b = randomMatrix(3, rng);
    const Matrix c = randomMatrix(2, rng), d = randomMatrix(3, rng);
    const Matrix lhs = kron(a, b) * kron(c, d);
    const Matrix rhs = kron(a * c, b * d);
    EXPECT_TRUE(lhs.approxEqual(rhs, 1e-10));
}

TEST(Matrix, MatmulIntoRejectsAliasedOutput)
{
    Rng rng(51);
    Matrix a = randomMatrix(4, rng);
    Matrix b = randomMatrix(4, rng);
    EXPECT_THROW(matmulInto(a, b, a), InternalError);
    EXPECT_THROW(matmulInto(a, b, b), InternalError);
    Matrix out(4, 4);
    EXPECT_NO_THROW(matmulInto(a, b, out));
    EXPECT_TRUE(out.approxEqual(a * b, 1e-12));
}

TEST(Solve, RecoversKnownSolution)
{
    Rng rng(3);
    const Matrix a = randomMatrix(5, rng) + Matrix::identity(5) * 3.0;
    const Matrix x_true = randomMatrix(5, rng);
    const Matrix b = a * x_true;
    const Matrix x = solveLinear(a, b);
    EXPECT_TRUE(x.approxEqual(x_true, 1e-8));
}

TEST(Solve, InverseTimesSelfIsIdentity)
{
    Rng rng(4);
    const Matrix a = randomMatrix(6, rng) + Matrix::identity(6) * 2.0;
    EXPECT_TRUE((a * inverse(a)).approxEqual(Matrix::identity(6), 1e-8));
}

TEST(Solve, SingularMatrixThrows)
{
    Matrix a(2, 2); // all zeros
    EXPECT_THROW(solveLinear(a, Matrix::identity(2)), FatalError);
}

TEST(Solve, InPlaceVariantMatchesSolveLinear)
{
    Rng rng(52);
    const Matrix a = randomMatrix(5, rng) + Matrix::identity(5) * 3.0;
    const Matrix b = randomMatrix(5, rng);
    const Matrix ref = solveLinear(a, b);
    Matrix a2 = a, b2 = b, x;
    solveLinearInPlace(a2, b2, x);
    ASSERT_EQ(x.rows(), ref.rows());
    EXPECT_EQ(std::memcmp(x.data(), ref.data(),
                          x.rows() * x.cols() * sizeof(Complex)),
              0);
}

TEST(Expm, ZeroGivesIdentity)
{
    EXPECT_TRUE(expm(Matrix::zero(4)).approxEqual(Matrix::identity(4)));
}

TEST(Expm, DiagonalCase)
{
    Matrix a(2, 2);
    a(0, 0) = Complex(1.0, 0.0);
    a(1, 1) = Complex(0.0, kPi);
    const Matrix e = expm(a);
    EXPECT_NEAR(std::abs(e(0, 0) - Complex(std::exp(1.0), 0.0)), 0.0, 1e-10);
    EXPECT_NEAR(std::abs(e(1, 1) - Complex(-1.0, 0.0)), 0.0, 1e-10);
    EXPECT_NEAR(std::abs(e(0, 1)), 0.0, 1e-12);
}

TEST(Expm, PauliXRotation)
{
    // exp(-i theta/2 X) = cos(theta/2) I - i sin(theta/2) X.
    const Matrix x{{0.0, 1.0}, {1.0, 0.0}};
    const double theta = 0.7;
    const Matrix u = expmPropagator(x, theta / 2.0);
    EXPECT_NEAR(u(0, 0).real(), std::cos(theta / 2.0), 1e-10);
    EXPECT_NEAR(u(0, 1).imag(), -std::sin(theta / 2.0), 1e-10);
}

TEST(Expm, HermitianGeneratorGivesUnitary)
{
    Rng rng(21);
    for (int trial = 0; trial < 5; ++trial) {
        const Matrix h = randomHermitian(8, rng);
        EXPECT_TRUE(expmPropagator(h, 1.7).isUnitary(1e-8));
    }
}

TEST(Expm, AdditivityForCommutingArguments)
{
    Rng rng(5);
    const Matrix h = randomHermitian(4, rng);
    const Matrix a = expmPropagator(h, 0.3);
    const Matrix b = expmPropagator(h, 0.5);
    const Matrix ab = expmPropagator(h, 0.8);
    EXPECT_TRUE((a * b).approxEqual(ab, 1e-9));
}

TEST(Expm, LargeNormScalingPath)
{
    Rng rng(6);
    Matrix h = randomHermitian(3, rng);
    h *= Complex(40.0, 0.0);
    // Result of exponentiating a scaled Hermitian must still be unitary.
    EXPECT_TRUE(expmPropagator(h, 1.0).isUnitary(1e-7));
}

TEST(Expm, ZeroMatrixDoesNotClampSquarings)
{
    const std::uint64_t before = expmSquaringClampCount();
    EXPECT_TRUE(
        expm(Matrix::zero(4)).approxEqual(Matrix::identity(4)));
    EXPECT_EQ(expmSquaringClampCount(), before);
}

TEST(Expm, HugeNormClampsSquaringsAndCounts)
{
    // Norm far above 0.5 * 2^40 forces the squaring-count clamp: the
    // result is still produced (no throw, finite shape) but the event
    // is counted so callers can see the accuracy contract was broken.
    Matrix h(2, 2);
    h(0, 0) = Complex(0.0, 1e13);
    h(1, 1) = Complex(0.0, -1e13);
    const std::uint64_t before = expmSquaringClampCount();
    const Matrix e = expm(h);
    EXPECT_EQ(e.rows(), 2u);
    EXPECT_GE(expmSquaringClampCount(), before + 1);
    // Every clamped call counts; only the first prints a diagnostic.
    const std::uint64_t mid = expmSquaringClampCount();
    (void)expm(h);
    EXPECT_GE(expmSquaringClampCount(), mid + 1);
}

TEST(Expm, IntoVariantsMatchAllocatingVariants)
{
    Rng rng(61);
    const Matrix h = randomHermitian(6, rng);
    ExpmWorkspace ws;
    Matrix out;
    expmInto(h, out, ws);
    const Matrix ref = expm(h);
    ASSERT_EQ(out.rows(), ref.rows());
    EXPECT_EQ(std::memcmp(out.data(), ref.data(),
                          out.rows() * out.cols() * sizeof(Complex)),
              0);
    // Workspace reuse across a different call must not leak state.
    Matrix prop;
    expmPropagatorInto(h, 0.37, prop, ws);
    const Matrix pref = expmPropagator(h, 0.37);
    EXPECT_EQ(std::memcmp(prop.data(), pref.data(),
                          prop.rows() * prop.cols() * sizeof(Complex)),
              0);
}

TEST(Eig, DiagonalMatrixRecovered)
{
    Matrix a(3, 3);
    a(0, 0) = 3.0;
    a(1, 1) = -1.0;
    a(2, 2) = 2.0;
    const EigenResult e = hermitianEigen(a);
    ASSERT_EQ(e.values.size(), 3u);
    EXPECT_NEAR(e.values[0], -1.0, 1e-10);
    EXPECT_NEAR(e.values[1], 2.0, 1e-10);
    EXPECT_NEAR(e.values[2], 3.0, 1e-10);
}

TEST(Eig, PauliYEigenvalues)
{
    const Matrix y{{Complex(0, 0), Complex(0, -1)},
                   {Complex(0, 1), Complex(0, 0)}};
    const EigenResult e = hermitianEigen(y);
    EXPECT_NEAR(e.values[0], -1.0, 1e-10);
    EXPECT_NEAR(e.values[1], 1.0, 1e-10);
}

class EigProperty : public ::testing::TestWithParam<int> {};

TEST_P(EigProperty, ReconstructsInputAndIsUnitary)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()));
    const std::size_t n = 2 + GetParam() % 7;
    const Matrix a = randomHermitian(n, rng);
    const EigenResult e = hermitianEigen(a);
    EXPECT_TRUE(e.vectors.isUnitary(1e-8));
    Matrix d(n, n);
    for (std::size_t i = 0; i < n; ++i)
        d(i, i) = Complex(e.values[i], 0.0);
    const Matrix rebuilt = e.vectors * d * e.vectors.adjoint();
    EXPECT_TRUE(rebuilt.approxEqual(a, 1e-8));
    for (std::size_t i = 0; i + 1 < n; ++i)
        EXPECT_LE(e.values[i], e.values[i + 1] + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(RandomHermitians, EigProperty,
                         ::testing::Range(0, 12));

TEST(UnitaryUtil, EigenphasesOfPauliZ)
{
    Matrix z(2, 2);
    z(0, 0) = 1.0;
    z(1, 1) = -1.0;
    std::vector<double> phases = unitaryEigenphases(z);
    std::sort(phases.begin(), phases.end());
    EXPECT_NEAR(phases[0], 0.0, 1e-8);
    EXPECT_NEAR(std::abs(phases[1]), kPi, 1e-8);
}

TEST(UnitaryUtil, EigenphasesOfDegenerateSpectrum)
{
    // diag(i, i, -i, -i): heavy degeneracy exercises the retry path.
    Matrix u(4, 4);
    u(0, 0) = kI;
    u(1, 1) = kI;
    u(2, 2) = -kI;
    u(3, 3) = -kI;
    std::vector<double> phases = unitaryEigenphases(u);
    std::sort(phases.begin(), phases.end());
    EXPECT_NEAR(phases[0], -kPi / 2, 1e-7);
    EXPECT_NEAR(phases[3], kPi / 2, 1e-7);
}

TEST(UnitaryUtil, SpectralPhaseNormIdentityIsZero)
{
    EXPECT_NEAR(spectralPhaseNorm(Matrix::identity(4)), 0.0, 1e-8);
}

TEST(UnitaryUtil, SpectralPhaseNormIsGlobalPhaseInvariant)
{
    Rng rng(31);
    const Matrix u = randomUnitary(4, rng);
    const Matrix v = u * std::exp(kI * 1.234);
    EXPECT_NEAR(spectralPhaseNorm(u), spectralPhaseNorm(v), 1e-6);
}

TEST(UnitaryUtil, SpectralPhaseNormOfZIsHalfPi)
{
    // Z = diag(1, -1) ~ global phase e^{-i pi/2} diag(e^{i pi/2},
    // e^{-i pi/2}); the best centering leaves max |phase| = pi/2.
    Matrix z(2, 2);
    z(0, 0) = 1.0;
    z(1, 1) = -1.0;
    EXPECT_NEAR(spectralPhaseNorm(z), kPi / 2, 1e-7);
}

class PhaseNormSubadditive : public ::testing::TestWithParam<int> {};

TEST_P(PhaseNormSubadditive, ProductBoundedBySum)
{
    // The quantum-speed-limit proxy behind Observation 1: the norm of a
    // product never exceeds the sum of the norms (up to numerical slop).
    Rng rng(100 + static_cast<std::uint64_t>(GetParam()));
    const Matrix u = randomUnitary(4, rng);
    const Matrix v = randomUnitary(4, rng);
    EXPECT_LE(spectralPhaseNorm(u * v),
              spectralPhaseNorm(u) + spectralPhaseNorm(v) + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(RandomPairs, PhaseNormSubadditive,
                         ::testing::Range(0, 10));

TEST(UnitaryUtil, TraceFidelityBounds)
{
    Rng rng(41);
    const Matrix u = randomUnitary(4, rng);
    EXPECT_NEAR(traceFidelity(u, u), 1.0, 1e-10);
    const Matrix v = randomUnitary(4, rng);
    const double f = traceFidelity(u, v);
    EXPECT_GE(f, 0.0);
    EXPECT_LE(f, 1.0 + 1e-12);
}

TEST(UnitaryUtil, PhaseInvariantDistanceIgnoresGlobalPhase)
{
    Rng rng(43);
    const Matrix u = randomUnitary(3, rng);
    const Matrix v = u * std::exp(kI * 0.77);
    EXPECT_NEAR(phaseInvariantDistance(u, v), 0.0, 1e-7);
    EXPECT_TRUE(equalUpToGlobalPhase(u, v));
}

TEST(UnitaryUtil, DistinctUnitariesAreDistant)
{
    const Matrix x{{0.0, 1.0}, {1.0, 0.0}};
    EXPECT_FALSE(equalUpToGlobalPhase(x, Matrix::identity(2)));
    EXPECT_GT(phaseInvariantDistance(x, Matrix::identity(2)), 0.5);
}

TEST(UnitaryUtil, ConcurrentFirstPauliSplitNormsAgree)
{
    // The first pauliSplitNorms calls of a process build the Pauli
    // tables; a daemon serving clients right after start-up makes them
    // concurrently. Every thread must see fully built tables and get
    // the serial answer (the TSan lane also checks for a data race).
    Rng rng(2024);
    std::vector<Matrix> targets; // targets[n - 1] acts on n qubits
    for (int n = 1; n <= 4; ++n)
        targets.push_back(randomUnitary(std::size_t{1} << n, rng));
    const auto norms = [&](int n) {
        const PauliSplitNorms r =
            pauliSplitNorms(targets[static_cast<std::size_t>(n - 1)], n);
        return std::vector<double>{r.localNorm, r.entanglingNorm,
                                   r.adjacentPairNorm, r.hardNorm};
    };
    // Each thread starts at a different width, so the first touches
    // of every table overlap.
    constexpr int kThreads = 4;
    std::vector<std::vector<std::vector<double>>> got(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t]() {
            for (int k = 0; k < 4; ++k)
                got[static_cast<std::size_t>(t)].push_back(
                    norms(1 + (t + k) % 4));
        });
    for (std::thread &th : threads)
        th.join();
    for (int t = 0; t < kThreads; ++t)
        for (int k = 0; k < 4; ++k)
            EXPECT_EQ(got[static_cast<std::size_t>(t)]
                         [static_cast<std::size_t>(k)],
                      norms(1 + (t + k) % 4))
                << "thread " << t << ", call " << k;
}

Matrix
pauliTwo(char p, char q)
{
    const auto one = [](char c) {
        if (c == 'x')
            return Matrix{{0.0, 1.0}, {1.0, 0.0}};
        if (c == 'y')
            return Matrix{{0.0, -kI}, {kI, 0.0}};
        return Matrix{{1.0, 0.0}, {0.0, -1.0}};
    };
    return kron(one(p), one(q));
}

/** exp(i (c1 XX + c2 YY + c3 ZZ)). */
Matrix
canonicalGate(double c1, double c2, double c3)
{
    const Matrix h = pauliTwo('x', 'x') * Complex(c1, 0.0)
        + pauliTwo('y', 'y') * Complex(c2, 0.0)
        + pauliTwo('z', 'z') * Complex(c3, 0.0);
    return expm(h * kI);
}

Matrix
randomLocal(Rng &rng)
{
    return kron(randomUnitary(2, rng), randomUnitary(2, rng));
}

const Matrix kSwap{{1.0, 0.0, 0.0, 0.0},
                   {0.0, 0.0, 1.0, 0.0},
                   {0.0, 1.0, 0.0, 0.0},
                   {0.0, 0.0, 0.0, 1.0}};

/**
 * `got` is the chamber point `want`: pi/4 >= c1 >= c2 >= |c3|, and on
 * the face c1 = pi/4, where (pi/4, c2, c3) ~ (pi/4, c2, -c3), only
 * |c3| is determined.
 */
void
expectWeyl(const std::array<double, 3> &got,
           const std::array<double, 3> &want, const std::string &what)
{
    constexpr double kTol = 1e-9;
    EXPECT_NEAR(got[0], want[0], kTol) << what;
    EXPECT_NEAR(got[1], want[1], kTol) << what;
    if (std::abs(want[0] - kPi / 4) < kTol) {
        EXPECT_NEAR(std::abs(got[2]), std::abs(want[2]), kTol) << what;
    } else {
        EXPECT_NEAR(got[2], want[2], kTol) << what;
    }
    EXPECT_LE(got[0], kPi / 4 + kTol) << what;
    EXPECT_GE(got[0] + kTol, got[1]) << what;
    EXPECT_GE(got[1] + kTol, std::abs(got[2])) << what;
}

TEST(WeylCoordinates, NamedGatesUnderRandomLocals)
{
    const Matrix cx{{1.0, 0.0, 0.0, 0.0},
                    {0.0, 1.0, 0.0, 0.0},
                    {0.0, 0.0, 0.0, 1.0},
                    {0.0, 0.0, 1.0, 0.0}};
    const Matrix cz{{1.0, 0.0, 0.0, 0.0},
                    {0.0, 1.0, 0.0, 0.0},
                    {0.0, 0.0, 1.0, 0.0},
                    {0.0, 0.0, 0.0, -1.0}};
    const Matrix iswap{{1.0, 0.0, 0.0, 0.0},
                       {0.0, 0.0, kI, 0.0},
                       {0.0, kI, 0.0, 0.0},
                       {0.0, 0.0, 0.0, 1.0}};
    const Complex p(0.5, 0.5), m(0.5, -0.5);
    const Matrix sqrt_swap{{1.0, 0.0, 0.0, 0.0},
                           {0.0, p, m, 0.0},
                           {0.0, m, p, 0.0},
                           {0.0, 0.0, 0.0, 1.0}};
    const double q = kPi / 4, e = kPi / 8;
    const std::vector<std::pair<std::string, std::pair<Matrix,
                                                       std::array<double, 3>>>>
        gates = {
            {"cx", {cx, {q, 0.0, 0.0}}},
            {"cz", {cz, {q, 0.0, 0.0}}},
            {"iswap", {iswap, {q, q, 0.0}}},
            {"swap", {kSwap, {q, q, q}}},
            {"sqrt-swap", {sqrt_swap, {e, e, -e}}},
            {"identity", {Matrix::identity(4), {0.0, 0.0, 0.0}}},
        };
    Rng rng(71);
    for (const auto &[name, gate] : gates) {
        expectWeyl(weylCoordinates(gate.first), gate.second, name);
        for (int i = 0; i < 10; ++i) {
            const Matrix dressed =
                randomLocal(rng) * gate.first * randomLocal(rng)
                * std::exp(kI * rng.uniform(-kPi, kPi));
            expectWeyl(weylCoordinates(dressed), gate.second,
                       name + " dressed " + std::to_string(i));
        }
    }
}

TEST(WeylCoordinates, RandomChamberPointsIncludingFaces)
{
    // k1 Can(c) k2 over the chamber, every fourth draw on one of its
    // faces (c3 = 0, c1 = c2, c1 = pi/4), and each draw's
    // qubit-swapped conjugate.
    Rng rng(72);
    for (int i = 0; i < 240; ++i) {
        double c1 = rng.uniform(0, kPi / 4);
        double c2 = rng.uniform(0, c1);
        double c3 = rng.uniform(-c2, c2);
        switch (i % 8) {
          case 1:
            c3 = 0.0;
            break;
          case 3:
            c2 = c1;
            break;
          case 5:
            c1 = kPi / 4;
            break;
          case 7:
            c1 = c2 = kPi / 4;
            c3 = rng.uniform(-c2, c2);
            break;
          default:
            break;
        }
        const std::array<double, 3> want{c1, c2, c3};
        const Matrix u =
            randomLocal(rng) * canonicalGate(c1, c2, c3) * randomLocal(rng);
        expectWeyl(weylCoordinates(u), want,
                   "draw " + std::to_string(i));
        expectWeyl(weylCoordinates(kSwap * u * kSwap), want,
                   "swapped draw " + std::to_string(i));
    }
}

TEST(WeylCoordinates, RejectsOtherShapes)
{
    EXPECT_THROW(weylCoordinates(Matrix::identity(2)), FatalError);
}

} // namespace
} // namespace paqoc
