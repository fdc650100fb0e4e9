#include "linalg/unitary_util.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/error.h"
#include "linalg/eig.h"

namespace paqoc {

namespace {

constexpr double kPi = 3.14159265358979323846;

/** Wrap an angle into (-pi, pi]. */
double
wrapAngle(double theta)
{
    while (theta > kPi)
        theta -= 2.0 * kPi;
    while (theta <= -kPi)
        theta += 2.0 * kPi;
    return theta;
}

} // namespace

namespace {

/** Eigenbasis of a unitary: U = V diag(e^{i phases}) V^dagger. */
struct UnitaryEigen
{
    Matrix vectors;
    std::vector<double> phases;
};

UnitaryEigen
diagonalizeUnitary(const Matrix &u)
{
    PAQOC_ASSERT(u.isSquare(), "eigenphases of non-square matrix");
    const std::size_t n = u.rows();
    const Matrix udag = u.adjoint();

    // U is normal, so Re(U) = (U + U^dag)/2 and Im(U) = (U - U^dag)/(2i)
    // are commuting Hermitian matrices. A generic real combination
    // A + c B has simple spectrum with probability one, so its
    // eigenvectors diagonalize both -- and hence U itself.
    Matrix a = u;
    a += udag;
    a *= Complex(0.5, 0.0);
    Matrix b = u;
    b -= udag;
    b *= Complex(0.0, -0.5);

    const double cs[] = {0.6180339887498949, 0.3141592653589793,
                         1.7320508075688772};
    for (double c : cs) {
        Matrix m = a;
        Matrix cb = b;
        cb *= Complex(c, 0.0);
        m += cb;
        EigenResult eig = hermitianEigen(m);

        // Verify the candidate basis actually diagonalizes U.
        const Matrix d = eig.vectors.adjoint() * u * eig.vectors;
        double off = 0.0;
        for (std::size_t r = 0; r < n; ++r)
            for (std::size_t col = 0; col < n; ++col)
                if (r != col)
                    off = std::max(off, std::abs(d(r, col)));
        if (off > 1e-6)
            continue; // degenerate collision; retry with the next c

        UnitaryEigen result;
        result.phases.resize(n);
        for (std::size_t i = 0; i < n; ++i)
            result.phases[i] = std::atan2(d(i, i).imag(),
                                          d(i, i).real());
        result.vectors = std::move(eig.vectors);
        return result;
    }
    throw InternalError("diagonalizeUnitary: could not split spectrum");
}

/**
 * Global phase that centers the given eigenphases: the midpoint of
 * the minimal enclosing arc on the unit circle.
 */
double
centeringPhase(std::vector<double> phases)
{
    if (phases.empty())
        return 0.0;
    std::sort(phases.begin(), phases.end());
    const std::size_t n = phases.size();
    double max_gap = phases.front() + 2.0 * kPi - phases.back();
    std::size_t gap_at = 0; // gap precedes phases[gap_at]
    for (std::size_t i = 1; i < n; ++i) {
        const double gap = phases[i] - phases[i - 1];
        if (gap > max_gap) {
            max_gap = gap;
            gap_at = i;
        }
    }
    // The occupied arc starts just after the largest gap.
    const double arc_start = phases[gap_at];
    const double arc = 2.0 * kPi - max_gap;
    return wrapAngle(arc_start + arc * 0.5);
}

} // namespace

std::vector<double>
unitaryEigenphases(const Matrix &u)
{
    return diagonalizeUnitary(u).phases;
}

double
spectralPhaseNorm(const Matrix &u)
{
    std::vector<double> phases = unitaryEigenphases(u);
    std::sort(phases.begin(), phases.end());
    const std::size_t n = phases.size();
    if (n == 0)
        return 0.0;

    // The minimal enclosing arc of the phase set on the circle is
    // 2*pi minus the largest gap between circularly consecutive phases;
    // centering the global phase in that arc gives max |wrapped| equal
    // to half of the arc length.
    double max_gap = phases.front() + 2.0 * kPi - phases.back();
    for (std::size_t i = 1; i < n; ++i)
        max_gap = std::max(max_gap, phases[i] - phases[i - 1]);
    const double arc = 2.0 * kPi - max_gap;
    return std::max(arc * 0.5, 0.0);
}

namespace {

/** All n-qubit Pauli strings with their weights, cached per n. */
struct PauliBasis
{
    std::vector<Matrix> strings;
    std::vector<int> weights;
    /** Bitmask of the qubits each string acts on non-trivially. */
    std::vector<unsigned> supports;
};

PauliBasis
buildPauliBasis(int num_qubits)
{
    const Matrix paulis[4] = {
        Matrix::identity(2),
        Matrix{{0.0, 1.0}, {1.0, 0.0}},
        Matrix{{Complex(0, 0), Complex(0, -1)},
               {Complex(0, 1), Complex(0, 0)}},
        Matrix{{1.0, 0.0}, {0.0, -1.0}},
    };
    PauliBasis basis;
    const std::size_t total = std::size_t{1} << (2 * num_qubits);
    for (std::size_t code = 0; code < total; ++code) {
        Matrix p = Matrix::identity(1);
        int weight = 0;
        unsigned support = 0;
        std::size_t c = code;
        for (int q = 0; q < num_qubits; ++q) {
            const std::size_t digit = c & 3u;
            c >>= 2;
            p = kron(p, paulis[digit]);
            if (digit != 0) {
                ++weight;
                support |= 1u << q;
            }
        }
        basis.strings.push_back(std::move(p));
        basis.weights.push_back(weight);
        basis.supports.push_back(support);
    }
    return basis;
}

const PauliBasis &
pauliBasis(int num_qubits)
{
    PAQOC_FATAL_IF(num_qubits < 1 || num_qubits > 4,
                   "pauliSplitNorms supports 1..4 qubits, got ",
                   num_qubits);
    // One magic static per width: C++11 serializes the first
    // initialization of each, so concurrent first estimates (a daemon
    // serving clients right after start-up) see fully built tables,
    // and a width nothing asks for (the 1 MiB 4-qubit table) is never
    // built.
    switch (num_qubits) {
      case 1: {
        static const PauliBasis basis = buildPauliBasis(1);
        return basis;
      }
      case 2: {
        static const PauliBasis basis = buildPauliBasis(2);
        return basis;
      }
      case 3: {
        static const PauliBasis basis = buildPauliBasis(3);
        return basis;
      }
      default: {
        static const PauliBasis basis = buildPauliBasis(4);
        return basis;
      }
    }
}

} // namespace

PauliSplitNorms
pauliSplitNorms(const Matrix &u, int num_qubits)
{
    PAQOC_ASSERT(u.rows() == (std::size_t{1} << num_qubits),
                 "unitary does not match qubit count");
    const std::size_t dim = u.rows();

    // Principal log with centered eigenphases: U = exp(-iA).
    const UnitaryEigen eig = diagonalizeUnitary(u);
    const double center = centeringPhase(eig.phases);
    Matrix a(dim, dim);
    // A = -V diag(wrap(theta - center)) V^dagger (sign is irrelevant
    // to the norms; keep the positive convention).
    Matrix d(dim, dim);
    for (std::size_t i = 0; i < dim; ++i)
        d(i, i) = Complex(wrapAngle(eig.phases[i] - center), 0.0);
    a = eig.vectors * d * eig.vectors.adjoint();

    // Project onto the Pauli basis; split by weight and by channel
    // (adjacent pair vs routed/multi-body content).
    const PauliBasis &basis = pauliBasis(num_qubits);
    Matrix local(dim, dim);
    Matrix entangling(dim, dim);
    Matrix hard(dim, dim);
    std::vector<Matrix> per_pair(
        num_qubits > 1 ? static_cast<std::size_t>(num_qubits - 1) : 0,
        Matrix(dim, dim));
    const double dd = static_cast<double>(dim);
    for (std::size_t k = 0; k < basis.strings.size(); ++k) {
        if (basis.weights[k] == 0)
            continue; // global phase, already centered away
        const Matrix &p = basis.strings[k];
        // A and P are Hermitian, so the coefficient is real.
        Complex coeff(0.0, 0.0);
        for (std::size_t r = 0; r < dim; ++r)
            for (std::size_t c = 0; c < dim; ++c)
                coeff += p(r, c) * a(c, r);
        const double cr = coeff.real() / dd;
        if (std::abs(cr) < 1e-12)
            continue;
        Matrix term = p;
        term *= Complex(cr, 0.0);
        if (basis.weights[k] <= 1) {
            local += term;
            continue;
        }
        entangling += term;
        // Adjacent pair {q, q+1} <=> support mask 0b11 << q.
        bool adjacent = false;
        if (basis.weights[k] == 2) {
            for (int q = 0; q + 1 < num_qubits; ++q) {
                if (basis.supports[k] == (3u << q)) {
                    per_pair[static_cast<std::size_t>(q)] += term;
                    adjacent = true;
                    break;
                }
            }
        }
        if (!adjacent)
            hard += term;
    }

    auto spec_norm = [](const Matrix &h) {
        if (h.maxAbs() < 1e-12)
            return 0.0;
        const EigenResult e = hermitianEigen(h);
        return std::max(std::abs(e.values.front()),
                        std::abs(e.values.back()));
    };
    PauliSplitNorms norms;
    norms.localNorm = spec_norm(local);
    norms.entanglingNorm = spec_norm(entangling);
    for (const Matrix &pair : per_pair)
        norms.adjacentPairNorm =
            std::max(norms.adjacentPairNorm, spec_norm(pair));
    norms.hardNorm = spec_norm(hard);
    return norms;
}

std::array<double, 3>
weylCoordinates(const Matrix &u)
{
    PAQOC_FATAL_IF(u.rows() != 4 || u.cols() != 4,
                   "weylCoordinates needs a 4x4 unitary, got ", u.rows(),
                   "x", u.cols());
    // Scale to det 1: det U is the product of the eigenvalues.
    double phase_sum = 0.0;
    for (double theta : unitaryEigenphases(u))
        phase_sum += theta;
    Matrix su = u;
    su *= std::polar(1.0, -phase_sum / 4.0);

    // m = B^dag U B in the magic basis; locals become real orthogonal,
    // so the spectrum of m^T m carries only the canonical part.
    const double s = 1.0 / std::sqrt(2.0);
    const Complex si(0.0, s);
    const Matrix b{{s, si, 0.0, 0.0},
                   {0.0, 0.0, si, s},
                   {0.0, 0.0, si, -s},
                   {s, -si, 0.0, 0.0}};
    const Matrix m = b.adjoint() * su * b;
    const std::vector<double> phases =
        unitaryEigenphases(m.transpose() * m);

    std::array<double, 4> d{};
    for (std::size_t j = 0; j < 4; ++j)
        d[j] = -phases[j] / 2.0;
    d[3] = -d[0] - d[1] - d[2];
    const double pi2 = kPi / 2.0, pi4 = kPi / 4.0;
    const auto mod = [](double x, double period) {
        return x - period * std::floor(x / period);
    };
    std::array<double, 3> cs{};
    std::array<double, 3> folded{};
    for (std::size_t j = 0; j < 3; ++j) {
        cs[j] = mod((d[j] + d[3]) / 2.0, 2.0 * kPi);
        const double r = mod(cs[j], pi2);
        folded[j] = std::min(r, pi2 - r);
    }
    // Middle, largest, smallest folded magnitude.
    std::array<std::size_t, 3> order{0, 1, 2};
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return folded[a] < folded[b];
                     });
    std::array<double, 3> c{cs[order[1]], cs[order[2]], cs[order[0]]};

    // Flip into the chamber.
    int conjs = 0;
    for (std::size_t j = 0; j < 2; ++j) {
        if (c[j] > pi2)
            c[j] -= 3.0 * pi2;
        if (c[j] > pi4) {
            c[j] = pi2 - c[j];
            ++conjs;
        }
    }
    if (c[2] > pi2)
        c[2] -= 3.0 * pi2;
    if (conjs == 1)
        c[2] = pi2 - c[2];
    if (c[2] > pi4)
        c[2] -= pi2;
    return {c[1], c[0], c[2]};
}

double
traceFidelity(const Matrix &u, const Matrix &v)
{
    PAQOC_ASSERT(u.rows() == v.rows() && u.cols() == v.cols(),
                 "shape mismatch in traceFidelity");
    const Complex t = (u.adjoint() * v).trace();
    const double d = static_cast<double>(u.rows());
    return std::norm(t) / (d * d);
}

double
phaseInvariantDistance(const Matrix &u, const Matrix &v)
{
    const Complex t = (u.adjoint() * v).trace();
    const double d = static_cast<double>(u.rows());
    const double inner = std::max(2.0 * d - 2.0 * std::abs(t), 0.0);
    return std::sqrt(inner);
}

bool
equalUpToGlobalPhase(const Matrix &u, const Matrix &v, double tol)
{
    if (u.rows() != v.rows() || u.cols() != v.cols())
        return false;
    return phaseInvariantDistance(u, v) < tol;
}

std::uint64_t
matrixHash(const Matrix &u)
{
    constexpr std::uint64_t kOffset = 0xcbf29ce484222325ULL;
    constexpr std::uint64_t kPrime = 0x100000001b3ULL;
    std::uint64_t h = kOffset;
    auto mix_u64 = [&h](std::uint64_t bits) {
        for (int b = 0; b < 8; ++b) {
            h ^= (bits >> (8 * b)) & 0xffu;
            h *= kPrime;
        }
    };
    auto mix_double = [&](double x) {
        // +0.0 folds negative zero so -0.0 and 0.0 hash alike.
        const double folded = x + 0.0;
        std::uint64_t bits = 0;
        static_assert(sizeof bits == sizeof folded);
        std::memcpy(&bits, &folded, sizeof bits);
        mix_u64(bits);
    };
    mix_u64(u.rows());
    mix_u64(u.cols());
    const Complex *p = u.data();
    const std::size_t n = u.rows() * u.cols();
    for (std::size_t i = 0; i < n; ++i) {
        mix_double(p[i].real());
        mix_double(p[i].imag());
    }
    return h;
}

} // namespace paqoc
