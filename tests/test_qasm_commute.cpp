/**
 * @file
 * Tests for the OpenQASM 2.0 round trip and the commutativity-aware
 * dependence DAG (the Shi-et-al.-style future-work extension).
 */

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "circuit/circuit.h"
#include "circuit/commute.h"
#include "circuit/qasm.h"
#include "circuit/schedule.h"
#include "common/error.h"
#include "common/rng.h"
#include "linalg/unitary_util.h"
#include "paqoc/merge_engine.h"
#include "qoc/pulse_generator.h"

namespace paqoc {
namespace {

constexpr double kPi = 3.14159265358979323846;

TEST(Qasm, ExportContainsHeaderAndGates)
{
    Circuit c(2);
    c.h(0);
    c.cx(0, 1);
    c.rz(1, 0.5);
    const std::string qasm = toQasm(c);
    EXPECT_NE(qasm.find("OPENQASM 2.0;"), std::string::npos);
    EXPECT_NE(qasm.find("qreg q[2];"), std::string::npos);
    EXPECT_NE(qasm.find("h q[0];"), std::string::npos);
    EXPECT_NE(qasm.find("cx q[0],q[1];"), std::string::npos);
    EXPECT_NE(qasm.find("rz(0.5) q[1];"), std::string::npos);
}

TEST(Qasm, RoundTripPreservesUnitary)
{
    Rng rng(777);
    Circuit c(3);
    c.h(0);
    c.ccx(0, 1, 2);
    c.cp(0, 2, 1.25);
    c.swap(1, 2);
    c.t(1);
    c.ry(2, rng.uniform(0.1, 3.0));
    const Circuit back = fromQasm(toQasm(c));
    EXPECT_EQ(back.numQubits(), 3);
    EXPECT_TRUE(equalUpToGlobalPhase(circuitUnitary(c),
                                     circuitUnitary(back)));
}

TEST(Qasm, ParsesPiExpressions)
{
    const Circuit c = fromQasm(R"(OPENQASM 2.0;
include "qelib1.inc";
qreg q[1];
rz(pi) q[0];
rz(-pi/2) q[0];
rz(3*pi/4) q[0];
u1(0.25) q[0];
)");
    ASSERT_EQ(c.size(), 4u);
    EXPECT_NEAR(c.gate(0).angle(), kPi, 1e-12);
    EXPECT_NEAR(c.gate(1).angle(), -kPi / 2, 1e-12);
    EXPECT_NEAR(c.gate(2).angle(), 3 * kPi / 4, 1e-12);
    EXPECT_NEAR(c.gate(3).angle(), 0.25, 1e-12);
    EXPECT_EQ(c.gate(3).op(), Op::P);
}

TEST(Qasm, ExtremeAnglesRoundTripExactly)
{
    // Outside input may carry angles no k*pi/b spells; they print in
    // full and read back bit for bit.
    const double inf = std::numeric_limits<double>::infinity();
    const Circuit c = fromQasm(R"(OPENQASM 2.0;
qreg q[1];
rz(inf) q[0];
rz(-inf) q[0];
rz(1e300) q[0];
rz(-1e19) q[0];
)");
    ASSERT_EQ(c.size(), 4u);
    const Circuit back = fromQasm(toQasm(c));
    ASSERT_EQ(back.size(), 4u);
    EXPECT_EQ(back.gate(0).angle(), inf);
    EXPECT_EQ(back.gate(1).angle(), -inf);
    EXPECT_EQ(back.gate(2).angle(), 1e300);
    EXPECT_EQ(back.gate(3).angle(), -1e19);
}

TEST(Qasm, IgnoresCommentsMeasureAndBarrier)
{
    const Circuit c = fromQasm(R"(OPENQASM 2.0;
// a comment line
qreg q[2];
creg c[2];
h q[0]; // trailing comment
barrier q[0],q[1];
measure q[0] -> c[0];
)");
    EXPECT_EQ(c.size(), 1u);
    EXPECT_EQ(c.gate(0).op(), Op::H);
}

TEST(Qasm, RejectsMalformedInput)
{
    EXPECT_THROW(fromQasm("qreg q[2];\nfoo q[0];\n"), FatalError);
    EXPECT_THROW(fromQasm("h q[0];\n"), FatalError); // gate before qreg
    EXPECT_THROW(fromQasm("qreg q[2];\nh q[0]\n"), FatalError); // no ;
    Circuit c(1);
    c.add(Gate::custom("m", {0}, Matrix::identity(2), 1));
    EXPECT_THROW(toQasm(c), FatalError);
}

TEST(Commute, DiagonalThroughCxControl)
{
    const Gate rz(Op::RZ, {0}, 0.4);
    const Gate cx(Op::CX, {0, 1});
    EXPECT_TRUE(gatesCommute(rz, cx));  // rz on the control
    const Gate rz_t(Op::RZ, {1}, 0.4);
    EXPECT_FALSE(gatesCommute(rz_t, cx)); // rz on the target
}

TEST(Commute, XTypeThroughCxTarget)
{
    const Gate x(Op::X, {1});
    const Gate cx(Op::CX, {0, 1});
    EXPECT_TRUE(gatesCommute(x, cx));
    const Gate x_c(Op::X, {0});
    EXPECT_FALSE(gatesCommute(x_c, cx));
}

TEST(Commute, CxSharedControlAndTarget)
{
    const Gate cx01(Op::CX, {0, 1});
    const Gate cx02(Op::CX, {0, 2});
    const Gate cx21(Op::CX, {2, 1});
    const Gate cx10(Op::CX, {1, 0});
    EXPECT_TRUE(gatesCommute(cx01, cx02));  // shared control
    EXPECT_TRUE(gatesCommute(cx01, cx21));  // shared target
    EXPECT_FALSE(gatesCommute(cx01, cx10)); // crossed roles
}

TEST(Commute, DiagonalsAlwaysCommute)
{
    const Gate cz(Op::CZ, {0, 1});
    const Gate cp(Op::CP, {1, 2}, 0.7);
    const Gate rz(Op::RZ, {1}, 0.2);
    EXPECT_TRUE(gatesCommute(cz, cp));
    EXPECT_TRUE(gatesCommute(cz, rz));
}

TEST(Commute, OpaqueGatesNeverCommuteOnSharedQubits)
{
    const Gate h(Op::H, {0});
    const Gate rz(Op::RZ, {0}, 0.2);
    const Gate swap(Op::SWAP, {0, 1});
    EXPECT_FALSE(gatesCommute(h, rz));
    EXPECT_FALSE(gatesCommute(swap, rz));
    const Gate far(Op::H, {2});
    EXPECT_TRUE(gatesCommute(swap, far)); // disjoint qubits
}

TEST(Commute, SoundnessOfCommutationClaim)
{
    // Property: whenever gatesCommute says yes, the unitaries really
    // commute.
    Rng rng(4242);
    std::vector<Gate> pool;
    pool.emplace_back(Op::RZ, std::vector<int>{0}, 0.3);
    pool.emplace_back(Op::X, std::vector<int>{0});
    pool.emplace_back(Op::SX, std::vector<int>{1});
    pool.emplace_back(Op::T, std::vector<int>{1});
    pool.emplace_back(Op::CX, std::vector<int>{0, 1});
    pool.emplace_back(Op::CX, std::vector<int>{1, 2});
    pool.emplace_back(Op::CX, std::vector<int>{0, 2});
    pool.emplace_back(Op::CZ, std::vector<int>{1, 2});
    pool.emplace_back(Op::CP, std::vector<int>{0, 2}, 0.9);
    pool.emplace_back(Op::H, std::vector<int>{2});
    for (const Gate &a : pool) {
        for (const Gate &b : pool) {
            if (!gatesCommute(a, b))
                continue;
            Circuit ab(3), ba(3);
            ab.add(a);
            ab.add(b);
            ba.add(b);
            ba.add(a);
            EXPECT_TRUE(equalUpToGlobalPhase(circuitUnitary(ab),
                                             circuitUnitary(ba)))
                << a.label() << " vs " << b.label();
        }
    }
}

TEST(CommutationDag, RelaxesFalseOrder)
{
    // rz on the control between two CXs: the plain DAG serializes all
    // three; the relaxed DAG lets the rz float.
    Circuit c(2);
    c.cx(0, 1);
    c.rz(0, 0.5);
    c.cx(0, 1);
    const Dag plain = buildDag(c);
    const Dag relaxed = buildCommutationDag(c);
    EXPECT_TRUE(plain.hasEdge(0, 1));
    EXPECT_TRUE(plain.hasEdge(1, 2));
    // All three gates mutually commute (rz sits on the CX control),
    // so the relaxed DAG leaves them fully unordered...
    EXPECT_FALSE(relaxed.hasEdge(0, 1));
    EXPECT_FALSE(relaxed.hasEdge(1, 2));
    EXPECT_FALSE(relaxed.hasEdge(0, 2));
    // ...and the two CXs surface as a same-run commuting merge pair.
    const auto pairs = commutingAdjacentPairs(c);
    bool has_cx_pair = false;
    for (const auto &[a, b] : pairs)
        has_cx_pair |= (a == 0 && b == 2);
    EXPECT_TRUE(has_cx_pair);
}

TEST(CommutationDag, InterleavedBasesStaySound)
{
    // x, rz, x on one qubit: the two x's must both order against the
    // rz (runs: [x], [rz], [x]); emitting rz before or after both x's
    // would change semantics.
    Circuit c(1);
    c.x(0);
    c.rz(0, 0.7);
    c.x(0);
    const Dag d = buildCommutationDag(c);
    EXPECT_TRUE(d.hasEdge(0, 1));
    EXPECT_TRUE(d.hasEdge(1, 2));
}

class CommutationDagProperty : public ::testing::TestWithParam<int> {};

TEST_P(CommutationDagProperty, AnyTopologicalOrderPreservesUnitary)
{
    // The key soundness property: emitting gates in ANY topological
    // order of the relaxed DAG preserves the circuit unitary. We test
    // one adversarial order: greedy reverse-priority Kahn.
    Rng rng(6000 + static_cast<std::uint64_t>(GetParam()));
    const int nq = rng.range(2, 4);
    Circuit c(nq);
    for (int i = 0; i < 24; ++i) {
        switch (rng.range(0, 4)) {
          case 0:
            c.rz(rng.range(0, nq - 1), rng.uniform(0.1, 3.0));
            break;
          case 1:
            c.x(rng.range(0, nq - 1));
            break;
          case 2:
            c.h(rng.range(0, nq - 1));
            break;
          default: {
            const int a = rng.range(0, nq - 2);
            if (rng.chance(0.5))
                c.cx(a, a + 1);
            else
                c.cz(a, a + 1);
            break;
          }
        }
    }
    const Dag d = buildCommutationDag(c);

    // Kahn with LARGEST-index-first tie-break: maximally reorders.
    std::vector<int> indeg(c.size());
    for (std::size_t i = 0; i < c.size(); ++i)
        indeg[i] = static_cast<int>(d.preds[i].size());
    std::vector<int> ready;
    for (std::size_t i = 0; i < c.size(); ++i)
        if (indeg[i] == 0)
            ready.push_back(static_cast<int>(i));
    Circuit shuffled(nq);
    while (!ready.empty()) {
        std::sort(ready.begin(), ready.end());
        const int g = ready.back(); // adversarial: latest first
        ready.pop_back();
        shuffled.add(c.gate(static_cast<std::size_t>(g)));
        for (int s : d.succs[static_cast<std::size_t>(g)])
            if (--indeg[static_cast<std::size_t>(s)] == 0)
                ready.push_back(s);
    }
    ASSERT_EQ(shuffled.size(), c.size());
    EXPECT_TRUE(equalUpToGlobalPhase(circuitUnitary(c),
                                     circuitUnitary(shuffled)));
}

INSTANTIATE_TEST_SUITE_P(Random, CommutationDagProperty,
                         ::testing::Range(0, 12));

TEST(CommutativityAwareMerge, BeatsPlainOnEchoCircuit)
{
    // cx . rz(control) . cx: plain merging sees a serial chain; the
    // relaxed DAG lets the two CXs merge into a near-identity gate.
    Circuit c(2);
    c.cx(0, 1);
    c.rz(0, 0.5);
    c.cx(0, 1);

    SpectralPulseGenerator g1, g2;
    MergeOptions plain, aware;
    plain.preprocess = false;
    aware.preprocess = false;
    aware.commutativityAware = true;
    const MergeResult r_plain = mergeCustomizedGates(c, g1, plain);
    const MergeResult r_aware = mergeCustomizedGates(c, g2, aware);
    EXPECT_LE(r_aware.stats.finalMakespan,
              r_plain.stats.finalMakespan + 1e-9);
    EXPECT_TRUE(equalUpToGlobalPhase(circuitUnitary(c),
                                     circuitUnitary(r_aware.circuit)));
}

class CommutativityAwareProperty : public ::testing::TestWithParam<int>
{};

TEST_P(CommutativityAwareProperty, PreservesSemantics)
{
    Rng rng(8800 + static_cast<std::uint64_t>(GetParam()));
    const int nq = rng.range(2, 5);
    Circuit c(nq);
    for (int i = 0; i < rng.range(6, 20); ++i) {
        switch (rng.range(0, 3)) {
          case 0:
            c.rz(rng.range(0, nq - 1), rng.uniform(0.1, 3.0));
            break;
          case 1:
            c.h(rng.range(0, nq - 1));
            break;
          default: {
            const int a = rng.range(0, nq - 2);
            c.cx(a, a + 1);
            break;
          }
        }
    }
    SpectralPulseGenerator gen;
    MergeOptions opts;
    opts.commutativityAware = true;
    const MergeResult r = mergeCustomizedGates(c, gen, opts);
    EXPECT_TRUE(equalUpToGlobalPhase(circuitUnitary(c),
                                     circuitUnitary(r.circuit)));
    EXPECT_LE(r.stats.finalMakespan,
              r.stats.initialMakespan + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Random, CommutativityAwareProperty,
                         ::testing::Range(0, 10));

} // namespace
} // namespace paqoc
