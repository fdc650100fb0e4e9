/**
 * @file
 * Tests for the circuit IR: gate unitaries, circuit construction,
 * unitary embedding, dependence DAG, scheduling, and criticality.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "circuit/circuit.h"
#include "circuit/dag.h"
#include "circuit/gate.h"
#include "circuit/schedule.h"
#include "common/error.h"
#include "common/rng.h"
#include "linalg/unitary_util.h"

namespace paqoc {
namespace {

constexpr double kPi = 3.14159265358979323846;

/** Unit-latency schedule used by structural tests. */
double
unitLatency(const Gate &)
{
    return 1.0;
}

TEST(Gate, PrimitiveAritiesValidated)
{
    EXPECT_NO_THROW(Gate(Op::CX, {0, 1}));
    EXPECT_THROW(Gate(Op::CX, {0}), FatalError);
    EXPECT_THROW(Gate(Op::H, {0, 1}), FatalError);
    EXPECT_THROW(Gate(Op::CX, {1, 1}), FatalError);
    EXPECT_THROW(Gate(Op::X, {-1}), FatalError);
}

TEST(Gate, UnitariesAreUnitary)
{
    const Op all[] = {Op::I, Op::X, Op::Y, Op::Z, Op::H, Op::SX, Op::S,
                      Op::Sdg, Op::T, Op::Tdg, Op::RX, Op::RY, Op::RZ,
                      Op::P, Op::CX, Op::CZ, Op::CP, Op::SWAP, Op::CCX};
    for (Op op : all) {
        std::vector<int> qubits(static_cast<std::size_t>(opArity(op)));
        for (int i = 0; i < opArity(op); ++i)
            qubits[static_cast<std::size_t>(i)] = i;
        const Gate g(op, qubits, 0.3);
        EXPECT_TRUE(g.unitary().isUnitary(1e-10)) << opName(op);
    }
}

TEST(Gate, SxSquaredIsX)
{
    const Matrix sx = Gate(Op::SX, {0}).unitary();
    const Matrix x = Gate(Op::X, {0}).unitary();
    EXPECT_TRUE((sx * sx).approxEqual(x, 1e-10));
}

TEST(Gate, HadamardConjugatesXToZ)
{
    const Matrix h = Gate(Op::H, {0}).unitary();
    const Matrix x = Gate(Op::X, {0}).unitary();
    const Matrix z = Gate(Op::Z, {0}).unitary();
    EXPECT_TRUE((h * x * h).approxEqual(z, 1e-10));
}

TEST(Gate, RzMatchesPhaseUpToGlobalPhase)
{
    const double theta = 0.9;
    const Matrix rz = Gate(Op::RZ, {0}, theta).unitary();
    const Matrix p = Gate(Op::P, {0}, theta).unitary();
    EXPECT_TRUE(equalUpToGlobalPhase(rz, p));
}

TEST(Gate, CxOnFlippedControl)
{
    // CX with qubits [c, t]: |10> -> |11>.
    const Matrix cx = Gate(Op::CX, {0, 1}).unitary();
    EXPECT_EQ(cx(3, 2), Complex(1.0, 0.0));
    EXPECT_EQ(cx(2, 3), Complex(1.0, 0.0));
    EXPECT_EQ(cx(0, 0), Complex(1.0, 0.0));
}

TEST(Gate, CcxFlipsOnlyWhenBothControlsSet)
{
    const Matrix ccx = Gate(Op::CCX, {0, 1, 2}).unitary();
    EXPECT_EQ(ccx(7, 6), Complex(1.0, 0.0));
    EXPECT_EQ(ccx(6, 7), Complex(1.0, 0.0));
    for (int i = 0; i < 6; ++i)
        EXPECT_EQ(ccx(static_cast<std::size_t>(i),
                      static_cast<std::size_t>(i)), Complex(1.0, 0.0));
}

TEST(Gate, CustomValidatesUnitarity)
{
    Matrix bad(2, 2); // zero matrix
    EXPECT_THROW(Gate::custom("bad", {0}, bad, 1), FatalError);
    EXPECT_NO_THROW(Gate::custom("ok", {0}, Matrix::identity(2), 3));
}

TEST(Gate, CustomRemembersAbsorbedCount)
{
    const Gate g = Gate::custom("m", {0, 1}, Matrix::identity(4), 5);
    EXPECT_EQ(g.absorbedCount(), 5);
    EXPECT_TRUE(g.isCustom());
    EXPECT_EQ(g.label(), "m");
}

TEST(Gate, MiningLabelUsesSymbolForParameterizedGates)
{
    const Gate num(Op::RZ, {0}, 0.25);
    const Gate sym(Op::RZ, {0}, 0.25, "theta");
    EXPECT_NE(num.miningLabel(), sym.miningLabel());
    EXPECT_EQ(sym.miningLabel(), "rz(theta)");
}

TEST(Gate, SharesQubit)
{
    const Gate a(Op::CX, {0, 1});
    const Gate b(Op::H, {1});
    const Gate c(Op::H, {2});
    EXPECT_TRUE(a.sharesQubit(b));
    EXPECT_FALSE(a.sharesQubit(c));
}

TEST(Circuit, RejectsOutOfRangeQubit)
{
    Circuit c(2);
    EXPECT_THROW(c.h(2), FatalError);
    EXPECT_THROW(Circuit(0), FatalError);
}

TEST(Circuit, CountsGateKinds)
{
    Circuit c(3);
    c.h(0);
    c.cx(0, 1);
    c.cx(1, 2);
    c.t(2);
    EXPECT_EQ(c.countOneQubitGates(), 2);
    EXPECT_EQ(c.countMultiQubitGates(), 2);
    EXPECT_EQ(c.absorbedTotal(), 4);
}

TEST(Circuit, BellStateUnitary)
{
    Circuit c(2);
    c.h(0);
    c.cx(0, 1);
    const Matrix u = circuitUnitary(c);
    // Column for input |00> must be (|00> + |11>)/sqrt(2).
    const double r = 1.0 / std::sqrt(2.0);
    EXPECT_NEAR(std::abs(u(0, 0) - Complex(r, 0)), 0.0, 1e-10);
    EXPECT_NEAR(std::abs(u(3, 0) - Complex(r, 0)), 0.0, 1e-10);
    EXPECT_NEAR(std::abs(u(1, 0)), 0.0, 1e-12);
    EXPECT_NEAR(std::abs(u(2, 0)), 0.0, 1e-12);
}

TEST(Circuit, SwapEqualsThreeCx)
{
    Circuit swap_c(2), cx3(2);
    swap_c.swap(0, 1);
    cx3.cx(0, 1);
    cx3.cx(1, 0);
    cx3.cx(0, 1);
    EXPECT_TRUE(circuitUnitary(swap_c).approxEqual(circuitUnitary(cx3),
                                                   1e-10));
}

TEST(Circuit, CphaseDecompositionMatches)
{
    // CPHASE(theta) = RZ(theta/2) on both + CX . RZ(-theta/2) . CX,
    // up to global phase (one standard decomposition).
    const double theta = 1.1;
    Circuit cp(2), dec(2);
    cp.cp(0, 1, theta);
    dec.p(0, theta / 2.0);
    dec.cx(0, 1);
    dec.p(1, -theta / 2.0);
    dec.cx(0, 1);
    dec.p(1, theta / 2.0);
    EXPECT_TRUE(equalUpToGlobalPhase(circuitUnitary(cp),
                                     circuitUnitary(dec)));
}

TEST(Circuit, EmbedRespectsQubitOrder)
{
    // CX with control q1, target q0 in a 2-qubit register: |01> (q0=1)
    // stays, |10> (q1=1) flips q0 -> |11>.
    Circuit c(2);
    c.cx(1, 0);
    const Matrix u = circuitUnitary(c);
    EXPECT_EQ(u(3, 2), Complex(1.0, 0.0));
    EXPECT_EQ(u(1, 1), Complex(1.0, 0.0));
}

TEST(Circuit, DisjointGatesCommute)
{
    Circuit ab(3), ba(3);
    ab.h(0);
    ab.x(2);
    ba.x(2);
    ba.h(0);
    EXPECT_TRUE(circuitUnitary(ab).approxEqual(circuitUnitary(ba), 1e-12));
}

TEST(Circuit, SubcircuitUnitaryTracksSupport)
{
    // Gates on qubits 2 and 4 of a large register: support must be
    // {4, 2} (most significant first) and the matrix 4x4.
    std::vector<Gate> gates;
    gates.emplace_back(Op::H, std::vector<int>{2});
    gates.emplace_back(Op::CX, std::vector<int>{2, 4});
    const SubcircuitUnitary sub = subcircuitUnitary(gates);
    EXPECT_EQ(sub.qubits, (std::vector<int>{4, 2}));
    EXPECT_EQ(sub.matrix.rows(), 4u);
    EXPECT_TRUE(sub.matrix.isUnitary(1e-10));

    // Re-embedding the subcircuit unitary must reproduce the circuit.
    Circuit full(5);
    full.h(2);
    full.cx(2, 4);
    const Matrix direct = circuitUnitary(full);
    const Matrix embedded = embedUnitary(sub.matrix, sub.qubits, 5);
    EXPECT_TRUE(direct.approxEqual(embedded, 1e-10));
}

TEST(Dag, LinearChainOnOneQubit)
{
    Circuit c(1);
    c.h(0);
    c.t(0);
    c.h(0);
    const Dag d = buildDag(c);
    EXPECT_TRUE(d.hasEdge(0, 1));
    EXPECT_TRUE(d.hasEdge(1, 2));
    EXPECT_FALSE(d.hasEdge(0, 2));
    DagReach reach(d);
    EXPECT_TRUE(reach.reachesIndirectly(0, 2));
    EXPECT_FALSE(reach.reachesIndirectly(2, 0));
    EXPECT_FALSE(reach.reachesIndirectly(0, 1)); // the edge alone
}

TEST(Dag, NoDuplicateEdgeForTwoSharedQubits)
{
    Circuit c(2);
    c.cx(0, 1);
    c.cx(0, 1);
    const Dag d = buildDag(c);
    ASSERT_EQ(d.succs[0].size(), 1u);
    EXPECT_EQ(d.preds[1].size(), 1u);
}

TEST(Dag, IndependentGatesUnordered)
{
    Circuit c(4);
    c.cx(0, 1);
    c.cx(2, 3);
    const Dag d = buildDag(c);
    DagReach reach(d);
    EXPECT_FALSE(reach.reachesIndirectly(0, 1));
    EXPECT_FALSE(reach.reachesIndirectly(1, 0));
}

TEST(Schedule, SerialChainAddsLatencies)
{
    Circuit c(1);
    c.h(0);
    c.t(0);
    c.h(0);
    const Schedule s = computeSchedule(c, unitLatency);
    EXPECT_DOUBLE_EQ(s.makespan, 3.0);
    EXPECT_DOUBLE_EQ(s.start[2], 2.0);
    EXPECT_DOUBLE_EQ(s.cpAfter[0], 2.0);
    EXPECT_DOUBLE_EQ(s.cpAfter[2], 0.0);
    for (bool crit : s.onCriticalPath)
        EXPECT_TRUE(crit);
}

TEST(Schedule, ParallelGatesOverlap)
{
    Circuit c(4);
    c.cx(0, 1);
    c.cx(2, 3);
    const Schedule s = computeSchedule(c, unitLatency);
    EXPECT_DOUBLE_EQ(s.makespan, 1.0);
    EXPECT_DOUBLE_EQ(s.start[1], 0.0);
}

TEST(Schedule, CriticalPathFlagsLongBranch)
{
    // q0: two gates, q1: one gate of latency 5 -> q1's gate critical,
    // q0's gates not.
    Circuit c(2);
    c.h(0);
    c.t(0);
    c.x(1);
    const Schedule s = computeSchedule(c, [](const Gate &g) {
        return g.op() == Op::X ? 5.0 : 1.0;
    });
    EXPECT_DOUBLE_EQ(s.makespan, 5.0);
    EXPECT_FALSE(s.onCriticalPath[0]);
    EXPECT_FALSE(s.onCriticalPath[1]);
    EXPECT_TRUE(s.onCriticalPath[2]);
}

TEST(Schedule, PaperFig4Topology)
{
    // Fig. 4: A -> B critical; C on a side branch. cpAfter(A) = L(B).
    Circuit c(3);
    c.cx(0, 1); // A
    c.cx(0, 1); // B (depends on A)
    c.h(2);     // C independent
    const Schedule s = computeSchedule(c, unitLatency);
    EXPECT_DOUBLE_EQ(s.cpAfter[0], 1.0);
    EXPECT_TRUE(s.onCriticalPath[0]);
    EXPECT_TRUE(s.onCriticalPath[1]);
    EXPECT_FALSE(s.onCriticalPath[2]);
}

class RandomCircuitSchedule : public ::testing::TestWithParam<int> {};

TEST_P(RandomCircuitSchedule, InvariantsHold)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 3);
    const int nq = rng.range(2, 6);
    Circuit c(nq);
    const int n_gates = rng.range(5, 60);
    for (int i = 0; i < n_gates; ++i) {
        if (nq >= 2 && rng.chance(0.4)) {
            const int a = rng.range(0, nq - 1);
            int b = rng.range(0, nq - 2);
            if (b >= a)
                ++b;
            c.cx(a, b);
        } else {
            c.h(rng.range(0, nq - 1));
        }
    }
    const Dag d = buildDag(c);
    const Schedule s = computeSchedule(c, d, unitLatency);

    // Start times respect dependences; makespan is the max finish;
    // at least one gate is critical; critical gates span the makespan.
    double max_finish = 0.0;
    bool any_critical = false;
    for (std::size_t i = 0; i < c.size(); ++i) {
        for (int p : d.preds[i])
            EXPECT_GE(s.start[i],
                      s.finish[static_cast<std::size_t>(p)] - 1e-12);
        max_finish = std::max(max_finish, s.finish[i]);
        if (s.onCriticalPath[i]) {
            any_critical = true;
            EXPECT_NEAR(s.start[i] + s.latency[i] + s.cpAfter[i],
                        s.makespan, 1e-9);
        }
    }
    EXPECT_NEAR(s.makespan, max_finish, 1e-12);
    EXPECT_TRUE(any_critical);
}

INSTANTIATE_TEST_SUITE_P(Random, RandomCircuitSchedule,
                         ::testing::Range(0, 10));

TEST(Circuit, QftUnitarySpotCheck)
{
    // 2-qubit QFT: H(1) CP(1,0,pi/2) H(0) then swap; amplitude pattern
    // of column 0 must be uniform 1/2.
    Circuit c(2);
    c.h(1);
    c.cp(1, 0, kPi / 2.0);
    c.h(0);
    c.swap(0, 1);
    const Matrix u = circuitUnitary(c);
    for (std::size_t r = 0; r < 4; ++r)
        EXPECT_NEAR(std::abs(u(r, 0)), 0.5, 1e-10);
}

} // namespace
} // namespace paqoc
