/**
 * @file
 * Tests for the pulse simulator (QuTiP substitute) and the workload
 * generators: benchmark registry integrity, gate-count sanity against
 * Table I, physical-circuit validity, and simulator invariants.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "circuit/circuit.h"
#include "common/error.h"
#include "linalg/unitary_util.h"
#include "paqoc/compiler.h"
#include "qoc/pulse_generator.h"
#include "sim/pulse_simulator.h"
#include "transpile/decompose.h"
#include "transpile/sabre.h"
#include "workloads/benchmarks.h"

namespace paqoc {
namespace {

namespace wl = workloads;

TEST(Workloads, RegistryHasSeventeenBenchmarks)
{
    EXPECT_EQ(wl::allBenchmarks().size(), 17u);
    for (const auto &spec : wl::allBenchmarks()) {
        EXPECT_FALSE(spec.name.empty());
        EXPECT_GT(spec.qubits, 0);
        EXPECT_LE(spec.qubits, 25);
    }
    EXPECT_THROW(wl::benchmarkSpec("nope"), FatalError);
}

TEST(Workloads, LogicalCircuitsMatchRegisteredWidth)
{
    for (const auto &spec : wl::allBenchmarks()) {
        const Circuit c = wl::makeLogical(spec.name);
        EXPECT_EQ(c.numQubits(), spec.qubits) << spec.name;
        EXPECT_GT(c.size(), 0u) << spec.name;
    }
}

TEST(Workloads, GeneratorsAreDeterministic)
{
    const Circuit a = wl::makeLogical("hwb4");
    const Circuit b = wl::makeLogical("hwb4");
    EXPECT_EQ(a.toString(), b.toString());
}

TEST(Workloads, GateMixNearTableOne)
{
    // Spot-check universal-basis gate counts against Table I within a
    // generous tolerance (the generators approximate the RevLib mix).
    // RevLib rows are counted after Toffoli decomposition (their
    // universal-basis form); algorithmic rows count CU1/CP as single
    // two-qubit gates, as Table I does.
    struct Row { const char *name; int q1; int q2; bool lower; };
    const Row rows[] = {
        {"mod5d2", 28, 25, true}, {"rd32", 48, 36, true},
        {"hwb4", 126, 107, true}, {"bv", 43, 20, false},
        {"qft", 16, 120, false},  {"qaoa", 65, 90, false},
        {"dnn", 192, 1008, false}, {"bb84", 27, 0, false},
    };
    for (const Row &r : rows) {
        const Circuit logical = wl::makeLogical(r.name);
        const Circuit c = r.lower ? decomposeToCx(logical) : logical;
        const double q1 = c.countOneQubitGates();
        const double q2 = c.countMultiQubitGates();
        EXPECT_NEAR(q1, r.q1, 0.35 * r.q1 + 6.0) << r.name;
        EXPECT_NEAR(q2, r.q2, 0.35 * r.q2 + 6.0) << r.name;
    }
}

TEST(Workloads, Bb84HasNoTwoQubitGates)
{
    const Circuit c = wl::makeLogical("bb84");
    EXPECT_EQ(c.countMultiQubitGates(), 0);
}

TEST(Workloads, PhysicalCircuitsRespectGridAndBasis)
{
    const Topology grid = Topology::grid(5, 5);
    for (const char *name : {"rd32", "qaoa", "simon"}) {
        const Circuit p = wl::makePhysical(name, grid);
        EXPECT_TRUE(isPhysicalBasis(p)) << name;
        EXPECT_TRUE(respectsTopology(p, grid)) << name;
    }
}

TEST(Workloads, SmallBenchmarkRoutingPreservesSemantics)
{
    // simon is 6 qubits; route on a compact 6-qubit topology and
    // verify the physical circuit is unitarily equivalent modulo the
    // layout permutation (checked indirectly: same spectrum size and
    // width), then check the basis-level circuit directly against the
    // routed one.
    const Circuit logical = wl::makeLogical("simon");
    const Circuit cx_level = decomposeToCx(logical);
    const Topology topo = wl::compactTopology(6);
    const RoutingResult routed = sabreRoute(cx_level, topo);
    const Circuit basis = decomposeToBasis(routed.physical);
    EXPECT_TRUE(equalUpToGlobalPhase(circuitUnitary(routed.physical),
                                     circuitUnitary(basis)));
}

TEST(Workloads, CompactTopologyCoversRegister)
{
    for (int q = 1; q <= 10; ++q)
        EXPECT_GE(wl::compactTopology(q).numQubits(), q);
}

TEST(Workloads, SubcircuitCorpusShape)
{
    const auto corpus = wl::randomSubcircuitCorpus(150, 9);
    EXPECT_EQ(corpus.size(), 150u);
    for (const Circuit &c : corpus) {
        EXPECT_GE(c.numQubits(), 1);
        EXPECT_LE(c.numQubits(), 3);
        EXPECT_GE(c.size(), 2u);
    }
}

TEST(Sim, IdentityCircuitIsPerfectModuloModelError)
{
    SpectralPulseGenerator gen;
    Circuit c(2);
    c.h(0);
    c.h(0); // identity overall, but two real pulses
    const SimResult r = simulateCircuitPulses(c, gen);
    EXPECT_GT(r.processFidelity, 0.99);
    EXPECT_LE(r.quality, r.processFidelity);
    EXPECT_GT(r.coherenceFactor, 0.0);
    EXPECT_LE(r.coherenceFactor, 1.0);
}

TEST(Sim, GrapeBackendPropagatesRealPulses)
{
    GrapeOptions opts;
    opts.maxIterations = 300;
    GrapePulseGenerator gen(opts);
    Circuit c(2);
    c.h(0);
    c.cx(0, 1);
    const SimResult r = simulateCircuitPulses(c, gen);
    // Real pulses hit the 1e-3 infidelity target per gate.
    EXPECT_GT(r.processFidelity, 0.99);
    EXPECT_GT(r.makespan, 0.0);
}

TEST(Sim, ReversedOrientationGateGetsItsOwnPulse)
{
    // CX(1->0), written as a custom gate on (q0, q1), is CX(0->1)
    // with its qubits reversed. A cache that folded the two onto one
    // key served CX(0->1)'s stored pulse for it, unmirrored, and this
    // circuit simulated to a process fidelity of 0.06.
    GrapeOptions opts;
    opts.maxIterations = 300;
    GrapePulseGenerator gen(opts);
    const Gate cx01(Op::CX, {0, 1});
    gen.generate(cx01.unitary(), 2);
    const Matrix cx10{{1.0, 0.0, 0.0, 0.0},
                      {0.0, 0.0, 0.0, 1.0},
                      {0.0, 0.0, 1.0, 0.0},
                      {0.0, 1.0, 0.0, 0.0}};
    Circuit c(2);
    c.add(cx01);
    c.add(Gate::custom("cx10", {0, 1}, cx10, 1, 1000.0));
    const SimResult r = simulateCircuitPulses(c, gen);
    EXPECT_GT(r.processFidelity, 0.99);
}

TEST(Sim, ShorterScheduleScoresBetterQuality)
{
    // Same circuit compiled two ways: merged (shorter) must win on
    // the coherence-decayed quality metric -- Table II's mechanism.
    Circuit c(2);
    c.h(0);
    c.cx(0, 1);
    c.rz(1, 0.8);
    c.cx(0, 1);

    SpectralPulseGenerator gen_plain, gen_merged;
    SimOptions sim;
    sim.coherenceTimeDt = 2000.0; // aggressive decay for contrast
    const SimResult plain = simulateCircuitPulses(c, gen_plain, sim);

    PaqocOptions popts;
    SpectralPulseGenerator gen_compile;
    const CompileReport rep = compilePaqoc(c, gen_compile, popts);
    const SimResult merged =
        simulateCircuitPulses(rep.circuit, gen_merged, sim);

    EXPECT_LT(merged.makespan, plain.makespan);
    EXPECT_GT(merged.quality, plain.quality);
}

TEST(Sim, RejectsOversizedRegister)
{
    SpectralPulseGenerator gen;
    Circuit c(12);
    c.h(0);
    EXPECT_THROW(simulateCircuitPulses(c, gen), FatalError);
}

TEST(Sim, CoherenceFactorMatchesFormula)
{
    SpectralPulseGenerator gen;
    Circuit c(3);
    c.h(0);
    c.cx(0, 1); // qubit 2 untouched -> 2 active qubits
    SimOptions sim;
    sim.coherenceTimeDt = 1234.0;
    const SimResult r = simulateCircuitPulses(c, gen, sim);
    EXPECT_NEAR(r.coherenceFactor,
                std::exp(-r.makespan * 2.0 / 1234.0), 1e-12);
}

} // namespace
} // namespace paqoc
