/**
 * @file
 * Tests for the PAQOC core: Observation-1 preprocessing, the
 * criticality-aware merge engine (Algorithm 1) including its monotone
 * makespan guarantee and semantics preservation, ESP evaluation, the
 * AccQOC baseline partitioner, and the end-to-end compiler facade.
 */

#include <gtest/gtest.h>

#include "circuit/circuit.h"
#include "circuit/schedule.h"
#include "common/rng.h"
#include "linalg/unitary_util.h"
#include "paqoc/accqoc.h"
#include "paqoc/compiler.h"
#include "paqoc/esp.h"
#include "paqoc/merge_engine.h"
#include "paqoc/preprocess.h"
#include "qoc/pulse_generator.h"

namespace paqoc {
namespace {

/** A small entangling circuit with obvious merge opportunities. */
Circuit
sampleCircuit()
{
    Circuit c(4);
    c.h(0);
    c.cx(0, 1);
    c.rz(1, 0.7);
    c.cx(0, 1);
    c.h(2);
    c.cx(2, 3);
    c.cx(2, 3);
    c.t(3);
    return c;
}

/** Random shallow circuit for property tests. */
Circuit
randomCircuit(Rng &rng, int nq, int n_gates)
{
    Circuit c(nq);
    for (int i = 0; i < n_gates; ++i) {
        const int a = rng.range(0, nq - 2);
        switch (rng.range(0, 3)) {
          case 0:
            c.cx(a, a + 1);
            break;
          case 1:
            c.h(a);
            break;
          case 2:
            c.rz(a, rng.uniform(0.2, 2.8));
            break;
          default:
            c.cx(a + 1, a);
            break;
        }
    }
    return c;
}

double
makespanOf(const Circuit &c, PulseGenerator &gen)
{
    return computeSchedule(c, [&](const Gate &g) {
        return gen.estimateLatency(g.unitary(), g.arity());
    }).makespan;
}

TEST(Preprocess, MergesSamePairRuns)
{
    Circuit c(2);
    c.cx(0, 1);
    c.rz(1, 0.5);
    c.cx(0, 1);
    const Circuit p = preprocessMergeNestedSupport(c, 3);
    EXPECT_EQ(p.size(), 1u);
    EXPECT_TRUE(p.gate(0).isCustom());
    EXPECT_EQ(p.gate(0).absorbedCount(), 3);
    EXPECT_TRUE(equalUpToGlobalPhase(circuitUnitary(c),
                                     circuitUnitary(p)));
}

TEST(Preprocess, DoesNotWidenBeyondNesting)
{
    // cx(0,1) then cx(1,2): supports {0,1} and {1,2} are not nested,
    // so Observation-1 preprocessing must not merge them.
    Circuit c(3);
    c.cx(0, 1);
    c.cx(1, 2);
    const Circuit p = preprocessMergeNestedSupport(c, 3);
    EXPECT_EQ(p.size(), 2u);
}

TEST(Preprocess, AbsorbsOneQubitGatesIntoTwoQubitNeighbors)
{
    Circuit c(2);
    c.h(0);
    c.cx(0, 1);
    c.t(1);
    const Circuit p = preprocessMergeNestedSupport(c, 3);
    EXPECT_EQ(p.size(), 1u);
    EXPECT_TRUE(equalUpToGlobalPhase(circuitUnitary(c),
                                     circuitUnitary(p)));
}

class PreprocessProperty : public ::testing::TestWithParam<int> {};

TEST_P(PreprocessProperty, PreservesSemanticsAndNeverWidens)
{
    Rng rng(4242 + static_cast<std::uint64_t>(GetParam()));
    const Circuit c = randomCircuit(rng, rng.range(2, 5),
                                    rng.range(4, 25));
    const Circuit p = preprocessMergeNestedSupport(c, 3);
    EXPECT_LE(p.size(), c.size());
    EXPECT_TRUE(equalUpToGlobalPhase(circuitUnitary(c),
                                     circuitUnitary(p)));
    for (const Gate &g : p.gates())
        EXPECT_LE(g.arity(), 3);
    EXPECT_EQ(p.absorbedTotal(), static_cast<int>(c.size()));
}

INSTANTIATE_TEST_SUITE_P(Random, PreprocessProperty,
                         ::testing::Range(0, 10));

TEST(MergeEngine, ReducesMakespanMonotonically)
{
    SpectralPulseGenerator gen;
    const Circuit c = sampleCircuit();
    const double before = makespanOf(c, gen);
    const MergeResult r = mergeCustomizedGates(c, gen);
    EXPECT_LE(r.stats.finalMakespan, r.stats.initialMakespan + 1e-9);
    EXPECT_LE(r.stats.finalMakespan, before + 1e-9);
    EXPECT_GT(r.stats.iterations, 0);
}

TEST(MergeEngine, PreservesSemantics)
{
    SpectralPulseGenerator gen;
    const Circuit c = sampleCircuit();
    const MergeResult r = mergeCustomizedGates(c, gen);
    EXPECT_TRUE(equalUpToGlobalPhase(circuitUnitary(c),
                                     circuitUnitary(r.circuit)));
    EXPECT_EQ(r.circuit.absorbedTotal(), static_cast<int>(c.size()));
}

TEST(MergeEngine, RespectsMaxN)
{
    SpectralPulseGenerator gen;
    Rng rng(77);
    const Circuit c = randomCircuit(rng, 5, 30);
    MergeOptions opts;
    opts.maxN = 2;
    const MergeResult r = mergeCustomizedGates(c, gen, opts);
    for (const Gate &g : r.circuit.gates())
        EXPECT_LE(g.arity(), 2);
}

TEST(MergeEngine, TopKStillMonotone)
{
    SpectralPulseGenerator gen;
    Rng rng(78);
    const Circuit c = randomCircuit(rng, 5, 40);
    MergeOptions opts;
    opts.topK = 4;
    const MergeResult r = mergeCustomizedGates(c, gen, opts);
    EXPECT_LE(r.stats.finalMakespan, r.stats.initialMakespan + 1e-9);
    EXPECT_TRUE(equalUpToGlobalPhase(circuitUnitary(c),
                                     circuitUnitary(r.circuit)));
}

class MergeEngineProperty : public ::testing::TestWithParam<int> {};

TEST_P(MergeEngineProperty, MonotoneAndCorrectOnRandomCircuits)
{
    Rng rng(1300 + static_cast<std::uint64_t>(GetParam()));
    SpectralPulseGenerator gen;
    const Circuit c = randomCircuit(rng, rng.range(3, 6),
                                    rng.range(6, 30));
    const MergeResult r = mergeCustomizedGates(c, gen);
    EXPECT_LE(r.stats.finalMakespan, r.stats.initialMakespan + 1e-9);
    // Observation 1 end to end: never slower than the stitched input
    // (on seeds 1 and 3 preprocessing alone would lengthen it).
    EXPECT_LE(r.stats.finalMakespan, makespanOf(c, gen) + 1e-9);
    EXPECT_TRUE(equalUpToGlobalPhase(circuitUnitary(c),
                                     circuitUnitary(r.circuit)));
    EXPECT_EQ(r.circuit.absorbedTotal(), static_cast<int>(c.size()));
}

INSTANTIATE_TEST_SUITE_P(Random, MergeEngineProperty,
                         ::testing::Range(0, 12));

TEST(MergeEngine, CriticalityPruneReducesScoredCandidates)
{
    Rng rng(55);
    const Circuit c = randomCircuit(rng, 6, 40);
    SpectralPulseGenerator g1, g2;
    MergeOptions pruned, unpruned;
    unpruned.criticalityPrune = false;
    const MergeResult rp = mergeCustomizedGates(c, g1, pruned);
    const MergeResult ru = mergeCustomizedGates(c, g2, unpruned);
    // Pruning must not hurt the final latency materially, and it
    // must prune something on a circuit with parallel branches.
    EXPECT_GT(rp.stats.candidatesPruned, 0);
    EXPECT_LE(rp.stats.finalMakespan,
              ru.stats.finalMakespan * 1.25 + 1e-9);
}

TEST(Esp, ProductOfGateSuccessRates)
{
    SpectralPulseGenerator gen;
    Circuit c(2);
    c.h(0);
    c.cx(0, 1);
    const CircuitPulses p = generateCircuitPulses(c, gen);
    ASSERT_EQ(p.gateError.size(), 2u);
    EXPECT_NEAR(p.esp,
                (1.0 - p.gateError[0]) * (1.0 - p.gateError[1]), 1e-12);
    EXPECT_GT(p.makespan, 0.0);
}

TEST(Accqoc, PartitionRespectsLimits)
{
    Rng rng(91);
    const Circuit c = randomCircuit(rng, 6, 60);
    AccqocOptions opts;
    opts.maxN = 3;
    opts.depth = 3;
    const Circuit p = accqocPartition(c, opts);
    for (const Gate &g : p.gates())
        EXPECT_LE(g.arity(), 3);
    EXPECT_TRUE(equalUpToGlobalPhase(circuitUnitary(c),
                                     circuitUnitary(p)));
    EXPECT_EQ(p.absorbedTotal(), static_cast<int>(c.size()));
    EXPECT_LT(p.size(), c.size());
}

TEST(Accqoc, DeeperGroupsMergeMore)
{
    Rng rng(92);
    const Circuit c = randomCircuit(rng, 5, 80);
    AccqocOptions d3, d5;
    d3.depth = 3;
    d5.depth = 5;
    const Circuit p3 = accqocPartition(c, d3);
    const Circuit p5 = accqocPartition(c, d5);
    EXPECT_LE(p5.size(), p3.size());
}

TEST(Accqoc, MstOrderCoversDistinctUnitaries)
{
    Circuit c(2);
    c.h(0);
    c.h(1);       // same unitary as h(0)
    c.cx(0, 1);
    c.cx(0, 1);   // duplicate
    c.rz(0, 0.4);
    const std::vector<std::size_t> order = similarityMstOrder(c);
    EXPECT_EQ(order.size(), 3u); // h, cx, rz representatives
}

TEST(Compiler, PaqocBeatsAccqocOnLatency)
{
    // The headline claim at small scale: PAQOC(M=0) produces lower
    // whole-circuit latency than accqoc_n3d3 on a merge-friendly
    // circuit, at ESP no worse.
    const Circuit c = sampleCircuit();
    SpectralPulseGenerator gen_a, gen_p;
    const CompileReport acc =
        compileAccqoc(c, gen_a, AccqocOptions{3, 3});
    PaqocOptions popt;
    popt.apaM = 0;
    const CompileReport paq = compilePaqoc(c, gen_p, popt);
    EXPECT_LE(paq.latency, acc.latency + 1e-9);
    EXPECT_GE(paq.esp, acc.esp - 1e-9);
    EXPECT_TRUE(equalUpToGlobalPhase(circuitUnitary(c),
                                     circuitUnitary(paq.circuit)));
}

TEST(Compiler, ApaModesPreserveSemantics)
{
    Circuit c(4);
    for (int rep = 0; rep < 3; ++rep) {
        for (int i = 0; i < 3; i += 2) {
            c.cx(i, i + 1);
            c.rz(i + 1, 0.3, "g");
            c.cx(i, i + 1);
        }
        c.h(0);
    }
    for (int m : {0, 1, -1}) {
        SpectralPulseGenerator gen;
        PaqocOptions opts;
        opts.apaM = m;
        const CompileReport r = compilePaqoc(c, gen, opts);
        EXPECT_TRUE(equalUpToGlobalPhase(circuitUnitary(c),
                                         circuitUnitary(r.circuit)))
            << "M=" << m;
        if (m != 0) {
            EXPECT_FALSE(r.patterns.empty());
            EXPECT_GT(r.apaUses, 0);
        }
    }
}

TEST(Compiler, TunedModeReportsApaStats)
{
    Circuit c(4);
    for (int rep = 0; rep < 4; ++rep) {
        c.cx(0, 1);
        c.rz(1, 0.3, "g");
        c.cx(0, 1);
        c.cx(2, 3);
        c.rz(3, 0.3, "g");
        c.cx(2, 3);
    }
    SpectralPulseGenerator gen;
    PaqocOptions opts;
    opts.tuned = true;
    const CompileReport r = compilePaqoc(c, gen, opts);
    EXPECT_GT(r.apaUses, 0);
    EXPECT_GT(r.gatesCovered, 0);
    EXPECT_TRUE(equalUpToGlobalPhase(circuitUnitary(c),
                                     circuitUnitary(r.circuit)));
}

TEST(Compiler, ApaInfReducesCompileCostVersusMZero)
{
    // The Fig. 11 mechanism: APA gates recur, so pulses are generated
    // once and the rest are cache hits, reducing compile cost units.
    Circuit c(4);
    for (int rep = 0; rep < 6; ++rep) {
        c.cx(0, 1);
        c.rz(1, 0.3, "g");
        c.cx(0, 1);
        c.cx(2, 3);
        c.rz(3, 0.3, "g");
        c.cx(2, 3);
    }
    SpectralPulseGenerator gen0, geninf;
    PaqocOptions m0, minf;
    m0.apaM = 0;
    minf.apaM = -1;
    const CompileReport r0 = compilePaqoc(c, gen0, m0);
    const CompileReport rinf = compilePaqoc(c, geninf, minf);
    EXPECT_LT(rinf.costUnits, r0.costUnits + 1e-9);
    // And M=0 should give the better (or equal) latency.
    EXPECT_LE(r0.latency, rinf.latency + 1e-9);
}

class CompilerProperty : public ::testing::TestWithParam<int> {};

TEST_P(CompilerProperty, EndToEndInvariants)
{
    Rng rng(7100 + static_cast<std::uint64_t>(GetParam()));
    const Circuit c = randomCircuit(rng, rng.range(3, 6),
                                    rng.range(8, 30));
    SpectralPulseGenerator gen;
    PaqocOptions opts;
    opts.apaM = (GetParam() % 3 == 0) ? -1 : 0;
    const CompileReport r = compilePaqoc(c, gen, opts);
    EXPECT_GT(r.latency, 0.0);
    // Merged never slower than stitched (on seeds 21, 34 and 36
    // preprocessing alone would lengthen the schedule).
    EXPECT_LE(r.latency, makespanOf(c, gen) + 1e-9);
    EXPECT_GT(r.esp, 0.0);
    EXPECT_LE(r.esp, 1.0);
    EXPECT_GT(r.finalGateCount, 0);
    EXPECT_LE(r.finalGateCount, static_cast<int>(c.size()));
    EXPECT_TRUE(equalUpToGlobalPhase(circuitUnitary(c),
                                     circuitUnitary(r.circuit)));
}

INSTANTIATE_TEST_SUITE_P(Random, CompilerProperty,
                         ::testing::Range(0, 40));

} // namespace
} // namespace paqoc
