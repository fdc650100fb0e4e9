/**
 * @file
 * End-to-end integration tests: full pipeline (generate -> decompose
 * -> route -> lower -> mine -> merge -> pulses) on real benchmarks,
 * with semantic verification on small registers, latency-cap
 * invariants, and cross-compiler comparisons.
 */

#include <bit>
#include <cctype>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "circuit/contract.h"
#include "circuit/qasm.h"
#include "circuit/schedule.h"
#include "linalg/kernels.h"
#include "linalg/unitary_util.h"
#include "paqoc/compiler.h"
#include "paqoc/latency_oracle.h"
#include "qoc/pulse_generator.h"
#include "sim/pulse_simulator.h"
#include "transpile/decompose.h"
#include "transpile/sabre.h"
#include "workloads/benchmarks.h"

namespace paqoc {
namespace {

namespace wl = workloads;

/** Full pipeline on a benchmark routed to a compact topology. */
CompileReport
pipeline(const std::string &name, const std::string &method)
{
    const auto &spec = wl::benchmarkSpec(name);
    const Topology topo = wl::compactTopology(spec.qubits);
    const Circuit physical = wl::makePhysical(name, topo);
    SpectralPulseGenerator gen;
    if (method == "accqoc")
        return compileAccqoc(physical, gen, AccqocOptions{3, 3});
    PaqocOptions opts;
    opts.apaM = method == "paqoc_inf" ? -1 : 0;
    return compilePaqoc(physical, gen, opts);
}

TEST(Integration, SimonPipelinePreservesSemantics)
{
    const auto &spec = wl::benchmarkSpec("simon");
    const Topology topo = wl::compactTopology(spec.qubits);
    const Circuit physical = wl::makePhysical("simon", topo);
    SpectralPulseGenerator gen;
    const CompileReport r = compilePaqoc(physical, gen, PaqocOptions{});
    EXPECT_TRUE(equalUpToGlobalPhase(circuitUnitary(physical),
                                     circuitUnitary(r.circuit)));
    EXPECT_EQ(r.circuit.absorbedTotal(),
              static_cast<int>(physical.size()));
}

class PipelineBenchmarks
    : public ::testing::TestWithParam<const char *> {};

TEST_P(PipelineBenchmarks, PaqocNoWorseThanAccqocBaseline)
{
    const CompileReport acc = pipeline(GetParam(), "accqoc");
    const CompileReport paq = pipeline(GetParam(), "paqoc");
    EXPECT_LE(paq.latency, acc.latency * 1.05 + 1e-9) << GetParam();
    EXPECT_GE(paq.esp, acc.esp * 0.98 - 1e-9) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(SmallBenchmarks, PipelineBenchmarks,
                         ::testing::Values("rd32", "decod24", "simon",
                                           "bb84"));

TEST(Integration, LatencyCapsHonoredInFinalSchedule)
{
    // Every merged gate's committed latency must respect its cap.
    const Circuit physical = wl::makePhysical(
        "rd32", wl::compactTopology(5));
    SpectralPulseGenerator gen;
    const CompileReport r = compilePaqoc(physical, gen, PaqocOptions{});
    LatencyOracle oracle(gen);
    for (const Gate &g : r.circuit.gates()) {
        if (!g.isCustom())
            continue;
        EXPECT_LE(oracle(g), g.latencyCap() + 1e-9);
    }
}

TEST(Integration, MergedCircuitLatencyBelowUnmergedSchedule)
{
    // The compiled circuit must beat (or match) scheduling the raw
    // physical circuit gate by gate.
    const Circuit physical = wl::makePhysical(
        "decod24", wl::compactTopology(5));
    SpectralPulseGenerator gen;
    LatencyOracle oracle(gen);
    const double raw = computeSchedule(physical, [&](const Gate &g) {
        return oracle(g);
    }).makespan;
    SpectralPulseGenerator gen2;
    const CompileReport r =
        compilePaqoc(physical, gen2, PaqocOptions{});
    EXPECT_LE(r.latency, raw + 1e-9);
}

TEST(Integration, ApaModesNeverBeatRawScheduleUpward)
{
    // Section V-C guarantee surfaces end to end: APA substitution plus
    // merging never yields a slower circuit than the raw schedule.
    const Circuit physical = wl::makePhysical(
        "simon", wl::compactTopology(6));
    SpectralPulseGenerator gen;
    LatencyOracle oracle(gen);
    const double raw = computeSchedule(physical, [&](const Gate &g) {
        return oracle(g);
    }).makespan;
    for (int m : {0, 2, -1}) {
        SpectralPulseGenerator g2;
        PaqocOptions opts;
        opts.apaM = m;
        const CompileReport r = compilePaqoc(physical, g2, opts);
        EXPECT_LE(r.latency, raw + 1e-9) << "M=" << m;
    }
}

TEST(Integration, SimQualityOrderingMatchesLatency)
{
    // Shorter compiled schedules must not simulate worse.
    const auto &spec = wl::benchmarkSpec("rd32");
    const Topology topo = wl::compactTopology(spec.qubits);
    const Circuit physical = wl::makePhysical("rd32", topo);

    SimOptions sim;
    sim.coherenceTimeDt = 2.0e4;

    SpectralPulseGenerator ga, gp, sa, sp;
    const CompileReport acc =
        compileAccqoc(physical, ga, AccqocOptions{3, 3});
    const CompileReport paq = compilePaqoc(physical, gp, PaqocOptions{});
    const SimResult s_acc = simulateCircuitPulses(acc.circuit, sa, sim);
    const SimResult s_paq = simulateCircuitPulses(paq.circuit, sp, sim);
    EXPECT_LE(paq.latency, acc.latency + 1e-9);
    EXPECT_GE(s_paq.quality, s_acc.quality - 1e-6);
}

TEST(Contract, MembersByIdAndTopologicalOrder)
{
    Circuit c(2);
    c.h(0);
    c.cx(0, 1);
    c.t(1);
    const Dag dag = buildDag(c);
    GroupContraction gc(c, dag);
    ASSERT_TRUE(gc.tryMerge({0, 1}));
    const auto members = gc.membersById();
    const auto order = gc.topologicalOrder();
    ASSERT_EQ(order.size(), 2u);
    // First group in order holds gates {0, 1}; second holds {2}.
    EXPECT_EQ(members[static_cast<std::size_t>(order[0])],
              (std::vector<int>{0, 1}));
    EXPECT_EQ(members[static_cast<std::size_t>(order[1])],
              (std::vector<int>{2}));
}

TEST(Contract, SnapshotRestoreRoundTrip)
{
    Circuit c(2);
    c.h(0);
    c.cx(0, 1);
    c.t(1);
    const Dag dag = buildDag(c);
    GroupContraction gc(c, dag);
    const GroupContraction::State s0 = gc.snapshot();
    ASSERT_TRUE(gc.tryMerge({0, 1}));
    EXPECT_EQ(gc.groupOf(0), gc.groupOf(1));
    gc.restore(s0);
    EXPECT_NE(gc.groupOf(0), gc.groupOf(1));
    EXPECT_EQ(gc.groups().size(), 3u);
}

TEST(Contract, CyclicMergeRejectedAndStateIntact)
{
    // a -> b -> c on overlapping qubits: merging {a, c} would create
    // a cycle through b.
    Circuit c(3);
    c.cx(0, 1); // a
    c.cx(1, 2); // b
    c.cx(2, 0); // c... depends on both
    const Dag dag = buildDag(c);
    GroupContraction gc(c, dag);
    EXPECT_FALSE(gc.tryMerge({0, 2}));
    EXPECT_NE(gc.groupOf(0), gc.groupOf(2));
    EXPECT_EQ(gc.groups().size(), 3u);
}

TEST(Integration, AccqocBlocksCarryLatencyCaps)
{
    const Circuit physical = wl::makePhysical(
        "rd32", wl::compactTopology(5));
    SpectralPulseGenerator gen;
    const CompileReport r =
        compileAccqoc(physical, gen, AccqocOptions{3, 3});
    int capped = 0;
    for (const Gate &g : r.circuit.gates()) {
        if (g.isCustom()
            && g.latencyCap()
                   < std::numeric_limits<double>::infinity())
            ++capped;
    }
    EXPECT_GT(capped, 0) << "baseline blocks should carry caps too";
}

TEST(Integration, GeneratorsShareNoStateAcrossCompiles)
{
    // Two compiles with fresh generators give identical results
    // (global determinism).
    const Circuit physical = wl::makePhysical(
        "simon", wl::compactTopology(6));
    SpectralPulseGenerator g1, g2;
    const CompileReport a = compilePaqoc(physical, g1, PaqocOptions{});
    const CompileReport b = compilePaqoc(physical, g2, PaqocOptions{});
    EXPECT_DOUBLE_EQ(a.latency, b.latency);
    EXPECT_DOUBLE_EQ(a.esp, b.esp);
    EXPECT_EQ(a.finalGateCount, b.finalGateCount);
}

/** Every report field that must not depend on the thread count. */
void
expectBitIdentical(const CompileReport &a, const CompileReport &b)
{
    // EXPECT_EQ (not _DOUBLE_EQ/_NEAR): the contract is bit-identity,
    // not closeness.
    EXPECT_EQ(a.latency, b.latency);
    EXPECT_EQ(a.esp, b.esp);
    EXPECT_EQ(a.costUnits, b.costUnits);
    EXPECT_EQ(a.pulseCalls, b.pulseCalls);
    EXPECT_EQ(a.cacheHits, b.cacheHits);
    EXPECT_EQ(a.apaKinds, b.apaKinds);
    EXPECT_EQ(a.apaUses, b.apaUses);
    EXPECT_EQ(a.merges, b.merges);
    EXPECT_EQ(a.finalGateCount, b.finalGateCount);
}

TEST(Integration, PaqocReportIndependentOfThreadCount)
{
    const Circuit physical = wl::makePhysical(
        "simon", wl::compactTopology(6));
    PaqocOptions serial_opts;
    serial_opts.threads = 1;
    PaqocOptions pooled_opts;
    pooled_opts.threads = 8;
    SpectralPulseGenerator g1, g8;
    const CompileReport serial =
        compilePaqoc(physical, g1, serial_opts);
    const CompileReport pooled =
        compilePaqoc(physical, g8, pooled_opts);
    expectBitIdentical(serial, pooled);
}

TEST(Integration, AccqocReportIndependentOfThreadCount)
{
    const Circuit physical = wl::makePhysical(
        "rd32", wl::compactTopology(wl::benchmarkSpec("rd32").qubits));
    AccqocOptions serial_opts;
    serial_opts.threads = 1;
    AccqocOptions pooled_opts;
    pooled_opts.threads = 8;
    SpectralPulseGenerator g1, g8;
    const CompileReport serial =
        compileAccqoc(physical, g1, serial_opts);
    const CompileReport pooled =
        compileAccqoc(physical, g8, pooled_opts);
    expectBitIdentical(serial, pooled);
}

TEST(Integration, GrapeCompileReportIndependentOfThreadCount)
{
    // The expensive variant of the contract: real GRAPE numerics on a
    // tiny circuit, serial vs. an 8-thread pool, bit-identical report.
    Circuit tiny(2);
    tiny.h(0);
    tiny.cx(0, 1);
    tiny.h(1);
    GrapeOptions gopts;
    gopts.maxIterations = 300;
    PaqocOptions serial_opts;
    serial_opts.threads = 1;
    serial_opts.enableMerger = false;
    PaqocOptions pooled_opts = serial_opts;
    pooled_opts.threads = 8;
    GrapePulseGenerator g1(gopts), g8(gopts);
    const CompileReport serial = compilePaqoc(tiny, g1, serial_opts);
    const CompileReport pooled = compilePaqoc(tiny, g8, pooled_opts);
    expectBitIdentical(serial, pooled);
}

TEST(Integration, GrapeCompileReportIndependentOfKernelBackend)
{
    // PAQOC_KERNEL must be free to switch (DESIGN.md §11): the full
    // GRAPE numerics pipeline on the scalar reference kernels vs the
    // vectorized backend, each serial and 8-threaded, all four
    // bit-identical. Degrades to a scalar-vs-scalar (still valid)
    // check on hosts without AVX2.
    Circuit tiny(2);
    tiny.h(0);
    tiny.cx(0, 1);
    GrapeOptions gopts;
    gopts.maxIterations = 200;
    const kernels::Backend entry = kernels::activeBackend();
    std::vector<CompileReport> reports;
    for (const kernels::Backend backend :
         {kernels::Backend::Scalar, kernels::Backend::Avx2}) {
        kernels::setBackend(backend);
        for (const int threads : {1, 8}) {
            PaqocOptions opts;
            opts.threads = threads;
            opts.enableMerger = false;
            GrapePulseGenerator gen(gopts);
            reports.push_back(compilePaqoc(tiny, gen, opts));
        }
    }
    kernels::setBackend(entry);
    for (std::size_t i = 1; i < reports.size(); ++i) {
        SCOPED_TRACE("variant " + std::to_string(i));
        expectBitIdentical(reports[0], reports[i]);
    }
}

/**
 * Latency of a logical program compiled the way a QASM client's
 * request is: routed on the 5x5 grid, lowered, and compiled at
 * m = tuned on the spectral backend.
 */
double
tunedSpectralLatency(const Circuit &logical)
{
    const RoutingResult routed =
        sabreRoute(decomposeToCx(logical), Topology::grid(5, 5));
    PaqocOptions opts;
    opts.tuned = true;
    opts.threads = 1;
    SpectralPulseGenerator gen;
    return compilePaqoc(decomposeToBasis(routed.physical), gen, opts)
        .latency;
}

class TableOneQasm : public ::testing::TestWithParam<std::string> {};

TEST_P(TableOneQasm, RoundTripIsExact)
{
    // A program sent as QASM text must compile exactly as the program
    // itself. qpe is the sensitive one: its angles printed to 12
    // digits compile to 3520 dt instead of 3508 dt.
    const Circuit logical = wl::makeLogical(GetParam());
    const Circuit back = fromQasm(toQasm(logical));
    ASSERT_EQ(back.size(), logical.size());
    int inexact = 0;
    for (std::size_t i = 0; i < logical.size(); ++i) {
        const Gate &a = logical.gate(i);
        const Gate &b = back.gate(i);
        ASSERT_EQ(a.op(), b.op()) << "gate " << i;
        ASSERT_EQ(a.qubits(), b.qubits()) << "gate " << i;
        if (std::bit_cast<std::uint64_t>(a.angle())
                != std::bit_cast<std::uint64_t>(b.angle())
            && inexact++ == 0)
            ADD_FAILURE() << "gate " << i << ": " << a.angle()
                          << " read back as " << b.angle();
    }
    EXPECT_EQ(inexact, 0) << "angles read back inexactly";
    EXPECT_EQ(tunedSpectralLatency(logical), tunedSpectralLatency(back));
}

INSTANTIATE_TEST_SUITE_P(
    AllPrograms, TableOneQasm,
    ::testing::ValuesIn([] {
        std::vector<std::string> names;
        for (const wl::BenchmarkSpec &spec : wl::allBenchmarks())
            names.push_back(spec.name);
        return names;
    }()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (char &c : name)
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return name;
    });

} // namespace
} // namespace paqoc
