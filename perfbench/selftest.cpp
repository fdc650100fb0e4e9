/**
 * @file
 * Self-tests of the benchmark's own code: the estimator arithmetic,
 * the seeded input generators and QASM emitter, span self time, and a
 * smoke run of every workload against the real daemon.
 */

#include <algorithm>
#include <cmath>
#include <functional>
#include <sstream>

#include <gtest/gtest.h>

#include "bench.h"
#include "circuit/qasm.h"
#include "inputs.h"
#include "oracle.h"
#include "stats.h"
#include "trace.h"
#include "workloads/benchmarks.h"

namespace perfbench {
namespace {

std::vector<double>
iota(int n)
{
    std::vector<double> v;
    for (int i = 1; i <= n; ++i)
        v.push_back(static_cast<double>(i));
    return v;
}

TEST(Stats, TailKeepsTenValuesBeyond)
{
    // 24 values 1..24: rank 14 is the highest with 10 above it.
    const TailPercentile t = tailPercentile(iota(24));
    EXPECT_EQ(t.value, 14.0);
    EXPECT_EQ(t.beyondCount, 10u);
    EXPECT_NEAR(t.percentile, 100.0 * 14 / 24, 1e-12);
    // Order does not matter.
    std::vector<double> rev = iota(24);
    std::reverse(rev.begin(), rev.end());
    EXPECT_EQ(tailPercentile(rev).value, 14.0);
}

TEST(Stats, TailWithFewerThanTwentyInputs)
{
    // n = 15: rank 5 leaves exactly 10 beyond.
    const TailPercentile t15 = tailPercentile(iota(15));
    EXPECT_EQ(t15.value, 5.0);
    EXPECT_EQ(t15.beyondCount, 10u);
    // n = 11: the minimum is the only value with 10 beyond it.
    EXPECT_EQ(tailPercentile(iota(11)).value, 1.0);
    // n <= 10: no value has 10 beyond; the maximum is reported and
    // the shortfall is visible in beyondCount.
    const TailPercentile t3 = tailPercentile(iota(3));
    EXPECT_EQ(t3.value, 3.0);
    EXPECT_EQ(t3.beyondCount, 0u);
    EXPECT_EQ(t3.percentile, 100.0);
}

TEST(Stats, BestOfPassesIsPerInputMinimum)
{
    const std::vector<double> best =
        bestOfPasses({{3.0, 1.0, 5.0}, {2.0, 4.0, 6.0}, {9.0, 9.0, 0.5}});
    EXPECT_EQ(best, (std::vector<double>{2.0, 1.0, 0.5}));
    EXPECT_THROW(bestOfPasses({{1.0}, {1.0, 2.0}}), paqoc::FatalError);
}

TEST(Stats, MedianAndGeomean)
{
    EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
    EXPECT_NEAR(geomean({1.0, 4.0, 16.0}), 4.0, 1e-12);
    EXPECT_NEAR(geomean({2.0}), 2.0, 1e-15);
    EXPECT_THROW(geomean({1.0, 0.0}), paqoc::FatalError);
}

/** Gate-by-gate equality, angles compared bit for bit. */
void
expectSameCircuit(const paqoc::Circuit &a, const paqoc::Circuit &b)
{
    ASSERT_EQ(a.numQubits(), b.numQubits());
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a.gate(i).op(), b.gate(i).op()) << "gate " << i;
        EXPECT_EQ(a.gate(i).qubits(), b.gate(i).qubits()) << "gate " << i;
        EXPECT_EQ(a.gate(i).angle(), b.gate(i).angle()) << "gate " << i;
    }
}

TEST(Inputs, EmitterRoundTripsEveryTableOneProgramExactly)
{
    for (const auto &spec : paqoc::workloads::allBenchmarks()) {
        SCOPED_TRACE(spec.name);
        const paqoc::Circuit c = paqoc::workloads::makeLogical(spec.name);
        expectSameCircuit(paqoc::fromQasm(emitQasm(c)), c);
    }
}

TEST(Inputs, AnglesAreExactFractionsOrFullPrecision)
{
    const double pi = 3.14159265358979323846;
    EXPECT_EQ(emitAngle(pi / 4), "pi/4");
    EXPECT_EQ(emitAngle(-3 * pi / 8), "-3*pi/8");
    EXPECT_EQ(emitAngle(pi), "pi");
    EXPECT_EQ(emitAngle(0.0), "0");
    EXPECT_EQ(emitAngle(0.1), "0.10000000000000001");
}

/** Same seed, same request bytes; another seed, mostly other QASM. */
void
expectSeeded(const std::function<std::vector<BenchInput>(std::uint64_t)> &make)
{
    const std::vector<BenchInput> a = make(7);
    const std::vector<BenchInput> b = make(7);
    const std::vector<BenchInput> c = make(8);
    ASSERT_EQ(a.size(), b.size());
    ASSERT_EQ(a.size(), c.size());
    EXPECT_GE(a.size(), 20u);
    std::size_t differ = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].request.dump(), b[i].request.dump());
        differ += a[i].qasm != c[i].qasm ? 1 : 0;
    }
    EXPECT_GT(differ, a.size() / 2);
}

TEST(Inputs, SameSeedSameBytesOtherSeedOtherInputs)
{
    for (Workload w : {Workload::GrapeCold, Workload::LibraryWarm}) {
        SCOPED_TRACE(workloadName(w));
        expectSeeded([w](std::uint64_t seed) { return makeInputs(w, seed); });
        EXPECT_TRUE(relabeledInputs(w, 7).empty());
    }
    // The two GRAPE workloads draw from separate streams.
    EXPECT_NE(makeInputs(Workload::GrapeCold, 3)[0].qasm,
              makeInputs(Workload::LibraryWarm, 3)[0].qasm);
    // table1_spectral times the same inputs, seed 1's relabeling, for
    // every seed; the seed relabels the inputs its oracle checks.
    expectSeeded([](std::uint64_t seed) {
        return relabeledInputs(Workload::Table1Spectral, seed);
    });
    const std::vector<BenchInput> timed =
        makeInputs(Workload::Table1Spectral, 8);
    const std::vector<BenchInput> seed1 =
        relabeledInputs(Workload::Table1Spectral, 1);
    ASSERT_EQ(timed.size(), seed1.size());
    for (std::size_t i = 0; i < timed.size(); ++i)
        EXPECT_EQ(timed[i].request.dump(), seed1[i].request.dump());
}

TEST(Inputs, SeedZeroKeepsThePapersLabeling)
{
    EXPECT_EQ(seededPermutation(5, 0), (std::vector<int>{0, 1, 2, 3, 4}));
    const std::vector<BenchInput> inputs =
        relabeledInputs(Workload::Table1Spectral, 0);
    ASSERT_EQ(inputs.size(), 2 * table1Programs().size());
    for (std::size_t i = 0; i < table1Programs().size(); ++i)
        EXPECT_EQ(inputs[2 * i].qasm, emitQasm(paqoc::workloads::makeLogical(
                                          table1Programs()[i])));
    // A relabeling is a permutation.
    std::vector<int> p = seededPermutation(9, 1234);
    std::sort(p.begin(), p.end());
    EXPECT_EQ(p, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8}));
}

TEST(Inputs, PassOrderIsASeededPermutation)
{
    const std::vector<std::size_t> o1 = passOrder(24, 5, 0);
    EXPECT_EQ(o1, passOrder(24, 5, 0));
    EXPECT_NE(o1, passOrder(24, 5, 1));
    std::vector<std::size_t> sorted = o1;
    std::sort(sorted.begin(), sorted.end());
    for (std::size_t i = 0; i < sorted.size(); ++i)
        EXPECT_EQ(sorted[i], i);
}

TEST(Trace, SelfTimeSubtractsTheUnionOfChildren)
{
    // root [0,10] with children [1,4] and [3,6] (overlapping) and
    // [8,9]; the first child has a grandchild [2,3].
    std::vector<Span> spans = {
        {"root", 0.0, 10.0, -1, 0}, {"a", 1.0, 4.0, 0, 0},
        {"b", 3.0, 6.0, 0, 0},      {"c", 8.0, 9.0, 0, 0},
        {"a.1", 2.0, 3.0, 1, 0},
    };
    const std::vector<double> self = selfTimes(spans);
    EXPECT_DOUBLE_EQ(self[0], 10.0 - 5.0 - 1.0);
    EXPECT_DOUBLE_EQ(self[1], 2.0);
    EXPECT_DOUBLE_EQ(self[2], 3.0);
    EXPECT_DOUBLE_EQ(self[3], 1.0);
    EXPECT_DOUBLE_EQ(self[4], 1.0);
    const auto by_name = timeByName(spans, true);
    EXPECT_DOUBLE_EQ(by_name.at("root"), 4.0);
    EXPECT_DOUBLE_EQ(timeByName(spans, false).at("root"), 10.0);
}

TEST(Trace, ScopesNestAndDisabledTracerRecordsNothing)
{
    Tracer on(true);
    on.setInput(3);
    {
        const Tracer::Scope outer(on, "outer");
        Tracer::Scope inner(on, "inner");
        inner.rename("renamed");
    }
    const std::vector<Span> &spans = on.spans();
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans[0].parent, -1);
    EXPECT_EQ(spans[1].parent, 0);
    EXPECT_EQ(spans[1].name, "renamed");
    EXPECT_EQ(spans[1].input, 3);
    EXPECT_LE(spans[0].start, spans[1].start);
    EXPECT_GE(spans[0].end, spans[1].end);

    Tracer off(false);
    {
        const Tracer::Scope s(off, "x");
    }
    EXPECT_TRUE(off.spans().empty());
}

TEST(Oracle, ImpliedFidelityAddsAngles)
{
    EXPECT_DOUBLE_EQ(impliedProcessFidelity({}), 1.0);
    EXPECT_NEAR(impliedProcessFidelity({1e-3}), 1.0 - 1e-3, 1e-12);
    // Two equal angles: cos^2(2 theta).
    const double theta = std::acos(std::sqrt(1.0 - 1e-3));
    EXPECT_NEAR(impliedProcessFidelity({1e-3, 1e-3}),
                std::pow(std::cos(2 * theta), 2), 1e-12);
    EXPECT_NEAR(impliedProcessFidelity(std::vector<double>(100, 0.5)), 0.0,
                1e-20);
}

TEST(Smoke, EveryWorkloadTimedAndTraced)
{
    RunOptions opt;
    opt.paqocd = PERFBENCH_PAQOCD;
    opt.workdir = PERFBENCH_WORKDIR;
    opt.inputLimit = 3;
    opt.passes = 1;
    for (Workload w : {Workload::GrapeCold, Workload::Table1Spectral,
                       Workload::LibraryWarm}) {
        for (bool trace : {false, true}) {
            SCOPED_TRACE(std::string(workloadName(w))
                         + (trace ? " traced" : " timed"));
            opt.workload = w;
            opt.trace = trace;
            std::ostringstream log;
            const RunResult r = runBenchmark(opt, log);
            EXPECT_TRUE(r.correct) << log.str();
            EXPECT_EQ(r.failed, 0u);
            EXPECT_GE(r.attempted, 3u);
            EXPECT_EQ(r.metrics.size(), trace ? 40u : 9u);
            for (const Metric &m : r.metrics)
                EXPECT_TRUE(std::isfinite(m.value)) << m.name;
        }
    }
}

} // namespace
} // namespace perfbench
