/**
 * @file
 * Unit tests for the common utilities: error macros, RNG determinism,
 * table formatting, and the thread pool.
 */

#include <atomic>
#include <chrono>
#include <future>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/bench_snapshot.h"
#include "common/error.h"
#include "common/json.h"
#include "common/quota.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/table.h"
#include "common/thread_pool.h"

namespace paqoc {
namespace {

TEST(Error, FatalIfThrowsWithMessage)
{
    try {
        PAQOC_FATAL_IF(true, "value was ", 42);
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("value was 42"),
                  std::string::npos);
    }
}

TEST(Error, FatalIfFalseDoesNotThrow)
{
    EXPECT_NO_THROW(PAQOC_FATAL_IF(false, "never"));
}

TEST(Error, AssertThrowsInternalError)
{
    EXPECT_THROW(PAQOC_ASSERT(1 == 2, "broken"), InternalError);
    EXPECT_NO_THROW(PAQOC_ASSERT(1 == 1, "fine"));
}

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 4);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    double lo = 1.0, hi = 0.0, sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double u = rng.uniform();
        lo = std::min(lo, u);
        hi = std::max(hi, u);
        sum += u;
    }
    EXPECT_GE(lo, 0.0);
    EXPECT_LT(hi, 1.0);
    EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, RangeIsInclusive)
{
    Rng rng(9);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 1000; ++i) {
        const int v = rng.range(3, 6);
        EXPECT_GE(v, 3);
        EXPECT_LE(v, 6);
        saw_lo |= (v == 3);
        saw_hi |= (v == 6);
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Stopwatch, MeasuresNonNegativeTime)
{
    Stopwatch sw;
    volatile double x = 0.0;
    for (int i = 0; i < 10000; ++i)
        x = x + 1.0;
    EXPECT_GE(sw.seconds(), 0.0);
    sw.reset();
    EXPECT_LT(sw.seconds(), 1.0);
}

TEST(Table, AlignsColumnsAndCountsRows)
{
    Table t({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addRow({"b", "22222"});
    EXPECT_EQ(t.rowCount(), 2u);
    const std::string text = t.toText();
    EXPECT_NE(text.find("alpha"), std::string::npos);
    EXPECT_NE(text.find("22222"), std::string::npos);
}

TEST(Table, RejectsRaggedRow)
{
    Table t({"a", "b"});
    EXPECT_THROW(t.addRow({"only-one"}), FatalError);
}

TEST(Table, CsvRoundtripShape)
{
    Table t({"x", "y"});
    t.addRow({"1", "2"});
    EXPECT_EQ(t.toCsv(), "x,y\n1,2\n");
}

TEST(Table, NumberFormatting)
{
    EXPECT_EQ(Table::num(1.23456, 2), "1.23");
    EXPECT_EQ(Table::percent(0.54, 1), "54.0%");
}

TEST(ThreadPool, SubmitReturnsFutureResults)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4u);
    std::vector<std::future<int>> futures;
    for (int i = 0; i < 32; ++i)
        futures.push_back(pool.submit([i]() { return i * i; }));
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i * i);
}

TEST(ThreadPool, SubmitPropagatesExceptions)
{
    ThreadPool pool(2);
    auto f = pool.submit([]() -> int {
        throw FatalError("boom");
    });
    EXPECT_THROW(f.get(), FatalError);
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce)
{
    ThreadPool pool(4);
    constexpr std::size_t kN = 1000;
    std::vector<std::atomic<int>> counts(kN);
    pool.parallelFor(kN, [&](std::size_t i) {
        counts[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < kN; ++i)
        EXPECT_EQ(counts[i].load(), 1) << i;
}

TEST(ThreadPool, ParallelForRunsSerialWithOneThread)
{
    ThreadPool pool(1);
    // With a single worker the body must run inline on the caller, in
    // index order.
    std::vector<std::size_t> visited;
    pool.parallelFor(10, [&](std::size_t i) { visited.push_back(i); });
    std::vector<std::size_t> expected(10);
    std::iota(expected.begin(), expected.end(), 0u);
    EXPECT_EQ(visited, expected);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock)
{
    ThreadPool pool(2);
    std::atomic<int> total{0};
    // Inner parallelFor calls issued from worker threads fan out too.
    // Each caller drains its own loop and waits only for iterations
    // that another thread already started, so an inner loop never
    // waits on a helper queued behind its own task.
    pool.parallelFor(8, [&](std::size_t) {
        pool.parallelFor(8, [&](std::size_t) {
            total.fetch_add(1, std::memory_order_relaxed);
        });
    });
    EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPool, NestedParallelForFansOutFromWorkers)
{
    // A daemon request runs on a pool worker; the loops inside it
    // (duration probes, batch derivations) must still reach the idle
    // workers instead of running on the caller alone.
    ThreadPool pool(4);
    Mutex mutex;
    std::set<std::thread::id> ids;
    pool.submit([&]() {
            pool.parallelFor(8, [&](std::size_t) {
                {
                    MutexLock lock(mutex);
                    ids.insert(std::this_thread::get_id());
                }
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(20));
            });
        })
        .get();
    EXPECT_GE(ids.size(), 2u);
}

TEST(ThreadPool, SaturatedNestedParallelForCompletes)
{
    // Both workers sit in a nested loop at once, so neither finds a
    // free worker for helpers: each caller drains its own iterations
    // and the whole nest still finishes.
    ThreadPool pool(2);
    std::atomic<int> entered{0};
    std::atomic<int> total{0};
    std::vector<std::future<void>> tasks;
    for (int t = 0; t < 2; ++t)
        tasks.push_back(pool.submit([&]() {
            entered.fetch_add(1);
            while (entered.load() < 2)
                std::this_thread::yield();
            pool.parallelFor(16, [&](std::size_t) {
                pool.parallelFor(4, [&](std::size_t) {
                    total.fetch_add(1, std::memory_order_relaxed);
                });
            });
        }));
    for (std::future<void> &f : tasks)
        ASSERT_EQ(f.wait_for(std::chrono::seconds(60)),
                  std::future_status::ready);
    EXPECT_EQ(total.load(), 2 * 16 * 4);
}

TEST(ThreadPool, HelpersGiveWayToQueuedTasks)
{
    // Once a task waits with no free worker, a loop's helper stops
    // taking iterations: another daemon request starts after one
    // iteration, not after the whole loop.
    ThreadPool pool(2);
    std::atomic<int> done{0};
    std::future<void> loop = pool.submit([&]() {
        pool.parallelFor(40, [&](std::size_t) {
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
            done.fetch_add(1);
        });
    });
    while (done.load() < 2)
        std::this_thread::yield();
    const int done_at_start =
        pool.submit([&]() { return done.load(); }).get();
    loop.get();
    EXPECT_EQ(done.load(), 40);
    EXPECT_LT(done_at_start, 20);
}

TEST(ThreadPool, ParallelForPropagatesBodyException)
{
    ThreadPool pool(4);
    EXPECT_THROW(pool.parallelFor(
                     100,
                     [](std::size_t i) {
                         PAQOC_FATAL_IF(i == 57, "index ", i);
                     }),
                 FatalError);
}

TEST(ThreadPool, GlobalPoolResizes)
{
    const unsigned before = ThreadPool::global().size();
    ThreadPool::setGlobalThreads(2);
    EXPECT_EQ(ThreadPool::global().size(), 2u);
    ThreadPool::setGlobalThreads(before);
    EXPECT_EQ(ThreadPool::global().size(), before);
}

TEST(Json, ParseDumpRoundTrip)
{
    const std::string text = "{\"a\":1,\"b\":[true,null,\"x\"],"
                             "\"c\":{\"d\":2.5}}";
    const Json doc = Json::parse(text);
    EXPECT_EQ(doc.at("a").asInt(), 1);
    EXPECT_TRUE(doc.at("b").at(0).asBool());
    EXPECT_TRUE(doc.at("b").at(1).isNull());
    EXPECT_EQ(doc.at("b").at(2).asString(), "x");
    EXPECT_DOUBLE_EQ(doc.at("c").at("d").asNumber(), 2.5);
    // Insertion-ordered objects make dump() deterministic, so the
    // round trip is byte-exact.
    EXPECT_EQ(doc.dump(), text);
    EXPECT_EQ(Json::parse(doc.dump()).dump(), text);
}

TEST(Json, DumpFormatsIntegralValuesAsIntegers)
{
    Json doc = Json::object();
    doc.set("whole", Json(3.0));
    doc.set("frac", Json(0.5));
    doc.set("count", Json(static_cast<std::size_t>(42)));
    const std::string text = doc.dump();
    EXPECT_NE(text.find("\"whole\":3"), std::string::npos) << text;
    EXPECT_EQ(text.find("3.0"), std::string::npos) << text;
    EXPECT_NE(text.find("\"frac\":0.5"), std::string::npos) << text;
    EXPECT_NE(text.find("\"count\":42"), std::string::npos) << text;
}

TEST(Json, StringEscapesRoundTrip)
{
    Json doc = Json::object();
    doc.set("s", Json(std::string("a\"b\\c\n\t\x01 d")));
    const Json back = Json::parse(doc.dump());
    EXPECT_EQ(back.at("s").asString(), "a\"b\\c\n\t\x01 d");
    // \uXXXX escapes decode to UTF-8 on parse.
    EXPECT_EQ(Json::parse("\"\\u0041\\u00e9\"").asString(),
              "A\xc3\xa9");
}

TEST(Json, ParseErrorsCarryLineAndColumn)
{
    try {
        Json::parse("{\"a\": 1,\n  \"b\": }");
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
    }
    EXPECT_THROW(Json::parse(""), FatalError);
    EXPECT_THROW(Json::parse("{\"a\":1} junk"), FatalError);
    EXPECT_THROW(Json::parse("[1, 2"), FatalError);
}

TEST(Json, TypeMismatchesAreFatal)
{
    const Json doc = Json::parse("{\"n\":1,\"s\":\"x\"}");
    EXPECT_THROW(doc.at("n").asString(), FatalError);
    EXPECT_THROW(doc.at("s").asNumber(), FatalError);
    EXPECT_THROW(doc.at("missing"), FatalError);
    EXPECT_EQ(doc.get("missing", Json(7)).asInt(), 7);
}

TEST(Quota, ResolveTightensButNeverWidens)
{
    QuotaLimits caps;
    caps.maxIters = 100;

    QuotaLimits request;            // empty request inherits the caps
    QuotaLimits r = resolveQuota(caps, request);
    EXPECT_EQ(r.maxIters, 100);
    EXPECT_EQ(r.maxResidentPulses, 0);

    request.maxIters = 10;          // tighter than the cap: honored
    request.maxResidentPulses = 3;  // uncapped field: passed through
    r = resolveQuota(caps, request);
    EXPECT_EQ(r.maxIters, 10);
    EXPECT_EQ(r.maxResidentPulses, 3);
    // The same rule bounds the server's wall cap on a request.
    EXPECT_EQ(resolveLimit(500.0, 9000.0), 500.0);

    request.maxIters = -5;          // junk never widens to unlimited
    r = resolveQuota(caps, request);
    EXPECT_EQ(r.maxIters, 100);
    EXPECT_EQ(resolveQuota(QuotaLimits{}, QuotaLimits{}).any(), false);
}

TEST(Quota, TokenTripsOnceAndNamesTheLimit)
{
    QuotaLimits limits;
    limits.maxIters = 3;
    QuotaToken token(limits);
    EXPECT_TRUE(token.chargeIterations(2));
    EXPECT_TRUE(token.chargeIterations(1));
    EXPECT_FALSE(token.exceeded());
    EXPECT_FALSE(token.chargeIterations(1)); // 4 > 3: trips
    EXPECT_TRUE(token.exceeded());
    EXPECT_STREQ(token.limitName(), "max_iters");
    // Tripped is permanent, and every later charge is refused.
    EXPECT_FALSE(token.chargeIterations(1));
    EXPECT_FALSE(token.chargeResidentPulse());
    try {
        token.throwQuotaExceeded();
        FAIL() << "expected QuotaExceededError";
    } catch (const QuotaExceededError &e) {
        EXPECT_STREQ(e.limit(), "max_iters");
        EXPECT_NE(std::string(e.what()).find("quota_exceeded"),
                  std::string::npos);
    }
}

TEST(Quota, ResidentPulseAndWallClockBudgets)
{
    QuotaLimits limits;
    limits.maxResidentPulses = 1;
    QuotaToken token(limits, true);
    EXPECT_TRUE(token.degradeOnExceeded());
    EXPECT_TRUE(token.chargeResidentPulse());
    EXPECT_FALSE(token.chargeResidentPulse());
    EXPECT_STREQ(token.limitName(), "max_resident_pulses");
    EXPECT_EQ(token.residentCharged(), 2);

    // An unlimited token never trips.
    QuotaToken open_ended{QuotaLimits{}};
    EXPECT_TRUE(open_ended.chargeIterations(1 << 20));
    EXPECT_TRUE(open_ended.chargeResidentPulse());
}

TEST(Quota, StepChargesThenPollsTheRequestsCancellation)
{
    // One check per iteration: charge, then poll the cancel token the
    // token carries.
    QuotaLimits limits;
    limits.maxIters = 1;
    CancelSource source;
    QuotaToken degrading(limits, true, source.token());
    EXPECT_EQ(degrading.step(), QuotaToken::Step::Continue);
    EXPECT_EQ(degrading.step(), QuotaToken::Step::StopDegraded);
    // A degraded token still unwinds once the request is cancelled.
    source.cancel(CancelReason::ClientDisconnected);
    EXPECT_EQ(degrading.step(), QuotaToken::Step::Unwind);
    try {
        degrading.throwStop();
        FAIL() << "expected CancelledError";
    } catch (const CancelledError &e) {
        EXPECT_EQ(e.reason(), CancelReason::ClientDisconnected);
        EXPECT_EQ(e.itersCharged(), 2);
    }

    // Cancelled within budget: CancelledError. Once the budget trips
    // too, the hard trip wins.
    QuotaToken hard(limits, false, source.token());
    EXPECT_EQ(hard.step(), QuotaToken::Step::Unwind);
    EXPECT_THROW(hard.throwStop(), CancelledError);
    EXPECT_EQ(hard.step(), QuotaToken::Step::Unwind);
    EXPECT_THROW(hard.throwStop(), QuotaExceededError);

    // Without a cancel token nothing but the budget stops the work.
    QuotaToken open_ended{QuotaLimits{}};
    EXPECT_EQ(open_ended.step(), QuotaToken::Step::Continue);
    EXPECT_NO_THROW(open_ended.throwIfCancelled());
}

TEST(BenchSnapshot, JsonRoundTripPreservesEverything)
{
    BenchSnapshot snap;
    snap.name = "micro_kernels";
    snap.setContext("backend", "avx2");
    snap.setMetric("gemm_ops_per_sec", 12345.678901234567, true);
    snap.setMetric("wall_seconds", 0.25, false);
    // Overwrite keeps first-insert order and the new value.
    snap.setMetric("gemm_ops_per_sec", 23456.789, true);

    const BenchSnapshot back = BenchSnapshot::fromJson(snap.toJson());
    EXPECT_EQ(back.name, "micro_kernels");
    ASSERT_EQ(back.metrics.size(), 2u);
    EXPECT_EQ(back.metrics[0].first, "gemm_ops_per_sec");
    EXPECT_EQ(back.metrics[0].second.value, 23456.789);
    EXPECT_TRUE(back.metrics[0].second.higherIsBetter);
    EXPECT_EQ(back.metrics[1].first, "wall_seconds");
    EXPECT_FALSE(back.metrics[1].second.higherIsBetter);
    ASSERT_EQ(back.context.size(), 1u);
    EXPECT_EQ(back.context[0].second, "avx2");
    // Serialization is deterministic: dump(parse(dump)) == dump.
    EXPECT_EQ(back.toJson().dump(), snap.toJson().dump());
}

TEST(BenchSnapshot, FromJsonRejectsWrongSchema)
{
    EXPECT_THROW(
        BenchSnapshot::fromJson(Json::parse("{\"schema\":\"v0\"}")),
        FatalError);
    EXPECT_THROW(BenchSnapshot::fromJson(Json::parse("[]")),
                 FatalError);
}

TEST(BenchSnapshot, CompareHonorsDirectionAndTolerance)
{
    BenchSnapshot committed;
    committed.setMetric("throughput", 100.0, true);
    committed.setMetric("latency", 10.0, false);

    // Inside the band in the bad direction: ok.
    BenchSnapshot fresh = committed;
    fresh.setMetric("throughput", 91.0, true);
    fresh.setMetric("latency", 10.9, false);
    EXPECT_TRUE(compareSnapshots(committed, fresh, 0.10).ok);

    // Higher-is-better dropping below committed * (1 - tol) regresses.
    fresh.setMetric("throughput", 89.0, true);
    const SnapshotComparison slow =
        compareSnapshots(committed, fresh, 0.10);
    EXPECT_FALSE(slow.ok);
    EXPECT_TRUE(slow.deltas[0].regressed);
    EXPECT_FALSE(slow.deltas[1].regressed);
    EXPECT_NE(slow.describe().find("REGRESSED throughput"),
              std::string::npos);

    // Lower-is-better rising above committed * (1 + tol) regresses;
    // improving in either direction never does.
    fresh.setMetric("throughput", 500.0, true);
    fresh.setMetric("latency", 11.1, false);
    const SnapshotComparison laggy =
        compareSnapshots(committed, fresh, 0.10);
    EXPECT_FALSE(laggy.ok);
    EXPECT_FALSE(laggy.deltas[0].regressed);
    EXPECT_TRUE(laggy.deltas[1].regressed);
}

TEST(BenchSnapshot, MissingMetricRegressesExtraIgnored)
{
    BenchSnapshot committed;
    committed.setMetric("kept", 1.0, true);
    committed.setMetric("dropped", 1.0, true);
    BenchSnapshot fresh;
    fresh.setMetric("kept", 1.0, true);
    fresh.setMetric("brand_new", 99.0, true);
    const SnapshotComparison cmp =
        compareSnapshots(committed, fresh, 0.5);
    EXPECT_FALSE(cmp.ok);
    ASSERT_EQ(cmp.deltas.size(), 2u);
    EXPECT_FALSE(cmp.deltas[0].regressed);
    EXPECT_TRUE(cmp.deltas[1].missing);
    EXPECT_TRUE(cmp.deltas[1].regressed);
    EXPECT_NE(cmp.describe().find("fresh=<missing>"),
              std::string::npos);
}

} // namespace
} // namespace paqoc
