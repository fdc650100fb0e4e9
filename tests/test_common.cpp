/**
 * @file
 * Unit tests for the common utilities: error macros, RNG determinism,
 * table formatting, and the thread pool.
 */

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <iterator>
#include <numeric>
#include <optional>
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

/** The writer's contract, spelled with printf. */
std::string
printfNumber(double v)
{
    char buf[64];
    if (v == std::floor(v) && std::abs(v) < 9.007199254740992e15)
        std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
    else
        std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::uint64_t
bitsOf(double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    return bits;
}

/** The doubles the writer and reader checks run over. */
std::vector<double>
numberCorpus()
{
    std::vector<double> out;
    Rng rng(20260922);
    while (out.size() < 100000) {
        const std::uint64_t bits = rng.next();
        double v = 0.0;
        std::memcpy(&v, &bits, sizeof v);
        if (std::isfinite(v))
            out.push_back(v);
    }
    // Integral values on both sides of +-2^53, where the integer and
    // the %.17g paths meet.
    const double two53 = 9007199254740992.0;
    for (int k = -4; k <= 4; ++k) {
        out.push_back(two53 + 2.0 * k);
        out.push_back(-(two53 + 2.0 * k));
        out.push_back(std::ldexp(1.0, 52) + k);
        out.push_back(-(std::ldexp(1.0, 52) + k));
    }
    for (const double v :
         {0.0, -0.0, 1.0, -1.0, 0.5, 0.1, 1e-300, 4.9406564584124654e-324,
          2.2250738585072014e-308, 1.7976931348623157e308, 123456789.0,
          -2147483648.0, 1e15, 1e16, 1e17, 1e21, 1e22, 1e23})
        out.push_back(v);
    return out;
}

TEST(Json, DumpMatchesPrintfOnRandomAndBoundaryNumbers)
{
    for (const double v : numberCorpus())
        ASSERT_EQ(Json(v).dump(), printfNumber(v)) << bitsOf(v);
    // -0.0 takes the integer path and prints as 0.
    EXPECT_EQ(Json(-0.0).dump(), "0");
    EXPECT_EQ(Json(9007199254740993.0).dump(), "9007199254740992");
    EXPECT_EQ(Json(-9007199254740994.0).dump(), "-9007199254740994");
}

TEST(Json, ParseMatchesStrtodBitForBit)
{
    for (const double v : numberCorpus()) {
        const std::string text = printfNumber(v);
        const double want = std::strtod(text.c_str(), nullptr);
        ASSERT_EQ(bitsOf(Json::parse(text).asNumber()), bitsOf(want))
            << text;
        // Inside a document, and with the exponent spelled upper-case.
        std::string upper = text;
        for (char &c : upper)
            if (c == 'e')
                c = 'E';
        ASSERT_EQ(bitsOf(Json::parse("[" + upper + "]").at(0).asNumber()),
                  bitsOf(want))
            << upper;
    }
}

TEST(Json, EdgeNumberTokensKeepTheirAnswers)
{
    // Accepted or rejected, and read, exactly as the strtod reader did.
    struct Case
    {
        const char *token;
        std::optional<std::uint64_t> bits; // nullopt: rejected
    };
    const Case cases[] = {
        {"-0", 0x8000000000000000ULL},
        {".5", 0x3fe0000000000000ULL},
        {"5.", 0x4014000000000000ULL},
        {"1e", std::nullopt},
        {"+5", 0x4014000000000000ULL},
        {"+-5", std::nullopt},
        {"1e-400", 0x0000000000000000ULL},
        {"-1e-400", 0x8000000000000000ULL},
        {"2e-320", 0x0000000000000fd0ULL},
        {"2.4703282292062327e-324", 0x0000000000000000ULL},
        {"-2.4703282292062327e-324", 0x8000000000000000ULL},
        {"4.9406564584124654e-324", 0x0000000000000001ULL},
        {"1e400", std::nullopt},
        {"1.7976931348623159e308", std::nullopt},
        {"--1", std::nullopt},
        {"0x10", std::nullopt},
        {"-.5", 0xbfe0000000000000ULL},
        {"1.e5", 0x40f86a0000000000ULL},
        {".", std::nullopt},
    };
    for (const Case &c : cases) {
        for (const std::string &doc :
             {std::string(c.token), "[" + std::string(c.token) + "]"}) {
            if (!c.bits.has_value()) {
                EXPECT_THROW(Json::parse(doc), FatalError) << doc;
                continue;
            }
            const Json j = Json::parse(doc);
            const double v = j.isArray() ? j.at(0).asNumber() : j.asNumber();
            EXPECT_EQ(bitsOf(v), *c.bits) << doc;
        }
    }
}

TEST(Json, EscapesControlCharactersAsPrintfDid)
{
    std::string all;
    for (int c = 1; c < 0x80; ++c)
        all += static_cast<char>(c);
    std::string want = "\"";
    for (const unsigned char c : all) {
        switch (c) {
        case '"': want += "\\\""; break;
        case '\\': want += "\\\\"; break;
        case '\b': want += "\\b"; break;
        case '\f': want += "\\f"; break;
        case '\n': want += "\\n"; break;
        case '\r': want += "\\r"; break;
        case '\t': want += "\\t"; break;
        default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                want += buf;
            } else {
                want += static_cast<char>(c);
            }
        }
    }
    want += '"';
    EXPECT_EQ(Json(all).dump(), want);
    EXPECT_EQ(Json::parse(want).asString(), all);
}

/**
 * Seed documents of the mutation fuzz: a compile response carrying a
 * GRAPE pulse document (the shape a warm library serves), a compile
 * request, and a stats frame.
 */
const char *const kFuzzSeeds[] = {
    R"({"ok":true,"payload":{"latency_dt":61,"esp":0.99772403518236311,)"
    R"("final_gates":3,"merges":2,"apa_kinds":0,"apa_uses":0,)"
    R"("gates_covered":0,"pulses":[{"qubits":2,"latency_dt":31,)"
    R"("error":0.00049726403271233954,"schedule":{"format":)"
    R"("paqoc-pulse-v1","num_qubits":2,"dt_slices":3,"latency_dt":3,)"
    R"("fidelity":0.99950273596728766,"channels":["x0","y0","x1","y1",)"
    R"("xy01"],"amplitudes":[[0.099999999999999992,-0.0318727193,)"
    R"(6.2831853071795862e-05,-0.1,0.019999999999999997],[0,-0,)"
    R"(1.2e-17,-3.4999999999999998e-3,0.02],[-0.099999999999999992,)"
    R"(0.05,0.0001,-2.5e-310,-0.019999999999999997]]}},{"qubits":1,)"
    R"("latency_dt":12,"error":0.0001,"degraded":true}]},"stats":)"
    R"({"pulse_calls":2,"cache_hits":2,"cost_units":0,)"
    R"("wall_seconds":0.00041327800000000002,"iters_charged":0}})",
    R"({"op":"compile","qasm":"OPENQASM 2.0;\ninclude \"qelib1.inc\";\n)"
    R"(qreg q[2];\nh q[0];\ncx q[0],q[1];\n","method":"paqoc","m":"0",)"
    R"("depth":3,"maxn":2,"topology":"line:2","commute":false,)"
    R"("emit_pulses":true,"backend":"grape","max_iters":5000,)"
    R"("tenant":"prodé\t"})",
    R"({"ok":true,"payload":{"serving":{"compiles":24,"generates":0,)"
    R"("errors":0,"pulse_calls":48,"cache_hits":48,"degraded_pulses":0},)"
    R"("daemon":{"uptime_seconds":12.503716219,"supervised":false,)"
    R"("worker_restarts":0,"journal_records_recovered":43},)"
    R"("checkpoints":{"enabled":false},"epoch":{"spectral_pulses":0,)"
    R"("grape_pulses":43},"libraries":{"spectral":{"attached":true,)"
    R"("warnings":[]},"grape":{"attached":true,"records":43,)"
    R"("dropped_tail_bytes":0,"degraded":false,"warnings":)"
    R"(["rotated \"a\" to \"b\""]}},"tier":null}})",
};

/** Parse one mutant: a value that re-dumps stably, or a FatalError. */
void
checkMutant(const std::string &text)
{
    std::optional<Json> value;
    try {
        value = Json::parse(text);
    } catch (const FatalError &) {
        return;
    }
    const std::string once = value->dump();
    ASSERT_EQ(Json::parse(once).dump(), once) << text;
}

TEST(Json, MutationFuzzYieldsAValueOrAFatalError)
{
    const char replacements[] = {'"', '\\', '{', '}', '[',  ']', ',',
                                 ':', '0',  '9', '-', '+',  '.', 'e',
                                 'E', ' ',  'n', 't', '\0', '\x1f',
                                 'u', '\x7f', static_cast<char>(0xff)};
    const char *const inserts[] = {"\"", "[", "{", "}", "1e999", "-", ".",
                                   ",", ":", "\\u", "\\ud800", "null", "+",
                                   "0x1", "1e-999"};
    Rng rng(0x5eedf00dULL);
    for (const char *seed_text : kFuzzSeeds) {
        // Mutate the writer's own spelling of the seed.
        const std::string seed = Json::parse(seed_text).dump();
        ASSERT_EQ(Json::parse(seed).dump(), seed);
        for (std::size_t cut = 0; cut < seed.size(); ++cut)
            checkMutant(seed.substr(0, cut));
        for (std::size_t at = 0; at < seed.size(); ++at) {
            for (const char c : replacements) {
                if (seed[at] == c)
                    continue;
                std::string m = seed;
                m[at] = c;
                checkMutant(m);
            }
        }
        for (int k = 0; k < 2000; ++k) {
            std::string m = seed;
            const int edits = rng.range(1, 3);
            for (int e = 0; e < edits && !m.empty(); ++e) {
                const std::size_t at = rng.below(m.size());
                if (rng.chance(0.5))
                    m.erase(at, 1 + rng.below(8));
                else
                    m.insert(at, inserts[rng.below(std::size(inserts))]);
            }
            checkMutant(m);
        }
    }
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
