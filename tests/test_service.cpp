/**
 * @file
 * Tests for the pulse-compilation service: frame codec, session
 * scheduler (backpressure, deadlines, drain), the PulseService brain
 * (determinism under concurrency, warm start across instances), and
 * the Unix-socket server end to end.
 */

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "circuit/gate.h"
#include "common/error.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/thread_annotations.h"
#include "linalg/expm.h"
#include "qoc/device.h"
#include "qoc/pulse_cache.h"
#include "qoc/pulse_generator.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/scheduler.h"
#include "service/server.h"
#include "service/service.h"

namespace paqoc {
namespace {

std::string
scratchDir(const std::string &name)
{
    const std::string dir = "/tmp/paqoc_test_service_" + name;
    std::system(("rm -rf '" + dir + "'").c_str());
    return dir;
}

TEST(Protocol, FramesRoundTripOverSocketpair)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    protocol::writeFrame(fds[0], "{\"op\":\"ping\"}");
    protocol::writeFrame(fds[0], "");
    std::string got;
    ASSERT_TRUE(protocol::readFrame(fds[1], got));
    EXPECT_EQ(got, "{\"op\":\"ping\"}");
    ASSERT_TRUE(protocol::readFrame(fds[1], got));
    EXPECT_EQ(got, "");
    ::close(fds[0]);
    EXPECT_FALSE(protocol::readFrame(fds[1], got)); // clean EOF
    ::close(fds[1]);
}

TEST(Protocol, MidFrameEofIsAnError)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    // A length header promising 100 bytes, then EOF.
    const unsigned char header[4] = {0, 0, 0, 100};
    ASSERT_EQ(::write(fds[0], header, 4), 4);
    ::close(fds[0]);
    std::string got;
    EXPECT_THROW(protocol::readFrame(fds[1], got), FatalError);
    ::close(fds[1]);
}

TEST(Protocol, OversizeFrameIsRejected)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    const unsigned char header[4] = {0xFF, 0xFF, 0xFF, 0xFF};
    ASSERT_EQ(::write(fds[0], header, 4), 4);
    std::string got;
    EXPECT_THROW(protocol::readFrame(fds[1], got), FatalError);
    ::close(fds[0]);
    ::close(fds[1]);
}

TEST(Protocol, MatrixRoundTripsThroughJson)
{
    const Matrix cx = Gate(Op::CX, {0, 1}).unitary();
    const Matrix back =
        protocol::matrixFromJson(protocol::matrixToJson(cx));
    ASSERT_EQ(back.rows(), cx.rows());
    for (std::size_t r = 0; r < cx.rows(); ++r)
        for (std::size_t c = 0; c < cx.cols(); ++c)
            EXPECT_EQ(back(r, c), cx(r, c));
}

TEST(Scheduler, RunsAdmittedJobs)
{
    SessionScheduler sched(4);
    std::atomic<int> ran{0};
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(sched.submit([&]() { ran.fetch_add(1); }),
                  SessionScheduler::Admit::Accepted);
    sched.drain();
    EXPECT_EQ(ran.load(), 3);
    const SessionScheduler::Stats st = sched.stats();
    EXPECT_EQ(st.accepted, 3u);
    EXPECT_EQ(st.completed, 3u);
    EXPECT_EQ(st.inFlight, 0u);
}

TEST(Scheduler, RejectsBeyondQueueBound)
{
    SessionScheduler sched(2);
    Mutex m;
    CondVar cv;
    bool release = false;
    auto block = [&]() {
        MutexLock lock(m);
        while (!release)
            cv.wait(m);
    };
    // Fill the admission window with blocked jobs...
    ASSERT_EQ(sched.submit(block), SessionScheduler::Admit::Accepted);
    ASSERT_EQ(sched.submit(block), SessionScheduler::Admit::Accepted);
    // ...the next submit must bounce instead of queueing unboundedly.
    EXPECT_EQ(sched.submit([]() {}),
              SessionScheduler::Admit::Overloaded);
    EXPECT_EQ(sched.stats().rejected, 1u);
    {
        MutexLock lock(m);
        release = true;
    }
    cv.notify_all();
    sched.drain();
    EXPECT_EQ(sched.stats().completed, 2u);
}

TEST(Scheduler, ExpiredDeadlineSkipsWork)
{
    SessionScheduler sched(4);
    std::atomic<bool> worked{false};
    std::atomic<bool> expired{false};
    const auto past = SessionScheduler::Clock::now()
        - std::chrono::milliseconds(5);
    ASSERT_EQ(sched.submit([&]() { worked = true; }, past,
                           [&]() { expired = true; }),
              SessionScheduler::Admit::Accepted);
    sched.drain();
    EXPECT_FALSE(worked.load());
    EXPECT_TRUE(expired.load());
    EXPECT_EQ(sched.stats().expired, 1u);
}

TEST(Scheduler, DrainingRejectsNewWork)
{
    SessionScheduler sched(4);
    sched.drain();
    EXPECT_EQ(sched.submit([]() {}),
              SessionScheduler::Admit::Draining);
}

TEST(PulseService, AnswersPingAndStats)
{
    PulseService service;
    Json ping = Json::object();
    ping.set("op", Json("ping"));
    const Json pong = service.handle(ping);
    EXPECT_TRUE(pong.at("ok").asBool());
    EXPECT_EQ(pong.at("payload").asString(), "pong");

    Json stats = Json::object();
    stats.set("op", Json("stats"));
    const Json reply = service.handle(stats);
    EXPECT_TRUE(reply.at("ok").asBool());
    EXPECT_FALSE(
        reply.at("payload").at("libraries").at("spectral")
            .at("attached").asBool());
}

TEST(PulseService, MalformedRequestsComeBackAsErrors)
{
    PulseService service;
    const Json bad = service.handle(Json("not an object"));
    EXPECT_FALSE(bad.at("ok").asBool());
    EXPECT_FALSE(bad.at("error").asString().empty());

    Json unknown = Json::object();
    unknown.set("op", Json("transmogrify"));
    EXPECT_FALSE(service.handle(unknown).at("ok").asBool());

    Json both = Json::object();
    both.set("op", Json("compile"));
    EXPECT_FALSE(service.handle(both).at("ok").asBool());
}

Json
compileRequest(const std::string &benchmark)
{
    Json r = Json::object();
    r.set("op", Json("compile"));
    r.set("benchmark", Json(benchmark));
    r.set("emit_pulses", Json(true));
    return r;
}

TEST(PulseService, ConcurrentCompilesMatchSerialPayloadsByteForByte)
{
    // The determinism acceptance criterion, transport-free: N
    // concurrent handle() calls must produce byte-identical payloads
    // to a serial run of the same jobs against a fresh service.
    const std::vector<std::string> jobs = {"mod5d2", "rd32", "mod5d2",
                                           "decod24", "rd32"};

    PulseService serial_service;
    std::vector<std::string> serial;
    for (const std::string &b : jobs)
        serial.push_back(
            serial_service.handle(compileRequest(b)).at("payload")
                .dump());

    PulseService service;
    std::vector<std::string> concurrent(jobs.size());
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < jobs.size(); ++i)
        threads.emplace_back([&, i]() {
            concurrent[i] =
                service.handle(compileRequest(jobs[i])).at("payload")
                    .dump();
        });
    for (std::thread &t : threads)
        t.join();

    for (std::size_t i = 0; i < jobs.size(); ++i)
        EXPECT_EQ(concurrent[i], serial[i]) << "job " << i;
    // Repeats of the same job are identical too, regardless of which
    // finished first.
    EXPECT_EQ(concurrent[0], concurrent[2]);
    EXPECT_EQ(concurrent[1], concurrent[4]);
}

TEST(PulseService, WarmStartServesSecondLaunchFromLibrary)
{
    const std::string dir = scratchDir("warm");
    ServiceOptions opts;
    opts.libraryDir = dir;

    Json first_stats;
    {
        PulseService service(opts);
        const Json r = service.handle(compileRequest("rd32"));
        ASSERT_TRUE(r.at("ok").asBool());
        first_stats = r.at("stats");
        service.persist();
    }
    EXPECT_LT(first_stats.at("cache_hits").asInt(),
              first_stats.at("pulse_calls").asInt());

    // Second launch over the same directory: every pulse call is a
    // library hit.
    PulseService warm(opts);
    const Json r = warm.handle(compileRequest("rd32"));
    ASSERT_TRUE(r.at("ok").asBool());
    const Json &stats = r.at("stats");
    EXPECT_GT(stats.at("pulse_calls").asInt(), 0);
    EXPECT_EQ(stats.at("pulse_calls").asInt(),
              stats.at("cache_hits").asInt());
    // And the warm payload is reproducible across further launches.
    PulseService warm2(opts);
    EXPECT_EQ(warm2.handle(compileRequest("rd32")).at("payload")
                  .dump(),
              r.at("payload").dump());
}

TEST(PulseService, WarmStartSkipsGrapeEntirely)
{
    const std::string dir = scratchDir("warm_grape");
    ServiceOptions opts;
    opts.libraryDir = dir;
    opts.grape.maxIterations = 150; // keep the cold run quick

    const Matrix h = Gate(Op::H, {0}).unitary();
    Json gen = Json::object();
    gen.set("op", Json("generate"));
    gen.set("backend", Json("grape"));
    gen.set("unitary", protocol::matrixToJson(h));

    std::string cold_payload;
    {
        PulseService service(opts);
        const Json r = service.handle(gen);
        ASSERT_TRUE(r.at("ok").asBool());
        EXPECT_FALSE(r.at("stats").at("cache_hit").asBool());
        EXPECT_GT(r.at("stats").at("cost_units").asNumber(), 0.0);
        cold_payload = r.at("payload").dump();
        service.persist();
    }

    PulseService warm(opts);
    const Json r = warm.handle(gen);
    ASSERT_TRUE(r.at("ok").asBool());
    // Served from the library: no GRAPE run, zero cost, same pulse.
    EXPECT_TRUE(r.at("stats").at("cache_hit").asBool());
    EXPECT_DOUBLE_EQ(r.at("stats").at("cost_units").asNumber(), 0.0);
    EXPECT_EQ(r.at("payload").dump(), cold_payload);
}

TEST(PulseService, GrapeConfigChangeInvalidatesLibrary)
{
    const std::string dir = scratchDir("fingerprint");
    ServiceOptions opts;
    opts.libraryDir = dir;
    opts.grape.maxIterations = 150;

    const Matrix h = Gate(Op::H, {0}).unitary();
    Json gen = Json::object();
    gen.set("op", Json("generate"));
    gen.set("backend", Json("grape"));
    gen.set("unitary", protocol::matrixToJson(h));
    {
        PulseService service(opts);
        ASSERT_TRUE(service.handle(gen).at("ok").asBool());
        service.persist();
    }

    // A different GRAPE configuration must not be served stale pulses.
    opts.grape.maxIterations = 151;
    PulseService other(opts);
    const Json r = other.handle(gen);
    ASSERT_TRUE(r.at("ok").asBool());
    EXPECT_FALSE(r.at("stats").at("cache_hit").asBool());
}

Json
grapeGenerateRequest(const Matrix &unitary)
{
    Json r = Json::object();
    r.set("op", Json("generate"));
    r.set("backend", Json("grape"));
    r.set("unitary", protocol::matrixToJson(unitary));
    return r;
}

TEST(PulseService, QuotaExceededIsAStructuredError)
{
    ServiceOptions opts;
    opts.grape.maxIterations = 150;
    opts.quotaLimits.maxIters = 5; // server-side cap
    PulseService service(opts);

    const Json r = service.handle(
        grapeGenerateRequest(Gate(Op::H, {0}).unitary()));
    EXPECT_FALSE(r.at("ok").asBool());
    EXPECT_TRUE(r.at("quota_exceeded").asBool());
    EXPECT_EQ(r.at("limit").asString(), "max_iters");
    EXPECT_NE(r.at("error").asString().find("quota_exceeded"),
              std::string::npos);

    const Json stats = service.statsJson();
    EXPECT_EQ(stats.at("serving").at("quota_rejections").asInt(), 1);
    // A budget violation is the request's fault, not a service error.
    EXPECT_EQ(stats.at("serving").at("errors").asInt(), 0);
}

TEST(PulseService, RequestsTightenButNeverWidenTheCaps)
{
    ServiceOptions opts;
    opts.grape.maxIterations = 150;
    opts.quotaLimits.maxIters = 5;
    PulseService service(opts);

    // Asking for a huge budget cannot override the server cap...
    Json wide = grapeGenerateRequest(Gate(Op::H, {0}).unitary());
    wide.set("max_iters", Json(1000000));
    EXPECT_TRUE(service.handle(wide)
                    .at("quota_exceeded")
                    .asBool());

    // ...while a request-only budget binds on an uncapped server.
    ServiceOptions open;
    open.grape.maxIterations = 150;
    PulseService uncapped(open);
    Json tight = grapeGenerateRequest(Gate(Op::H, {0}).unitary());
    tight.set("max_iters", Json(5));
    const Json r = uncapped.handle(tight);
    EXPECT_FALSE(r.at("ok").asBool());
    EXPECT_TRUE(r.at("quota_exceeded").asBool());
}

TEST(PulseService, DegradeOnQuotaServesBestEffortInstead)
{
    ServiceOptions opts;
    opts.grape.maxIterations = 150;
    opts.quotaLimits.maxIters = 5;
    PulseService service(opts);

    Json req = grapeGenerateRequest(Gate(Op::H, {0}).unitary());
    req.set("degrade_on_quota", Json(true));
    const Json r = service.handle(req);
    ASSERT_TRUE(r.at("ok").asBool());
    EXPECT_TRUE(r.at("payload").at("degraded").asBool());
    const Json stats = service.statsJson();
    EXPECT_EQ(stats.at("serving").at("degraded_pulses").asInt(), 1);
    EXPECT_EQ(stats.at("serving").at("quota_rejections").asInt(), 0);
}

/** A GRAPE compile of a QASM program, as a `--connect` client sends it. */
Json
grapeCompileRequest(const std::string &qasm, const std::string &topology,
                    int maxn)
{
    Json r = Json::object();
    r.set("op", Json("compile"));
    r.set("qasm", Json(qasm));
    r.set("backend", Json("grape"));
    r.set("topology", Json(topology));
    r.set("maxn", Json(maxn));
    r.set("emit_pulses", Json(true));
    return r;
}

/**
 * `request` served the daemon's way: a fresh service handles it as a
 * SessionScheduler job, i.e. on a worker of a global pool of
 * `threads` workers.
 */
Json
scheduledResponse(const ServiceOptions &opts, const Json &request,
                  unsigned threads)
{
    ThreadPool::setGlobalThreads(threads);
    PulseService service(opts);
    SessionScheduler sched(4);
    Json response;
    EXPECT_EQ(sched.submit([&]() { response = service.handle(request); }),
              SessionScheduler::Admit::Accepted);
    sched.drain();
    return response;
}

/** Payload bytes of a scheduledResponse that must succeed. */
std::string
scheduledPayload(const ServiceOptions &opts, const Json &request,
                 unsigned threads)
{
    const Json response = scheduledResponse(opts, request, threads);
    EXPECT_TRUE(response.get("ok", Json(false)).asBool())
        << response.dump();
    return response.get("payload", Json()).dump();
}

/** The compile payload with no pool at all, as perfbench's replica
 *  computes it. */
std::string
poolLessPayload(const ServiceOptions &opts, const Json &request)
{
    const CompileJob job = compileJobFromJson(request);
    GrapePulseGenerator generator(opts.grape);
    generator.setSeedDistance(opts.grapeSeedDistance);
    const CompileReport report = runCompileJob(job, generator, 1);
    return compilePayload(job, report, generator).dump();
}

/** Four gates on three qubits: two distinct 2-qubit customized gates
 *  at maxn 2, one 3-qubit gate at maxn 3. */
const char *const kThreeQubitQasm = "OPENQASM 2.0;\n"
                                    "include \"qelib1.inc\";\n"
                                    "qreg q[3];\n"
                                    "h q[0];\n"
                                    "cx q[0],q[1];\n"
                                    "t q[2];\n"
                                    "cx q[1],q[2];\n";

class DaemonPoolSize : public ::testing::TestWithParam<int> {};

TEST_P(DaemonPoolSize, GrapePayloadMatchesPoolLessCompile)
{
    // A daemon request fans its derivations and duration probes out
    // from the pool worker it runs on. Its payload must not depend on
    // that: 1 and 4 workers and no pool at all agree byte for byte.
    // At maxn 3 the merged gate drives a 3-qubit device.
    const unsigned before = ThreadPool::global().size();
    const ServiceOptions opts;
    const Json request =
        grapeCompileRequest(kThreeQubitQasm, "line:3", GetParam());
    const std::string pool_less = poolLessPayload(opts, request);
    EXPECT_EQ(scheduledPayload(opts, request, 1), pool_less);
    EXPECT_EQ(scheduledPayload(opts, request, 4), pool_less);
    ThreadPool::setGlobalThreads(before);
}

INSTANTIATE_TEST_SUITE_P(Maxn, DaemonPoolSize, ::testing::Values(2, 3));

/** A pulse with content drawn from `rng`, shaped for `num_qubits`. */
CachedPulse
syntheticPulse(const Matrix &unitary, int num_qubits, Rng &rng)
{
    const DeviceModel device(num_qubits);
    CachedPulse e;
    e.unitary = unitary;
    e.numQubits = num_qubits;
    e.schedule.amplitudes.assign(
        static_cast<std::size_t>(rng.range(3, 9)),
        std::vector<double>(device.numControls()));
    for (auto &slice : e.schedule.amplitudes)
        for (double &a : slice)
            a = rng.uniform(-0.02, 0.02);
    e.schedule.fidelity = rng.uniform(0.9991, 0.99999);
    e.latency = e.schedule.latency();
    e.error = 1.0 - e.schedule.fidelity;
    return e;
}

/**
 * A GRAPE backend that runs no GRAPE: a missing pulse is published as
 * a synthetic one, so a compile's pulses can be collected cheaply.
 */
class SyntheticGrape : public GrapePulseGenerator
{
  protected:
    PulseGenResult
    generateOne(const Matrix &unitary, int num_qubits, ThreadPool *pool,
                std::uint64_t nearest_horizon) override
    {
        if (cache().lookup(unitary, num_qubits) == nullptr)
            cache().insert(unitary, num_qubits,
                           syntheticPulse(unitary, num_qubits, rng_));
        return GrapePulseGenerator::generateOne(unitary, num_qubits, pool,
                                                nearest_horizon);
    }

  private:
    Rng rng_{2026};
};

TEST(PulseService, AllHitCompileIsIndependentOfLibrarySize)
{
    // The same all-hit compile, served from a library holding only its
    // own pulses and from one holding 2,000 more: the payloads agree
    // byte for byte (the epoch is read in place, never re-keyed).
    const ServiceOptions defaults;
    const std::string fp = PulseLibrary::grapeFingerprint(defaults.grape);
    const Json request = grapeCompileRequest(kThreeQubitQasm, "line:3", 2);
    const std::string small = scratchDir("epoch_small");
    const std::string large = scratchDir("epoch_large");
    std::size_t own = 0;
    {
        PulseLibrary small_lib(small + "/grape", fp);
        PulseLibrary large_lib(large + "/grape", fp);
        SyntheticGrape recorder;
        recorder.cache().attachStore(&small_lib);
        runCompileJob(compileJobFromJson(request), recorder, 1);
        recorder.cache().attachStore(nullptr);
        own = small_lib.size();
        ASSERT_GT(own, 0u);
        for (const auto &[key, entry] : *small_lib.epoch())
            large_lib.onInsert(key, entry);
        Rng rng(88);
        for (int i = 0; i < 2000; ++i) {
            const int n = 1 + i % 2;
            const std::size_t dim = std::size_t{1} << n;
            Matrix m(dim, dim);
            for (std::size_t r = 0; r < dim; ++r)
                for (std::size_t c = 0; c < dim; ++c)
                    m(r, c) = Complex(rng.uniform(-1.0, 1.0),
                                      rng.uniform(-1.0, 1.0));
            const Matrix u = expm((m + m.adjoint()) * Complex(0.0, -0.5));
            large_lib.onInsert(PulseCache::canonicalKey(u, n),
                               syntheticPulse(u, n, rng));
        }
        ASSERT_EQ(large_lib.size(), own + 2000);
    }

    auto serve = [&](const std::string &dir, std::size_t epoch_size) {
        ServiceOptions opts;
        opts.libraryDir = dir;
        PulseService service(opts);
        EXPECT_EQ(service.statsJson().at("epoch").at("grape_pulses").asInt(),
                  static_cast<int>(epoch_size));
        const Json r = service.handle(request);
        EXPECT_TRUE(r.get("ok", Json(false)).asBool()) << r.dump();
        const Json &stats = r.at("stats");
        EXPECT_GT(stats.at("pulse_calls").asInt(), 0);
        EXPECT_EQ(stats.at("cache_hits").asInt(),
                  stats.at("pulse_calls").asInt());
        EXPECT_EQ(stats.at("iters_charged").asNumber(), 0.0);
        return r.at("payload").dump();
    };
    const std::string from_small = serve(small, own);
    EXPECT_NE(from_small.find("paqoc-pulse-v1"), std::string::npos);
    EXPECT_EQ(serve(large, own + 2000), from_small);
}

TEST(PulseService, GeneratePayloadIndependentOfDaemonPoolSize)
{
    // The generate op derives on the pool as well.
    const unsigned before = ThreadPool::global().size();
    const ServiceOptions opts;
    const Json request =
        grapeGenerateRequest(Gate(Op::CX, {0, 1}).unitary());
    const std::string one_worker = scheduledPayload(opts, request, 1);
    EXPECT_NE(one_worker.find("\"schedule\""), std::string::npos);
    EXPECT_EQ(scheduledPayload(opts, request, 4), one_worker);
    ThreadPool::setGlobalThreads(before);
}

TEST(PulseService, DegradedPayloadIndependentOfDaemonPoolSize)
{
    // A tripping degrade-mode token stops each trial wherever it is,
    // so concurrent derivations and probes would shape the best-effort
    // pulses by their scheduling. Degraded requests derive serially
    // instead and repeat byte for byte on any pool. Unmetered, the
    // two 2-qubit derivations spend about 2,700 iterations, so a
    // budget of 1,000 trips while they run.
    const unsigned before = ThreadPool::global().size();
    const ServiceOptions opts;
    Json request = grapeCompileRequest(kThreeQubitQasm, "line:3", 2);
    request.set("degrade_on_quota", Json(true));
    request.set("max_iters", Json(1000));
    const std::string one_worker = scheduledPayload(opts, request, 1);
    EXPECT_NE(one_worker.find("\"degraded\":true"), std::string::npos);
    for (int run = 0; run < 5; ++run)
        EXPECT_EQ(scheduledPayload(opts, request, 4), one_worker)
            << "run " << run;
    ThreadPool::setGlobalThreads(before);
}

TEST(PulseService, HardQuotaTripIndependentOfDaemonPoolSize)
{
    // Concurrent derivations would each charge the token before seeing
    // a trip: the second one's resident pulse could trip
    // max_resident_pulses before the first one's iterations trip
    // max_iters, and iters_charged would read past the cap by however
    // many trials were running. A capped request derives serially, so
    // the whole error response repeats on any pool.
    const unsigned before = ThreadPool::global().size();
    const ServiceOptions opts;
    Json request = grapeCompileRequest(kThreeQubitQasm, "line:3", 2);
    request.set("max_iters", Json(1000));
    request.set("max_resident_pulses", Json(1));
    const std::string one_worker =
        scheduledResponse(opts, request, 1).dump();
    EXPECT_NE(one_worker.find("\"limit\":\"max_iters\""),
              std::string::npos)
        << one_worker;
    for (int run = 0; run < 5; ++run)
        EXPECT_EQ(scheduledResponse(opts, request, 4).dump(), one_worker)
            << "run " << run;
    ThreadPool::setGlobalThreads(before);
}

TEST(PulseService, DegradeStopsTheSearchAtTheTrip)
{
    // Once a degrade-mode token trips, no further duration trial
    // starts: each degraded pulse is the best effort where the bracket
    // stood plus its stitched correction, not a walk up to the
    // 4,096-slice cap. So a smaller budget buys less work, not more.
    const ServiceOptions opts;
    PulseService service(opts);
    Json request = grapeCompileRequest(kThreeQubitQasm, "line:3", 2);
    request.set("degrade_on_quota", Json(true));
    request.set("max_iters", Json(8));
    const Json small = service.handle(request);
    ASSERT_TRUE(small.get("ok", Json(false)).asBool()) << small.dump();
    int degraded = 0;
    for (const Json &doc : small.at("payload").at("pulses").items()) {
        if (!doc.get("degraded", Json(false)).asBool())
            continue;
        ++degraded;
        EXPECT_LT(doc.at("latency_dt").asNumber(), 1000.0)
            << doc.dump();
    }
    EXPECT_GE(degraded, 1);

    request.set("max_iters", Json(100));
    const Json larger = service.handle(request);
    ASSERT_TRUE(larger.get("ok", Json(false)).asBool())
        << larger.dump();
    EXPECT_LT(small.at("stats").at("cost_units").asNumber(),
              larger.at("stats").at("cost_units").asNumber())
        << small.at("stats").dump() << " vs "
        << larger.at("stats").dump();
}

/** Records every entry a library-less service hands its tier sink. */
class RecordingSink : public PulseStoreSink
{
  public:
    void
    onInsert(const std::string &, const CachedPulse &entry) override
    {
        MutexLock lock(mutex_);
        entries_.push_back(entry);
    }

    std::vector<CachedPulse>
    entries() const
    {
        MutexLock lock(mutex_);
        return entries_;
    }

  private:
    mutable Mutex mutex_;
    std::vector<CachedPulse> entries_ PAQOC_GUARDED_BY(mutex_);
};

TEST(PulseService, StoppedNarrowingIsServedDegradedAndNeverKept)
{
    // max_iters 100 trips while the first derivation (h.cx) narrows:
    // its bracket's 98-slice trial has converged, a shorter trial has
    // not finished. That pulse meets the fidelity target but is longer
    // than the minimum, so it is served tagged degraded: the library
    // does not journal it, and a library-less daemon's tier sink gets
    // the tag (TierClient publishes no degraded entry). After a
    // restart, an unbudgeted compile derives the minimum, byte for
    // byte what a library-less daemon serves.
    const Json plain = grapeCompileRequest(kThreeQubitQasm, "line:3", 2);
    Json budgeted = plain;
    budgeted.set("degrade_on_quota", Json(true));
    budgeted.set("max_iters", Json(100));
    const std::string expected =
        PulseService(ServiceOptions{}).handle(plain).at("payload").dump();

    ServiceOptions opts;
    opts.libraryDir = scratchDir("stopped_narrowing");
    {
        PulseService service(opts);
        const Json r = service.handle(budgeted);
        ASSERT_TRUE(r.get("ok", Json(false)).asBool()) << r.dump();
        for (const Json &doc : r.at("payload").at("pulses").items())
            EXPECT_TRUE(doc.get("degraded", Json(false)).asBool())
                << doc.dump();
        service.persist();
    }
    PulseService relaunched(opts);
    EXPECT_EQ(relaunched.handle(plain).at("payload").dump(), expected);

    RecordingSink sink;
    ServiceOptions library_less;
    library_less.tierGrape.sink = &sink;
    PulseService service(library_less);
    ASSERT_TRUE(service.handle(budgeted).get("ok", Json(false)).asBool());
    ASSERT_FALSE(sink.entries().empty());
    for (const CachedPulse &entry : sink.entries())
        EXPECT_TRUE(entry.degraded) << entry.latency << " dt";
}

TEST(PulseService, OverBudgetRequestLeavesOthersByteIdentical)
{
    // The isolation acceptance criterion: one request exhausting its
    // budget must not perturb a concurrent in-budget request, whose
    // payload stays byte-identical to an unmetered serial run.
    ServiceOptions opts;
    opts.grape.maxIterations = 150;

    PulseService reference(opts);
    const Json gen_h = grapeGenerateRequest(Gate(Op::H, {0}).unitary());
    const std::string expected =
        reference.handle(gen_h).at("payload").dump();

    PulseService service(opts);
    Json bounded = grapeGenerateRequest(Gate(Op::X, {0}).unitary());
    bounded.set("max_iters", Json(3));
    Json bounded_resp;
    std::string healthy_payload;
    std::thread over([&]() {
        bounded_resp = service.handle(bounded);
    });
    std::thread within([&]() {
        healthy_payload = service.handle(gen_h).at("payload").dump();
    });
    over.join();
    within.join();

    EXPECT_TRUE(bounded_resp.at("quota_exceeded").asBool());
    EXPECT_EQ(healthy_payload, expected);
}

TEST(PulseService, StatsReportDaemonAndCheckpointState)
{
    ServiceOptions opts;
    opts.checkpointDir = scratchDir("stats_ckpt") + "/checkpoints";
    opts.checkpointEvery = 4;
    PulseService service(opts);
    service.setSupervisionInfo(true, 2);

    const Json stats = service.statsJson();
    const Json &daemon = stats.at("daemon");
    EXPECT_GE(daemon.at("uptime_seconds").asNumber(), 0.0);
    EXPECT_TRUE(daemon.at("supervised").asBool());
    EXPECT_EQ(daemon.at("worker_restarts").asInt(), 2);
    EXPECT_EQ(daemon.at("journal_records_recovered").asInt(), 0);
    const Json &ckpt = stats.at("checkpoints");
    EXPECT_TRUE(ckpt.at("enabled").asBool());
    EXPECT_EQ(ckpt.at("directory").asString(), opts.checkpointDir);
    EXPECT_EQ(ckpt.at("resumed_trials").asInt(), 0);

    // Checkpointing off: the stats say so instead of lying with zeros.
    PulseService plain;
    EXPECT_FALSE(plain.statsJson()
                     .at("checkpoints")
                     .at("enabled")
                     .asBool());
}

ServerOptions
unixServerOptions(const std::string &path, std::size_t max_queue,
                  double max_wall_ms = 0.0)
{
    ServerOptions opts;
    opts.socketPath = path;
    opts.maxQueue = max_queue;
    opts.maxWallMs = max_wall_ms;
    return opts;
}

/** One server on a scratch socket, torn down on scope exit. */
struct ServerFixture
{
    PulseService service;
    SocketServer server;
    std::thread runner;

    explicit ServerFixture(const std::string &name,
                           ServiceOptions sopts = {},
                           std::size_t max_queue = 64,
                           double max_wall_ms = 0.0)
        : service(std::move(sopts)),
          server(service,
                 unixServerOptions("/tmp/paqoc_test_service_" + name
                                       + ".sock",
                                   max_queue, max_wall_ms))
    {
        ::unlink(server.socketPath().c_str());
        server.start();
        runner = std::thread([this]() { server.run(); });
    }

    ~ServerFixture()
    {
        server.requestStop();
        runner.join();
    }
};

TEST(SocketServer, ServesPingOverTheSocket)
{
    ServerFixture fx("ping");
    ServiceClient client(fx.server.socketPath());
    Json ping = Json::object();
    ping.set("op", Json("ping"));
    ping.set("id", Json(7));
    const Json pong = client.request(ping);
    EXPECT_TRUE(pong.at("ok").asBool());
    EXPECT_EQ(pong.at("id").asInt(), 7);
}

TEST(SocketServer, ParseErrorsAreAnswersNotDisconnects)
{
    ServerFixture fx("badjson");
    // Hand-rolled client so we can send a malformed frame.
    ServiceClient client(fx.server.socketPath());
    Json bad = Json::object();
    bad.set("op", Json("compile")); // missing qasm/benchmark
    const Json reply = client.request(bad);
    EXPECT_FALSE(reply.at("ok").asBool());
    EXPECT_FALSE(reply.at("error").asString().empty());
    // The connection survives for the next request.
    Json ping = Json::object();
    ping.set("op", Json("ping"));
    EXPECT_TRUE(client.request(ping).at("ok").asBool());
}

TEST(SocketServer, ConcurrentClientsGetSerialPayloads)
{
    // End-to-end determinism: N clients hammer one daemon with the
    // same job; every payload must equal the serial in-process one.
    PulseService reference;
    const std::string expected =
        reference.handle(compileRequest("mod5d2")).at("payload")
            .dump();

    ServerFixture fx("determinism");
    constexpr int kClients = 4;
    std::vector<std::string> payloads(kClients);
    std::vector<std::thread> clients;
    for (int i = 0; i < kClients; ++i)
        clients.emplace_back([&, i]() {
            ServiceClient client(fx.server.socketPath());
            const Json r = client.request(compileRequest("mod5d2"));
            if (r.at("ok").asBool())
                payloads[static_cast<std::size_t>(i)] =
                    r.at("payload").dump();
        });
    for (std::thread &t : clients)
        t.join();
    for (int i = 0; i < kClients; ++i)
        EXPECT_EQ(payloads[static_cast<std::size_t>(i)], expected)
            << "client " << i;
}

TEST(SocketServer, ShutdownRequestStopsTheServer)
{
    PulseService service;
    SocketServer server(
        service,
        unixServerOptions("/tmp/paqoc_test_service_shutdown.sock", 8));
    ::unlink(server.socketPath().c_str());
    server.start();
    std::thread runner([&]() { server.run(); });
    {
        ServiceClient client(server.socketPath());
        Json req = Json::object();
        req.set("op", Json("shutdown"));
        const Json r = client.request(req);
        EXPECT_TRUE(r.at("ok").asBool());
    }
    runner.join(); // returns because the shutdown request stopped it
    EXPECT_TRUE(service.shutdownRequested());
    // The socket path is cleaned up.
    EXPECT_NE(::access(server.socketPath().c_str(), F_OK), 0);
}

TEST(SocketServer, ExpiredDeadlineGetsFastError)
{
    ServerFixture fx("deadline");
    ServiceClient client(fx.server.socketPath());
    Json req = compileRequest("mod5d2");
    req.set("deadline_ms", Json(0.000001));
    const Json r = client.request(req);
    EXPECT_FALSE(r.at("ok").asBool());
    EXPECT_NE(r.at("error").asString().find("deadline"),
              std::string::npos);
    // Typed like a deadline that passes mid-run.
    EXPECT_TRUE(r.get("cancelled", Json(false)).asBool()) << r.dump();
    EXPECT_EQ(r.get("reason", Json("")).asString(), "deadline_exceeded");
}

/** The scheduler counters of a server's stats op. */
Json
schedulerStats(ServiceClient &client)
{
    Json stats = Json::object();
    stats.set("op", Json("stats"));
    const Json reply = client.request(stats);
    EXPECT_TRUE(reply.at("ok").asBool());
    return reply.at("payload").at("scheduler");
}

TEST(SocketServer, MaxWallMsIsADeadline)
{
    // A request's wall bound tightens its deadline once it starts
    // running: a GRAPE derivation far longer than 1 ms stops at the
    // next iteration and answers like any passed deadline.
    ServerFixture fx("wall_deadline");
    ServiceClient client(fx.server.socketPath());
    Json req = grapeGenerateRequest(Gate(Op::CX, {0, 1}).unitary());
    req.set("max_wall_ms", Json(1));
    const Json r = client.request(req);
    EXPECT_FALSE(r.at("ok").asBool());
    EXPECT_TRUE(r.get("cancelled", Json(false)).asBool()) << r.dump();
    EXPECT_EQ(r.get("reason", Json("")).asString(), "deadline_exceeded");
    EXPECT_FALSE(r.contains("quota_exceeded"));

    const Json sched = schedulerStats(client);
    EXPECT_EQ(sched.at("cancelled").asInt(), 1);
    EXPECT_EQ(sched.at("expired_running").asInt(), 1);
    EXPECT_EQ(sched.at("quota_exceeded").asInt(), 0);

    // Bounds too large for the clock are no bounds at all.
    Json huge = grapeGenerateRequest(Gate(Op::H, {0}).unitary());
    huge.set("backend", Json("spectral"));
    huge.set("max_wall_ms", Json(1e300));
    huge.set("deadline_ms", Json(1e300));
    const Json served = client.request(huge);
    EXPECT_TRUE(served.at("ok").asBool()) << served.dump();
}

TEST(SocketServer, ServerWallCapClampsTheRequest)
{
    // --max-wall-ms caps a request that asks for more (and one that
    // asks for nothing).
    ServerFixture fx("wall_cap", {}, 64, /*max_wall_ms=*/1.0);
    ServiceClient client(fx.server.socketPath());
    Json req = grapeGenerateRequest(Gate(Op::CX, {0, 1}).unitary());
    req.set("max_wall_ms", Json(600000));
    const Json r = client.request(req);
    EXPECT_TRUE(r.get("cancelled", Json(false)).asBool()) << r.dump();
    EXPECT_EQ(r.get("reason", Json("")).asString(), "deadline_exceeded");

    const Json open =
        client.request(grapeGenerateRequest(Gate(Op::CX, {0, 1}).unitary()));
    EXPECT_TRUE(open.get("cancelled", Json(false)).asBool())
        << open.dump();
    EXPECT_EQ(schedulerStats(client).at("expired_running").asInt(), 2);
}

TEST(SocketServer, QuotaRejectionsShowUpInSchedulerStats)
{
    ServiceOptions sopts;
    sopts.grape.maxIterations = 150;
    sopts.quotaLimits.maxIters = 5;
    ServerFixture fx("quota_stats", sopts);
    ServiceClient client(fx.server.socketPath());

    const Json r =
        client.request(grapeGenerateRequest(Gate(Op::H, {0}).unitary()));
    EXPECT_FALSE(r.at("ok").asBool());
    EXPECT_TRUE(r.at("quota_exceeded").asBool());
    EXPECT_EQ(r.at("limit").asString(), "max_iters");

    Json stats = Json::object();
    stats.set("op", Json("stats"));
    const Json reply = client.request(stats);
    ASSERT_TRUE(reply.at("ok").asBool());
    const Json &payload = reply.at("payload");
    EXPECT_EQ(payload.at("scheduler").at("quota_exceeded").asInt(), 1);
    EXPECT_EQ(payload.at("serving").at("quota_rejections").asInt(), 1);
}

} // namespace
} // namespace paqoc
