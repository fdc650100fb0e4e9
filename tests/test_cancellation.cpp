/**
 * @file
 * Tests for end-to-end cancellation and adaptive overload control
 * (DESIGN.md §15): the CancelSource/CancelToken primitive (reasons,
 * deadlines, the `cancel.poll` failpoint), cancellation
 * threaded through the scheduler and the PulseService, the wire-level
 * `cancel` op and disconnect detection, and the OverloadController's
 * brownout ladder (driven deterministically by `overload.clock`).
 * Suite names start with "Cancel" or "Overload" so the CI chaos lane
 * selects them with `ctest -R '^Cancel|^Overload'`.
 */

#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "common/cancellation.h"
#include "common/error.h"
#include "common/failpoint.h"
#include "common/json.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "service/client.h"
#include "service/overload.h"
#include "service/protocol.h"
#include "service/scheduler.h"
#include "service/server.h"
#include "service/service.h"

namespace paqoc {
namespace {

namespace fp = failpoint;

/**
 * Every test arms points through one of these so a failing assertion
 * can never leak an armed failpoint into the next test.
 */
struct FailpointGuard
{
    FailpointGuard() { fp::disarmAll(); }
    ~FailpointGuard() { fp::disarmAll(); }
};

Json
compileRequest(const std::string &benchmark)
{
    Json r = Json::object();
    r.set("op", Json("compile"));
    r.set("benchmark", Json(benchmark));
    r.set("emit_pulses", Json(true));
    return r;
}

// ---------------------------------------------------------------------
// The primitive.
// ---------------------------------------------------------------------

TEST(Cancellation, DefaultTokenIsNullAndNeverCancelled)
{
    const CancelToken token;
    EXPECT_FALSE(token.valid());
    EXPECT_FALSE(token.cancelled());
    EXPECT_EQ(token.reason(), CancelReason::None);
    EXPECT_EQ(token.deadline(), CancelToken::Clock::time_point::max());
    EXPECT_TRUE(std::isinf(token.remainingMs()));
    token.throwIfCancelled(); // must be a no-op
}

TEST(Cancellation, CancelTripsTheTokenAndFirstReasonWins)
{
    CancelSource source;
    const CancelToken token = source.token();
    EXPECT_TRUE(token.valid());
    EXPECT_FALSE(token.cancelled());

    source.cancel(CancelReason::ClientDisconnected);
    EXPECT_TRUE(token.cancelled());
    EXPECT_EQ(token.reason(), CancelReason::ClientDisconnected);

    // A later cancel with a different reason must not overwrite the
    // recorded one -- counters key off exactly one reason.
    source.cancel(CancelReason::ExplicitCancel);
    EXPECT_EQ(token.reason(), CancelReason::ClientDisconnected);
}

TEST(Cancellation, ArmedDeadlineTripsWithDeadlineExceeded)
{
    CancelSource source;
    source.armDeadline(CancelSource::Clock::now()
                       - std::chrono::milliseconds(1));
    const CancelToken token = source.token();
    EXPECT_EQ(token.remainingMs(), 0.0);
    EXPECT_TRUE(token.cancelled());
    EXPECT_EQ(token.reason(), CancelReason::DeadlineExceeded);
}

TEST(Cancellation, FutureDeadlineDoesNotTripEarly)
{
    CancelSource source;
    source.armDeadline(CancelSource::Clock::now()
                       + std::chrono::hours(1));
    const CancelToken token = source.token();
    EXPECT_FALSE(token.cancelled());
    EXPECT_GT(token.remainingMs(), 0.0);
    EXPECT_FALSE(std::isinf(token.remainingMs()));
}

TEST(Cancellation, ArmingAgainOnlyTightensTheDeadline)
{
    // The server tightens a running request's deadline by its wall
    // bound on the one source; a looser bound changes nothing.
    const auto now = CancelSource::Clock::now();
    CancelSource source;
    EXPECT_TRUE(source.armDeadline(now + std::chrono::hours(2)));
    EXPECT_TRUE(source.armDeadline(now + std::chrono::hours(1)));
    EXPECT_FALSE(source.armDeadline(now + std::chrono::hours(3)));
    EXPECT_EQ(source.token().deadline(), now + std::chrono::hours(1));
}

TEST(Cancellation, PollFailpointForcesAnExplicitCancel)
{
    FailpointGuard guard;
    CancelSource source;
    const CancelToken token = source.token();
    EXPECT_FALSE(token.cancelled());

    fp::arm("cancel.poll", "return-error:1");
    EXPECT_TRUE(token.cancelled());
    EXPECT_EQ(token.reason(), CancelReason::ExplicitCancel);
    // Sticky once tripped, even with the budget exhausted.
    EXPECT_TRUE(token.cancelled());
}

TEST(Cancellation, ThrowCancelledCarriesReasonAndItersCharged)
{
    CancelSource source;
    source.cancel(CancelReason::OverloadShed);
    const CancelToken token = source.token();
    try {
        token.throwIfCancelled(17);
        FAIL() << "throwIfCancelled() did not throw";
    } catch (const CancelledError &e) {
        EXPECT_EQ(e.reason(), CancelReason::OverloadShed);
        EXPECT_STREQ(e.reasonName(), "overload_shed");
        EXPECT_EQ(e.itersCharged(), 17);
        EXPECT_NE(std::string(e.what()).find("overload_shed"),
                  std::string::npos);
    }
}

// ---------------------------------------------------------------------
// Scheduler integration: armed deadlines and caller-owned sources.
// ---------------------------------------------------------------------

TEST(CancelScheduler, ArmedDeadlineStopsRunningWorkCooperatively)
{
    ThreadPool pool(2);
    SessionScheduler sched(8, &pool);

    std::atomic<bool> stopped{false};
    CancelReason seen = CancelReason::None;
    const auto verdict = sched.submit(
        [&](const CancelToken &cancel) {
            // A mock derivation loop: spin until the armed deadline
            // trips the token (bounded so a regression cannot hang
            // the suite).
            for (int i = 0; i < 20000 && !cancel.cancelled(); ++i)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
            seen = cancel.reason();
            stopped.store(true);
        },
        SessionScheduler::Clock::now() + std::chrono::milliseconds(30));
    ASSERT_EQ(verdict, SessionScheduler::Admit::Accepted);
    sched.drain();

    EXPECT_TRUE(stopped.load());
    EXPECT_EQ(seen, CancelReason::DeadlineExceeded);
    // The job *completed* (it returned normally after observing the
    // token); mid-run cancellations are counted via noteCancelled by
    // the server, not the scheduler's expiry path.
    EXPECT_EQ(sched.stats().completed, 1u);
}

TEST(CancelScheduler, CallerSuppliedSourceReachesTheWork)
{
    ThreadPool pool(1);
    SessionScheduler sched(8, &pool);

    // Occupy the only worker so the cancellable job stays queued
    // until after the caller cancelled its source.
    Mutex gate;
    CondVar gate_cv;
    bool open = false;
    ASSERT_EQ(sched.submit([&] {
                  MutexLock lock(gate);
                  while (!open)
                      gate_cv.wait(gate);
              }),
              SessionScheduler::Admit::Accepted);

    CancelSource source;
    std::atomic<bool> was_cancelled{false};
    CancelReason seen = CancelReason::None;
    ASSERT_EQ(sched.submit(
                  [&](const CancelToken &cancel) {
                      was_cancelled.store(cancel.cancelled());
                      seen = cancel.reason();
                  },
                  SessionScheduler::Clock::time_point::max(), {},
                  source),
              SessionScheduler::Admit::Accepted);

    source.cancel(CancelReason::ExplicitCancel);
    {
        MutexLock lock(gate);
        open = true;
    }
    gate_cv.notify_all();
    sched.drain();

    EXPECT_TRUE(was_cancelled.load());
    EXPECT_EQ(seen, CancelReason::ExplicitCancel);
}

// ---------------------------------------------------------------------
// Service integration: a cancelled derivation answers with the typed
// `cancelled` response instead of a payload or a generic error.
// ---------------------------------------------------------------------

TEST(CancelService, PreCancelledTokenYieldsTypedCancelledResponse)
{
    PulseService service;
    CancelSource source;
    source.cancel(CancelReason::ExplicitCancel);
    const CancelToken token = source.token();

    const Json r = service.handle(compileRequest("mod5d2"), &token);
    EXPECT_FALSE(r.at("ok").asBool());
    EXPECT_TRUE(r.at("cancelled").asBool());
    EXPECT_EQ(r.at("reason").asString(), "explicit_cancel");
    // Billed compute rides on the response so tenant budgets still
    // charge the work a cancelled derivation really did.
    ASSERT_TRUE(r.contains("iters_charged"));
    EXPECT_GE(r.at("iters_charged").asNumber(), 0.0);
}

TEST(CancelService, PollFailpointCancelsMidDerivation)
{
    FailpointGuard guard;
    PulseService service;
    CancelSource source;
    const CancelToken token = source.token();

    // The first GRAPE-loop poll trips; the service must unwind into
    // the structured response, not a generic error.
    fp::arm("cancel.poll", "return-error:1");
    const Json r = service.handle(compileRequest("mod5d2"), &token);
    EXPECT_FALSE(r.at("ok").asBool());
    EXPECT_TRUE(r.at("cancelled").asBool());
    EXPECT_EQ(r.at("reason").asString(), "explicit_cancel");
}

TEST(CancelService, NullTokenLeavesCompilesUntouched)
{
    // The control: with no token wired up, the two handle() overloads
    // must produce byte-identical payloads.
    PulseService a;
    const std::string with_null =
        a.handle(compileRequest("mod5d2"), nullptr).at("payload")
            .dump();
    PulseService b;
    const std::string classic =
        b.handle(compileRequest("mod5d2")).at("payload").dump();
    EXPECT_EQ(with_null, classic);
}

// ---------------------------------------------------------------------
// Socket server: the wire-level `cancel` op and disconnect detection.
// ---------------------------------------------------------------------

ServerOptions
serverOptionsFor(const std::string &path, double overload_target_ms)
{
    ServerOptions opts;
    opts.socketPath = path;
    opts.maxQueue = 64;
    opts.overloadTargetMs = overload_target_ms;
    return opts;
}

/** One server on a scratch socket, torn down on scope exit. */
struct ServerFixture
{
    PulseService service;
    SocketServer server;
    std::thread runner;

    explicit ServerFixture(const std::string &name,
                           double overload_target_ms = 0.0)
        : server(service,
                 serverOptionsFor("/tmp/paqoc_test_cancel_" + name
                                      + ".sock",
                                  overload_target_ms))
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

TEST(CancelServer, CancelOpForUnknownIdAnswersFalse)
{
    ServerFixture fx("unknown_id");
    ServiceClient client(fx.server.socketPath());
    Json cancel = Json::object();
    cancel.set("op", Json("cancel"));
    cancel.set("target_id", Json(12345));
    const Json r = client.request(cancel);
    EXPECT_TRUE(r.at("ok").asBool());
    EXPECT_FALSE(r.at("payload").at("cancelled").asBool());
}

TEST(CancelServer, CancelOpTripsInFlightRequestById)
{
    FailpointGuard guard;
    // Stretch every cancellation poll so the compile stays in flight
    // long enough for the cancel op to land (the budget bounds the
    // slowdown; once tripped, polls take the fast path again).
    fp::arm("cancel.poll", "delay-ms(10):500");

    ServerFixture fx("cancel_op");
    Json response;
    std::thread compiler([&] {
        ServiceClient client(fx.server.socketPath());
        Json request = compileRequest("mod5d2");
        request.set("id", Json(77));
        response = client.request(request);
    });

    // A second connection aims the cancel at the in-flight id; retry
    // until the compile has registered (or give up loudly).
    ServiceClient control(fx.server.socketPath());
    Json cancel = Json::object();
    cancel.set("op", Json("cancel"));
    cancel.set("target_id", Json(77));
    bool found = false;
    for (int attempt = 0; attempt < 200 && !found; ++attempt) {
        found = control.request(cancel)
                    .at("payload")
                    .at("cancelled")
                    .asBool();
        if (!found)
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    compiler.join();
    ASSERT_TRUE(found) << "compile never became cancellable in flight";

    EXPECT_FALSE(response.at("ok").asBool());
    EXPECT_TRUE(response.at("cancelled").asBool());
    EXPECT_EQ(response.at("reason").asString(), "explicit_cancel");
    // The response frame still echoes the request id.
    EXPECT_EQ(response.at("id").asInt(), 77);
}

TEST(CancelServer, DisconnectCancelsInFlightWork)
{
    FailpointGuard guard;
    fp::arm("cancel.poll", "delay-ms(25):400");

    ServerFixture fx("disconnect");
    // A raw client that vanishes mid-request: write the frame, then
    // slam the connection shut without reading the response.
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, fx.server.socketPath().c_str(),
                 sizeof addr.sun_path - 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof addr),
              0);
    protocol::writeFrame(fd, compileRequest("mod5d2").dump());
    // Closing is safe immediately: the connection thread dispatches
    // the frame (registering the in-flight work) before it can see
    // this EOF, and with 25 ms per poll the compile cannot finish
    // before the trip lands.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ::close(fd);

    // The orphaned derivation must stop and count as cancelled.
    ServiceClient control(fx.server.socketPath());
    Json stats = Json::object();
    stats.set("op", Json("stats"));
    double cancelled = 0.0;
    for (int attempt = 0; attempt < 200 && cancelled < 1.0;
         ++attempt) {
        const Json r = control.request(stats);
        cancelled = r.at("payload")
                        .at("scheduler")
                        .at("cancelled")
                        .asNumber();
        if (cancelled < 1.0)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(10));
    }
    EXPECT_GE(cancelled, 1.0)
        << "disconnected client's work was never cancelled";
}

// ---------------------------------------------------------------------
// Overload controller: the ladder, the windowed minimum, idle decay.
// ---------------------------------------------------------------------

TEST(Overload, DisabledControllerIsAlwaysNominal)
{
    OverloadController off;
    EXPECT_FALSE(off.enabled());
    off.observe(10000.0);
    EXPECT_EQ(off.level(), OverloadController::Level::Nominal);
    EXPECT_EQ(off.minDelayMs(), 0.0);
}

TEST(Overload, ClockFailpointWalksTheLadderDeterministically)
{
    FailpointGuard guard;
    OverloadController::Options opts;
    opts.targetMs = 100.0;
    OverloadController ctl(opts);
    ASSERT_TRUE(ctl.enabled());

    const auto level_at = [&](long delay_ms) {
        fp::disarm("overload.clock");
        fp::arm("overload.clock",
                "return-error(" + std::to_string(delay_ms) + "):1");
        return ctl.level();
    };
    EXPECT_EQ(level_at(50), OverloadController::Level::Nominal);
    EXPECT_EQ(level_at(100), OverloadController::Level::Nominal);
    EXPECT_EQ(level_at(150), OverloadController::Level::Brownout);
    EXPECT_EQ(level_at(350),
              OverloadController::Level::ShedOverBudget);
    EXPECT_EQ(level_at(500), OverloadController::Level::ShedAll);
}

TEST(Overload, WindowedMinimumTracksTheLuckiestJob)
{
    OverloadController::Options opts;
    opts.targetMs = 10.0;
    opts.windowMs = 10000.0; // one long window for the whole test
    OverloadController ctl(opts);

    // A burst that drains: one slow sample, one fast one. The CoDel
    // signal is the minimum, so the fast sample wins.
    ctl.observe(500.0);
    EXPECT_EQ(ctl.level(), OverloadController::Level::ShedAll);
    ctl.observe(3.0);
    EXPECT_EQ(ctl.minDelayMs(), 3.0);
    EXPECT_EQ(ctl.level(), OverloadController::Level::Nominal);
}

TEST(Overload, IdleSilenceDecaysBackToNominal)
{
    OverloadController::Options opts;
    opts.targetMs = 10.0;
    opts.windowMs = 5.0;
    OverloadController ctl(opts);

    ctl.observe(100.0);
    EXPECT_EQ(ctl.level(), OverloadController::Level::ShedAll);
    // No samples for more than two windows: the standing queue (if
    // there ever was one) is gone; an idle server is not overloaded.
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    EXPECT_EQ(ctl.level(), OverloadController::Level::Nominal);
    EXPECT_EQ(ctl.minDelayMs(), 0.0);
}

TEST(Overload, RetryAfterIsAtLeastTheTarget)
{
    OverloadController::Options opts;
    opts.targetMs = 25.0;
    OverloadController ctl(opts);
    EXPECT_GE(ctl.retryAfterMs(), 25.0);
    ctl.observe(400.0);
    EXPECT_GE(ctl.retryAfterMs(), 400.0);
}

// ---------------------------------------------------------------------
// Server overload integration: shed answers are typed (never the
// hot-retry backpressure response) and brownouts still serve.
// ---------------------------------------------------------------------

TEST(OverloadServer, ShedAllAnswersTypedShedWithRetryAfter)
{
    FailpointGuard guard;
    ServerFixture fx("shed", /*overload_target_ms=*/50.0);
    // Pin the observed queue delay far over 4x target: every
    // data-plane request sheds.
    fp::arm("overload.clock", "return-error(1000)");

    ServiceClient client(fx.server.socketPath());
    const Json r = client.request(compileRequest("mod5d2"));
    EXPECT_FALSE(r.at("ok").asBool());
    EXPECT_TRUE(r.at("overload_shed").asBool());
    ASSERT_TRUE(r.contains("retry_after_ms"));
    EXPECT_GE(r.at("retry_after_ms").asNumber(), 50.0);
    // Typed shed, not the hot-retry backpressure response -- the
    // client must back off, not hammer.
    EXPECT_FALSE(r.contains("retry"));

    fp::disarmAll();
    Json stats = Json::object();
    stats.set("op", Json("stats"));
    const Json s = client.request(stats);
    const Json sched = s.at("payload").at("scheduler");
    EXPECT_EQ(sched.at("shed").asNumber(), 1.0);
    // The stats payload reports the controller's view.
    ASSERT_TRUE(s.at("payload").contains("overload"));
    EXPECT_EQ(s.at("payload")
                  .at("overload")
                  .at("target_ms")
                  .asNumber(),
              50.0);
}

TEST(OverloadServer, BrownoutServesAReducedIterationPulse)
{
    FailpointGuard guard;
    ServerFixture fx("brownout", /*overload_target_ms=*/50.0);
    // Between target and 2x target: the brownout rung -- served, but
    // through the reduced-iteration degraded path.
    fp::arm("overload.clock", "return-error(75)");

    ServiceClient client(fx.server.socketPath());
    const Json r = client.request(compileRequest("mod5d2"));
    EXPECT_TRUE(r.at("ok").asBool());

    fp::disarmAll();
    Json stats = Json::object();
    stats.set("op", Json("stats"));
    const Json s = client.request(stats);
    EXPECT_EQ(s.at("payload")
                  .at("scheduler")
                  .at("brownout")
                  .asNumber(),
              1.0);
}

} // namespace
} // namespace paqoc
