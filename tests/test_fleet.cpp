/**
 * @file
 * Fleet subsystem tests (DESIGN.md §12): host:port parsing, TCP
 * listener plumbing, SCM_RIGHTS fd passing, the deterministic
 * weighted fair-share queue, the per-tenant replenishing budget
 * ledger (driven by an injected clock, no sleeping through windows),
 * fair-share scheduling end to end, the multi-tenant socket server
 * (TCP serving, budget exhaustion and isolation), and the fork-based
 * connection router (dispatch, crash restart, drain-aware shutdown).
 * Every suite name starts with "Fleet" so the CI chaos lane selects
 * the fork-heavy lot with `ctest -R '^Fleet'`.
 */

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <cstring>

#include <poll.h>
#include <sys/signalfd.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "circuit/gate.h"
#include "common/json.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "fleet/budget.h"
#include "fleet/endpoint.h"
#include "fleet/fair_queue.h"
#include "fleet/fdpass.h"
#include "fleet/router.h"
#include "fleet/tenant.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/scheduler.h"
#include "service/server.h"
#include "service/service.h"

namespace paqoc {
namespace {

// ---------------------------------------------------------------- //
// Endpoint parsing                                                 //
// ---------------------------------------------------------------- //

TEST(FleetEndpoint, ParsesWellFormedHostPort)
{
    const auto hp = fleet::parseHostPort("localhost:7777");
    ASSERT_TRUE(hp.has_value());
    EXPECT_EQ(hp->host, "localhost");
    EXPECT_EQ(hp->port, 7777);

    const auto any = fleet::parseHostPort("0.0.0.0:0");
    ASSERT_TRUE(any.has_value());
    EXPECT_EQ(any->port, 0);
}

TEST(FleetEndpoint, ParsesBracketedIpv6Literals)
{
    const auto loop = fleet::parseHostPort("[::1]:7777");
    ASSERT_TRUE(loop.has_value());
    EXPECT_EQ(loop->host, "::1");
    EXPECT_EQ(loop->port, 7777);

    const auto full = fleet::parseHostPort("[fe80::2:1]:0");
    ASSERT_TRUE(full.has_value());
    EXPECT_EQ(full->host, "fe80::2:1");
    EXPECT_EQ(full->port, 0);

    // Brackets around a colon-free host are pointless but harmless.
    const auto plain = fleet::parseHostPort("[localhost]:80");
    ASSERT_TRUE(plain.has_value());
    EXPECT_EQ(plain->host, "localhost");
    EXPECT_EQ(plain->port, 80);

    EXPECT_TRUE(fleet::looksLikeTcpEndpoint("[::1]:7777"));
}

TEST(FleetEndpoint, RejectsMalformedSpellings)
{
    const char *bad[] = {
        "",               // empty
        "localhost",      // no colon
        ":7777",          // empty host
        "localhost:",     // empty port
        "host:port",      // non-numeric port
        "host:12x4",      // trailing junk in port
        "host:-1",        // negative
        "host:65536",     // out of range
        "a:b:c",          // two colons, unbracketed
        "::1:80",         // IPv6 literal without brackets
        "[::1",           // unterminated bracket
        "[::1]",          // no port after bracket
        "[::1]:",         // empty port after bracket
        "[::1]80",        // missing ':' between ']' and port
        "[::1]x:80",      // junk between ']' and ':'
        "[]:80",          // empty bracketed host
        "::1]:80",        // ']' without '['
        "[::1]:p80",      // non-numeric port after bracket
    };
    for (const char *spec : bad) {
        std::string error;
        EXPECT_FALSE(fleet::parseHostPort(spec, &error).has_value())
            << "accepted '" << spec << "'";
        EXPECT_FALSE(error.empty()) << spec;
    }
}

TEST(FleetEndpoint, DistinguishesPathsFromTcpEndpoints)
{
    EXPECT_TRUE(fleet::looksLikeTcpEndpoint("localhost:7777"));
    EXPECT_TRUE(fleet::looksLikeTcpEndpoint("127.0.0.1:0"));
    EXPECT_FALSE(fleet::looksLikeTcpEndpoint("/tmp/paqocd.sock"));
    EXPECT_FALSE(fleet::looksLikeTcpEndpoint("./relative:path"));
    EXPECT_FALSE(fleet::looksLikeTcpEndpoint("plain.sock"));
    EXPECT_FALSE(fleet::looksLikeTcpEndpoint("host:notaport"));
}

TEST(FleetEndpoint, ListenAndConnectRoundTrip)
{
    std::string error;
    int port = -1;
    const int listener =
        fleet::listenTcp("127.0.0.1", 0, 4, &error, &port);
    ASSERT_GE(listener, 0) << error;
    ASSERT_GT(port, 0);

    const int client = fleet::connectTcp("127.0.0.1", port, &error);
    ASSERT_GE(client, 0) << error;
    const int served = ::accept(listener, nullptr, nullptr);
    ASSERT_GE(served, 0);

    const char out = 'x';
    ASSERT_EQ(::send(served, &out, 1, 0), 1);
    char in = 0;
    ASSERT_EQ(::recv(client, &in, 1, 0), 1);
    EXPECT_EQ(in, 'x');
    ::close(client);
    ::close(served);
    ::close(listener);
}

TEST(FleetEndpoint, ConnectRoundTripHonorsTimeoutParameter)
{
    // A reachable endpoint must connect fine through the
    // non-blocking + poll path too.
    std::string error;
    int port = -1;
    const int listener =
        fleet::listenTcp("127.0.0.1", 0, 4, &error, &port);
    ASSERT_GE(listener, 0) << error;
    const int client = fleet::connectTcp("127.0.0.1", port, &error,
                                         /*timeout_ms=*/2000);
    ASSERT_GE(client, 0) << error;
    ::close(client);
    ::close(listener);
}

TEST(FleetEndpoint, ConnectTimesOutOnUnroutableAddress)
{
    // 10.255.255.1 is an RFC 1918 address no test host routes; a SYN
    // toward it is black-holed, so only the connect deadline can save
    // us from the kernel's ~2 minute default. Sandboxed environments
    // may instead fail instantly with ENETUNREACH -- either way the
    // call must return an error well inside the timeout bound.
    const auto start = std::chrono::steady_clock::now();
    std::string error;
    const int fd = fleet::connectTcp("10.255.255.1", 9, &error,
                                     /*timeout_ms=*/250);
    const double elapsed_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();
    EXPECT_LT(elapsed_ms, 5000.0)
        << "connect ignored its deadline: " << error;
    if (fd >= 0) {
        // Sandboxed environments intercept outbound TCP and accept on
        // the kernel's behalf; the deadline bound above still held.
        ::close(fd);
        GTEST_SKIP() << "environment accepted the unroutable dial";
    }
    EXPECT_FALSE(error.empty());
}

// ---------------------------------------------------------------- //
// Tenant identity                                                  //
// ---------------------------------------------------------------- //

TEST(FleetTenant, ExtractsTenantFromRequest)
{
    Json r = Json::object();
    EXPECT_EQ(fleet::tenantFromRequest(r), fleet::kAnonymousTenant);
    r.set("tenant", Json("alice"));
    EXPECT_EQ(fleet::tenantFromRequest(r), "alice");
    r.set("tenant", Json(""));
    EXPECT_EQ(fleet::tenantFromRequest(r), fleet::kAnonymousTenant);
    r.set("tenant", Json(42));
    EXPECT_EQ(fleet::tenantFromRequest(r), fleet::kAnonymousTenant);
}

TEST(FleetTenant, ParsesWeightSpellings)
{
    std::string name, error;
    int weight = 0;
    ASSERT_TRUE(fleet::parseTenantWeight("alice=3", &name, &weight));
    EXPECT_EQ(name, "alice");
    EXPECT_EQ(weight, 3);

    const char *bad[] = {"", "alice", "=3", "alice=", "alice=0",
                         "alice=-1", "alice=x", "alice=3x"};
    for (const char *spec : bad)
        EXPECT_FALSE(
            fleet::parseTenantWeight(spec, &name, &weight, &error))
            << "accepted '" << spec << "'";
}

// ---------------------------------------------------------------- //
// Weighted fair-share queue                                        //
// ---------------------------------------------------------------- //

TEST(FleetFairQueue, OneToThreeWeightsInterleaveDeterministically)
{
    fleet::FairShareQueue<int> q;
    q.setWeight("a", 1);
    q.setWeight("b", 3);
    for (int i = 0; i < 4; ++i)
        q.push("a", i);
    for (int i = 0; i < 12; ++i)
        q.push("b", i);
    // Stride order with weights 1:3 and lexicographic tie-break is
    // exactly a b b b, repeating -- asserted as a sequence, not a
    // distribution (reproducibility is part of the contract).
    std::string order;
    std::string tenant;
    while (auto item = q.pop(&tenant))
        order += tenant;
    EXPECT_EQ(order, "abbbabbbabbbabbb");
}

TEST(FleetFairQueue, ServiceIsProportionalToWeights)
{
    fleet::FairShareQueue<int> q;
    q.setWeight("light", 1);
    q.setWeight("heavy", 4);
    for (int i = 0; i < 500; ++i) {
        q.push("light", i);
        q.push("heavy", i);
    }
    // Over any prefix while both lanes are backlogged, service is
    // weight-proportional within one stride of rounding.
    std::map<std::string, int> served;
    std::string tenant;
    for (int i = 0; i < 400; ++i) {
        ASSERT_TRUE(q.pop(&tenant).has_value());
        ++served[tenant];
    }
    EXPECT_NEAR(served["heavy"], 320, 2);
    EXPECT_NEAR(served["light"], 80, 2);
}

TEST(FleetFairQueue, IdleTenantRejoinsWithoutBankedCredit)
{
    fleet::FairShareQueue<int> q;
    q.setWeight("a", 1);
    q.setWeight("b", 1);
    for (int i = 0; i < 100; ++i)
        q.push("b", i);
    // Drain half of b's backlog while a is idle...
    std::string tenant;
    for (int i = 0; i < 50; ++i)
        ASSERT_TRUE(q.pop(&tenant).has_value());
    // ...then a shows up. It rejoins at the current pass front, which
    // buys at most ONE stride of priority (the "aa" prefix below) --
    // from there on service alternates. What must NOT happen is 50
    // back-to-back pops of a as "owed" catch-up credit for the time
    // it sat idle.
    for (int i = 0; i < 10; ++i)
        q.push("a", i);
    std::string order;
    for (int i = 0; i < 8; ++i) {
        ASSERT_TRUE(q.pop(&tenant).has_value());
        order += tenant;
    }
    EXPECT_EQ(order, "aabababa");
}

// ---------------------------------------------------------------- //
// Replenishing budget ledger                                       //
// ---------------------------------------------------------------- //

TEST(FleetBudget, UnmeteredLedgerNeverExhausts)
{
    fleet::TenantBudgetLedger ledger; // all dimensions zero
    const auto now = fleet::TenantBudgetLedger::Clock::now();
    ledger.charge("a", 1e9, 1e9, now);
    EXPECT_FALSE(ledger.remaining("a", now).exhausted);
}

TEST(FleetBudget, ChargesExhaustAndTheWindowReplenishes)
{
    fleet::BudgetOptions opts;
    opts.iters = 100.0;
    opts.windowMs = 1000.0;
    fleet::TenantBudgetLedger ledger(opts);

    using Clock = fleet::TenantBudgetLedger::Clock;
    const Clock::time_point t0 = Clock::now();
    const auto at = [&](double ms) {
        return t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double, std::milli>(ms));
    };

    EXPECT_DOUBLE_EQ(ledger.remaining("a", at(0)).iters, 100.0);
    ledger.charge("a", 60.0, 0.0, at(0));
    EXPECT_DOUBLE_EQ(ledger.remaining("a", at(1)).iters, 40.0);
    ledger.charge("a", 40.0, 0.0, at(500));

    const auto spent = ledger.remaining("a", at(501));
    EXPECT_TRUE(spent.exhausted);
    // The oldest charge (t=0) replenishes at t=1000: retry-after
    // counts down to that edge.
    EXPECT_NEAR(spent.retryAfterMs, 499.0, 1.0);

    // Past the first charge's window edge: 60 iters refunded.
    const auto later = ledger.remaining("a", at(1001));
    EXPECT_FALSE(later.exhausted);
    EXPECT_DOUBLE_EQ(later.iters, 60.0);

    // Past both: the full budget is back.
    EXPECT_DOUBLE_EQ(ledger.remaining("a", at(1501)).iters, 100.0);
}

TEST(FleetBudget, TenantsHaveIndependentBuckets)
{
    fleet::BudgetOptions opts;
    opts.iters = 10.0;
    opts.windowMs = 1000.0;
    fleet::TenantBudgetLedger ledger(opts);
    const auto now = fleet::TenantBudgetLedger::Clock::now();

    ledger.charge("greedy", 50.0, 0.0, now);
    EXPECT_TRUE(ledger.remaining("greedy", now).exhausted);
    // The other tenant's bucket is untouched.
    EXPECT_FALSE(ledger.remaining("frugal", now).exhausted);
    EXPECT_DOUBLE_EQ(ledger.remaining("frugal", now).iters, 10.0);
}

TEST(FleetBudget, WindowSpendTracksBothDimensions)
{
    fleet::BudgetOptions opts;
    opts.iters = 100.0;
    opts.wallMs = 100.0;
    opts.windowMs = 1000.0;
    fleet::TenantBudgetLedger ledger(opts);
    const auto now = fleet::TenantBudgetLedger::Clock::now();

    ledger.charge("a", 5.0, 7.0, now);
    ledger.charge("a", 5.0, 3.0, now);
    const auto spend = ledger.windowSpend("a", now);
    EXPECT_DOUBLE_EQ(spend.iters, 10.0);
    EXPECT_DOUBLE_EQ(spend.wallMs, 10.0);
    ASSERT_EQ(ledger.tenants().size(), 1u);
    EXPECT_EQ(ledger.tenants()[0], "a");
}

// ---------------------------------------------------------------- //
// SCM_RIGHTS fd passing                                            //
// ---------------------------------------------------------------- //

TEST(FleetFdpass, RoundTripsAFileDescriptor)
{
    int channel[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, channel), 0);
    int payload[2];
    ASSERT_EQ(::pipe(payload), 0);

    ASSERT_TRUE(fleet::sendFd(channel[0], payload[1]));
    const int received = fleet::recvFd(channel[1]);
    ASSERT_GE(received, 0);
    // The received descriptor refers to the same pipe: a write
    // through it is readable from the original read end.
    const char byte = 'p';
    ASSERT_EQ(::write(received, &byte, 1), 1);
    char got = 0;
    ASSERT_EQ(::read(payload[0], &got, 1), 1);
    EXPECT_EQ(got, 'p');

    ::close(received);
    ::close(payload[0]);
    ::close(payload[1]);
    ::close(channel[0]);
    ::close(channel[1]);
}

TEST(FleetFdpass, EofReadsAsMinusOne)
{
    int channel[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, channel), 0);
    ::close(channel[0]);
    EXPECT_EQ(fleet::recvFd(channel[1]), -1);
    ::close(channel[1]);
}

// ---------------------------------------------------------------- //
// Fair-share scheduling end to end                                 //
// ---------------------------------------------------------------- //

TEST(FleetFairShare, SchedulerDispatchesInWeightedStrideOrder)
{
    // One pool thread + concurrency 1 serializes execution, so the
    // completion order *is* the dispatch order.
    ThreadPool pool(1);
    SessionScheduler scheduler(64, &pool);
    scheduler.enableFairShare({{"a", 1}, {"b", 3}}, 1);

    Mutex mutex;
    CondVar cv;
    bool gate_open = false;
    std::string order;

    // A blocker job holds the single slot while the backlog builds,
    // so every later job goes through the fair-share queue.
    scheduler.submit("warmup", [&]() {
        MutexLock lock(mutex);
        while (!gate_open)
            cv.wait(mutex);
    });
    for (int i = 0; i < 4; ++i) {
        scheduler.submit("a", [&order, &mutex]() {
            MutexLock lock(mutex);
            order += 'a';
        });
        for (int j = 0; j < 3; ++j)
            scheduler.submit("b", [&order, &mutex]() {
                MutexLock lock(mutex);
                order += 'b';
            });
    }
    {
        MutexLock lock(mutex);
        gate_open = true;
        cv.notify_all();
    }
    scheduler.drain();
    EXPECT_EQ(order, "abbbabbbabbbabbb");

    const auto tenants = scheduler.tenantStats();
    ASSERT_EQ(tenants.size(), 3u); // a, b, warmup (name order)
    EXPECT_EQ(tenants[0].first, "a");
    EXPECT_EQ(tenants[0].second.admitted, 4u);
    EXPECT_EQ(tenants[0].second.completed, 4u);
    EXPECT_EQ(tenants[1].first, "b");
    EXPECT_EQ(tenants[1].second.admitted, 12u);
    EXPECT_EQ(tenants[1].second.completed, 12u);
}

TEST(FleetFairShare, SweepExpiredPurgesBackloggedTenantsInPlace)
{
    // Fair-share mode: expired jobs buried in a tenant's queue are
    // purged by the sweep -- admission slots and per-tenant queued
    // counters settle immediately, without a worker popping them.
    ThreadPool pool(1);
    SessionScheduler scheduler(64, &pool);
    scheduler.enableFairShare({{"slow", 1}, {"live", 1}}, 1);

    Mutex mutex;
    CondVar cv;
    bool gate_open = false;
    scheduler.submit("warmup", [&]() {
        MutexLock lock(mutex);
        while (!gate_open)
            cv.wait(mutex);
    });

    std::atomic<int> worked{0};
    std::atomic<int> expired_cb{0};
    const auto past = SessionScheduler::Clock::now()
        - std::chrono::milliseconds(5);
    for (int i = 0; i < 3; ++i) {
        ASSERT_EQ(scheduler.submit(
                      "slow", [&]() { worked.fetch_add(1); }, past,
                      [&]() { expired_cb.fetch_add(1); }),
                  SessionScheduler::Admit::Accepted);
        ASSERT_EQ(scheduler.submit("live",
                                   [&]() { worked.fetch_add(1); }),
                  SessionScheduler::Admit::Accepted);
    }

    EXPECT_EQ(scheduler.sweepExpired(), 3u);
    EXPECT_EQ(expired_cb.load(), 3);

    {
        MutexLock lock(mutex);
        gate_open = true;
        cv.notify_all();
    }
    scheduler.drain();

    EXPECT_EQ(worked.load(), 3); // only the live tenant's jobs ran
    const auto st = scheduler.stats();
    EXPECT_EQ(st.expired, 3u);
    EXPECT_EQ(st.completed + st.expired, st.accepted);
    EXPECT_EQ(st.inFlight, 0u);
    for (const auto &entry : scheduler.tenantStats()) {
        if (entry.first == "slow") {
            EXPECT_EQ(entry.second.expired, 3u);
            EXPECT_EQ(entry.second.completed, 0u);
            EXPECT_EQ(entry.second.queued, 0u);
        } else if (entry.first == "live") {
            EXPECT_EQ(entry.second.expired, 0u);
            EXPECT_EQ(entry.second.completed, 3u);
            EXPECT_EQ(entry.second.queued, 0u);
        }
    }
}

// ---------------------------------------------------------------- //
// Multi-tenant socket server                                       //
// ---------------------------------------------------------------- //

ServerOptions
scratchServerOptions(const std::string &name)
{
    ServerOptions opts;
    opts.socketPath = "/tmp/paqoc_test_fleet_" + name + ".sock";
    return opts;
}

/** One server torn down on scope exit (mirrors test_service.cpp). */
struct ServerFixture
{
    PulseService service;
    SocketServer server;
    std::thread runner;

    ServerFixture(ServiceOptions sopts, ServerOptions opts)
        : service(std::move(sopts)), server(service, std::move(opts))
    {
        server.start();
        runner = std::thread([this]() { server.run(); });
    }

    ~ServerFixture()
    {
        server.requestStop();
        runner.join();
    }
};

TEST(FleetServer, ServesPingOverTcp)
{
    ServerOptions opts; // no Unix socket at all: TCP only
    opts.listenHost = "127.0.0.1";
    opts.listenPort = 0;
    ServerFixture fx({}, opts);
    ASSERT_GT(fx.server.tcpPort(), 0);

    ServiceClient client("127.0.0.1:"
                         + std::to_string(fx.server.tcpPort()));
    Json ping = Json::object();
    ping.set("op", Json("ping"));
    EXPECT_TRUE(client.request(ping).at("ok").asBool());
}

TEST(FleetServer, TcpAndUnixServeByteIdenticalPayloads)
{
    ServerOptions opts = scratchServerOptions("twolisten");
    opts.listenHost = "127.0.0.1";
    ServerFixture fx({}, opts);
    ASSERT_GT(fx.server.tcpPort(), 0);

    Json compile = Json::object();
    compile.set("op", Json("compile"));
    compile.set("benchmark", Json("mod5d2"));

    ServiceClient unix_client(fx.server.socketPath());
    ServiceClient tcp_client(
        "127.0.0.1:" + std::to_string(fx.server.tcpPort()));
    const Json a = unix_client.request(compile);
    const Json b = tcp_client.request(compile);
    ASSERT_TRUE(a.at("ok").asBool());
    ASSERT_TRUE(b.at("ok").asBool());
    EXPECT_EQ(a.at("payload").dump(), b.at("payload").dump());
}

Json
grapeGenerateRequest(const std::string &tenant)
{
    Json r = Json::object();
    r.set("op", Json("generate"));
    r.set("backend", Json("grape"));
    r.set("unitary",
          protocol::matrixToJson(Gate(Op::H, {0}).unitary()));
    if (!tenant.empty())
        r.set("tenant", Json(tenant));
    return r;
}

TEST(FleetServer, BudgetExhaustionIsIsolatedPerTenant)
{
    ServiceOptions sopts;
    sopts.grape.maxIterations = 120; // keep each GRAPE run quick

    ServerOptions opts = scratchServerOptions("budget");
    // Budget below any real GRAPE run (every run charges at least one
    // iteration): tenant a's first request exhausts the bucket; the
    // window is long so nothing replenishes during the test.
    opts.tenantBudget.iters = 0.5;
    opts.tenantBudget.windowMs = 120000.0;
    ServerFixture fx(std::move(sopts), opts);

    ServiceClient client(fx.server.socketPath());
    // First request: the remaining budget (floored to 1 iteration) is
    // injected as the cap. Whether GRAPE converges inside it (ok) or
    // trips it (budget_exhausted), the bucket is charged either way.
    const Json first = client.request(grapeGenerateRequest("a"));
    if (!first.at("ok").asBool()) {
        EXPECT_TRUE(
            first.get("budget_exhausted", Json(false)).asBool());
        EXPECT_EQ(first.at("tenant").asString(), "a");
        EXPECT_GT(first.at("retry_after_ms").asNumber(), 0.0);
        // Deliberately no `retry` member: budget errors must not
        // trigger the client's hot backpressure retry loop.
        EXPECT_FALSE(first.contains("retry"));
    }

    // Tenant a is now exhausted at admission.
    const Json second = client.request(grapeGenerateRequest("a"));
    ASSERT_FALSE(second.at("ok").asBool());
    EXPECT_TRUE(second.get("budget_exhausted", Json(false)).asBool());
    EXPECT_EQ(second.at("tenant").asString(), "a");
    EXPECT_GT(second.at("retry_after_ms").asNumber(), 0.0);
    EXPECT_FALSE(second.contains("retry"));

    // Tenant b's independent bucket is untouched: b must NOT get a's
    // exhausted-at-admission refusal -- it runs (and is billed
    // against its own bucket, which may then trip mid-request).
    const Json third = client.request(grapeGenerateRequest("b"));
    EXPECT_TRUE(third.at("ok").asBool()
                || third.get("budget_exhausted", Json(false)).asBool());
    if (!third.at("ok").asBool()) {
        EXPECT_EQ(third.at("tenant").asString(), "b");
    }

    // Per-tenant stats report the exhaustions separately.
    Json stats_request = Json::object();
    stats_request.set("op", Json("stats"));
    const Json stats = client.request(stats_request);
    ASSERT_TRUE(stats.at("ok").asBool());
    const Json &tenants = stats.at("payload").at("tenants");
    ASSERT_TRUE(tenants.contains("a"));
    EXPECT_GE(tenants.at("a").at("budget_exhausted").asNumber(), 1.0);
    EXPECT_TRUE(tenants.at("a").at("exhausted").asBool());
    EXPECT_GT(tenants.at("a").at("window_iters").asNumber(), 0.0);
}

TEST(FleetServer, BindingWallBudgetAnswersBudgetExhausted)
{
    // The tenant's remaining wall budget tightens the request's
    // deadline; when it is the binding bound and passes mid-request,
    // the answer is the retryable budget error, not a cancellation.
    ServerOptions opts = scratchServerOptions("wall_budget");
    opts.tenantBudget.wallMs = 20.0;
    opts.tenantBudget.windowMs = 120000.0;
    ServerFixture fx({}, opts);

    ServiceClient client(fx.server.socketPath());
    Json request = Json::object();
    request.set("op", Json("generate"));
    request.set("backend", Json("grape"));
    request.set("unitary",
                protocol::matrixToJson(Gate(Op::CX, {0, 1}).unitary()));
    request.set("tenant", Json("a"));
    const Json r = client.request(request);
    ASSERT_FALSE(r.at("ok").asBool());
    EXPECT_TRUE(r.get("budget_exhausted", Json(false)).asBool())
        << r.dump();
    EXPECT_EQ(r.at("tenant").asString(), "a");
    EXPECT_GT(r.at("retry_after_ms").asNumber(), 0.0);
    EXPECT_FALSE(r.contains("cancelled"));
}

TEST(FleetServer, ExhaustedTenantCanOptIntoDegradedService)
{
    ServiceOptions sopts;
    sopts.grape.maxIterations = 120;

    ServerOptions opts = scratchServerOptions("degrade");
    opts.tenantBudget.iters = 0.5; // exhausted after any real work
    opts.tenantBudget.windowMs = 120000.0;
    ServerFixture fx(std::move(sopts), opts);

    ServiceClient client(fx.server.socketPath());
    // Spend the budget (ok or budget_exhausted; charged either way).
    (void)client.request(grapeGenerateRequest("a"));

    // Exhausted + degrade_on_quota: served a best-effort pulse
    // instead of refused.
    Json degraded = grapeGenerateRequest("a");
    degraded.set("degrade_on_quota", Json(true));
    const Json served = client.request(degraded);
    ASSERT_TRUE(served.at("ok").asBool())
        << served.get("error", Json("")).asString();

    // The degraded serve is recorded against the tenant.
    Json stats_request = Json::object();
    stats_request.set("op", Json("stats"));
    const Json stats = client.request(stats_request);
    ASSERT_TRUE(stats.at("ok").asBool());
    EXPECT_GE(stats.at("payload").at("tenants").at("a").at("degraded")
                  .asNumber(),
              1.0);
}

// ---------------------------------------------------------------- //
// Connection router (fork-based; suites run in the chaos lane)     //
// ---------------------------------------------------------------- //

/**
 * Per-test scratch path: the test's name plus this process's pid, so
 * tests running side by side (ctest -j) never share a socket or log.
 */
std::string
scratchPath(const std::string &suffix)
{
    const ::testing::TestInfo *info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    const std::filesystem::path path =
        std::filesystem::temp_directory_path()
        / ("paqoc_fleet_" + std::string(info->name()) + "_"
           + std::to_string(static_cast<long>(::getpid())) + suffix);
    std::filesystem::remove(path);
    return path.string();
}

fleet::RouterOptions
scratchRouterOptions(int workers)
{
    fleet::RouterOptions opts;
    opts.socketPath = scratchPath(".sock");
    opts.workers = workers;
    opts.backoffMs = 10.0;
    opts.backoffCapMs = 50.0;
    opts.heartbeatIntervalMs = 20.0;
    // The minimal test workers never beat; death is still detected
    // through heartbeat-pipe EOF, so hang detection stays off unless
    // a test turns it on (the FleetSuperviseHang suite does).
    opts.heartbeatTimeoutMs = 0.0;
    return opts;
}

/**
 * Minimal fleet worker body (runs in the forked child, no gtest):
 * answer every handed connection with one byte identifying the slot,
 * exit 0 on router EOF or on a forwarded SIGTERM (a clean drain, as
 * paqocd's serve() does). SIGTERM arrives through a signalfd rather
 * than a handler, which sanitizer runtimes may defer while the worker
 * blocks. `limit` > 0 makes the worker exit cleanly on its own after
 * that many connections.
 */
int
echoWorker(const fleet::FleetWorkerContext &ctx, int limit = 0)
{
    sigset_t term;
    ::sigemptyset(&term);
    ::sigaddset(&term, SIGTERM);
    ::sigprocmask(SIG_BLOCK, &term, nullptr);
    const int stop_fd = ::signalfd(-1, &term, 0);
    for (int served = 0; limit <= 0 || served < limit; ++served) {
        pollfd fds[2] = {{ctx.controlFd, POLLIN, 0},
                         {stop_fd, POLLIN, 0}};
        while (::poll(fds, 2, -1) < 0) {
        }
        if (fds[1].revents & POLLIN)
            return 0;
        const int fd = fleet::recvFd(ctx.controlFd);
        if (fd < 0)
            return 0;
        const char byte = static_cast<char>('0' + ctx.slot);
        (void)::send(fd, &byte, 1, MSG_NOSIGNAL);
        ::close(fd);
    }
    return 0;
}

/** Connect to the router's Unix socket and read the one-byte answer. */
char
askFleet(const std::string &socket_path)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, socket_path.c_str(),
                 sizeof addr.sun_path - 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return '?';
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof addr)
        != 0) {
        ::close(fd);
        return '?';
    }
    char byte = '?';
    (void)::recv(fd, &byte, 1, 0);
    ::close(fd);
    return byte;
}

TEST(FleetRouter, RoundRobinsConnectionsAcrossWorkers)
{
    const fleet::RouterOptions opts = scratchRouterOptions(2);
    fleet::Router router(opts, [](const fleet::FleetWorkerContext &ctx) {
        return echoWorker(ctx);
    });
    router.start();
    std::thread loop([&router]() { router.runLoop(); });

    std::map<char, int> answers;
    for (int i = 0; i < 6; ++i) {
        const char byte = askFleet(opts.socketPath);
        ASSERT_NE(byte, '?') << "connection " << i;
        ++answers[byte];
    }
    // Round-robin over two live slots: both serve half the load.
    EXPECT_EQ(answers['0'], 3);
    EXPECT_EQ(answers['1'], 3);

    router.requestStop();
    loop.join();
    const auto slots = router.slotStats();
    ASSERT_EQ(slots.size(), 2u);
    EXPECT_EQ(slots[0].incarnations, 1);
    EXPECT_EQ(slots[1].incarnations, 1);
    EXPECT_EQ(slots[0].handed + slots[1].handed, 6);
}

TEST(FleetRouter, CrashedWorkerIsRestartedAndKeepsServing)
{
    const fleet::RouterOptions opts = scratchRouterOptions(2);
    // Worker body: slot 0's first incarnation dies instantly with a
    // nonzero status; every other incarnation serves normally.
    fleet::Router router(
        opts, [](const fleet::FleetWorkerContext &ctx) {
            if (ctx.slot == 0 && ctx.incarnation == 0)
                return 7;
            return echoWorker(ctx);
        });
    router.start();
    // Let slot 0's first incarnation die before the first connection:
    // a socket handed to a worker in the instant before it exits is
    // lost with it (clients ride such a crash on their retries).
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    std::thread loop([&router]() { router.runLoop(); });

    // Every connection is answered -- by slot 1 while slot 0 is down,
    // by either once slot 0's restart lands. The router re-queues a
    // dead slot's turn, so no connection is lost to the crash.
    for (int i = 0; i < 8; ++i) {
        EXPECT_NE(askFleet(opts.socketPath), '?') << "connection " << i;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }

    router.requestStop();
    loop.join();
    const auto slots = router.slotStats();
    ASSERT_EQ(slots.size(), 2u);
    EXPECT_EQ(slots[0].incarnations, 2); // crashed once, restarted
    EXPECT_EQ(slots[1].incarnations, 1);
}

TEST(FleetRouter, OneWorkersCleanExitDrainsTheFleet)
{
    const fleet::RouterOptions opts = scratchRouterOptions(2);
    // Slot 0 exits cleanly after its second connection (as a worker
    // does after a client's "shutdown" op); the router must drain the
    // whole fleet rather than keep serving at half capacity. Slot 1
    // answers the second connection first, so it is serving -- and
    // drains cleanly -- when the forwarded SIGTERM reaches it.
    fleet::Router router(
        opts, [](const fleet::FleetWorkerContext &ctx) {
            return echoWorker(ctx, ctx.slot == 0 ? 2 : 0);
        });
    router.start();
    int code = -1;
    std::thread loop([&]() { code = router.runLoop(); });
    EXPECT_EQ(askFleet(opts.socketPath), '0');
    EXPECT_EQ(askFleet(opts.socketPath), '1');
    EXPECT_EQ(askFleet(opts.socketPath), '0');
    loop.join();
    EXPECT_EQ(code, 0);
    const auto slots = router.slotStats();
    ASSERT_EQ(slots.size(), 2u);
    EXPECT_EQ(slots[0].incarnations, 1); // clean exit, no restart
    EXPECT_EQ(slots[1].incarnations, 1);
}

// ---------------------------------------------------------------- //
// One-worker router (`paqocd --supervise`, DESIGN.md §10)          //
// ---------------------------------------------------------------- //

/** Append one line to the incarnation log (child-side, crash-safe). */
void
logIncarnation(const std::string &path, int incarnation)
{
    std::ofstream out(path, std::ios::app);
    out << incarnation << "\n";
    out.flush();
}

/** Read the incarnation log, then delete it. */
std::vector<int>
takeLog(const std::string &path)
{
    std::vector<int> incarnations;
    {
        std::ifstream in(path);
        std::string line;
        while (std::getline(in, line))
            if (!line.empty())
                incarnations.push_back(std::stoi(line));
    }
    std::filesystem::remove(path);
    return incarnations;
}

/** A supervised single worker with the hang watchdog on. */
fleet::RouterOptions
superviseOptions()
{
    fleet::RouterOptions opts = scratchRouterOptions(1);
    opts.heartbeatTimeoutMs = 400.0;
    return opts;
}

TEST(FleetSupervise, CleanExitStopsSupervision)
{
    const std::string log = scratchPath(".log");
    fleet::Router router(superviseOptions(),
                         [&](const fleet::FleetWorkerContext &ctx) {
                             logIncarnation(log, ctx.incarnation);
                             return 0;
                         });
    EXPECT_EQ(router.run(), 0);
    EXPECT_EQ(takeLog(log), (std::vector<int>{0}));
}

TEST(FleetSupervise, CrashedWorkerRestartsAndServes)
{
    const std::string log = scratchPath(".log");
    fleet::Router router(superviseOptions(),
                         [&](const fleet::FleetWorkerContext &ctx) {
                             logIncarnation(log, ctx.incarnation);
                             if (ctx.incarnation == 0)
                                 std::_Exit(3); // crash before serving
                             return 0;
                         });
    EXPECT_EQ(router.run(), 0);
    EXPECT_EQ(takeLog(log), (std::vector<int>{0, 1}));
}

TEST(FleetSupervise, SignalDeathAlsoCountsAsCrash)
{
    const std::string log = scratchPath(".log");
    fleet::Router router(superviseOptions(),
                         [&](const fleet::FleetWorkerContext &ctx) {
                             logIncarnation(log, ctx.incarnation);
                             if (ctx.incarnation == 0)
                                 std::raise(SIGKILL);
                             return 0;
                         });
    EXPECT_EQ(router.run(), 0);
    EXPECT_EQ(takeLog(log), (std::vector<int>{0, 1}));
}

TEST(FleetSupervise, RestartBudgetBoundsTheLoop)
{
    const std::string log = scratchPath(".log");
    fleet::RouterOptions opts = superviseOptions();
    opts.maxRestarts = 2;
    fleet::Router router(opts, [&](const fleet::FleetWorkerContext &ctx) {
        logIncarnation(log, ctx.incarnation);
        return 7; // persistently broken worker
    });
    // The router hands back the worker's last status and runs it
    // exactly 1 + maxRestarts times.
    EXPECT_EQ(router.run(), 7);
    EXPECT_EQ(takeLog(log), (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(router.slotStats()[0].incarnations, 3);
}

TEST(FleetSupervise, StopExitsWithTheWorkersDrainStatus)
{
    // After a forwarded stop the router reports how the worker went:
    // 0 for a clean drain, 128+signum for a worker the signal killed.
    for (const bool drains : {true, false}) {
        const fleet::RouterOptions opts = scratchRouterOptions(1);
        fleet::Router router(
            opts, [drains](const fleet::FleetWorkerContext &ctx) {
                if (drains)
                    return echoWorker(ctx);
                for (;;)
                    ::pause(); // SIGTERM keeps its default action
            });
        router.start();
        int code = -1;
        std::thread loop([&]() { code = router.runLoop(); });
        // An answer proves the draining worker is watching for SIGTERM.
        if (drains) {
            EXPECT_EQ(askFleet(opts.socketPath), '0');
        }
        router.requestStop();
        loop.join();
        EXPECT_EQ(code, drains ? 0 : 128 + SIGTERM);
    }
}

TEST(FleetSuperviseHang, SilentWorkerIsKilledAndRestarted)
{
    const std::string log = scratchPath(".log");
    fleet::Router router(
        superviseOptions(), [&](const fleet::FleetWorkerContext &ctx) {
            logIncarnation(log, ctx.incarnation);
            if (ctx.incarnation == 0) {
                // Alive but never beating: the router must SIGKILL
                // this incarnation once the heartbeat timeout passes.
                std::this_thread::sleep_for(std::chrono::seconds(30));
                return 0;
            }
            fleet::HeartbeatThread beat(ctx.heartbeatFd,
                                        ctx.heartbeatIntervalMs);
            std::this_thread::sleep_for(std::chrono::milliseconds(600));
            return 0;
        });
    EXPECT_EQ(router.run(), 0);
    // Incarnation 1 outlived the heartbeat timeout because it beat.
    EXPECT_EQ(takeLog(log), (std::vector<int>{0, 1}));
}

/**
 * Run a beating one-worker router with PAQOC_WORKER_FAILPOINTS=spec:
 * the spec arms inside incarnation 0 only, whose beats must then read
 * as a hang (killed, restarted), while incarnation 1 -- same code
 * path, no failpoint -- beats normally and finishes.
 */
void
expectFailpointReadsAsHangOnce(const std::string &spec)
{
    const std::string log = scratchPath(".log");
    ::setenv("PAQOC_WORKER_FAILPOINTS", spec.c_str(), 1);
    fleet::Router router(
        superviseOptions(), [&](const fleet::FleetWorkerContext &ctx) {
            logIncarnation(log, ctx.incarnation);
            fleet::HeartbeatThread beat(ctx.heartbeatFd,
                                        ctx.heartbeatIntervalMs);
            // Long enough that a stalled incarnation is reliably
            // killed before it can exit cleanly on its own.
            std::this_thread::sleep_for(std::chrono::milliseconds(
                ctx.incarnation == 0 ? 30000 : 600));
            return 0;
        });
    const int code = router.run();
    ::unsetenv("PAQOC_WORKER_FAILPOINTS");
    EXPECT_EQ(code, 0);
    EXPECT_EQ(takeLog(log), (std::vector<int>{0, 1}));
}

TEST(FleetSuperviseHang, StallFailpointArmsInFirstIncarnationOnly)
{
    // heartbeat.stall skips the beat: a wedged worker.
    expectFailpointReadsAsHangOnce("heartbeat.stall=return-error");
}

TEST(FleetSuperviseHang, FailedHeartbeatWriteReadsAsHang)
{
    // heartbeat.write fails the byte write itself.
    expectFailpointReadsAsHangOnce("heartbeat.write=return-error");
}

TEST(FleetSupervise, HeartbeatIsInertOutsideARouter)
{
    // paqocd runs the same serve() body with and without a router; a
    // default context must make the heartbeat a no-op.
    const fleet::FleetWorkerContext ctx;
    EXPECT_EQ(ctx.heartbeatFd, -1);
    fleet::HeartbeatThread beat(ctx.heartbeatFd, ctx.heartbeatIntervalMs);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
}

} // namespace
} // namespace paqoc
