#include "service/server.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/error.h"
#include "common/failpoint.h"
#include "fleet/endpoint.h"
#include "fleet/fdpass.h"
#include "fleet/tenant.h"
#include "service/protocol.h"

namespace paqoc {

namespace {

void
writeResponse(const std::shared_ptr<Mutex> &write_mutex, int fd,
              Json response, const Json &id)
{
    if (!id.isNull())
        response.set("id", id);
    const std::string text = response.dump();
    // server.response: the daemon "dies" right before answering --
    // the socket is severed without a byte of this frame, exactly
    // what a crash between compute and reply looks like to a client.
    if (failpoint::evaluate("server.response").action
        != failpoint::Action::Off) {
        ::shutdown(fd, SHUT_RDWR);
        return;
    }
    try {
        MutexLock lock(*write_mutex);
        protocol::writeFrame(fd, text);
    } catch (const std::exception &) {
        // The peer died mid-response (EPIPE via MSG_NOSIGNAL, reset,
        // or an injected protocol.write failure). The connection is
        // beyond saving; the daemon is not. Sever it outright: a
        // partially written frame would leave the client blocked on
        // the missing bytes, whereas a closed socket makes it
        // reconnect and resend from its buffered request copy.
        ::shutdown(fd, SHUT_RDWR);
    }
}

/** True when a handled response carries the structured quota error. */
bool
isQuotaExceeded(const Json &response)
{
    return response.isObject() && response.contains("quota_exceeded")
        && response.at("quota_exceeded").isBool()
        && response.at("quota_exceeded").asBool();
}

/** Safe bool member read (non-bool members count as absent). */
bool
boolMember(const Json &request, const std::string &key)
{
    return request.isObject() && request.contains(key)
        && request.at(key).isBool() && request.at(key).asBool();
}

/** Safe numeric member read (non-number members count as absent). */
double
numberMember(const Json &request, const std::string &key)
{
    if (request.isObject() && request.contains(key)
        && request.at(key).isNumber())
        return request.at(key).asNumber();
    return 0.0;
}

/**
 * The deadline `ms` milliseconds after `from`. A client's bound beyond
 * about 31 years is clamped there: converting a larger one to clock
 * ticks would overflow and land the deadline in the past.
 */
SessionScheduler::Clock::time_point
deadlineAfter(SessionScheduler::Clock::time_point from, double ms)
{
    return from
        + std::chrono::microseconds(
            static_cast<long>(std::min(ms, 1e12) * 1000.0));
}

/** The iterations a handled response reports as spent. */
double
itersCharged(const Json &response)
{
    if (!response.isObject())
        return 0.0;
    if (response.contains("stats")
        && response.at("stats").isObject())
        return numberMember(response.at("stats"), "iters_charged");
    // quota_exceeded / cancelled responses carry it at the root.
    return numberMember(response, "iters_charged");
}

/** The wire name a cancelled response reports, back to the enum. */
CancelReason
cancelReasonFromName(const std::string &name)
{
    if (name == "deadline_exceeded")
        return CancelReason::DeadlineExceeded;
    if (name == "client_disconnected")
        return CancelReason::ClientDisconnected;
    if (name == "overload_shed")
        return CancelReason::OverloadShed;
    if (name == "shutdown")
        return CancelReason::Shutdown;
    return CancelReason::ExplicitCancel;
}

OverloadController::Options
overloadOptions(const ServerOptions &options)
{
    OverloadController::Options opts;
    opts.targetMs = options.overloadTargetMs;
    opts.brownoutIters = options.overloadBrownoutIters;
    return opts;
}

} // namespace

SocketServer::SocketServer(PulseService &service, ServerOptions options)
    : service_(service), options_(std::move(options)),
      scheduler_(options_.maxQueue), ledger_(options_.tenantBudget),
      overload_(overloadOptions(options_))
{
    if (options_.fairShare)
        scheduler_.enableFairShare(options_.tenantWeights,
                                   options_.fairShareConcurrency);
    if (overload_.enabled())
        scheduler_.setQueueDelayObserver(
            [this](double delay_ms) { overload_.observe(delay_ms); });
}

SocketServer::~SocketServer()
{
    stop();
}

void
SocketServer::start()
{
    if (accept_thread_.joinable())
        return; // already started (run() after an explicit start())
    PAQOC_FATAL_IF(options_.socketPath.empty()
                       && options_.listenHost.empty()
                       && options_.controlFd < 0,
                   "server: no listening endpoint configured");
    if (!options_.socketPath.empty()) {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        PAQOC_FATAL_IF(
            options_.socketPath.size() >= sizeof addr.sun_path,
            "server: socket path '", options_.socketPath,
            "' too long");
        std::strncpy(addr.sun_path, options_.socketPath.c_str(),
                     sizeof addr.sun_path - 1);

        listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        PAQOC_FATAL_IF(listen_fd_ < 0, "server: socket(): ",
                       std::strerror(errno));
        ::unlink(options_.socketPath.c_str());
        PAQOC_FATAL_IF(::bind(listen_fd_,
                              reinterpret_cast<sockaddr *>(&addr),
                              sizeof addr)
                           != 0,
                       "server: cannot bind '", options_.socketPath,
                       "': ", std::strerror(errno));
        PAQOC_FATAL_IF(::listen(listen_fd_, 64) != 0,
                       "server: listen(): ", std::strerror(errno));
    }
    if (!options_.listenHost.empty()) {
        std::string error;
        tcp_fd_ = fleet::listenTcp(options_.listenHost,
                                   options_.listenPort, 64, &error,
                                   &tcp_port_);
        PAQOC_FATAL_IF(tcp_fd_ < 0, "server: ", error);
    }
    accept_thread_ = std::thread([this]() { acceptLoop(); });
}

void
SocketServer::acceptLoop()
{
    while (!stopping_.load(std::memory_order_relaxed)) {
        pollfd fds[3];
        int sources[3];
        nfds_t n = 0;
        if (listen_fd_ >= 0) {
            fds[n] = {listen_fd_, POLLIN, 0};
            sources[n++] = 0;
        }
        if (tcp_fd_ >= 0) {
            fds[n] = {tcp_fd_, POLLIN, 0};
            sources[n++] = 1;
        }
        if (options_.controlFd >= 0) {
            fds[n] = {options_.controlFd, POLLIN, 0};
            sources[n++] = 2;
        }
        const int r = ::poll(fds, n, 200);
        if (r <= 0)
            continue; // timeout (re-check stop flag) or EINTR
        for (nfds_t i = 0; i < n; ++i) {
            if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0)
                continue;
            if (sources[i] == 2) {
                // Fleet worker: the router hands us accepted
                // connections; EOF means the router is gone.
                const int fd = fleet::recvFd(options_.controlFd);
                if (fd < 0) {
                    requestStop();
                    return;
                }
                adoptConnection(fd);
            } else {
                const int fd = ::accept(fds[i].fd, nullptr, nullptr);
                if (fd >= 0)
                    adoptConnection(fd);
            }
        }
    }
}

void
SocketServer::adoptConnection(int fd)
{
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    {
        MutexLock lock(mutex_);
        if (stopping_.load(std::memory_order_relaxed)) {
            ::close(fd);
            return;
        }
        connections_.push_back(conn);
    }
    conn->thread =
        std::thread([this, conn]() { serveConnection(conn); });
}

void
SocketServer::serveConnection(const std::shared_ptr<Connection> &conn)
{
    std::string text;
    try {
        while (protocol::readFrame(conn->fd, text))
            dispatchFrame(conn, text);
    } catch (const std::exception &) {
        // Torn frame or dropped peer: the connection dies, the
        // server lives on.
    }
    // The client is gone; nobody will read the answers. Trip this
    // connection's in-flight work so orphaned derivations stop at
    // their next poll instead of burning the pool (DESIGN.md §15).
    // Harmless during shutdown: stop() drains before severing, so
    // nothing is left to trip.
    if (options_.cancelOnDisconnect)
        cancelConnection(conn.get());
}

std::uint64_t
SocketServer::registerInflight(const Json &id, const void *conn,
                               const CancelSource &source)
{
    MutexLock lock(cancelMutex_);
    const std::uint64_t seq = ++inflight_seq_;
    inflight_.emplace(
        seq,
        Inflight{id.isNull() ? std::string() : id.dump(), conn,
                 source});
    return seq;
}

void
SocketServer::unregisterInflight(std::uint64_t seq)
{
    MutexLock lock(cancelMutex_);
    inflight_.erase(seq);
}

bool
SocketServer::cancelById(const Json &target, CancelReason why)
{
    const std::string key = target.dump();
    MutexLock lock(cancelMutex_);
    bool found = false;
    for (const auto &entry : inflight_) {
        if (!entry.second.idKey.empty() && entry.second.idKey == key) {
            entry.second.source.cancel(why);
            found = true;
        }
    }
    return found;
}

void
SocketServer::cancelConnection(const void *conn)
{
    MutexLock lock(cancelMutex_);
    for (const auto &entry : inflight_)
        if (entry.second.conn == conn)
            entry.second.source.cancel(
                CancelReason::ClientDisconnected);
}

Json
SocketServer::augmentStats(Json response)
{
    if (!response.get("ok", Json(false)).isBool()
        || !response.at("ok").asBool())
        return response;
    const SessionScheduler::Stats st = scheduler_.stats();
    Json sched = Json::object();
    sched.set("accepted", Json(st.accepted));
    sched.set("rejected", Json(st.rejected));
    sched.set("completed", Json(st.completed));
    sched.set("expired", Json(st.expired));
    sched.set("in_flight", Json(st.inFlight));
    sched.set("quota_exceeded", Json(st.quotaExceeded));
    sched.set("cancelled", Json(st.cancelled));
    sched.set("expired_running", Json(st.expiredRunning));
    sched.set("shed", Json(st.shed));
    sched.set("brownout", Json(st.brownout));
    Json payload = response.at("payload");
    payload.set("scheduler", std::move(sched));
    if (overload_.enabled()) {
        Json ov = Json::object();
        ov.set("target_ms", Json(options_.overloadTargetMs));
        ov.set("min_delay_ms", Json(overload_.minDelayMs()));
        ov.set("level",
               Json(std::string(
                   OverloadController::levelName(overload_.level()))));
        payload.set("overload", std::move(ov));
    }
    // Per-tenant serving counters (DESIGN.md §12); the map is
    // name-ordered, so the document is deterministic.
    Json tenants = Json::object();
    const auto now = fleet::TenantBudgetLedger::Clock::now();
    for (const auto &entry : scheduler_.tenantStats()) {
        Json t = Json::object();
        t.set("admitted", Json(entry.second.admitted));
        t.set("queued", Json(entry.second.queued));
        t.set("completed", Json(entry.second.completed));
        t.set("expired", Json(entry.second.expired));
        t.set("budget_exhausted",
              Json(entry.second.budgetExhausted));
        t.set("degraded", Json(entry.second.degraded));
        t.set("cancelled", Json(entry.second.cancelled));
        t.set("shed", Json(entry.second.shed));
        t.set("brownout", Json(entry.second.brownout));
        if (options_.tenantBudget.any()) {
            const fleet::TenantBudgetLedger::Spend spend =
                ledger_.windowSpend(entry.first, now);
            t.set("window_iters", Json(spend.iters));
            t.set("window_wall_ms", Json(spend.wallMs));
            t.set("exhausted",
                  Json(ledger_.remaining(entry.first, now)
                           .exhausted));
        }
        tenants.set(entry.first, std::move(t));
    }
    payload.set("tenants", std::move(tenants));
    response.set("payload", std::move(payload));
    return response;
}

void
SocketServer::dispatchFrame(const std::shared_ptr<Connection> &conn,
                            const std::string &text)
{
    // The write mutex is shared with scheduled jobs that may outlive
    // this frame-reading loop's iteration.
    auto write_mutex = std::shared_ptr<Mutex>(conn, &conn->writeMutex);
    const int fd = conn->fd;

    Json request;
    try {
        request = Json::parse(text);
    } catch (const std::exception &e) {
        writeResponse(write_mutex, fd, protocol::errorResponse(e.what()),
                      Json());
        return;
    }
    const Json id = request.get("id", Json());
    const std::string op =
        request.isObject() && request.contains("op")
            && request.at("op").isString()
        ? request.at("op").asString()
        : "";

    // Control-plane ops never queue: they must work under load.
    if (op == "ping" || op == "stats" || op == "shutdown") {
        Json response = service_.handle(request);
        if (op == "stats")
            response = augmentStats(std::move(response));
        writeResponse(write_mutex, fd, std::move(response), id);
        if (service_.shutdownRequested())
            requestStop();
        return;
    }
    if (op == "cancel") {
        // Wire-level cancellation (DESIGN.md §15): trips the in-flight
        // request whose "id" matched target_id, on whatever connection
        // it arrived (a SIGINT'd CLI dials a fresh one). Answered
        // inline -- it must work while the queue is full.
        const Json target = request.get("target_id", Json());
        const bool found =
            !target.isNull()
            && cancelById(target, CancelReason::ExplicitCancel);
        Json response = Json::object();
        response.set("ok", Json(true));
        Json payload = Json::object();
        payload.set("cancelled", Json(found));
        response.set("payload", std::move(payload));
        writeResponse(write_mutex, fd, std::move(response), id);
        return;
    }

    // Data-plane ops go through admission control, billed per tenant.
    const std::string tenant = fleet::tenantFromRequest(request);
    double deadline_ms = options_.defaultDeadlineMs;
    if (request.isObject() && request.contains("deadline_ms"))
        deadline_ms = request.at("deadline_ms").asNumber();
    auto deadline = SessionScheduler::Clock::time_point::max();
    if (deadline_ms > 0.0)
        deadline =
            deadlineAfter(SessionScheduler::Clock::now(), deadline_ms);

    // Eagerly purge queued-but-expired jobs: their admission slots
    // free before this request's decision, and their clients get the
    // fast deadline answer without waiting for a worker to pop them.
    scheduler_.sweepExpired();

    // Adaptive overload control (DESIGN.md §15): the windowed-min
    // queue delay selects a ladder rung. Brownout degrades before
    // shedding (goodput stays nonzero); shedding takes over-budget
    // tenants first (fair-share isolation); a shed answer is typed
    // and carries a back-off, never the hot-retry response.
    bool brownout_serve = false;
    if (overload_.enabled()) {
        const OverloadController::Level level = overload_.level();
        bool shed = level == OverloadController::Level::ShedAll;
        if (level == OverloadController::Level::ShedOverBudget) {
            if (options_.tenantBudget.any()
                && ledger_
                       .remaining(
                           tenant,
                           fleet::TenantBudgetLedger::Clock::now())
                       .exhausted)
                shed = true;
            else
                brownout_serve = true;
        } else if (level == OverloadController::Level::Brownout) {
            brownout_serve = true;
        }
        if (shed) {
            scheduler_.noteShed(tenant);
            const double retry = overload_.retryAfterMs();
            writeResponse(
                write_mutex, fd,
                protocol::overloadShedResponse(
                    tenant, retry,
                    "overload_shed: queue delay over target; retry "
                    "after "
                        + std::to_string(static_cast<long>(retry))
                        + " ms"),
                id);
            return;
        }
    }

    // The request's wall bound: its own max_wall_ms clamped by
    // --max-wall-ms and, below, by the tenant's remaining wall budget.
    // It tightens the request's deadline once the job starts.
    double wall_bound_ms = resolveLimit(
        options_.maxWallMs, numberMember(request, "max_wall_ms"));

    // Tenant-budget admission (DESIGN.md §12): an exhausted tenant is
    // refused up front (or served degraded when it opted in); a
    // tenant running low gets its remaining budget injected as the
    // per-request cap, so one request can never overdraw the window
    // by more than the cap granularity.
    Json effective = request;
    bool iters_from_budget = false;
    bool wall_from_budget = false;
    bool degraded_serve = false;
    if (options_.tenantBudget.any() && request.isObject()) {
        const auto now = fleet::TenantBudgetLedger::Clock::now();
        const fleet::TenantBudgetLedger::Remaining rem =
            ledger_.remaining(tenant, now);
        const bool degrade = boolMember(request, "degrade_on_quota");
        if (rem.exhausted && !degrade) {
            scheduler_.noteBudgetExhausted(tenant);
            writeResponse(
                write_mutex, fd,
                protocol::budgetExhaustedResponse(
                    tenant, rem.retryAfterMs,
                    "budget_exhausted: tenant '" + tenant
                        + "' spent its window budget; retry after "
                        + std::to_string(
                            static_cast<long>(rem.retryAfterMs))
                        + " ms"),
                id);
            return;
        }
        degraded_serve = rem.exhausted && degrade;
        if (degraded_serve) {
            // Spent, but best effort accepted: the one-iteration cap,
            // whichever dimension ran out.
            effective.set("max_iters", Json(1.0));
        } else {
            if (options_.tenantBudget.iters > 0.0) {
                QuotaLimits requested;
                requested.maxIters = static_cast<long>(
                    numberMember(request, "max_iters"));
                const long without_budget =
                    resolveQuota(service_.quotaCaps(), requested)
                        .maxIters;
                const long budget_cap =
                    std::max(1L, static_cast<long>(rem.iters));
                if (without_budget == 0 || budget_cap < without_budget) {
                    effective.set("max_iters",
                                  Json(static_cast<double>(budget_cap)));
                    iters_from_budget = true;
                }
            }
            if (options_.tenantBudget.wallMs > 0.0) {
                const double budget_ms = std::max(1.0, rem.wallMs);
                if (wall_bound_ms == 0.0 || budget_ms < wall_bound_ms) {
                    wall_bound_ms = budget_ms;
                    wall_from_budget = true;
                }
            }
        }
    }

    // Brownout rung: a reduced-iteration degraded pulse through the
    // degrade_on_quota machinery. The injected cap never widens a
    // tighter one already in force.
    if (brownout_serve) {
        effective.set("degrade_on_quota", Json(true));
        const double cap = static_cast<double>(
            options_.overloadBrownoutIters < 1
                ? 1
                : options_.overloadBrownoutIters);
        const double existing = numberMember(effective, "max_iters");
        if (existing <= 0.0 || existing > cap)
            effective.set("max_iters", Json(cap));
    }

    CancelSource source;
    const std::uint64_t reg = registerInflight(id, conn.get(), source);
    const SessionScheduler::Admit admitted = scheduler_.submit(
        tenant,
        [this, write_mutex, fd, effective = std::move(effective), id,
         tenant, iters_from_budget, wall_from_budget, degraded_serve,
         brownout_serve, reg, source,
         wall_bound_ms](const CancelToken &cancel) {
            const auto t0 =
                fleet::TenantBudgetLedger::Clock::now();
            // The wall bound runs from here, on the request's one
            // deadline: a trip answers cancelled/deadline_exceeded
            // like any other deadline, unless the tenant's budget was
            // the binding bound (rewritten below).
            const bool wall_binds = wall_bound_ms > 0.0
                && source.armDeadline(deadlineAfter(t0, wall_bound_ms));
            Json response = service_.handle(effective, &cancel);
            const auto t1 =
                fleet::TenantBudgetLedger::Clock::now();
            unregisterInflight(reg);
            if (options_.tenantBudget.any()) {
                const double wall_ms =
                    std::chrono::duration<double, std::milli>(t1
                                                              - t0)
                        .count();
                ledger_.charge(tenant, itersCharged(response),
                               wall_ms, t1);
            }
            const bool cancelled = boolMember(response, "cancelled");
            const std::string why =
                cancelled && response.get("reason", Json("")).isString()
                ? response.at("reason").asString()
                : "";
            const std::string limit =
                isQuotaExceeded(response)
                    && response.get("limit", Json("")).isString()
                ? response.at("limit").asString()
                : "";
            if ((limit == "max_iters" && iters_from_budget)
                || (why == "deadline_exceeded" && wall_from_budget
                    && wall_binds)) {
                // The tripped bound was the tenant's remaining
                // budget, not a per-request limit: report it as the
                // retryable budget error.
                const fleet::TenantBudgetLedger::Remaining rem =
                    ledger_.remaining(tenant, t1);
                response = protocol::budgetExhaustedResponse(
                    tenant, rem.retryAfterMs,
                    "budget_exhausted: tenant '" + tenant
                        + "' spent its window budget mid-"
                          "request; retry after "
                        + std::to_string(
                            static_cast<long>(rem.retryAfterMs))
                        + " ms");
                scheduler_.noteBudgetExhausted(tenant);
            } else if (cancelled) {
                scheduler_.noteCancelled(tenant,
                                         cancelReasonFromName(why));
            } else if (isQuotaExceeded(response)) {
                scheduler_.noteQuotaExceeded();
            } else if (degraded_serve) {
                scheduler_.noteDegraded(tenant);
            } else if (brownout_serve) {
                scheduler_.noteBrownout(tenant);
            }
            writeResponse(write_mutex, fd, std::move(response), id);
        },
        deadline,
        [this, write_mutex, fd, id, reg]() {
            unregisterInflight(reg);
            writeResponse(write_mutex, fd,
                          protocol::cancelledResponse(
                              "deadline_exceeded",
                              "cancelled: deadline_exceeded (expired "
                              "while queued)"),
                          id);
        },
        source);
    if (admitted != SessionScheduler::Admit::Accepted)
        unregisterInflight(reg);
    if (admitted == SessionScheduler::Admit::Overloaded)
        writeResponse(write_mutex, fd, protocol::overloadedResponse(),
                      id);
    else if (admitted == SessionScheduler::Admit::Draining)
        writeResponse(write_mutex, fd,
                      protocol::errorResponse("server is shutting down"),
                      id);
}

void
SocketServer::run()
{
    start();
    {
        MutexLock lock(mutex_);
        while (!stop_requested_)
            stop_cv_.wait(mutex_);
    }
    stop();
}

void
SocketServer::requestStop()
{
    MutexLock lock(mutex_);
    stop_requested_ = true;
    stop_cv_.notify_all();
}

void
SocketServer::stop()
{
    {
        MutexLock lock(mutex_);
        if (stopped_)
            return;
        stopped_ = true;
        stop_requested_ = true;
        stop_cv_.notify_all();
    }
    stopping_.store(true, std::memory_order_relaxed);
    if (accept_thread_.joinable())
        accept_thread_.join();
    if (listen_fd_ >= 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
    }
    if (tcp_fd_ >= 0) {
        ::close(tcp_fd_);
        tcp_fd_ = -1;
    }

    // Let admitted requests finish and write their responses...
    scheduler_.drain();

    // ...then sever the connections so reader threads wind down.
    std::vector<std::shared_ptr<Connection>> conns;
    {
        MutexLock lock(mutex_);
        conns.swap(connections_);
    }
    for (const auto &conn : conns)
        ::shutdown(conn->fd, SHUT_RDWR);
    for (const auto &conn : conns) {
        if (conn->thread.joinable())
            conn->thread.join();
        ::close(conn->fd);
    }

    service_.persist();
    if (!options_.socketPath.empty())
        ::unlink(options_.socketPath.c_str());
}

} // namespace paqoc
