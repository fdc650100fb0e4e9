#ifndef PAQOC_SERVICE_SERVER_H_
#define PAQOC_SERVICE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/cancellation.h"
#include "common/thread_annotations.h"
#include "fleet/budget.h"
#include "service/overload.h"
#include "service/scheduler.h"
#include "service/service.h"

namespace paqoc {

/** Transport + tenancy configuration of a SocketServer. */
struct ServerOptions
{
    /** Filesystem path of the Unix-domain listening socket ("" =
     *  none -- at least one endpoint must be configured). */
    std::string socketPath;
    /** TCP listener host ("" = no TCP listener). */
    std::string listenHost;
    /** TCP listener port (0 = kernel-assigned; see tcpPort()). */
    int listenPort = 0;
    /**
     * Fleet-worker mode: receive client connections as SCM_RIGHTS
     * fds over this control socket (fleet/fdpass.h) instead of
     * accepting them (-1 = off). EOF on it triggers a graceful stop:
     * the router is gone, so the worker drains and exits.
     */
    int controlFd = -1;
    /** Backpressure bound: admitted-but-unfinished request cap. */
    std::size_t maxQueue = 64;
    /**
     * Default per-request deadline in milliseconds (0 = none). A
     * request's own "deadline_ms" member overrides this. Deadlines are
     * checked when a request leaves the queue: one that already
     * expired gets a fast `cancelled`/`deadline_exceeded` answer
     * instead of a late compile.
     */
    double defaultDeadlineMs = 0.0;
    /**
     * Cap on each request's wall bound in ms (`--max-wall-ms`; 0 =
     * none). The bound -- the request's `max_wall_ms`, clamped by this
     * and by the tenant's remaining wall budget -- tightens the
     * request's deadline when it starts running.
     */
    double maxWallMs = 0.0;
    /** Weighted fair-share admission (DESIGN.md §12). */
    bool fairShare = false;
    /** Concurrent fair-share jobs (0 = pool thread count). */
    std::size_t fairShareConcurrency = 0;
    /** Per-tenant weights (unlisted tenants weigh 1). */
    std::map<std::string, int> tenantWeights;
    /**
     * Per-tenant replenishing budgets (fleet/budget.h); inert unless
     * a metered dimension is configured. Enforcement: an exhausted
     * tenant's data-plane requests get budgetExhaustedResponse at
     * admission (or degraded best-effort pulses under a one-iteration
     * cap when the request sets degrade_on_quota); a tenant running
     * low has the remaining budget injected as its per-request
     * iteration cap or wall bound, and a mid-request trip of such a
     * bound is reported as budget_exhausted too.
     */
    fleet::BudgetOptions tenantBudget;
    /**
     * Cancel a request's in-flight work when its client connection
     * goes away (DESIGN.md §15). With the per-iteration GRAPE poll an
     * orphaned derivation stops within one ADAM step; its checkpoint
     * survives, so the client's retry resumes instead of restarting.
     */
    bool cancelOnDisconnect = true;
    /**
     * Queue-delay target of the adaptive overload controller in ms
     * (`--overload-target-ms`; 0 disables). See service/overload.h
     * for the brownout ladder the windowed-min delay walks.
     */
    double overloadTargetMs = 0.0;
    /** Iteration cap injected into brownout-degraded requests. */
    long overloadBrownoutIters = 8;
};

/**
 * Socket front end of the pulse-compilation service: a Unix-domain
 * and/or TCP listener, or a fleet worker fed accepted connections by
 * the router (ServerOptions::controlFd). Frames (see
 * service/protocol.h) arrive per connection; "ping", "stats",
 * "cancel" and "shutdown" are answered inline, "compile" and
 * "generate" go through the SessionScheduler onto the global thread
 * pool. Responses carry the request's "id" member back (pipelined
 * requests may complete out of order).
 *
 * Cancellation (DESIGN.md §15): every data-plane request runs under a
 * CancelSource registered while it is in flight. A
 * {"op": "cancel", "target_id": <id>} frame -- on any connection --
 * trips the matching request; a vanished client connection trips all
 * of its requests (cancelOnDisconnect); an armed deadline trips its
 * own. The compute loops poll cooperatively, so cancelled work stops
 * within one GRAPE iteration and answers with the typed `cancelled`
 * response.
 *
 * Multi-tenancy (DESIGN.md §12): each data-plane request bills to its
 * "tenant" member ("anonymous" when absent); fair-share admission and
 * the replenishing tenant budgets hang off that identity, and the
 * "stats" op reports per-tenant serving counters.
 *
 * Graceful shutdown (a "shutdown" request or requestStop()):
 * stop accepting, drain in-flight requests, close connections,
 * persist the pulse library (PulseService::persist), return from
 * run().
 */
class SocketServer
{
  public:
    SocketServer(PulseService &service, ServerOptions options);
    ~SocketServer();

    SocketServer(const SocketServer &) = delete;
    SocketServer &operator=(const SocketServer &) = delete;

    /** Bind/adopt the endpoints and start the accept thread. */
    void start();

    /** start() + block until shutdown, then tear down. */
    void run();

    /** Ask run() to finish (signal-handler and test safe). */
    void requestStop();

    /** Tear down: drain, close, persist. Idempotent. */
    void stop();

    SessionScheduler &scheduler() { return scheduler_; }
    const std::string &socketPath() const
    { return options_.socketPath; }
    /** Resolved TCP port (after start(); -1 without a TCP listener). */
    int tcpPort() const { return tcp_port_; }
    fleet::TenantBudgetLedger &budgetLedger() { return ledger_; }

  private:
    struct Connection
    {
        int fd = -1;
        /** Serializes whole response frames onto the socket. */
        Mutex writeMutex;
        std::thread thread;
    };

    /** One registered in-flight cancellable request. */
    struct Inflight
    {
        /** Serialized request id ("" when the request had none). */
        std::string idKey;
        /** Identity of the connection that submitted it. */
        const void *conn = nullptr;
        CancelSource source;
    };

    void acceptLoop();
    /** Register `fd` as a client connection and spawn its reader. */
    void adoptConnection(int fd);
    void serveConnection(const std::shared_ptr<Connection> &conn);
    void dispatchFrame(const std::shared_ptr<Connection> &conn,
                       const std::string &text);
    /** Append scheduler + tenant counters to a stats payload. */
    Json augmentStats(Json response);
    /** Track a request's CancelSource while it is in flight. */
    std::uint64_t registerInflight(const Json &id, const void *conn,
                                   const CancelSource &source);
    void unregisterInflight(std::uint64_t seq);
    /** Trip every in-flight request whose id matches `target`. */
    bool cancelById(const Json &target, CancelReason why);
    /** Trip every in-flight request submitted by `conn`. */
    void cancelConnection(const void *conn);

    PulseService &service_;
    ServerOptions options_;
    SessionScheduler scheduler_;
    fleet::TenantBudgetLedger ledger_;
    OverloadController overload_;
    int listen_fd_ = -1;
    int tcp_fd_ = -1;
    int tcp_port_ = -1;
    std::thread accept_thread_;
    std::atomic<bool> stopping_{false};
    Mutex mutex_;
    CondVar stop_cv_;
    bool stop_requested_ PAQOC_GUARDED_BY(mutex_) = false;
    bool stopped_ PAQOC_GUARDED_BY(mutex_) = false;
    std::vector<std::shared_ptr<Connection>> connections_
        PAQOC_GUARDED_BY(mutex_);
    /** In-flight cancellable requests, keyed by registration seq
     *  (ids may collide across clients; the seq never does). */
    Mutex cancelMutex_;
    std::uint64_t inflight_seq_ PAQOC_GUARDED_BY(cancelMutex_) = 0;
    std::map<std::uint64_t, Inflight> inflight_
        PAQOC_GUARDED_BY(cancelMutex_);
};

} // namespace paqoc

#endif // PAQOC_SERVICE_SERVER_H_
