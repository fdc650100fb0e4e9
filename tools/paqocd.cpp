/**
 * @file
 * paqocd -- the PAQOC pulse-compilation daemon.
 *
 * Serves the length-prefixed JSON protocol (see service/protocol.h)
 * over a Unix-domain socket. Pulses derived while serving are appended
 * to a durable on-disk library, so a restarted daemon answers repeat
 * requests from the library instead of re-running pulse generation.
 *
 * Usage:
 *   paqocd [options]
 *     --socket PATH        listening socket (default /tmp/paqocd.sock)
 *     --listen HOST:PORT   TCP listener beside the socket (port 0 =
 *                          ephemeral; resolved port is logged)
 *     --library DIR        durable pulse-library directory (empty =
 *                          in-memory only)
 *     --threads N          worker threads (0 = all cores)
 *     --max-queue N        admitted-but-unfinished request cap
 *     --deadline-ms N      default per-request deadline (0 = none)
 *     --sync-every-append  fsync the journal after every record
 *     --supervise          same as --fleet 1: one supervised worker,
 *                          restarted on crash or hang
 *     --fleet N            fork N workers behind a connection router
 *     --max-restarts N     restart budget per worker (default 5)
 *     --heartbeat-timeout-ms N  silence before a worker counts as hung
 *     --checkpoint-every N GRAPE iterations between checkpoints
 *     --checkpoint-dir DIR checkpoint directory
 *                          (default <library>/checkpoints)
 *     --max-iters N        per-request GRAPE iteration cap (0 = none)
 *     --max-wall-ms N      per-request wall-clock cap (0 = none)
 *     --max-resident-pulses N  per-request distinct-pulse cap
 *     --grape-max-iters N  GRAPE maxIterations override (chaos tests)
 *     --fair-share         weighted fair-share admission across tenants
 *     --tenant-weight NAME=W  fair-share weight (repeatable; implies
 *                          --fair-share; unlisted tenants weigh 1)
 *     --budget-iters N     per-tenant iteration budget per window
 *     --budget-wall-ms N   per-tenant wall-clock budget per window
 *     --budget-window-ms N sliding budget window (default 10000)
 *     --tier ENDPOINT      shared pulse-cache tier (socket path or
 *                          host:port): cache misses read through it,
 *                          fresh derivations publish write-behind
 *     --tier-replica ENDPOINT  replica tier for hedged reads
 *     --tier-timeout-ms N  per-op tier deadline (default 250)
 *     --tier-hedge-ms N    primary wait before hedging (default 30)
 *     --tier-queue N       write-behind queue cap (default 256)
 *     --tier-cooldown-ms N breaker cooldown before a probe
 *                          (default 1000)
 *     --overload-target-ms N  queue-delay target of the adaptive
 *                          overload controller (0 = off); sustained
 *                          delay over it browns out, then sheds
 *     --no-cancel-on-disconnect  keep computing for vanished clients
 *                          (disconnect cancellation is on by default)
 *
 * SIGINT/SIGTERM shut down gracefully: in-flight requests finish, the
 * library is compacted into a snapshot, then the process exits. Under
 * --fleet (or --supervise) the signal lands on the router, which
 * forwards it, waits for the drain and exits with the workers' status.
 */

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/error.h"
#include "common/failpoint.h"
#include "common/thread_pool.h"
#include "fleet/budget.h"
#include "fleet/endpoint.h"
#include "fleet/router.h"
#include "fleet/tenant.h"
#include "linalg/kernels.h"
#include "service/server.h"
#include "service/service.h"
#include "tier/tier_client.h"

namespace {

using namespace paqoc;

struct DaemonOptions
{
    std::string socketPath = "/tmp/paqocd.sock";
    std::string listenHost; ///< "" = no TCP listener
    int listenPort = 0;
    std::string libraryDir;
    int threads = 0;
    std::size_t maxQueue = 64;
    double deadlineMs = 0.0;
    bool syncEveryAppend = false;
    int fleet = 0; ///< 0 = single process; --supervise = 1
    int maxRestarts = 5;
    double heartbeatTimeoutMs = 5000.0;
    int checkpointEvery = 0;
    std::string checkpointDir;
    QuotaLimits quota;
    int grapeMaxIters = 0;
    bool fairShare = false;
    std::map<std::string, int> tenantWeights;
    fleet::BudgetOptions budget;
    std::string tierEndpoint; ///< "" = no shared tier
    std::string tierReplica;
    double tierTimeoutMs = 250.0;
    double tierHedgeMs = 30.0;
    std::size_t tierQueue = 256;
    double tierCooldownMs = 1000.0;
    double overloadTargetMs = 0.0;
    bool cancelOnDisconnect = true;
};

[[noreturn]] void
usage(int code)
{
    std::fprintf(
        code == 0 ? stdout : stderr,
        "usage: paqocd [options]\n"
        "  --socket PATH        listening socket "
        "(default /tmp/paqocd.sock)\n"
        "  --listen HOST:PORT   TCP listener beside the socket "
        "(port 0 = ephemeral)\n"
        "  --library DIR        durable pulse-library directory\n"
        "  --threads N          worker threads (0 = all cores)\n"
        "  --kernel NAME        linalg backend: scalar|avx2|auto\n"
        "  --max-queue N        in-flight request cap (default 64)\n"
        "  --deadline-ms N      default request deadline (0 = none)\n"
        "  --sync-every-append  fsync the journal per record\n"
        "  --supervise          same as --fleet 1\n"
        "  --fleet N            fork N workers behind a router\n"
        "  --max-restarts N     restart budget per worker (default 5)\n"
        "  --heartbeat-timeout-ms N  hung-worker kill threshold\n"
        "  --checkpoint-every N GRAPE iterations per checkpoint\n"
        "  --checkpoint-dir DIR checkpoint directory "
        "(default <library>/checkpoints)\n"
        "  --max-iters N        per-request GRAPE iteration cap\n"
        "  --max-wall-ms N      per-request wall-clock cap\n"
        "  --max-resident-pulses N  per-request distinct-pulse cap\n"
        "  --grape-max-iters N  GRAPE maxIterations override\n"
        "  --fair-share         weighted fair-share admission\n"
        "  --tenant-weight NAME=W  fair-share weight (repeatable)\n"
        "  --budget-iters N     per-tenant iteration budget / window\n"
        "  --budget-wall-ms N   per-tenant wall budget / window\n"
        "  --budget-window-ms N sliding budget window (default "
        "10000)\n"
        "  --tier ENDPOINT      shared pulse-cache tier (socket path "
        "or host:port)\n"
        "  --tier-replica ENDPOINT  replica tier for hedged reads\n"
        "  --tier-timeout-ms N  per-op tier deadline (default 250)\n"
        "  --tier-hedge-ms N    primary wait before hedging "
        "(default 30)\n"
        "  --tier-queue N       write-behind queue cap (default 256)\n"
        "  --tier-cooldown-ms N breaker cooldown before a probe "
        "(default 1000)\n"
        "  --overload-target-ms N  queue-delay target of the "
        "overload controller (0 = off)\n"
        "  --no-cancel-on-disconnect  keep computing for vanished "
        "clients\n");
    std::exit(code);
}

DaemonOptions
parseArgs(int argc, char **argv)
{
    DaemonOptions opts;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (++i >= argc)
                usage(2);
            return argv[i];
        };
        if (arg == "--socket")
            opts.socketPath = next();
        else if (arg == "--listen") {
            const std::string spec = next();
            std::string error;
            const std::optional<fleet::HostPort> hp =
                fleet::parseHostPort(spec, &error);
            if (!hp.has_value()) {
                std::fprintf(stderr, "paqocd: bad --listen '%s': %s\n",
                             spec.c_str(), error.c_str());
                usage(2);
            }
            opts.listenHost = hp->host;
            opts.listenPort = hp->port;
        } else if (arg == "--library")
            opts.libraryDir = next();
        else if (arg == "--threads")
            opts.threads = std::stoi(next());
        else if (arg == "--kernel") {
            if (!kernels::setBackendByName(next())) {
                std::fprintf(stderr,
                             "paqocd: unknown kernel backend "
                             "(want scalar|avx2|auto)\n");
                usage(2);
            }
        } else if (arg == "--max-queue")
            opts.maxQueue =
                static_cast<std::size_t>(std::stoul(next()));
        else if (arg == "--deadline-ms")
            opts.deadlineMs = std::stod(next());
        else if (arg == "--sync-every-append")
            opts.syncEveryAppend = true;
        else if (arg == "--supervise")
            opts.fleet = 1;
        else if (arg == "--fleet")
            opts.fleet = std::stoi(next());
        else if (arg == "--fair-share")
            opts.fairShare = true;
        else if (arg == "--tenant-weight") {
            const std::string spec = next();
            std::string name, error;
            int weight = 0;
            if (!fleet::parseTenantWeight(spec, &name, &weight,
                                          &error)) {
                std::fprintf(stderr,
                             "paqocd: bad --tenant-weight '%s': %s\n",
                             spec.c_str(), error.c_str());
                usage(2);
            }
            opts.tenantWeights[name] = weight;
            opts.fairShare = true;
        } else if (arg == "--budget-iters")
            opts.budget.iters = std::stod(next());
        else if (arg == "--budget-wall-ms")
            opts.budget.wallMs = std::stod(next());
        else if (arg == "--budget-window-ms")
            opts.budget.windowMs = std::stod(next());
        else if (arg == "--max-restarts")
            opts.maxRestarts = std::stoi(next());
        else if (arg == "--heartbeat-timeout-ms")
            opts.heartbeatTimeoutMs = std::stod(next());
        else if (arg == "--checkpoint-every")
            opts.checkpointEvery = std::stoi(next());
        else if (arg == "--checkpoint-dir")
            opts.checkpointDir = next();
        else if (arg == "--max-iters")
            opts.quota.maxIters = std::stol(next());
        else if (arg == "--max-wall-ms")
            opts.quota.maxWallMs = std::stod(next());
        else if (arg == "--max-resident-pulses")
            opts.quota.maxResidentPulses = std::stol(next());
        else if (arg == "--grape-max-iters")
            opts.grapeMaxIters = std::stoi(next());
        else if (arg == "--tier")
            opts.tierEndpoint = next();
        else if (arg == "--tier-replica")
            opts.tierReplica = next();
        else if (arg == "--tier-timeout-ms")
            opts.tierTimeoutMs = std::stod(next());
        else if (arg == "--tier-hedge-ms")
            opts.tierHedgeMs = std::stod(next());
        else if (arg == "--tier-queue")
            opts.tierQueue =
                static_cast<std::size_t>(std::stoul(next()));
        else if (arg == "--tier-cooldown-ms")
            opts.tierCooldownMs = std::stod(next());
        else if (arg == "--overload-target-ms")
            opts.overloadTargetMs = std::stod(next());
        else if (arg == "--cancel-on-disconnect")
            opts.cancelOnDisconnect = true;
        else if (arg == "--no-cancel-on-disconnect")
            opts.cancelOnDisconnect = false;
        else if (arg == "--help" || arg == "-h")
            usage(0);
        else
            usage(2);
    }
    return opts;
}

// Signal handling: the handler only writes one byte to a self-pipe
// (the only async-signal-safe option); a watcher thread turns that
// byte into a requestStop() call.
int g_signal_pipe[2] = {-1, -1};

extern "C" void
onSignal(int)
{
    const char byte = 1;
    [[maybe_unused]] ssize_t n = ::write(g_signal_pipe[1], &byte, 1);
}

void
printLibrary(const char *name, const PulseLibrary *lib)
{
    if (lib == nullptr)
        return;
    const PulseLibraryStats st = lib->stats();
    std::printf("paqocd: %s library: %zu pulses recovered "
                "(%zu snapshot + %zu journal)",
                name, lib->size(), st.snapshotRecords,
                st.journalRecords);
    if (st.corruptPayloads > 0 || st.droppedTailBytes > 0)
        std::printf(", skipped %zu corrupt records / %zu torn bytes",
                    st.corruptPayloads, st.droppedTailBytes);
    std::printf("\n");
    for (const std::string &w : st.warnings)
        std::printf("paqocd: warning: %s\n", w.c_str());
}

void
printTier(const char *name, tier::TierClient *client)
{
    if (client == nullptr)
        return;
    const tier::TierClientCounters c = client->counters();
    std::printf(
        "paqocd: tier %s: tier_hits %llu, tier_misses %llu, "
        "tier_denied %llu, tier_errors %llu, tier_hedged %llu, "
        "tier_hedge_wins %llu, tier_published %llu, tier_shed %llu, "
        "tier_quarantined %llu, tier_resyncs %llu, breaker %s\n",
        name, static_cast<unsigned long long>(c.hits),
        static_cast<unsigned long long>(c.misses),
        static_cast<unsigned long long>(c.denied),
        static_cast<unsigned long long>(c.fetchErrors),
        static_cast<unsigned long long>(c.hedged),
        static_cast<unsigned long long>(c.hedgeWins),
        static_cast<unsigned long long>(c.published),
        static_cast<unsigned long long>(c.shed),
        static_cast<unsigned long long>(c.quarantined),
        static_cast<unsigned long long>(c.resyncs),
        client->breakerStateName());
}

void
printCheckpoints(const CheckpointStore *store)
{
    if (store == nullptr)
        return;
    const CheckpointStore::Stats st = store->stats();
    std::printf("paqocd: checkpoints: %zu opened, %zu trials resumed, "
                "%zu completed-trial hits, %zu records recovered, "
                "%zu written, %zu discarded\n",
                st.opened, st.resumedTrials, st.completedTrialHits,
                st.recordsRecovered, st.recordsWritten, st.discarded);
    if (st.corruptRecords > 0 || st.rotatedFiles > 0
        || st.failedWrites > 0)
        std::printf("paqocd: checkpoints: %zu corrupt records skipped, "
                    "%zu files rotated aside, %zu failed writes\n",
                    st.corruptRecords, st.rotatedFiles,
                    st.failedWrites);
    for (const std::string &w : st.warnings)
        std::printf("paqocd: warning: %s\n", w.c_str());
}

/**
 * Run one serving process. Under a router (ctx.controlFd >= 0) the
 * worker owns no listeners of its own -- the router feeds it accepted
 * connections over the control socket. Fleets of two or more keep
 * each slot's durable state in a per-slot library subdirectory so
 * concurrent workers never share a journal writer; a one-worker fleet
 * (--supervise) serves --library DIR itself.
 */
int
serve(const DaemonOptions &opts, const fleet::FleetWorkerContext &ctx)
{
    if (opts.threads > 0)
        ThreadPool::setGlobalThreads(
            static_cast<unsigned>(opts.threads));

    // Beat as soon as the worker is alive -- library recovery below
    // can legitimately take a while, and must not read as a hang.
    fleet::HeartbeatThread heartbeat(ctx.heartbeatFd,
                                     ctx.heartbeatIntervalMs);

    ServiceOptions sopts;
    sopts.libraryDir = opts.libraryDir;
    if (opts.fleet > 1 && !sopts.libraryDir.empty())
        sopts.libraryDir += "/worker" + std::to_string(ctx.slot);
    sopts.syncEveryAppend = opts.syncEveryAppend;
    sopts.checkpointEvery = opts.checkpointEvery;
    sopts.checkpointDir = opts.checkpointDir;
    if (sopts.checkpointDir.empty() && opts.checkpointEvery > 0
        && !sopts.libraryDir.empty())
        sopts.checkpointDir = sopts.libraryDir + "/checkpoints";
    sopts.quotaLimits = opts.quota;
    if (opts.grapeMaxIters > 0)
        sopts.grape.maxIterations = opts.grapeMaxIters;

    // Shared tier: one client per backend library (fingerprints
    // namespace the tier store exactly like the on-disk libraries).
    // Created before the service so its ctor can chain the
    // write-behind sinks; destroyed after it (declaration order).
    std::unique_ptr<tier::TierClient> tier_spectral;
    std::unique_ptr<tier::TierClient> tier_grape;
    if (!opts.tierEndpoint.empty()) {
        auto makeTier = [&](const std::string &fingerprint) {
            tier::TierClientOptions topts;
            topts.endpoint = opts.tierEndpoint;
            topts.replica = opts.tierReplica;
            topts.fingerprint = fingerprint;
            topts.opTimeoutMs = opts.tierTimeoutMs;
            topts.hedgeDelayMs = opts.tierHedgeMs;
            topts.publishQueueCap = opts.tierQueue;
            topts.breaker.cooldownMs = opts.tierCooldownMs;
            if (!sopts.libraryDir.empty())
                topts.quarantineDir =
                    sopts.libraryDir + "/quarantine";
            return std::make_unique<tier::TierClient>(topts);
        };
        tier_spectral = makeTier(PulseLibrary::spectralFingerprint());
        tier_grape =
            makeTier(PulseLibrary::grapeFingerprint(sopts.grape));
        sopts.tierSpectral.source = tier_spectral.get();
        sopts.tierSpectral.sink = tier_spectral.get();
        sopts.tierGrape.source = tier_grape.get();
        sopts.tierGrape.sink = tier_grape.get();
        sopts.tierStats = [ts = tier_spectral.get(),
                           tg = tier_grape.get()]() {
            Json t = Json::object();
            t.set("spectral", ts->statsJson());
            t.set("grape", tg->statsJson());
            return t;
        };
    }

    PulseService service(sopts);
    service.setSupervisionInfo(ctx.heartbeatFd >= 0, ctx.incarnation);
    printLibrary("spectral", service.spectralLibrary());
    printLibrary("grape", service.grapeLibrary());
    // Anti-entropy: after a partition heals, re-publish everything
    // the libraries hold so the tier catches up on what it missed.
    if (tier_spectral)
        tier_spectral->setResyncSource([&service]() {
            const PulseLibrary *lib = service.spectralLibrary();
            return lib != nullptr ? lib->entriesSnapshot()
                                  : std::vector<CachedPulse>{};
        });
    if (tier_grape)
        tier_grape->setResyncSource([&service]() {
            const PulseLibrary *lib = service.grapeLibrary();
            return lib != nullptr ? lib->entriesSnapshot()
                                  : std::vector<CachedPulse>{};
        });
    if (!opts.tierEndpoint.empty())
        std::printf("paqocd: tier endpoint %s%s%s\n",
                    opts.tierEndpoint.c_str(),
                    opts.tierReplica.empty() ? "" : ", replica ",
                    opts.tierReplica.c_str());

    ServerOptions server_opts;
    if (ctx.controlFd < 0) {
        server_opts.socketPath = opts.socketPath;
        server_opts.listenHost = opts.listenHost;
        server_opts.listenPort = opts.listenPort;
    }
    server_opts.controlFd = ctx.controlFd;
    server_opts.maxQueue = opts.maxQueue;
    server_opts.defaultDeadlineMs = opts.deadlineMs;
    server_opts.fairShare = opts.fairShare;
    server_opts.tenantWeights = opts.tenantWeights;
    server_opts.tenantBudget = opts.budget;
    server_opts.overloadTargetMs = opts.overloadTargetMs;
    server_opts.cancelOnDisconnect = opts.cancelOnDisconnect;
    SocketServer server(service, server_opts);

    PAQOC_FATAL_IF(::pipe(g_signal_pipe) != 0,
                   "paqocd: pipe(): ", std::strerror(errno));
    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);
    std::signal(SIGPIPE, SIG_IGN);
    std::thread watcher([&server]() {
        char byte = 0;
        while (::read(g_signal_pipe[0], &byte, 1) < 0
               && errno == EINTR) {
        }
        server.requestStop();
    });

    // Make fault injection impossible to miss in logs: a daemon with
    // failpoints armed (PAQOC_FAILPOINTS) is a chaos-test daemon.
    const std::vector<std::string> armed = failpoint::armed();
    if (!armed.empty()) {
        std::printf("paqocd: WARNING: failpoints armed:");
        for (const std::string &a : armed)
            std::printf(" %s", a.c_str());
        std::printf("\n");
    }

    server.start();
    if (ctx.controlFd >= 0)
        std::printf("paqocd: worker %d serving via router "
                    "(%u threads, queue %zu)\n",
                    ctx.slot, ThreadPool::global().size(),
                    opts.maxQueue);
    else
        std::printf("paqocd: serving on %s (%u threads, queue %zu)\n",
                    opts.socketPath.c_str(),
                    ThreadPool::global().size(), opts.maxQueue);
    if (server.tcpPort() >= 0)
        std::printf("paqocd: tcp port %d\n", server.tcpPort());
    std::fflush(stdout);
    // worker.crash (chaos runs, usually via PAQOC_WORKER_FAILPOINTS):
    // the worker dies right after it starts accepting connections --
    // the window where a crash hurts clients the most.
    failpoint::evaluate("worker.crash");
    server.run();

    // Wake the watcher if shutdown came from a "shutdown" request
    // rather than a signal.
    onSignal(0);
    watcher.join();
    ::close(g_signal_pipe[0]);
    ::close(g_signal_pipe[1]);
    // Drain the write-behind queues while the service still exists
    // (the resync lambdas reach into it), then report the tier_*
    // shutdown table the chaos tests assert on.
    if (tier_spectral) {
        tier_spectral->flush(2000.0);
        tier_spectral->stop();
        printTier("spectral", tier_spectral.get());
    }
    if (tier_grape) {
        tier_grape->flush(2000.0);
        tier_grape->stop();
        printTier("grape", tier_grape.get());
    }
    printCheckpoints(service.checkpoints());
    // Per-tenant serving totals (DESIGN.md §12); shown only when a
    // non-anonymous tenant showed up or tenancy knobs are on, so a
    // plain daemon's shutdown log stays as it always was.
    const auto tenants = server.scheduler().tenantStats();
    const bool tenancy = opts.fairShare || opts.budget.any()
        || tenants.size() > 1
        || (tenants.size() == 1
            && tenants[0].first != fleet::kAnonymousTenant);
    if (tenancy) {
        for (const auto &entry : tenants)
            std::printf("paqocd: tenant %s: admitted %zu, "
                        "completed %zu, expired %zu, "
                        "budget_exhausted %zu, degraded %zu, "
                        "cancelled %zu, shed %zu, brownout %zu\n",
                        entry.first.c_str(), entry.second.admitted,
                        entry.second.completed, entry.second.expired,
                        entry.second.budgetExhausted,
                        entry.second.degraded,
                        entry.second.cancelled, entry.second.shed,
                        entry.second.brownout);
    }
    // Cancellation / overload totals (DESIGN.md §15), shown only once
    // any of them fired so a quiet daemon's shutdown log is unchanged
    // (the chaos client-kill and overload-storm scenarios grep these).
    const SessionScheduler::Stats sched = server.scheduler().stats();
    if (sched.cancelled > 0 || sched.shed > 0 || sched.brownout > 0)
        std::printf("paqocd: scheduler: cancelled %zu, "
                    "expired_running %zu, shed %zu, brownout %zu\n",
                    sched.cancelled, sched.expiredRunning, sched.shed,
                    sched.brownout);
    std::printf("paqocd: shut down cleanly\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const DaemonOptions opts = parseArgs(argc, argv);
        if (opts.fleet <= 0)
            return serve(opts, fleet::FleetWorkerContext{});
        fleet::RouterOptions router_opts;
        router_opts.socketPath = opts.socketPath;
        router_opts.listenHost = opts.listenHost;
        router_opts.listenPort = opts.listenPort;
        router_opts.workers = opts.fleet;
        router_opts.maxRestarts = opts.maxRestarts;
        router_opts.heartbeatTimeoutMs = opts.heartbeatTimeoutMs;
        router_opts.log = [](const std::string &message) {
            std::printf("paqocd-router: %s\n", message.c_str());
            std::fflush(stdout);
        };
        fleet::Router router(
            router_opts, [&opts](const fleet::FleetWorkerContext &ctx) {
                return serve(opts, ctx);
            });
        router.start();
        if (router.tcpPort() >= 0) {
            std::printf("paqocd: tcp port %d\n", router.tcpPort());
            std::fflush(stdout);
        }
        const int code = router.runLoop();
        const auto slots = router.slotStats();
        for (std::size_t i = 0; i < slots.size(); ++i)
            std::printf("paqocd-router: worker %zu: "
                        "%d incarnations, %ld connections\n",
                        i, slots[i].incarnations, slots[i].handed);
        return code;
    } catch (const paqoc::FatalError &e) {
        std::fprintf(stderr, "paqocd: %s\n", e.what());
        return 1;
    }
}
