/**
 * @file
 * Fleet serving benchmark (DESIGN.md §12): the same request streams
 * against a 1-worker and a 4-worker `--fleet` router over the Unix
 * endpoint, measuring routing overhead (ping round trips per second)
 * and end-to-end compile latency under a mixed two-tenant load
 * (requests per second, p50/p99 milliseconds). With
 * --snapshot/--compare (bench/harness.h) it emits or checks
 * BENCH_fleet.json like the other bench binaries.
 *
 * Fork safety: each fleet forks its workers while the process is
 * single-threaded -- the monitor loop and the client load threads
 * start only after the forks, and are all joined before the next
 * fleet starts (the router's signal pipe is process-global, so two
 * routers never run concurrently in one process).
 */

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "fleet/router.h"
#include "harness.h"
#include "service/client.h"
#include "service/server.h"
#include "service/service.h"

namespace paqoc {
namespace {

double
nowMs()
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * Fleet worker body: a SocketServer fed by the router's control
 * socket, over a per-slot pulse library, on its share of the cores as
 * a `paqocd --fleet` worker. Exits 0 when the router closes the
 * control channel (drain-aware shutdown).
 */
int
runWorker(const fleet::FleetWorkerContext &ctx,
          const std::string &library_dir, int workers)
{
    ThreadPool::setGlobalThreads(
        std::max(1u, ThreadPool::defaultThreads()
                         / static_cast<unsigned>(workers)));
    ServiceOptions sopts;
    sopts.libraryDir =
        library_dir + "/worker" + std::to_string(ctx.slot);
    PulseService service(sopts);
    ServerOptions opts;
    opts.controlFd = ctx.controlFd;
    SocketServer server(service, opts);
    server.run();
    return 0;
}

/** Load shape of one measurement pass. */
struct LoadSpec
{
    int connections = 4;
    int pingsPerConnection = 0;
    int compilesPerConnection = 0;
};

/** What one fleet configuration measured. */
struct FleetResult
{
    double pingRps = 0.0;
    double compileRps = 0.0;
    double compileP50Ms = 0.0;
    double compileP99Ms = 0.0;
};

double
percentile(std::vector<double> sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    std::sort(sorted.begin(), sorted.end());
    const double rank =
        q * static_cast<double>(sorted.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi =
        lo + 1 < sorted.size() ? lo + 1 : lo;
    const double frac = rank - static_cast<double>(lo);
    return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

/**
 * Stand up a fleet of `workers`, drive the load, tear the fleet
 * down. Every thread this creates is joined before it returns, so
 * the caller may fork the next fleet safely.
 */
FleetResult
measureFleet(int workers, const std::string &scratch,
             const LoadSpec &load)
{
    const std::string tag = std::to_string(workers) + "w";
    const std::string socket = scratch + "/" + tag + ".sock";
    const std::string library = scratch + "/" + tag + ".lib";

    fleet::RouterOptions ropts;
    ropts.socketPath = socket;
    ropts.workers = workers;
    ropts.heartbeatTimeoutMs = 0.0; // bench workers do not beat
    fleet::Router router(
        ropts, [&library, workers](const fleet::FleetWorkerContext &ctx) {
            return runWorker(ctx, library, workers);
        });
    router.start(); // forks: must precede every thread below
    std::thread monitor([&router]() { router.runLoop(); });

    FleetResult result;

    // Phase 1: ping round trips -- pure routing + framing overhead.
    {
        Json ping = Json::object();
        ping.set("op", Json("ping"));
        const double begin = nowMs();
        std::vector<std::thread> clients;
        for (int c = 0; c < load.connections; ++c) {
            clients.emplace_back([&socket, &ping, &load]() {
                ServiceClient client(socket);
                for (int i = 0; i < load.pingsPerConnection; ++i)
                    client.request(ping);
            });
        }
        for (std::thread &t : clients)
            t.join();
        const double wall_s = (nowMs() - begin) / 1000.0;
        const double total = static_cast<double>(load.connections)
            * load.pingsPerConnection;
        result.pingRps = wall_s > 0.0 ? total / wall_s : 0.0;
    }

    // Phase 2: compile requests under a mixed two-tenant load. Every
    // connection compiles the same benchmark, so each worker pays one
    // cold compile and serves the rest warm -- p99 captures the cold
    // path, p50 the steady state.
    {
        Json compile = Json::object();
        compile.set("op", Json("compile"));
        compile.set("benchmark", Json("mod5d2"));
        Mutex merge_mutex;
        std::vector<double> latencies;
        const double begin = nowMs();
        std::vector<std::thread> clients;
        for (int c = 0; c < load.connections; ++c) {
            clients.emplace_back([&, c]() {
                ClientOptions copts;
                copts.tenant = c % 2 == 0 ? "alpha" : "beta";
                ServiceClient client(socket, copts);
                std::vector<double> mine;
                mine.reserve(static_cast<std::size_t>(
                    load.compilesPerConnection));
                for (int i = 0; i < load.compilesPerConnection;
                     ++i) {
                    const double t0 = nowMs();
                    client.request(compile);
                    mine.push_back(nowMs() - t0);
                }
                MutexLock lock(merge_mutex);
                latencies.insert(latencies.end(), mine.begin(),
                                 mine.end());
            });
        }
        for (std::thread &t : clients)
            t.join();
        const double wall_s = (nowMs() - begin) / 1000.0;
        result.compileRps = wall_s > 0.0
            ? static_cast<double>(latencies.size()) / wall_s
            : 0.0;
        result.compileP50Ms = percentile(latencies, 0.50);
        result.compileP99Ms = percentile(latencies, 0.99);
    }

    router.requestStop();
    monitor.join();
    return result;
}

int
runBench(const bench::SnapshotCli &cli)
{
    char scratch_template[] = "/tmp/paqoc_bench_fleet.XXXXXX";
    const char *scratch = ::mkdtemp(scratch_template);
    if (scratch == nullptr) {
        std::fprintf(stderr, "bench_fleet: mkdtemp failed\n");
        return 2;
    }

    LoadSpec load;
    load.connections = 4;
    load.pingsPerConnection = cli.quick ? 150 : 1500;
    load.compilesPerConnection = cli.quick ? 6 : 30;

    std::printf("=== fleet serving benchmark (DESIGN.md §12) ===\n");
    std::printf("connections %d, pings/conn %d, compiles/conn %d\n",
                load.connections, load.pingsPerConnection,
                load.compilesPerConnection);

    const FleetResult solo = measureFleet(1, scratch, load);
    const FleetResult quad = measureFleet(4, scratch, load);

    for (const auto &row :
         {std::make_pair(1, &solo), std::make_pair(4, &quad)}) {
        std::printf("%d worker(s): ping %.0f rps | compile %.1f rps, "
                    "p50 %.2f ms, p99 %.2f ms\n",
                    row.first, row.second->pingRps,
                    row.second->compileRps, row.second->compileP50Ms,
                    row.second->compileP99Ms);
    }

    BenchSnapshot snapshot;
    snapshot.name = "fleet";
    snapshot.setMetric("ping_rps_1worker", solo.pingRps, true);
    snapshot.setMetric("ping_rps_4workers", quad.pingRps, true);
    snapshot.setMetric("compile_rps_1worker", solo.compileRps, true);
    snapshot.setMetric("compile_rps_4workers", quad.compileRps, true);
    snapshot.setMetric("compile_p50_ms", quad.compileP50Ms, false);
    snapshot.setMetric("compile_p99_ms", quad.compileP99Ms, false);
    snapshot.setContext("connections",
                        std::to_string(load.connections));
    snapshot.setContext("pings_per_connection",
                        std::to_string(load.pingsPerConnection));
    snapshot.setContext("compiles_per_connection",
                        std::to_string(load.compilesPerConnection));
    snapshot.setContext("tenants", "alpha,beta");
    return bench::finishSnapshot(snapshot, cli);
}

} // namespace
} // namespace paqoc

int
main(int argc, char **argv)
{
    std::signal(SIGPIPE, SIG_IGN);
    const paqoc::bench::SnapshotCli cli =
        paqoc::bench::parseSnapshotCli(argc, argv);
    return paqoc::runBench(cli);
}
