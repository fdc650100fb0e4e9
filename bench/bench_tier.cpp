/**
 * @file
 * Shared pulse-cache tier benchmark (DESIGN.md §14): measures the raw
 * tier fetch round-trip rate against an in-process paqoc-tierd, then
 * compares a cold daemon compile (everything computed locally)
 * against a tier-warm compile (every pulse fetched read-through from
 * the tier). With --snapshot/--compare (bench/harness.h) it emits or
 * checks BENCH_tier.json like the other bench binaries.
 */

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "circuit/gate.h"
#include "common/json.h"
#include "harness.h"
#include "qoc/pulse_cache.h"
#include "service/service.h"
#include "store/pulse_library.h"
#include "tier/tier_client.h"
#include "tier/tier_server.h"
#include "tier/tier_store.h"

namespace paqoc {
namespace {

double
nowMs()
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
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

tier::TierClientOptions
clientOptions(const std::string &socket, const std::string &scratch)
{
    tier::TierClientOptions opts;
    opts.endpoint = socket;
    opts.fingerprint = PulseLibrary::spectralFingerprint();
    opts.opTimeoutMs = 2000.0;
    opts.quarantineDir = scratch + "/quarantine";
    return opts;
}

/** One fresh-daemon compile; returns wall milliseconds. */
double
timedCompile(tier::TierClient *client, const std::string &benchmark)
{
    ServiceOptions opts;
    if (client != nullptr) {
        opts.tierSpectral.source = client;
        opts.tierSpectral.sink = client;
    }
    PulseService service(opts);
    const double begin = nowMs();
    const Json reply = service.handle(compileRequest(benchmark));
    const double elapsed = nowMs() - begin;
    if (!reply.get("ok", Json(false)).asBool()) {
        std::fprintf(stderr, "bench_tier: compile failed: %s\n",
                     reply.dump().c_str());
        std::exit(2);
    }
    return elapsed;
}

double
mean(const std::vector<double> &xs)
{
    double sum = 0.0;
    for (double x : xs)
        sum += x;
    return xs.empty() ? 0.0 : sum / static_cast<double>(xs.size());
}

int
runBench(const bench::SnapshotCli &cli)
{
    char scratch_template[] = "/tmp/paqoc_bench_tier.XXXXXX";
    const char *scratch_cstr = ::mkdtemp(scratch_template);
    if (scratch_cstr == nullptr) {
        std::fprintf(stderr, "bench_tier: mkdtemp failed\n");
        return 2;
    }
    const std::string scratch = scratch_cstr;
    const std::string socket = scratch + "/tier.sock";

    tier::TierStore store(scratch + "/store");
    tier::TierServerOptions sopts;
    sopts.socketPath = socket;
    tier::TierServer server(store, sopts);
    server.start();

    const int fetches = cli.quick ? 300 : 3000;
    const int repeats = cli.quick ? 3 : 10;
    const std::string benchmark = "mod5d2";

    std::printf("=== shared tier benchmark (DESIGN.md §14) ===\n");
    std::printf("fetches %d, compile repeats %d, benchmark %s\n",
                fetches, repeats, benchmark.c_str());

    // Phase 1: raw fetch round trips -- framing + verify overhead.
    double fetch_rps = 0.0;
    {
        tier::TierClient client(clientOptions(socket, scratch));
        const Matrix cx = Gate(Op::CX, {0, 1}).unitary();
        const std::string key = PulseCache::canonicalKey(cx, 2);
        CachedPulse entry;
        entry.unitary = cx;
        entry.numQubits = 2;
        entry.latency = 40.0;
        entry.error = 1e-3;
        entry.schedule.fidelity = 0.999;
        entry.schedule.amplitudes = {{0.1, -0.2}, {0.3, 0.4}};
        client.onInsert(key, entry);
        if (!client.flush(10000.0)) {
            std::fprintf(stderr, "bench_tier: seed publish stuck\n");
            return 2;
        }
        const double begin = nowMs();
        for (int i = 0; i < fetches; ++i) {
            if (!client.fetch(key, nullptr).has_value()) {
                std::fprintf(stderr, "bench_tier: fetch missed\n");
                return 2;
            }
        }
        const double wall_s = (nowMs() - begin) / 1000.0;
        fetch_rps =
            wall_s > 0.0 ? static_cast<double>(fetches) / wall_s : 0.0;
        client.stop();
    }

    // Phase 2: cold compiles -- every pulse derived locally.
    std::vector<double> cold;
    for (int i = 0; i < repeats; ++i)
        cold.push_back(timedCompile(nullptr, benchmark));

    // Phase 3: tier-warm compiles. One seeding compile publishes the
    // benchmark's pulses behind; each measured run is a fresh daemon
    // whose only warmth is the shared tier.
    {
        tier::TierClient seeder(clientOptions(socket, scratch));
        timedCompile(&seeder, benchmark);
        if (!seeder.flush(20000.0)) {
            std::fprintf(stderr, "bench_tier: seeding flush stuck\n");
            return 2;
        }
        seeder.stop();
    }
    std::vector<double> warm;
    std::uint64_t tier_hits = 0;
    for (int i = 0; i < repeats; ++i) {
        tier::TierClient client(clientOptions(socket, scratch));
        warm.push_back(timedCompile(&client, benchmark));
        tier_hits += client.counters().hits;
        client.stop();
    }
    server.stop();

    const double cold_ms = mean(cold);
    const double warm_ms = mean(warm);
    std::printf("tier fetch: %.0f rps\n", fetch_rps);
    std::printf("compile cold %.2f ms | tier-warm %.2f ms "
                "(%.1fx, %llu tier hits)\n",
                cold_ms, warm_ms,
                warm_ms > 0.0 ? cold_ms / warm_ms : 0.0,
                static_cast<unsigned long long>(tier_hits));
    if (tier_hits == 0) {
        std::fprintf(stderr,
                     "bench_tier: warm runs never hit the tier\n");
        return 2;
    }

    BenchSnapshot snapshot;
    snapshot.name = "tier";
    snapshot.setMetric("fetch_rps", fetch_rps, true);
    snapshot.setMetric("compile_cold_ms", cold_ms, false);
    snapshot.setMetric("compile_tier_warm_ms", warm_ms, false);
    snapshot.setContext("fetches", std::to_string(fetches));
    snapshot.setContext("compile_repeats", std::to_string(repeats));
    snapshot.setContext("benchmark", benchmark);
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
