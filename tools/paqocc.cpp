/**
 * @file
 * paqocc -- the PAQOC command-line compiler.
 *
 * Reads an OpenQASM 2.0 circuit (file or stdin), routes it onto a
 * device topology, compiles it with PAQOC or the AccQOC baseline, and
 * reports latency / ESP / compile statistics. Optionally emits the
 * pulse CSV of each distinct customized gate.
 *
 * Usage:
 *   paqocc [options] [input.qasm]
 *     --method paqoc|accqoc      compiler (default paqoc)
 *     --m N|inf|tuned            APA-basis budget (default 0)
 *     --depth N                  accqoc subcircuit depth (default 3)
 *     --maxn N                   customized-gate qubit cap (default 3)
 *     --topology WxH|line:N      device (default 5x5)
 *     --grape                    use real GRAPE pulses (slow)
 *     --threads N                pulse-engine threads (0 = all cores,
 *                                1 = serial; results are identical)
 *     --kernel scalar|avx2|auto  linalg kernel backend (results are
 *                                identical; default auto)
 *     --commute                  commutativity-aware merging
 *     --emit-pulses DIR          write per-gate pulse CSVs into DIR
 *     --benchmark NAME           use a built-in benchmark as input
 *     --connect TARGET           compile via a running paqocd daemon
 *                                (socket path or host:port)
 *     --tenant ID                bill remote requests to this tenant
 *     --retries N                retry a failed connect/request N times
 *     --backoff-ms MS            base retry backoff (default 50)
 *     --timeout-ms MS            socket send/recv timeout (0 = none)
 *     --fallback-local           compile locally when the daemon is
 *                                unreachable after all retries
 *     --max-iters N              remote GRAPE iteration budget
 *     --max-wall-ms MS           remote wall-clock bound: a deadline
 *                                from when the request starts running
 *     --max-resident-pulses N    remote distinct-pulse budget
 *     --degrade-on-quota         accept best-effort pulses instead of
 *                                a quota_exceeded error
 *     --json                     print the compile payload as JSON
 *     --quiet                    only the summary line
 */

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include <unistd.h>

#include "circuit/qasm.h"
#include "common/error.h"
#include "common/json.h"
#include "linalg/kernels.h"
#include "paqoc/compiler.h"
#include "qoc/pulse_io.h"
#include "qoc/pulse_generator.h"
#include "service/client.h"
#include "service/service.h"
#include "transpile/decompose.h"
#include "transpile/sabre.h"
#include "workloads/benchmarks.h"

namespace {

using namespace paqoc;

struct CliOptions
{
    std::string method = "paqoc";
    std::string m = "0";
    int depth = 3;
    int maxn = 3;
    std::string topology = "5x5";
    int threads = 0;
    bool grape = false;
    bool commute = false;
    bool quiet = false;
    bool json = false;
    std::string pulseDb;
    std::string emitPulsesDir;
    std::string benchmark;
    std::string connectSocket;
    std::string tenant;
    std::string inputFile;
    int retries = 0;
    double backoffMs = 50.0;
    double timeoutMs = 0.0;
    bool fallbackLocal = false;
    /** Remote-only budget requests (0 = server default; §10). */
    int maxIters = 0;
    double maxWallMs = 0.0;
    int maxResidentPulses = 0;
    bool degradeOnQuota = false;
};

[[noreturn]] void
usage(int code)
{
    std::fprintf(
        code == 0 ? stdout : stderr,
        "usage: paqocc [options] [input.qasm]\n"
        "  --method paqoc|accqoc   compiler (default paqoc)\n"
        "  --m N|inf|tuned         APA-basis budget (default 0)\n"
        "  --depth N               accqoc depth (default 3)\n"
        "  --maxn N                customized-gate qubit cap\n"
        "  --topology WxH|line:N   device (default 5x5)\n"
        "  --grape                 real GRAPE pulses (slow)\n"
        "  --threads N             pulse-engine threads (0 = all cores)\n"
        "  --kernel NAME           linalg backend: scalar|avx2|auto\n"
        "  --commute               commutativity-aware merging\n"
        "  --emit-pulses DIR       write pulse CSVs into DIR\n"
        "  --pulse-db FILE         load/save the offline pulse database\n"
        "  --benchmark NAME        built-in benchmark as input\n"
        "  --connect TARGET        compile via a running paqocd "
        "(path or host:port)\n"
        "  --tenant ID             bill remote requests to this "
        "tenant\n"
        "  --retries N             retry failed connects/requests N "
        "times\n"
        "  --backoff-ms MS         base retry backoff (default 50)\n"
        "  --timeout-ms MS         socket send/recv timeout (0 = none)\n"
        "  --fallback-local        compile locally when the daemon is "
        "unreachable\n"
        "  --max-iters N           remote GRAPE iteration budget\n"
        "  --max-wall-ms MS        remote deadline, from when the "
        "request starts\n"
        "  --max-resident-pulses N remote distinct-pulse budget\n"
        "  --degrade-on-quota      accept best-effort pulses instead "
        "of a quota error\n"
        "  --json                  print the compile payload as JSON\n"
        "  --quiet                 only the summary line\n"
        "exit codes:\n"
        "  0 success     1 local failure        2 usage\n"
        "  3 daemon unreachable (connect/transport failure)\n"
        "  4 daemon error response (the request itself was refused)\n"
        "  5 tenant budget exhausted (retryable; retry_after_ms is "
        "printed to stderr)\n"
        "  6 cancelled (SIGINT during a remote compile; a cancel op "
        "was sent\n"
        "    for the in-flight request so the daemon stops working "
        "on it)\n");
    std::exit(code);
}

/** The daemon answered {"ok": false} -- a server-side refusal. */
class RemoteServerError : public FatalError
{
  public:
    explicit RemoteServerError(const std::string &msg)
        : FatalError(msg)
    {
    }
};

/** Structured budget_exhausted refusal (retryable; DESIGN.md §12). */
class BudgetExhaustedError : public RemoteServerError
{
  public:
    BudgetExhaustedError(const std::string &msg, double retry_after_ms)
        : RemoteServerError(msg), retryAfterMs(retry_after_ms)
    {
    }
    double retryAfterMs = 0.0;
};

// SIGINT -> wire-level cancel (DESIGN.md §15). The handler only
// writes one byte to a self-pipe (async-signal-safe); a detached
// watcher thread dials a *fresh* connection -- the main thread owns
// the original one -- aims a cancel op at the in-flight request id,
// and exits 6. The daemon stops the derivation at its next poll and
// keeps its checkpoint, so a re-run resumes instead of restarting.
int g_cancel_pipe[2] = {-1, -1};

extern "C" void
onInterrupt(int)
{
    const char byte = 1;
    [[maybe_unused]] ssize_t n = ::write(g_cancel_pipe[1], &byte, 1);
}

/** The fixed id paqocc stamps on its single compile request. */
const int kRequestId = 1;

void
armCancelOnInterrupt(const std::string &target)
{
    if (::pipe(g_cancel_pipe) != 0)
        return; // no pipe, no cancel-on-SIGINT; SIGINT just kills us
    std::signal(SIGINT, onInterrupt);
    std::thread([target]() {
        char byte = 0;
        while (::read(g_cancel_pipe[0], &byte, 1) < 0
               && errno == EINTR) {
        }
        if (byte == 0)
            return; // EOF: the request finished normally
        try {
            ClientOptions copts;
            copts.timeoutMs = 2000.0;
            ServiceClient cancel_client(target, copts);
            Json cancel = Json::object();
            cancel.set("op", Json("cancel"));
            cancel.set("target_id", Json(kRequestId));
            cancel_client.request(cancel);
            std::fprintf(stderr,
                         "paqocc: interrupted; cancelled the "
                         "in-flight request\n");
        } catch (const std::exception &e) {
            std::fprintf(stderr,
                         "paqocc: interrupted; cancel failed: %s\n",
                         e.what());
        }
        ::_exit(6);
    }).detach();
}

/** Normal completion: restore SIGINT and retire the watcher. */
void
disarmCancelOnInterrupt()
{
    if (g_cancel_pipe[1] < 0)
        return;
    std::signal(SIGINT, SIG_DFL);
    ::close(g_cancel_pipe[1]); // watcher reads EOF and returns
    g_cancel_pipe[1] = -1;
}

CliOptions
parseArgs(int argc, char **argv)
{
    CliOptions opts;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (++i >= argc)
                usage(2);
            return argv[i];
        };
        if (arg == "--method")
            opts.method = next();
        else if (arg == "--m")
            opts.m = next();
        else if (arg == "--depth")
            opts.depth = std::stoi(next());
        else if (arg == "--maxn")
            opts.maxn = std::stoi(next());
        else if (arg == "--topology")
            opts.topology = next();
        else if (arg == "--grape")
            opts.grape = true;
        else if (arg == "--threads")
            opts.threads = std::stoi(next());
        else if (arg == "--kernel") {
            if (!kernels::setBackendByName(next())) {
                std::fprintf(stderr,
                             "paqocc: unknown kernel backend "
                             "(want scalar|avx2|auto)\n");
                usage(2);
            }
        } else if (arg == "--commute")
            opts.commute = true;
        else if (arg == "--quiet")
            opts.quiet = true;
        else if (arg == "--emit-pulses")
            opts.emitPulsesDir = next();
        else if (arg == "--pulse-db")
            opts.pulseDb = next();
        else if (arg == "--benchmark")
            opts.benchmark = next();
        else if (arg == "--connect")
            opts.connectSocket = next();
        else if (arg == "--tenant")
            opts.tenant = next();
        else if (arg == "--retries")
            opts.retries = std::stoi(next());
        else if (arg == "--backoff-ms")
            opts.backoffMs = std::stod(next());
        else if (arg == "--timeout-ms")
            opts.timeoutMs = std::stod(next());
        else if (arg == "--fallback-local")
            opts.fallbackLocal = true;
        else if (arg == "--max-iters")
            opts.maxIters = std::stoi(next());
        else if (arg == "--max-wall-ms")
            opts.maxWallMs = std::stod(next());
        else if (arg == "--max-resident-pulses")
            opts.maxResidentPulses = std::stoi(next());
        else if (arg == "--degrade-on-quota")
            opts.degradeOnQuota = true;
        else if (arg == "--json")
            opts.json = true;
        else if (arg == "--help" || arg == "-h")
            usage(0);
        else if (arg == "-" || arg.empty() || arg[0] != '-')
            opts.inputFile = arg;
        else
            usage(2);
    }
    return opts;
}

Topology
parseTopology(const std::string &spec)
{
    if (spec.rfind("line:", 0) == 0)
        return Topology::line(std::stoi(spec.substr(5)));
    const std::size_t x = spec.find('x');
    PAQOC_FATAL_IF(x == std::string::npos, "bad topology spec '", spec,
                   "' (expected WxH or line:N)");
    return Topology::grid(std::stoi(spec.substr(0, x)),
                          std::stoi(spec.substr(x + 1)));
}

std::string
readInputText(const CliOptions &opts)
{
    std::string text;
    if (opts.inputFile.empty() || opts.inputFile == "-") {
        std::ostringstream buf;
        buf << std::cin.rdbuf();
        text = buf.str();
    } else {
        std::ifstream in(opts.inputFile);
        PAQOC_FATAL_IF(!in, "cannot open '", opts.inputFile, "'");
        std::ostringstream buf;
        buf << in.rdbuf();
        text = buf.str();
    }
    return text;
}

Circuit
loadInput(const CliOptions &opts, const Topology &topology,
          const std::string *qasm_override)
{
    if (!opts.benchmark.empty())
        return workloads::makePhysical(opts.benchmark, topology);

    // The override carries QASM already read from stdin (the remote
    // path drains stdin once; a local fallback must not re-read it).
    const Circuit logical = fromQasm(
        qasm_override != nullptr ? *qasm_override : readInputText(opts));
    const Circuit cx_level = decomposeToCx(logical);
    const RoutingResult routed = sabreRoute(cx_level, topology);
    return decomposeToBasis(routed.physical);
}

CompileJob
jobFromCli(const CliOptions &opts)
{
    CompileJob job;
    if (!opts.benchmark.empty())
        job.benchmark = opts.benchmark;
    else
        job.qasm = readInputText(opts);
    job.method = opts.method;
    job.m = opts.m;
    job.depth = opts.depth;
    job.maxn = opts.maxn;
    job.topology = opts.topology;
    job.commute = opts.commute;
    job.emitPulses = opts.json;
    job.backend = opts.grape ? "grape" : "spectral";
    return job;
}

int
runRemote(const CliOptions &opts, const CompileJob &job)
{
    ClientOptions copts;
    copts.retries = opts.retries;
    copts.backoffMs = opts.backoffMs;
    copts.timeoutMs = opts.timeoutMs;
    copts.tenant = opts.tenant;
    ServiceClient client(opts.connectSocket, copts);
    Json request = compileJobToJson(job);
    if (opts.maxIters > 0)
        request.set("max_iters", Json(opts.maxIters));
    if (opts.maxWallMs > 0.0)
        request.set("max_wall_ms", Json(opts.maxWallMs));
    if (opts.maxResidentPulses > 0)
        request.set("max_resident_pulses",
                    Json(opts.maxResidentPulses));
    if (opts.degradeOnQuota)
        request.set("degrade_on_quota", Json(true));
    // A known id makes the request cancellable from another
    // connection: SIGINT dials fresh and aims a cancel op at it.
    request.set("id", Json(kRequestId));
    armCancelOnInterrupt(opts.connectSocket);
    const Json response = client.request(request);
    disarmCancelOnInterrupt();
    if (!response.get("ok", Json(false)).asBool()) {
        const std::string message =
            response.get("error", Json("(no message)")).asString();
        if (response.get("budget_exhausted", Json(false)).asBool())
            throw BudgetExhaustedError(
                "daemon error: " + message,
                response.get("retry_after_ms", Json(0.0)).asNumber());
        throw RemoteServerError("daemon error: " + message);
    }
    const Json &payload = response.at("payload");
    if (opts.json) {
        std::printf("%s\n", payload.dump().c_str());
        return 0;
    }
    if (!opts.quiet) {
        const Json &stats = response.at("stats");
        std::printf("compiled remotely via %s\n",
                    opts.connectSocket.c_str());
        std::printf("pulse calls: %d (%d cache hits), %.2f s wall\n",
                    stats.at("pulse_calls").asInt(),
                    stats.at("cache_hits").asInt(),
                    stats.at("wall_seconds").asNumber());
    }
    std::printf("latency: %.0f dt   esp: %.6f\n",
                payload.at("latency_dt").asNumber(),
                payload.at("esp").asNumber());
    return 0;
}

int
runLocal(const CliOptions &opts, const std::string *qasm_override)
{
    const Topology topology = parseTopology(opts.topology);
    const Circuit physical = loadInput(opts, topology, qasm_override);
    if (!opts.quiet && !opts.json) {
        std::printf("input: %zu physical gates on %d qubits\n",
                    physical.size(), physical.numQubits());
    }

    SpectralPulseGenerator spectral;
    GrapePulseGenerator grape;
    PulseGenerator &generator =
        opts.grape ? static_cast<PulseGenerator &>(grape)
                   : static_cast<PulseGenerator &>(spectral);

    // Offline/online split (paper contribution 5): a database saved by
    // a previous (offline) run answers online pulse requests directly.
    if (!opts.pulseDb.empty() && std::ifstream(opts.pulseDb).good()) {
        if (opts.grape)
            grape.loadDatabase(opts.pulseDb);
        else
            spectral.loadDatabase(opts.pulseDb);
        if (!opts.quiet && !opts.json)
            std::printf("loaded pulse database '%s'\n",
                        opts.pulseDb.c_str());
    }

    CompileReport report;
    if (opts.method == "accqoc") {
        AccqocOptions aopts;
        aopts.maxN = opts.maxn;
        aopts.depth = opts.depth;
        aopts.threads = opts.threads;
        report = compileAccqoc(physical, generator, aopts);
    } else if (opts.method == "paqoc") {
        PaqocOptions popts;
        if (opts.m == "inf")
            popts.apaM = -1;
        else if (opts.m == "tuned")
            popts.tuned = true;
        else
            popts.apaM = std::stoi(opts.m);
        popts.merge.maxN = opts.maxn;
        popts.miner.maxQubits = opts.maxn;
        popts.merge.commutativityAware = opts.commute;
        popts.threads = opts.threads;
        report = compilePaqoc(physical, generator, popts);
    } else {
        usage(2);
    }

    if (opts.json) {
        // Same deterministic payload the daemon serves: a client
        // comparing `paqocc --json` output against a `--connect` run
        // sees byte-identical documents.
        CompileJob job;
        job.emitPulses = true;
        std::printf("%s\n",
                    compilePayload(job, report, generator)
                        .dump()
                        .c_str());
    } else {
        if (!opts.quiet) {
            std::printf("compiled: %d customized gates "
                        "(%d merges, %d APA kinds / %d uses)\n",
                        report.finalGateCount, report.merges,
                        report.apaKinds, report.apaUses);
            std::printf("pulse calls: %zu (%zu cache hits), cost %.3g "
                        "units, %.2f s wall\n",
                        report.pulseCalls, report.cacheHits,
                        report.costUnits, report.wallSeconds);
        }
        std::printf("latency: %.0f dt   esp: %.6f\n", report.latency,
                    report.esp);
    }

    if (!opts.emitPulsesDir.empty()) {
        PAQOC_FATAL_IF(!opts.grape,
                       "--emit-pulses requires --grape (the analytical "
                       "backend has no waveforms)");
        int emitted = 0;
        for (const Gate &g : report.circuit.gates()) {
            const PulseGenResult r =
                generator.generate(g.unitary(), g.arity());
            if (!r.schedule.has_value() || !r.cacheHit)
                continue;
            const DeviceModel device(g.arity());
            const std::string path = opts.emitPulsesDir + "/gate"
                + std::to_string(emitted) + ".csv";
            std::ofstream out(path);
            PAQOC_FATAL_IF(!out, "cannot write '", path, "'");
            out << pulseToCsv(*r.schedule, device);
            ++emitted;
        }
        if (!opts.quiet && !opts.json)
            std::printf("wrote %d pulse CSVs to %s\n", emitted,
                        opts.emitPulsesDir.c_str());
    }
    if (!opts.pulseDb.empty()) {
        if (opts.grape)
            grape.saveDatabase(opts.pulseDb);
        else
            spectral.saveDatabase(opts.pulseDb);
        if (!opts.quiet && !opts.json)
            std::printf("saved pulse database '%s'\n",
                        opts.pulseDb.c_str());
    }
    return 0;
}

int
run(const CliOptions &opts)
{
    if (opts.connectSocket.empty())
        return runLocal(opts, nullptr);

    // Read the job (and with it stdin) exactly once, so a local
    // fallback after a remote failure still has the circuit.
    const CompileJob job = jobFromCli(opts);
    try {
        return runRemote(opts, job);
    } catch (const BudgetExhaustedError &) {
        // Budget exhaustion is a billing decision, not an outage: a
        // local fallback would let a capped tenant dodge its budget,
        // so it always surfaces (exit 5) even with --fallback-local.
        throw;
    } catch (const FatalError &e) {
        if (!opts.fallbackLocal)
            throw;
        std::fprintf(stderr,
                     "paqocc: remote compile failed (%s); "
                     "falling back to local compilation\n",
                     e.what());
        return runLocal(opts,
                        job.benchmark.empty() ? &job.qasm : nullptr);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(parseArgs(argc, argv));
    } catch (const BudgetExhaustedError &e) {
        std::fprintf(stderr, "paqocc: %s\n", e.what());
        std::fprintf(stderr, "paqocc: retry_after_ms %.0f\n",
                     e.retryAfterMs);
        return 5;
    } catch (const RemoteServerError &e) {
        std::fprintf(stderr, "paqocc: %s\n", e.what());
        return 4;
    } catch (const paqoc::TransportError &e) {
        std::fprintf(stderr, "paqocc: %s\n", e.what());
        return 3;
    } catch (const paqoc::FatalError &e) {
        std::fprintf(stderr, "paqocc: %s\n", e.what());
        return 1;
    }
}
