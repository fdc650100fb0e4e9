#ifndef PAQOC_SERVICE_SERVICE_H_
#define PAQOC_SERVICE_SERVICE_H_

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/cancellation.h"
#include "common/json.h"
#include "common/quota.h"
#include "paqoc/compiler.h"
#include "qoc/pulse_generator.h"
#include "store/checkpoint_store.h"
#include "store/pulse_library.h"

namespace paqoc {

/** Configuration of a PulseService instance. */
struct ServiceOptions
{
    /**
     * Directory of the durable pulse library; empty runs in-memory
     * only. Each backend keeps its own fingerprinted sub-library
     * (<dir>/spectral, <dir>/grape), so a GRAPE pulse is never served
     * to a model-only client or vice versa.
     */
    std::string libraryDir;
    /** GRAPE backend configuration (also part of the fingerprint). */
    GrapeOptions grape;
    /** fsync the journal after every record (see PulseLibraryOptions). */
    bool syncEveryAppend = false;
    /**
     * Similarity warm-start radius of the served GRAPE backend. The
     * daemon defaults this to 0 (exact cache hits only): similarity
     * seeding makes a result depend on which requests happened to
     * finish earlier, and the service promises order-independent
     * responses. Raise it to trade that determinism for AccQOC-style
     * seeding speedups.
     */
    double grapeSeedDistance = 0.0;
    /**
     * Directory of GRAPE optimization checkpoints; empty disables
     * crash-safe resume. The daemon defaults it to
     * `<libraryDir>/checkpoints` when --checkpoint-every is set.
     */
    std::string checkpointDir;
    /** GRAPE iterations between checkpoint snapshots (0 disables). */
    int checkpointEvery = 0;
    /**
     * Server-side caps on counted work (0 = unlimited). Requests may
     * carry their own `max_iters` / `max_resident_pulses` members; the
     * effective budget is resolveQuota(caps, request) -- a request can
     * tighten but never widen these. A request's `max_wall_ms` is not
     * a count: the socket server turns it into the request's deadline
     * (ServerOptions::maxWallMs).
     */
    QuotaLimits quotaLimits;
    /**
     * Shared-tier wiring, one hook pair per backend library
     * (dependency-inverted: the service never links src/tier; the
     * daemon owns the TierClient objects and plugs them in here).
     * `source` is consulted on cache misses (read-through), `sink`
     * receives fresh derivations when there is no local library to
     * forward them (write-behind for an in-memory daemon; with a
     * library the forward-sink chain on the library does it).
     */
    struct TierHooks
    {
        PulseTierSource *source = nullptr;
        PulseStoreSink *sink = nullptr;
    };
    TierHooks tierSpectral;
    TierHooks tierGrape;
    /** Builds the "tier" member of the stats op; null omits it. */
    std::function<Json()> tierStats;
};

/** One parsed compile request (the CLI and the wire share this). */
struct CompileJob
{
    std::string qasm;      ///< OpenQASM 2.0 text; exclusive with benchmark
    std::string benchmark; ///< built-in workload name
    std::string method = "paqoc"; ///< "paqoc" | "accqoc"
    std::string m = "0";          ///< APA budget: N | "inf" | "tuned"
    int depth = 3;                ///< accqoc depth
    int maxn = 3;                 ///< customized-gate qubit cap
    std::string topology = "5x5"; ///< WxH | line:N
    bool commute = false;
    bool emitPulses = false;      ///< include per-gate pulses in payload
    std::string backend = "spectral"; ///< "spectral" | "grape"
};

/** Parse the "compile" request members (raises FatalError on junk). */
CompileJob compileJobFromJson(const Json &request);
Json compileJobToJson(const CompileJob &job);

/**
 * Run a compile job: route the circuit exactly as `paqocc` does
 * (decompose -> SABRE -> hardware basis, or a built-in benchmark) and
 * compile it with the given generator. `threads` is the compiler's
 * pulse-engine knob (PaqocOptions::threads: 0 the process-wide pool,
 * 1 serial); the report is the same for every value unless a quota
 * trips (see PulseService).
 */
CompileReport runCompileJob(const CompileJob &job,
                            PulseGenerator &generator, int threads = 0);

/**
 * The deterministic response payload of a compile job. Everything in
 * here is a pure function of (job, library-independent compile
 * result): latency, ESP, circuit shape, and -- when emitPulses -- the
 * per-gate pulse documents. Serving statistics (cache hits, wall
 * time) deliberately live *outside* the payload, because they depend
 * on cache warmth and concurrency. N concurrent daemon clients and a
 * serial in-process run therefore produce byte-identical payloads.
 */
Json compilePayload(const CompileJob &job, const CompileReport &report,
                    PulseGenerator &generator);

/**
 * The request/response brain of `paqocd` (transport-free: the socket
 * server and the tests drive it directly). Owns the durable libraries
 * and the shutdown latch. handle() is thread-safe and is called
 * concurrently by the session scheduler.
 *
 * Serving model: *epoch snapshot isolation*. At construction each
 * library's contents are frozen into one immutable epoch; every
 * request runs its own pulse generator, whose cache reads that epoch
 * in place as its lower level and whose own table holds only the
 * request's derivations (never another request's). Compile decisions
 * read the latency model only, never the cache, and a cached pulse is
 * the one a derivation would have produced, so every payload is a
 * pure function of (job, epoch): N concurrent clients get byte for
 * byte the payloads a serial run produces. Pulses derived while
 * serving still journal into the library; they become visible as
 * cache hits in the *next* daemon launch, whose epoch includes them.
 *
 * A request's derivations and duration probes fan out onto the
 * process-wide pool, except when its token can trip on counted work
 * (`max_iters` or `max_resident_pulses` in force, including a tenant
 * budget's) or it degrades (`degrade_on_quota`). Concurrent trials
 * would each charge the token before seeing the trip, so the hard
 * error's `limit` and `iters_charged`, or a degraded pulse's bytes,
 * would depend on the schedule; such requests derive serially and
 * stay a pure function of the request.
 */
class PulseService
{
  public:
    explicit PulseService(ServiceOptions options = {});

    /**
     * Handle one request; never throws -- malformed requests and
     * handler failures come back as {"ok": false, "error": ...}.
     */
    Json handle(const Json &request);

    /**
     * Cancellation-aware variant (DESIGN.md §15): `cancel` (may be
     * null) is the request's cooperative token. Handlers fold it into
     * the request's QuotaToken, which the pulse generator checks per
     * GRAPE iteration and per batch item; a tripped token unwinds as
     * a structured {"ok": false, "cancelled": true, "reason": ...}
     * response with iters_charged, after checkpointing in-progress
     * GRAPE state so a re-request resumes instead of restarting.
     */
    Json handle(const Json &request, const CancelToken *cancel);

    /** True once a "shutdown" request was accepted. */
    bool shutdownRequested() const
    { return shutdown_.load(std::memory_order_relaxed); }

    /**
     * Graceful-shutdown persistence: compact both libraries (snapshot
     * + journal truncate, fsynced). Called by the daemon after the
     * scheduler drained.
     */
    void persist();

    /** Service-level statistics (epoch, serving counters, libraries). */
    Json statsJson() const;

    /**
     * Server-side per-request caps (for the socket server, which must
     * know whether a budget-derived cap is tighter than these when it
     * rewrites quota_exceeded into budget_exhausted, DESIGN.md §12).
     */
    const QuotaLimits &quotaCaps() const
    { return options_.quotaLimits; }

    const PulseLibrary *spectralLibrary() const
    { return spectral_lib_.get(); }
    const PulseLibrary *grapeLibrary() const
    { return grape_lib_.get(); }
    const CheckpointStore *checkpoints() const
    { return checkpoints_.get(); }

    /**
     * Tell the stats frame how this process is being run: whether a
     * fleet router (`--supervise` or `--fleet`) is watching it and
     * how many times the worker has been restarted (the router's
     * incarnation counter).
     */
    void
    setSupervisionInfo(bool supervised, int worker_restarts)
    {
        supervised_.store(supervised, std::memory_order_relaxed);
        worker_restarts_.store(worker_restarts,
                               std::memory_order_relaxed);
    }

  private:
    Json handleCompile(const Json &request, const CancelToken *cancel);
    Json handleGenerate(const Json &request, const CancelToken *cancel);

    /**
     * The request's generator for `backend`, metered by `quota`: its
     * cache reads the frozen epoch and is attached to the matching
     * library (and tier) so new derivations are journaled.
     */
    std::unique_ptr<PulseGenerator>
    makeGenerator(const std::string &backend, QuotaToken &quota) const;

    ServiceOptions options_;
    /** Frozen at construction; every request's cache reads these. */
    std::shared_ptr<const PulseEpoch> epoch_spectral_;
    std::shared_ptr<const PulseEpoch> epoch_grape_;
    std::unique_ptr<PulseLibrary> spectral_lib_;
    std::unique_ptr<PulseLibrary> grape_lib_;
    /** Crash-safe GRAPE progress (null when checkpointing is off). */
    std::unique_ptr<CheckpointStore> checkpoints_;
    const std::chrono::steady_clock::time_point start_time_ =
        std::chrono::steady_clock::now();
    std::atomic<bool> supervised_{false};
    std::atomic<int> worker_restarts_{0};
    std::atomic<bool> shutdown_{false};
    /** Serving aggregates (requests are otherwise stateless). */
    std::atomic<std::size_t> compiles_{0};
    std::atomic<std::size_t> generates_{0};
    std::atomic<std::size_t> errors_{0};
    std::atomic<std::size_t> pulse_calls_{0};
    std::atomic<std::size_t> cache_hits_{0};
    /** Stitched best-effort pulses served (DESIGN.md §9). */
    std::atomic<std::size_t> degraded_pulses_{0};
    /** Requests ended by a structured quota_exceeded error (§10). */
    std::atomic<std::size_t> quota_rejections_{0};
    /** Requests ended by a structured cancelled error (§15). */
    std::atomic<std::size_t> cancelled_requests_{0};
};

} // namespace paqoc

#endif // PAQOC_SERVICE_SERVICE_H_
