#include "service/service.h"

#include <exception>
#include <map>
#include <optional>

#include "circuit/qasm.h"
#include "common/error.h"
#include "common/thread_pool.h"
#include "qoc/device.h"
#include "qoc/pulse_io.h"
#include "service/protocol.h"
#include "transpile/decompose.h"
#include "transpile/sabre.h"
#include "transpile/topology.h"
#include "workloads/benchmarks.h"

namespace paqoc {

namespace {

Topology
topologyFromSpec(const std::string &spec)
{
    if (spec.rfind("line:", 0) == 0)
        return Topology::line(std::stoi(spec.substr(5)));
    const std::size_t x = spec.find('x');
    PAQOC_FATAL_IF(x == std::string::npos, "bad topology spec '", spec,
                   "' (expected WxH or line:N)");
    return Topology::grid(std::stoi(spec.substr(0, x)),
                          std::stoi(spec.substr(x + 1)));
}

/**
 * The request's one context: the server caps tightened by its own
 * `max_iters` / `max_resident_pulses` (absent members mean "no
 * override"), its `degrade_on_quota` choice, and its cancel token.
 * The token is built even with no limit configured -- it then never
 * trips but still counts iterations, which the fleet server charges
 * against the tenant's replenishing budget.
 */
QuotaToken
requestToken(const QuotaLimits &caps, const Json &request,
             const CancelToken *cancel)
{
    QuotaLimits requested;
    requested.maxIters = request.get("max_iters", Json(0)).asInt();
    requested.maxResidentPulses =
        request.get("max_resident_pulses", Json(0)).asInt();
    return QuotaToken(resolveQuota(caps, requested),
                      request.get("degrade_on_quota", Json(false))
                          .asBool(),
                      cancel != nullptr ? *cancel : CancelToken());
}

/**
 * Whether a request derives without a pool (see PulseService): its
 * concurrent trials would charge one token, so a trip on counted work
 * would land where the schedule puts it.
 */
bool
derivesSerially(const QuotaToken &quota)
{
    return quota.degradeOnExceeded() || quota.limits().any();
}

} // namespace

CompileJob
compileJobFromJson(const Json &request)
{
    CompileJob job;
    const Json none;
    job.qasm = request.get("qasm", Json("")).asString();
    job.benchmark = request.get("benchmark", Json("")).asString();
    PAQOC_FATAL_IF(job.qasm.empty() == job.benchmark.empty(),
                   "compile request needs exactly one of 'qasm' or "
                   "'benchmark'");
    job.method =
        request.get("method", Json(job.method)).asString();
    PAQOC_FATAL_IF(job.method != "paqoc" && job.method != "accqoc",
                   "unknown method '", job.method, "'");
    const Json &m = request.get("m", none);
    if (m.isNumber())
        job.m = std::to_string(m.asInt());
    else if (m.isString())
        job.m = m.asString();
    job.depth = request.get("depth", Json(job.depth)).asInt();
    job.maxn = request.get("maxn", Json(job.maxn)).asInt();
    job.topology =
        request.get("topology", Json(job.topology)).asString();
    job.commute = request.get("commute", Json(false)).asBool();
    job.emitPulses =
        request.get("emit_pulses", Json(false)).asBool();
    job.backend =
        request.get("backend", Json(job.backend)).asString();
    PAQOC_FATAL_IF(job.backend != "spectral" && job.backend != "grape",
                   "unknown backend '", job.backend, "'");
    return job;
}

Json
compileJobToJson(const CompileJob &job)
{
    Json r = Json::object();
    r.set("op", Json("compile"));
    if (!job.qasm.empty())
        r.set("qasm", Json(job.qasm));
    if (!job.benchmark.empty())
        r.set("benchmark", Json(job.benchmark));
    r.set("method", Json(job.method));
    r.set("m", Json(job.m));
    r.set("depth", Json(job.depth));
    r.set("maxn", Json(job.maxn));
    r.set("topology", Json(job.topology));
    r.set("commute", Json(job.commute));
    r.set("emit_pulses", Json(job.emitPulses));
    r.set("backend", Json(job.backend));
    return r;
}

CompileReport
runCompileJob(const CompileJob &job, PulseGenerator &generator,
              int threads)
{
    const Topology topology = topologyFromSpec(job.topology);
    Circuit physical{1};
    if (!job.benchmark.empty()) {
        physical = workloads::makePhysical(job.benchmark, topology);
    } else {
        const Circuit logical = fromQasm(job.qasm);
        const Circuit cx_level = decomposeToCx(logical);
        const RoutingResult routed = sabreRoute(cx_level, topology);
        physical = decomposeToBasis(routed.physical);
    }

    if (job.method == "accqoc") {
        AccqocOptions opts;
        opts.maxN = job.maxn;
        opts.depth = job.depth;
        opts.threads = threads;
        return compileAccqoc(physical, generator, opts);
    }
    PaqocOptions opts;
    if (job.m == "inf")
        opts.apaM = -1;
    else if (job.m == "tuned")
        opts.tuned = true;
    else
        opts.apaM = std::stoi(job.m);
    opts.merge.maxN = job.maxn;
    opts.miner.maxQubits = job.maxn;
    opts.merge.commutativityAware = job.commute;
    opts.threads = threads;
    return compilePaqoc(physical, generator, opts);
}

Json
compilePayload(const CompileJob &job, const CompileReport &report,
               PulseGenerator &generator)
{
    Json payload = Json::object();
    payload.set("latency_dt", Json(report.latency));
    payload.set("esp", Json(report.esp));
    payload.set("final_gates", Json(report.finalGateCount));
    payload.set("merges", Json(report.merges));
    payload.set("apa_kinds", Json(report.apaKinds));
    payload.set("apa_uses", Json(report.apaUses));
    payload.set("gates_covered", Json(report.gatesCovered));
    if (job.emitPulses) {
        // Per customized gate, in circuit order: a deterministic pulse
        // document (waveforms when the backend produced them). One
        // device model per width: building one assembles its row maps.
        Json pulses = Json::array();
        std::map<int, DeviceModel> devices;
        for (const Gate &g : report.circuit.gates()) {
            const PulseGenResult r =
                generator.generate(g.unitary(), g.arity());
            Json doc = Json::object();
            doc.set("qubits", Json(g.arity()));
            doc.set("latency_dt", Json(r.latency));
            doc.set("error", Json(r.error));
            if (r.degraded)
                doc.set("degraded", Json(true));
            if (r.schedule.has_value()) {
                const DeviceModel &device =
                    devices.try_emplace(g.arity(), g.arity())
                        .first->second;
                doc.set("schedule",
                        pulseDocument(*r.schedule, device, r.degraded));
            }
            pulses.push(std::move(doc));
        }
        payload.set("pulses", std::move(pulses));
    }
    return payload;
}

PulseService::PulseService(ServiceOptions options)
    : options_(std::move(options))
{
    if (!options_.checkpointDir.empty() && options_.checkpointEvery > 0)
        checkpoints_ = std::make_unique<CheckpointStore>(
            options_.checkpointDir,
            PulseLibrary::grapeFingerprint(options_.grape));
    if (options_.libraryDir.empty())
        return;
    PulseLibraryOptions lib_opts;
    lib_opts.syncEveryAppend = options_.syncEveryAppend;
    spectral_lib_ = std::make_unique<PulseLibrary>(
        options_.libraryDir + "/spectral",
        PulseLibrary::spectralFingerprint(), lib_opts);
    grape_lib_ = std::make_unique<PulseLibrary>(
        options_.libraryDir + "/grape",
        PulseLibrary::grapeFingerprint(options_.grape), lib_opts);
    // Freeze the serving epoch: whatever the libraries recovered is
    // what every request of this daemon lifetime reads, in place.
    epoch_spectral_ = spectral_lib_->epoch();
    epoch_grape_ = grape_lib_->epoch();
    // Chain the shared-tier write-behind sinks: every fresh local
    // derivation the libraries journal is also published to the tier
    // (tier-fetched entries are filtered by the library).
    if (options_.tierSpectral.sink != nullptr)
        spectral_lib_->setForwardSink(options_.tierSpectral.sink);
    if (options_.tierGrape.sink != nullptr)
        grape_lib_->setForwardSink(options_.tierGrape.sink);
}

std::unique_ptr<PulseGenerator>
PulseService::makeGenerator(const std::string &backend,
                            QuotaToken &quota) const
{
    std::unique_ptr<PulseGenerator> generator;
    if (backend == "grape") {
        auto grape = std::make_unique<GrapePulseGenerator>(options_.grape);
        grape->setSeedDistance(options_.grapeSeedDistance);
        if (checkpoints_)
            grape->setCheckpoints(checkpoints_.get(),
                                  options_.checkpointEvery);
        generator = std::move(grape);
    } else {
        generator = std::make_unique<SpectralPulseGenerator>();
    }
    generator->setQuota(&quota);

    PulseCache &cache = generator->cache();
    // The frozen epoch, not lib->warm(): the library keeps journaling,
    // and a request must read what the daemon started with.
    cache.attachEpoch(backend == "grape" ? epoch_grape_ : epoch_spectral_);
    PulseLibrary *lib = backend == "grape" ? grape_lib_.get()
                                           : spectral_lib_.get();
    const ServiceOptions::TierHooks &hooks = backend == "grape"
        ? options_.tierGrape
        : options_.tierSpectral;
    if (hooks.source != nullptr)
        cache.attachTier(hooks.source);
    if (lib != nullptr)
        cache.attachStore(lib);
    else if (hooks.sink != nullptr)
        // In-memory daemon with a tier: publish derivations straight
        // from the cache (there is no library to chain behind).
        cache.attachStore(hooks.sink);
    return generator;
}

Json
PulseService::handle(const Json &request)
{
    return handle(request, nullptr);
}

Json
PulseService::handle(const Json &request, const CancelToken *cancel)
{
    try {
        PAQOC_FATAL_IF(!request.isObject()
                           || !request.contains("op"),
                       "request must be an object with an 'op'");
        const std::string &op = request.at("op").asString();
        if (op == "ping") {
            Json r = Json::object();
            r.set("ok", Json(true));
            r.set("payload", Json("pong"));
            return r;
        }
        if (op == "stats") {
            Json r = Json::object();
            r.set("ok", Json(true));
            r.set("payload", statsJson());
            return r;
        }
        if (op == "shutdown") {
            shutdown_.store(true, std::memory_order_relaxed);
            Json r = Json::object();
            r.set("ok", Json(true));
            r.set("payload", Json("draining"));
            return r;
        }
        if (op == "compile")
            return handleCompile(request, cancel);
        if (op == "generate")
            return handleGenerate(request, cancel);
        errors_.fetch_add(1, std::memory_order_relaxed);
        return protocol::errorResponse("unknown op '" + op + "'");
    } catch (const CancelledError &e) {
        // Cancellation is the client's (or the deadline's) choice,
        // not a service failure. Whatever GRAPE progress existed was
        // checkpointed before the unwind, so a re-request of the same
        // key resumes byte-identically instead of restarting.
        cancelled_requests_.fetch_add(1, std::memory_order_relaxed);
        Json r = protocol::cancelledResponse(e.reasonName(), e.what());
        // Iterations burned before the trip still count against the
        // tenant's replenishing budget (same contract as quota trips).
        r.set("iters_charged",
              Json(static_cast<double>(e.itersCharged())));
        return r;
    } catch (const QuotaExceededError &e) {
        // A budget trip is an expected outcome of an oversized
        // request, not a service error; other sessions are untouched
        // (the per-request token never crosses requests).
        quota_rejections_.fetch_add(1, std::memory_order_relaxed);
        Json r = protocol::quotaExceededResponse(e.limit(), e.what());
        // Tripped work still burned compute: the fleet server charges
        // this against the tenant's replenishing budget.
        r.set("iters_charged",
              Json(static_cast<double>(e.itersCharged())));
        return r;
    } catch (const std::exception &e) {
        errors_.fetch_add(1, std::memory_order_relaxed);
        return protocol::errorResponse(e.what());
    }
}

Json
PulseService::handleCompile(const Json &request,
                            const CancelToken *cancel)
{
    const CompileJob job = compileJobFromJson(request);
    QuotaToken quota =
        requestToken(options_.quotaLimits, request, cancel);
    const std::unique_ptr<PulseGenerator> generator =
        makeGenerator(job.backend, quota);
    const CompileReport report = runCompileJob(
        job, *generator, derivesSerially(quota) ? 1 : 0);
    compiles_.fetch_add(1, std::memory_order_relaxed);
    pulse_calls_.fetch_add(report.pulseCalls,
                           std::memory_order_relaxed);
    cache_hits_.fetch_add(report.cacheHits, std::memory_order_relaxed);

    Json r = Json::object();
    r.set("ok", Json(true));
    r.set("payload", compilePayload(job, report, *generator));
    Json stats = Json::object();
    stats.set("pulse_calls", Json(report.pulseCalls));
    stats.set("cache_hits", Json(report.cacheHits));
    stats.set("cost_units", Json(report.costUnits));
    stats.set("wall_seconds", Json(report.wallSeconds));
    stats.set("iters_charged",
              Json(static_cast<double>(quota.itersCharged())));
    r.set("stats", std::move(stats));
    return r;
}

Json
PulseService::handleGenerate(const Json &request,
                             const CancelToken *cancel)
{
    const std::string backend =
        request.get("backend", Json("grape")).asString();
    PAQOC_FATAL_IF(backend != "spectral" && backend != "grape",
                   "unknown backend '", backend, "'");
    const Json none;
    const Json &uj = request.get("unitary", none);
    PAQOC_FATAL_IF(!uj.isArray(),
                   "generate request needs a 'unitary' array");
    const Matrix unitary = protocol::matrixFromJson(uj);
    int num_qubits = 0;
    while ((std::size_t{1} << num_qubits) < unitary.rows())
        ++num_qubits;
    PAQOC_FATAL_IF((std::size_t{1} << num_qubits) != unitary.rows(),
                   "unitary dimension is not a power of two");
    if (request.contains("num_qubits"))
        PAQOC_FATAL_IF(request.at("num_qubits").asInt() != num_qubits,
                       "num_qubits does not match the unitary");

    QuotaToken quota =
        requestToken(options_.quotaLimits, request, cancel);
    const std::unique_ptr<PulseGenerator> generator =
        makeGenerator(backend, quota);
    ThreadPool *pool =
        derivesSerially(quota) ? nullptr : &ThreadPool::global();
    const PulseGenResult result =
        generator->generateBatch({{unitary, num_qubits}}, pool).front();
    generates_.fetch_add(1, std::memory_order_relaxed);
    pulse_calls_.fetch_add(1, std::memory_order_relaxed);
    cache_hits_.fetch_add(result.cacheHit ? 1 : 0,
                          std::memory_order_relaxed);
    if (result.degraded)
        degraded_pulses_.fetch_add(1, std::memory_order_relaxed);

    Json payload = Json::object();
    payload.set("qubits", Json(num_qubits));
    payload.set("latency_dt", Json(result.latency));
    payload.set("error", Json(result.error));
    if (result.degraded)
        payload.set("degraded", Json(true));
    if (result.schedule.has_value())
        payload.set("schedule",
                    pulseDocument(*result.schedule,
                                  DeviceModel(num_qubits),
                                  result.degraded));
    Json r = Json::object();
    r.set("ok", Json(true));
    r.set("payload", std::move(payload));
    Json stats = Json::object();
    stats.set("cache_hit", Json(result.cacheHit));
    stats.set("cost_units", Json(result.costUnits));
    stats.set("iters_charged",
              Json(static_cast<double>(quota.itersCharged())));
    r.set("stats", std::move(stats));
    return r;
}

void
PulseService::persist()
{
    if (spectral_lib_)
        spectral_lib_->compact();
    if (grape_lib_)
        grape_lib_->compact();
}

Json
PulseService::statsJson() const
{
    Json s = Json::object();
    Json serving = Json::object();
    serving.set("compiles",
                Json(compiles_.load(std::memory_order_relaxed)));
    serving.set("generates",
                Json(generates_.load(std::memory_order_relaxed)));
    serving.set("errors",
                Json(errors_.load(std::memory_order_relaxed)));
    serving.set("pulse_calls",
                Json(pulse_calls_.load(std::memory_order_relaxed)));
    serving.set("cache_hits",
                Json(cache_hits_.load(std::memory_order_relaxed)));
    serving.set("degraded_pulses",
                Json(degraded_pulses_.load(std::memory_order_relaxed)));
    serving.set("quota_rejections",
                Json(quota_rejections_.load(std::memory_order_relaxed)));
    serving.set(
        "cancelled",
        Json(cancelled_requests_.load(std::memory_order_relaxed)));
    s.set("serving", std::move(serving));
    // Process-level view for operators: how long this worker has been
    // up, whether a fleet router restarts it, and how much recovered
    // state it rode in on (satellite of DESIGN.md §10).
    Json daemon = Json::object();
    daemon.set(
        "uptime_seconds",
        Json(std::chrono::duration<double>(
                 std::chrono::steady_clock::now() - start_time_)
                 .count()));
    daemon.set("supervised",
               Json(supervised_.load(std::memory_order_relaxed)));
    daemon.set("worker_restarts",
               Json(worker_restarts_.load(std::memory_order_relaxed)));
    std::size_t recovered = 0;
    if (spectral_lib_)
        recovered += spectral_lib_->stats().journalRecords;
    if (grape_lib_)
        recovered += grape_lib_->stats().journalRecords;
    daemon.set("journal_records_recovered", Json(recovered));
    s.set("daemon", std::move(daemon));
    Json ck = Json::object();
    ck.set("enabled", Json(checkpoints_ != nullptr));
    if (checkpoints_) {
        const CheckpointStore::Stats cs = checkpoints_->stats();
        ck.set("directory", Json(checkpoints_->directory()));
        ck.set("opened", Json(cs.opened));
        ck.set("lock_busy", Json(cs.lockBusy));
        ck.set("resumed_trials", Json(cs.resumedTrials));
        ck.set("completed_trial_hits", Json(cs.completedTrialHits));
        ck.set("records_recovered", Json(cs.recordsRecovered));
        ck.set("records_written", Json(cs.recordsWritten));
        ck.set("corrupt_records", Json(cs.corruptRecords));
        ck.set("rotated_files", Json(cs.rotatedFiles));
        ck.set("discarded", Json(cs.discarded));
        ck.set("failed_writes", Json(cs.failedWrites));
        Json warnings = Json::array();
        for (const std::string &w : cs.warnings)
            warnings.push(Json(w));
        ck.set("warnings", std::move(warnings));
    }
    s.set("checkpoints", std::move(ck));
    Json epoch = Json::object();
    auto epoch_size = [](const std::shared_ptr<const PulseEpoch> &e) {
        return Json(e != nullptr ? e->size() : std::size_t{0});
    };
    epoch.set("spectral_pulses", epoch_size(epoch_spectral_));
    epoch.set("grape_pulses", epoch_size(epoch_grape_));
    s.set("epoch", std::move(epoch));
    auto lib = [](const PulseLibrary *l) {
        Json j = Json::object();
        if (l == nullptr) {
            j.set("attached", Json(false));
            return j;
        }
        const PulseLibraryStats st = l->stats();
        j.set("attached", Json(true));
        j.set("directory", Json(l->directory()));
        j.set("records", Json(l->size()));
        j.set("snapshot_records", Json(st.snapshotRecords));
        j.set("journal_records", Json(st.journalRecords));
        j.set("appended_records", Json(st.appendedRecords));
        j.set("corrupt_payloads", Json(st.corruptPayloads));
        j.set("dropped_tail_bytes",
              Json(static_cast<double>(st.droppedTailBytes)));
        j.set("degraded", Json(st.degraded));
        j.set("failed_appends", Json(st.failedAppends));
        j.set("skipped_degraded_pulses",
              Json(st.skippedDegradedPulses));
        Json warnings = Json::array();
        for (const std::string &w : st.warnings)
            warnings.push(Json(w));
        j.set("warnings", std::move(warnings));
        return j;
    };
    Json libraries = Json::object();
    libraries.set("spectral", lib(spectral_lib_.get()));
    libraries.set("grape", lib(grape_lib_.get()));
    s.set("libraries", std::move(libraries));
    if (options_.tierStats)
        s.set("tier", options_.tierStats());
    return s;
}

} // namespace paqoc
