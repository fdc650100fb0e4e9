#include "qoc/pulse_generator.h"

#include <cmath>
#include <limits>
#include <unordered_map>

#include "common/error.h"

namespace paqoc {

PulseGenResult
PulseGenerator::generate(const Matrix &unitary, int num_qubits)
{
    const PulseGenResult result = generateOne(
        unitary, num_qubits, nullptr,
        std::numeric_limits<std::uint64_t>::max());
    record(result);
    return result;
}

std::vector<PulseGenResult>
PulseGenerator::generateBatch(const std::vector<PulseRequest> &requests,
                              ThreadPool *pool)
{
    std::vector<PulseGenResult> out(requests.size());
    if (requests.empty())
        return out;

    // Snapshot the warm-start horizon before anything runs: in-batch
    // inserts stay invisible to similarity queries, so seeding cannot
    // depend on which request completes first.
    const std::uint64_t horizon = cache_.generation();

    // Dedup identical canonical unitaries so the batch behaves exactly
    // like its serial replay: the first occurrence computes, later
    // ones become cache hits no matter which thread would have won the
    // single-flight race.
    std::vector<std::size_t> primary(requests.size());
    std::vector<std::size_t> distinct;
    distinct.reserve(requests.size());
    if (dedupBatch()) {
        std::unordered_map<std::string, std::size_t> first;
        first.reserve(requests.size());
        for (std::size_t i = 0; i < requests.size(); ++i) {
            const std::string key = PulseCache::canonicalKey(
                requests[i].unitary, requests[i].numQubits);
            const auto [it, inserted] = first.emplace(key, i);
            primary[i] = it->second;
            if (inserted)
                distinct.push_back(i);
        }
    } else {
        for (std::size_t i = 0; i < requests.size(); ++i) {
            primary[i] = i;
            distinct.push_back(i);
        }
    }

    auto run_one = [&](std::size_t j) {
        // Items not yet started stop here once the request is
        // cancelled; the one mid-derivation stops at its next GRAPE
        // iteration poll. Throwing before acquire() leaves no flight
        // to abort.
        if (const CancelToken *c = cancel();
            c != nullptr && c->cancelled())
            c->throwCancelled(quota() != nullptr
                                  ? quota()->itersCharged()
                                  : 0);
        const PulseRequest &r = requests[distinct[j]];
        out[distinct[j]] =
            generateOne(r.unitary, r.numQubits, pool, horizon);
    };
    if (pool != nullptr && distinct.size() > 1)
        pool->parallelFor(distinct.size(), run_one);
    else
        for (std::size_t j = 0; j < distinct.size(); ++j)
            run_one(j);

    // Fold duplicates and record in request order so the counters
    // accumulate exactly as a serial loop would.
    for (std::size_t i = 0; i < requests.size(); ++i) {
        if (primary[i] != i) {
            PulseGenResult dup = out[primary[i]];
            dup.cacheHit = true;
            dup.costUnits = 0.0;
            out[i] = std::move(dup);
        }
        record(out[i]);
    }
    return out;
}

PulseGenResult
SpectralPulseGenerator::generateOne(const Matrix &unitary, int num_qubits,
                                    ThreadPool *pool,
                                    std::uint64_t nearest_horizon)
{
    (void)pool;
    (void)nearest_horizon;
    PulseGenResult result;
    if (cache_enabled_) {
        const PulseCache::Acquired acq =
            cache_.acquire(unitary, num_qubits);
        if (acq.role != PulseCache::FlightRole::Leader) {
            result.latency = acq.entry->latency;
            result.error = acq.entry->error;
            result.cacheHit = true;
            result.costUnits = 0.0;
            return result;
        }
    }
    try {
        // Shared-tier read-through (DESIGN.md §14): the leader asks
        // the tier before computing. A verified hit publishes exactly
        // like a local derivation, so joiners and the durable library
        // see no difference.
        if (cache_enabled_) {
            if (PulseTierSource *tier = cache_.tierSource()) {
                if (std::optional<CachedPulse> fetched = tier->fetch(
                        PulseCache::canonicalKey(unitary, num_qubits),
                        cancel())) {
                    result.latency = fetched->latency;
                    result.error = fetched->error;
                    result.cacheHit = true;
                    result.costUnits = 0.0;
                    fetched->fromTier = true;
                    cache_.completeFlight(unitary, num_qubits,
                                          std::move(*fetched));
                    return result;
                }
            }
        }
        chargeResidentPulse();
        result.latency = model_.latency(unitary, num_qubits);
        result.error = model_.pulseError(num_qubits, result.latency);
        result.costUnits = model_.compileCost(num_qubits, result.latency);
    } catch (...) {
        if (cache_enabled_)
            cache_.abortFlight(unitary, num_qubits);
        throw;
    }

    CachedPulse entry;
    entry.latency = result.latency;
    entry.error = result.error;
    if (cache_enabled_)
        cache_.completeFlight(unitary, num_qubits, std::move(entry));
    else
        cache_.insert(unitary, num_qubits, std::move(entry));
    return result;
}

double
SpectralPulseGenerator::estimateLatency(const Matrix &unitary,
                                        int num_qubits)
{
    return model_.latency(unitary, num_qubits);
}

double
SpectralPulseGenerator::averageLatency(int num_qubits)
{
    return model_.averageLatency(num_qubits);
}

GrapePulseGenerator::GrapePulseGenerator(GrapeOptions options)
    : options_(options)
{}

PulseGenResult
GrapePulseGenerator::generateOne(const Matrix &unitary, int num_qubits,
                                 ThreadPool *pool,
                                 std::uint64_t nearest_horizon)
{
    PulseGenResult result;
    const PulseCache::Acquired acq = cache_.acquire(unitary, num_qubits);
    if (acq.role != PulseCache::FlightRole::Leader) {
        result.latency = acq.entry->latency;
        result.error = acq.entry->error;
        result.schedule = acq.entry->schedule;
        result.cacheHit = true;
        result.degraded = acq.entry->degraded;
        return result;
    }

    try {
        // Shared-tier read-through (DESIGN.md §14): ask the tier
        // before spending GRAPE iterations. A verified hit costs zero
        // iterations and zero quota, and publishes exactly like a
        // local derivation -- GRAPE is a pure function of (unitary,
        // fingerprint-pinned config), so the fetched bytes are the
        // bytes a local run would have produced.
        if (PulseTierSource *tier = cache_.tierSource()) {
            if (std::optional<CachedPulse> fetched = tier->fetch(
                    PulseCache::canonicalKey(unitary, num_qubits),
                    cancel())) {
                result.latency = fetched->latency;
                result.error = fetched->error;
                result.schedule = fetched->schedule;
                result.cacheHit = true;
                result.costUnits = 0.0;
                fetched->fromTier = true;
                cache_.completeFlight(unitary, num_qubits,
                                      std::move(*fetched));
                return result;
            }
        }
        chargeResidentPulse();
        // Crash safety: resume this derivation's GRAPE progress if a
        // checkpoint for the canonical key survived a previous
        // process (DESIGN.md §10). A null checkpoint (not configured,
        // or the file is locked by another worker) changes nothing.
        std::unique_ptr<GrapeCheckpoint> ckpt;
        if (checkpoints_ != nullptr && checkpoint_every_ > 0)
            ckpt = checkpoints_->openCheckpoint(
                PulseCache::canonicalKey(unitary, num_qubits));
        GrapeRuntime runtime;
        runtime.pool = pool;
        runtime.checkpoint = ckpt.get();
        runtime.checkpointEvery = checkpoint_every_;
        runtime.quota = quota();
        // A cancelled derivation unwinds through the catch below:
        // abortFlight re-races the waiters, so a live joiner takes
        // over leadership instead of inheriting a dead leader's hang.
        runtime.cancel = cancel();

        // Warm-start from the nearest pulse cached before the horizon
        // if one is close; use the analytical estimate to start the
        // duration bracket.
        const std::optional<CachedPulse> seed = cache_.nearestBefore(
            unitary, num_qubits, seed_distance_, nearest_horizon);
        const int hint =
            static_cast<int>(model_.latency(unitary, num_qubits));
        const DeviceModel device(num_qubits);
        MinDurationResult min_dur = findMinimumDuration(
            device, unitary, options_, hint,
            seed.has_value() ? &seed->schedule : nullptr, runtime);
        int iterations = min_dur.totalIterations;

        if (!min_dur.converged) {
            // GRAPE hit the duration cap below the fidelity target.
            // Stitch a corrective segment onto the best effort: run
            // one more optimization against the residual unitary
            // (target applied after undoing what the pulse already
            // achieves) and concatenate, instead of silently handing
            // back a low-fidelity pulse. Deterministic for the same
            // reason every GRAPE run is: seeds derive from the
            // residual's content hash.
            const Matrix achieved =
                schedulePropagator(device, min_dur.schedule);
            const Matrix residual = unitary * achieved.adjoint();
            const GrapeResult corrective = grapeOptimize(
                device, residual,
                std::max(1, min_dur.schedule.numSlices()), options_,
                nullptr, runtime);
            min_dur.schedule.amplitudes.insert(
                min_dur.schedule.amplitudes.end(),
                corrective.schedule.amplitudes.begin(),
                corrective.schedule.amplitudes.end());
            min_dur.schedule.fidelity =
                scheduleFidelity(device, unitary, min_dur.schedule);
            iterations += corrective.iterations;
            result.degraded = true;
        }

        result.latency = min_dur.schedule.latency();
        result.error = 1.0 - min_dur.schedule.fidelity;
        result.schedule = min_dur.schedule;
        const double dim = std::pow(2.0, num_qubits);
        result.costUnits = static_cast<double>(iterations)
            * result.latency * dim * dim * dim;

        CachedPulse entry;
        entry.latency = result.latency;
        entry.error = result.error;
        entry.schedule = min_dur.schedule;
        entry.degraded = result.degraded;
        cache_.completeFlight(unitary, num_qubits, std::move(entry));
        // Published (and, when a store is attached, journaled): the
        // checkpoint has nothing left to protect.
        if (ckpt)
            ckpt->discard();
    } catch (...) {
        cache_.abortFlight(unitary, num_qubits);
        throw;
    }
    return result;
}

double
GrapePulseGenerator::estimateLatency(const Matrix &unitary, int num_qubits)
{
    return model_.latency(unitary, num_qubits);
}

double
GrapePulseGenerator::averageLatency(int num_qubits)
{
    return model_.averageLatency(num_qubits);
}

} // namespace paqoc
