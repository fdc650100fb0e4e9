#ifndef PAQOC_QOC_PULSE_GENERATOR_H_
#define PAQOC_QOC_PULSE_GENERATOR_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "linalg/matrix.h"
#include "qoc/grape.h"
#include "qoc/latency_model.h"
#include "qoc/pulse.h"
#include "qoc/pulse_cache.h"

namespace paqoc {

/** Outcome of generating (or estimating) a pulse for one unitary. */
struct PulseGenResult
{
    /** Pulse latency in dt units. */
    double latency = 0.0;
    /** Pulse error |U - H(t)| entering the ESP product. */
    double error = 0.0;
    /** Modeled compilation cost in GRAPE-work units. */
    double costUnits = 0.0;
    /** True when served from the pulse lookup table. */
    bool cacheHit = false;
    /**
     * True when GRAPE missed the fidelity target at the duration cap
     * and the pulse is a stitched best-effort fallback (tagged
     * `degraded: true` in JSON output, never persisted).
     */
    bool degraded = false;
    /** The controls themselves (absent in estimate-only paths). */
    std::optional<PulseSchedule> schedule;
};

/**
 * The spectral latency model behind a memo keyed on the unitary's
 * exact bytes and width, so the generator holding it runs the model
 * once per distinct unitary, whichever path asks: the passes'
 * estimates or the pulse pass's derivations, on any worker. Exact
 * bytes, not PulseCache::canonicalKey: the memo stands in for a pure
 * function, so two unitaries that round alike still get their own
 * latency. It lives and dies with its generator (one request) and
 * never reads the pulse cache; the model itself stays pure
 * (DESIGN.md §17).
 */
class MemoizedLatencyModel
{
  public:
    /** SpectralLatencyModel::latency, bit for bit. Thread-safe. */
    double latency(const Matrix &unitary, int num_qubits)
        PAQOC_EXCLUDES(mu_);

    double averageLatency(int num_qubits) const
    { return model_.averageLatency(num_qubits); }
    double pulseError(int num_qubits, double latency) const
    { return model_.pulseError(num_qubits, latency); }
    double compileCost(int num_qubits, double latency) const
    { return model_.compileCost(num_qubits, latency); }

  private:
    SpectralLatencyModel model_;
    Mutex mu_;
    std::unordered_map<std::string, double> memo_ PAQOC_GUARDED_BY(mu_);
};

/** One unitary of a batch pulse request. */
struct PulseRequest
{
    Matrix unitary;
    int numQubits = 0;
};

/**
 * Abstract pulse backend of the compiler (paper Fig. 7, "Control
 * Pulses Generator"). generate() commits a pulse (and populates the
 * cache); generateBatch() commits many concurrently on a thread pool;
 * estimateLatency() is the cheap query the criticality-aware ranking
 * uses when the analytical model suffices (Section V-A).
 *
 * Concurrency contract: generate() may be called from multiple
 * threads; concurrent requests for the same canonical unitary are
 * single-flighted through the pulse cache, so exactly one backend run
 * happens per distinct unitary. Batch results and all counters are
 * bit-identical for any thread count: the batch driver dedups
 * requests by canonical key before dispatch, warm-start similarity
 * queries see only the pre-batch cache snapshot, and counters fold in
 * request-index order after the parallel section.
 */
class PulseGenerator
{
  public:
    virtual ~PulseGenerator() = default;

    /** Generate (or fetch) the pulse for a unitary on n qubits. */
    PulseGenResult generate(const Matrix &unitary, int num_qubits);

    /**
     * Generate pulses for a whole batch; with a pool, distinct
     * unitaries run concurrently, and every derivation hands the pool
     * on to its own duration probes. Results (including cacheHit and
     * costUnits) match a serial generate() loop over the requests.
     */
    std::vector<PulseGenResult> generateBatch(
        const std::vector<PulseRequest> &requests,
        ThreadPool *pool = nullptr);

    /**
     * Cheap latency estimate without committing a pulse: the
     * analytical model alone, never a cached pulse, so compile
     * decisions do not depend on what the library already holds.
     */
    virtual double estimateLatency(const Matrix &unitary,
                                   int num_qubits) = 0;

    /** Width-level average latency (for Case I approximations). */
    virtual double averageLatency(int num_qubits) = 0;

    /**
     * True when estimateLatency() is the latency the committed pulse
     * will have (the analytical backend), so a pass can check the
     * schedule it builds against the one it was given.
     */
    virtual bool estimatesArePulseLatencies() const { return false; }

    /** Accumulated modeled compilation cost over all generate calls. */
    double totalCostUnits() const
    { return total_cost_.load(std::memory_order_relaxed); }

    /** Number of generate() calls answered by the cache. */
    std::size_t cacheHits() const
    { return cache_hits_.load(std::memory_order_relaxed); }
    std::size_t generateCalls() const
    { return generate_calls_.load(std::memory_order_relaxed); }

    const PulseCache &cache() const { return cache_; }
    /** Mutable cache access (store attachment, warm-up). */
    PulseCache &cache() { return cache_; }

    /** Load a pulse database saved by an offline run. */
    void loadDatabase(const std::string &path) { cache_.load(path); }

    /** Persist the pulse database for later online runs. */
    void saveDatabase(const std::string &path) const
    { cache_.save(path); }

    /**
     * Attach the enclosing request's context (may be null to detach).
     * Not owned; must outlive every generate call. Each cache-missing
     * derivation charges one resident pulse and GRAPE checks the same
     * token once per iteration. Its cancellation is polled by batch
     * items before they start, caps tier fetches by the remaining
     * deadline, and stops GRAPE within one ADAM step; the
     * single-flight abort-re-race then hands cache leadership to a
     * live joiner.
     */
    void setQuota(QuotaToken *quota) { quota_ = quota; }

  protected:
    /**
     * Produce one pulse without touching the counters. The pool (may
     * be null) parallelizes the backend's own inner work; similarity
     * queries must not see cache entries stamped at or after
     * nearest_horizon (pass PulseCache's current generation -- or
     * UINT64_MAX outside a batch -- so warm starts are reproducible).
     */
    virtual PulseGenResult generateOne(const Matrix &unitary,
                                       int num_qubits, ThreadPool *pool,
                                       std::uint64_t nearest_horizon) = 0;

    /**
     * Whether the batch driver may serve repeated unitaries within one
     * batch from the first occurrence's result (true whenever a serial
     * replay would have hit the cache for them).
     */
    virtual bool dedupBatch() const { return true; }

    void
    record(const PulseGenResult &result)
    {
        generate_calls_.fetch_add(1, std::memory_order_relaxed);
        cache_hits_.fetch_add(result.cacheHit ? 1 : 0,
                              std::memory_order_relaxed);
        // fetch_add on atomic<double> via CAS; batch drivers record
        // serially in request order, so sums stay deterministic there.
        double cur = total_cost_.load(std::memory_order_relaxed);
        while (!total_cost_.compare_exchange_weak(
            cur, cur + result.costUnits, std::memory_order_relaxed))
            ;
    }

    /** Context of the current request; null when unmetered. */
    QuotaToken *quota() const { return quota_; }

    /** The request's cancel token for a tier fetch (null: none). */
    const CancelToken *
    tierCancel() const
    {
        return quota_ != nullptr ? &quota_->cancelToken() : nullptr;
    }

    /**
     * Charge one cache-missing derivation against the quota; raises
     * QuotaExceededError on a tripped hard token (the caller's
     * abortFlight path re-races the flight to the next waiter).
     * Degrade mode lets the derivation proceed: the iteration budget
     * (already tripped) then bounds its cost to one iteration per
     * trial, producing a stitched best-effort pulse.
     */
    void
    chargeResidentPulse()
    {
        if (quota_ == nullptr || quota_->chargeResidentPulse())
            return;
        if (!quota_->degradeOnExceeded())
            quota_->throwQuotaExceeded();
    }

    PulseCache cache_;

  private:
    QuotaToken *quota_ = nullptr;
    std::atomic<double> total_cost_{0.0};
    std::atomic<std::size_t> cache_hits_{0};
    std::atomic<std::size_t> generate_calls_{0};
};

/**
 * Analytical backend: latencies from the spectral quantum-speed-limit
 * model, errors from the calibrated error model, compile cost from the
 * GRAPE work model. Fast enough for the 17-benchmark sweeps; shares
 * the pulse cache semantics with the GRAPE backend so cache effects
 * (Fig. 11) are faithfully reproduced.
 */
class SpectralPulseGenerator : public PulseGenerator
{
  public:
    SpectralPulseGenerator() = default;

    double estimateLatency(const Matrix &unitary, int num_qubits) override;
    double averageLatency(int num_qubits) override;
    bool estimatesArePulseLatencies() const override { return true; }

    /**
     * Disable the pulse lookup table (ablation knob): every generate()
     * call then pays the full modeled pulse-generation cost.
     */
    void setCacheEnabled(bool enabled) { cache_enabled_ = enabled; }

  protected:
    PulseGenResult generateOne(const Matrix &unitary, int num_qubits,
                               ThreadPool *pool,
                               std::uint64_t nearest_horizon) override;
    bool dedupBatch() const override { return cache_enabled_; }

  private:
    MemoizedLatencyModel model_;
    bool cache_enabled_ = true;
};

/**
 * Real-numerics backend: GRAPE with ADAM plus minimum-duration search;
 * warm-started from the nearest cached pulse when one is close
 * (Section V-B / AccQOC-style similarity reuse). Latency estimates for
 * ranking still come from the analytical model so that ranking stays
 * cheap, exactly as the paper prescribes. Duration probes and restarts
 * fan out onto the thread pool passed to generateBatch (generate()
 * passes none).
 */
class GrapePulseGenerator : public PulseGenerator
{
  public:
    explicit GrapePulseGenerator(GrapeOptions options = {});

    double estimateLatency(const Matrix &unitary, int num_qubits) override;
    double averageLatency(int num_qubits) override;

    /** Similarity radius for warm starts. */
    void setSeedDistance(double d) { seed_distance_ = d; }

    /**
     * Enable crash-safe derivations: each cache-missing unitary
     * checkpoints its GRAPE progress (keyed by canonical cache key)
     * every `every` iterations and discards the checkpoint once the
     * pulse publishes to the cache. The provider is not owned and
     * must outlive the generator; null (or every <= 0) disables
     * checkpointing and restores the exact legacy code path.
     */
    void
    setCheckpoints(GrapeCheckpointProvider *provider, int every)
    {
        checkpoints_ = provider;
        checkpoint_every_ = every;
    }

  protected:
    PulseGenResult generateOne(const Matrix &unitary, int num_qubits,
                               ThreadPool *pool,
                               std::uint64_t nearest_horizon) override;

  private:
    GrapeOptions options_;
    MemoizedLatencyModel model_;
    double seed_distance_ = 1.0;
    GrapeCheckpointProvider *checkpoints_ = nullptr;
    int checkpoint_every_ = 0;
};

} // namespace paqoc

#endif // PAQOC_QOC_PULSE_GENERATOR_H_
