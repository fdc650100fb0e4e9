#ifndef PAQOC_QOC_GRAPE_H_
#define PAQOC_QOC_GRAPE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/quota.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "qoc/device.h"
#include "qoc/pulse.h"

namespace paqoc {

/** Knobs of the GRAPE optimizer (gradient ascent + ADAM). */
struct GrapeOptions
{
    /** Stop when 1 - fidelity drops below this. */
    double targetInfidelity = 1e-3;
    /** Maximum ADAM iterations per duration trial. */
    int maxIterations = 300;
    /** ADAM learning rate (in units of the control bound). */
    double learningRate = 0.05;
    /**
     * Base seed mixed with the target-unitary hash and the slice
     * count, so every (target, duration) pair draws the same initial
     * pulse regardless of which thread or batch position runs it.
     */
    std::uint64_t seed = 7;
    /**
     * Independent random restarts per fixed-duration run; the best
     * outcome wins (converged first, then fidelity, then lowest
     * restart index). Restarts are independent tasks and run
     * concurrently on the pulse engine's thread pool.
     */
    int restarts = 1;
    /**
     * Candidate slice counts evaluated per round of the minimum-
     * duration search. 1 reproduces the classic sequential binary
     * search; k >= 2 probes k durations per round, shrinking the
     * bracket by k+1 instead of 2. With a pool the k probes run
     * concurrently, also when the search itself runs on a pool
     * worker (every daemon request does). The probe set is a pure
     * function of the bracket, so results do not depend on the
     * thread count.
     */
    int durationProbes = 3;
};

/** Outcome of one fixed-duration GRAPE run. */
struct GrapeResult
{
    PulseSchedule schedule;
    bool converged = false;
    /** ADAM iterations spent, summed over all restarts. */
    int iterations = 0;
};

/**
 * Identity of one GRAPE trial inside a pulse derivation. Trials are
 * pure functions of (target, duration, restart) -- the same key always
 * produces the same bytes -- which is what makes checkpoint replay
 * sound: a recovered trial result is exactly what a live re-run would
 * compute (DESIGN.md §10).
 */
struct GrapeTrialKey
{
    std::uint64_t targetHash = 0;
    int numSlices = 0;
    int restart = 0;
};

/**
 * Resumable snapshot of an in-progress trial. The ADAM loop is a pure
 * function of these doubles (the trial RNG is consumed entirely by the
 * initial seeding, before the first snapshot), so restoring them and
 * continuing at `iteration + 1` reproduces the uninterrupted run
 * bit for bit.
 */
struct GrapeTrialState
{
    GrapeTrialKey key;
    /** ADAM iterations completed when the snapshot was taken. */
    int iteration = 0;
    double bestFidelity = 0.0;
    std::vector<std::vector<double>> u; // amplitudes [slice][control]
    std::vector<std::vector<double>> m; // ADAM first moment
    std::vector<std::vector<double>> v; // ADAM second moment
    std::vector<std::vector<double>> bestU;
};

/**
 * Checkpoint of one pulse derivation (one canonical cache key).
 * Completed trials are memoized verbatim; at most the interrupted
 * trial resumes mid-flight. Implementations must be thread-safe:
 * concurrent duration probes save from pool threads.
 */
class GrapeCheckpoint
{
  public:
    virtual ~GrapeCheckpoint() = default;

    /** Recorded result of a finished trial, if any. */
    virtual std::optional<GrapeResult>
    completedTrial(const GrapeTrialKey &key) const = 0;

    /** Latest mid-trial snapshot for `key`, if any. */
    virtual std::optional<GrapeTrialState>
    trialState(const GrapeTrialKey &key) const = 0;

    /** Persist a mid-trial snapshot (best effort, never throws). */
    virtual void saveTrialState(const GrapeTrialState &state) = 0;

    /** Persist a finished trial (best effort, never throws). */
    virtual void saveCompletedTrial(const GrapeTrialKey &key,
                                    const GrapeResult &result) = 0;

    /** The derivation published durably; drop the checkpoint. */
    virtual void discard() = 0;
};

/** Hands out per-derivation checkpoints keyed by canonical cache key. */
class GrapeCheckpointProvider
{
  public:
    virtual ~GrapeCheckpointProvider() = default;

    /**
     * Open (recovering if present) the checkpoint for one canonical
     * key. May return nullptr (e.g. the file is locked by another
     * process); callers then run without checkpointing.
     */
    virtual std::unique_ptr<GrapeCheckpoint>
    openCheckpoint(const std::string &canonical_key) = 0;
};

/**
 * Cache of slice propagators exp(-i H(u) dt) shared by the duration
 * probes of one minimum-duration search. Adjacent probes seeded from
 * the same initial guess resample the same source slices, so their
 * first fidelity evaluations exponentiate many identical slice
 * Hamiltonians; the cache computes each once.
 *
 * Keys are the exact amplitude bytes and values are pure functions of
 * the key, so concurrent probes may look up and insert in any order
 * without affecting a single bit of any result -- which is what keeps
 * the engine's thread-count determinism intact. Entries are capped;
 * past the cap inserts are dropped (a cache miss only costs time).
 */
class PropagatorCache
{
  public:
    /** Copy the cached propagator for `amplitudes` into `out`. */
    bool lookup(const std::vector<double> &amplitudes,
                Matrix &out) const;

    /** Record a propagator (dropped beyond the entry cap). */
    void insert(const std::vector<double> &amplitudes,
                const Matrix &propagator);

    std::size_t size() const;

  private:
    static constexpr std::size_t kMaxEntries = 4096;

    mutable Mutex mutex_;
    std::map<std::vector<double>, Matrix> entries_
        PAQOC_GUARDED_BY(mutex_);
};

/**
 * Execution context threaded through a GRAPE derivation. Default
 * constructed it changes nothing: no pool, no checkpointing, no
 * quota -- the optimizer follows the exact legacy code path.
 */
struct GrapeRuntime
{
    ThreadPool *pool = nullptr;
    /** Checkpoint of this derivation (may be null). */
    GrapeCheckpoint *checkpoint = nullptr;
    /** Snapshot every N ADAM iterations (0 disables snapshots). */
    int checkpointEvery = 0;
    /**
     * Context of the enclosing request (may be null): budgets and
     * cancellation. Checked once per ADAM iteration (QuotaToken::
     * step); a trial that must unwind -- a hard trip or a cancel --
     * snapshots its end-of-iteration state first and then throws, so
     * a re-request resumes byte-identically instead of restarting
     * (DESIGN.md §10, §15).
     */
    QuotaToken *quota = nullptr;
    /**
     * Shared propagator cache (may be null). Only consulted for the
     * first fidelity evaluation of guess-seeded trials, where reuse
     * across duration probes actually occurs; never changes results.
     */
    PropagatorCache *propCache = nullptr;
};

/**
 * Optimize a piecewise-constant pulse of num_slices slices to realize
 * the target unitary on the device, via GRAPE with first-order
 * gradients and ADAM updates; amplitudes are clipped to the per-control
 * bounds each step. An optional initial guess (e.g., a similar cached
 * pulse, per AccQOC) warm-starts the optimization; it is resized to
 * num_slices if needed. When a pool is given, restarts run as
 * parallel tasks; each trial's own iterations are serial. Results are
 * identical for any pool size.
 */
GrapeResult grapeOptimize(const DeviceModel &device, const Matrix &target,
                          int num_slices, const GrapeOptions &options = {},
                          const PulseSchedule *initial_guess = nullptr,
                          ThreadPool *pool = nullptr);

/**
 * As above, with a full runtime: checkpointed trials replay from (or
 * resume into) `runtime.checkpoint`, and `runtime.quota` is checked
 * once per ADAM iteration. With a default runtime this is exactly the
 * legacy overload.
 */
GrapeResult grapeOptimize(const DeviceModel &device, const Matrix &target,
                          int num_slices, const GrapeOptions &options,
                          const PulseSchedule *initial_guess,
                          const GrapeRuntime &runtime);

/** Result of the minimum-duration search. */
struct MinDurationResult
{
    PulseSchedule schedule;
    /** Total GRAPE iterations spent across all duration trials. */
    int totalIterations = 0;
    /** Number of duration trials evaluated. */
    int trials = 0;
    /**
     * Narrowing candidates the two-qubit speed limit answered "does
     * not converge" without a trial (twoQubitDurationFloor).
     */
    int floorSkips = 0;
    /**
     * False when even the duration cap failed to reach the target
     * fidelity, or a degrade trip stopped the search below it;
     * `schedule` then holds the best pulse found where the bracket
     * stopped. Callers degrade gracefully (PulseGenerator stitches a
     * corrective segment and tags the result) instead of crashing.
     */
    bool converged = true;
    /**
     * True when a degrade-mode quota tripped during the search: the
     * pulse may come from a bracket whose narrowing was cut short, so
     * it can be longer than the minimum. Callers tag it degraded.
     */
    bool stopped = false;
};

/**
 * Find (by exponential bracketing + multi-probe binary search,
 * Section V-B) the minimum pulse duration at which GRAPE reaches the
 * target fidelity, and return the pulse at that duration.
 *
 * With options.durationProbes >= 2 and a pool, each round's candidate
 * durations are optimized concurrently. The candidate set depends
 * only on the bracket (never on the pool), so the found duration,
 * trial count, and iteration totals are bit-identical for any thread
 * count, including the serial pool-less path. On a two-qubit device a
 * narrowing candidate below twoQubitDurationFloor counts as not
 * converged without a trial (`floorSkips`); it could not converge,
 * so the rounds, their candidates and the pulse are those of a
 * search that ran it.
 *
 * @param latency_hint Optional starting point for the bracket (e.g.,
 *        the analytical model's estimate); 0 means unknown.
 */
MinDurationResult findMinimumDuration(
    const DeviceModel &device, const Matrix &target,
    const GrapeOptions &options = {}, int latency_hint = 0,
    const PulseSchedule *initial_guess = nullptr,
    ThreadPool *pool = nullptr);

/**
 * As above with a full runtime. The candidate set is a pure function
 * of the bracket and every trial is a pure function of its key, so a
 * search resumed from a checkpoint walks the exact same candidates --
 * completed trials replay from the checkpoint and only the
 * interrupted one computes, yielding a byte-identical result. Once a
 * degrade-mode `runtime.quota` trips, no further trial starts: an
 * unconverged bracket returns converged = false, as at the cap, and a
 * converged one returns `stopped`.
 */
MinDurationResult findMinimumDuration(
    const DeviceModel &device, const Matrix &target,
    const GrapeOptions &options, int latency_hint,
    const PulseSchedule *initial_guess, const GrapeRuntime &runtime);

/**
 * Lower bound, in dt, on the duration of any pulse on a two-qubit
 * `device` whose fidelity to `target` reaches 1 - `infidelity`: the
 * exchange-only speed limit T(c) of the target's Weyl coordinates
 * (weylCoordinates), each coordinate relaxed by the most a fidelity
 * of 1 - infidelity lets it move. With infidelity 0 this is T(c)
 * itself: 78.54 dt for CX and iSWAP, 117.81 dt for SWAP on
 * DeviceModel(2). 0 for any device that is not two-qubit.
 * findMinimumDuration's narrowing skips candidates below it
 * (DESIGN.md §16).
 */
double twoQubitDurationFloor(const DeviceModel &device,
                             const Matrix &target, double infidelity);

/** Propagator realized by playing `schedule` on `device`. */
Matrix schedulePropagator(const DeviceModel &device,
                          const PulseSchedule &schedule);

/** Trace fidelity |Tr(target^dag U_schedule)|^2 / d^2. */
double scheduleFidelity(const DeviceModel &device, const Matrix &target,
                        const PulseSchedule &schedule);

} // namespace paqoc

#endif // PAQOC_QOC_GRAPE_H_
