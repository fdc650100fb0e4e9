#ifndef PAQOC_QOC_PULSE_CACHE_H_
#define PAQOC_QOC_PULSE_CACHE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/cancellation.h"
#include "common/thread_annotations.h"
#include "linalg/matrix.h"
#include "qoc/pulse.h"

namespace paqoc {

/** One cached pulse-generation outcome. */
struct CachedPulse
{
    double latency = 0.0;
    double error = 0.0;
    PulseSchedule schedule; // empty for model-generated entries
    Matrix unitary;         // canonical-form target, for similarity
    int numQubits = 0;
    /**
     * Stitched best-effort fallback (GRAPE missed the target fidelity
     * at the duration cap). Served for the session so repeated
     * requests stay cheap and consistent, but excluded from save()
     * and from the durable library. Not serialized.
     */
    bool degraded = false;
    /**
     * Monotone insertion stamp (see PulseCache::generation). Batch
     * drivers bound similarity queries by the generation observed at
     * batch start, so warm-start selection is independent of the
     * order concurrent inserts land in (nearestBefore breaks distance
     * ties on the canonical key, never on this stamp, because stamps
     * within a batch are assigned in completion order). Not serialized.
     */
    std::uint64_t generation = 0;
    /**
     * Entry was fetched from the shared network tier rather than
     * derived locally. The durable library still journals it (that is
     * the read-through contract) but does not forward it back to the
     * tier -- the tier already has it. Not serialized.
     */
    bool fromTier = false;
};

/**
 * An immutable set of pulses keyed by PulseCache::canonicalKey and
 * ordered by it: a durable library's contents, frozen once and read in
 * place by every cache it is attached to (PulseCache::attachEpoch).
 */
using PulseEpoch = std::map<std::string, CachedPulse>;

/**
 * Observer of cache inserts, implemented by the durable pulse library
 * (src/store/pulse_library.h). Attached via PulseCache::attachStore;
 * every published entry (completed flight, direct insert, or database
 * load) is forwarded *after* the cache lock is released, so a sink may
 * block on I/O without stalling readers. Sinks must not call back into
 * the cache.
 */
class PulseStoreSink
{
  public:
    virtual ~PulseStoreSink() = default;
    /** `key` is PulseCache::canonicalKey of the entry's unitary. */
    virtual void onInsert(const std::string &key,
                          const CachedPulse &entry) = 0;
};

/**
 * Read-through source consulted on a cache miss, implemented by the
 * shared-tier client (src/tier/tier_client.h). The elected single-
 * flight leader calls fetch() *before* computing; a returned entry is
 * published through completeFlight exactly as a locally derived pulse
 * would be, so joiners and the durable library see no difference.
 * fetch() runs outside the cache lock (it does network I/O), must
 * never throw, and returns nullopt on miss, timeout, open breaker, or
 * a corrupt (quarantined) entry -- any nullopt simply means "compute
 * locally", which is how the tier stays strictly an accelerator.
 */
class PulseTierSource
{
  public:
    virtual ~PulseTierSource() = default;

    /**
     * `key` is PulseCache::canonicalKey of the wanted unitary;
     * `cancel` is the enclosing request's token (null: no deadline).
     * An implementation should return nullopt immediately when the
     * token is cancelled or its remaining deadline cannot fund a full
     * tier op -- "compute locally" is always the right degradation.
     */
    virtual std::optional<CachedPulse>
    fetch(const std::string &key, const CancelToken *cancel) = 0;
};

/**
 * Lookup table of previously generated pulses (paper Section V-B).
 *
 * Keys are canonical forms of the target unitary with its global
 * phase normalized away. A unitary and its qubit-reversed twin keep
 * distinct keys: a stored schedule drives the qubits in the order it
 * was derived for, so serving it for the reversed gate would play the
 * wrong pulse.
 * The cache also serves nearest-neighbor queries so a similar cached
 * pulse can seed GRAPE (the AccQOC-style warm start PAQOC adopts).
 *
 * Concurrency: all operations are internally locked, and generation
 * is coordinated through a *single-flight* protocol -- concurrent
 * requests for the same canonical unitary block on the one in-flight
 * computation instead of duplicating it:
 *
 *   auto acq = cache.acquire(u, n);
 *   if (acq.role == FlightRole::Leader) {
 *       // compute the pulse, then publish it:
 *       cache.completeFlight(u, n, entry);   // or abortFlight on error
 *   } else {
 *       // Hit (already cached) or Joined (another thread computed it
 *       // while we waited): acq.entry holds a copy.
 *   }
 *
 * The pointer-returning lookup()/nearest() remain for single-threaded
 * use (tests, serial tools); concurrent code must use acquire() and
 * nearestBefore(), which hand out copies.
 *
 * Two levels: the cache's own table, which every insert lands in, over
 * an optional immutable epoch (attachEpoch) shared with other caches.
 * Every read sees their union, an own entry shadowing the epoch's
 * entry of the same key, so attaching an epoch answers exactly as
 * inserting its entries first would have -- without copying them.
 */
class PulseCache
{
  public:
    PulseCache() = default;

    /** How acquire() resolved a request. */
    enum class FlightRole
    {
        Hit,    ///< already cached; entry returned
        Joined, ///< waited on another thread's in-flight run
        Leader, ///< caller must compute and completeFlight/abortFlight
    };

    struct Acquired
    {
        FlightRole role = FlightRole::Leader;
        /** Present for Hit and Joined. */
        std::optional<CachedPulse> entry;
    };

    /**
     * Single-flight entry point: returns the cached entry (own table
     * or epoch), waits for an in-flight computation of the same key,
     * or elects the caller leader (who must publish via completeFlight
     * or abortFlight).
     */
    Acquired acquire(const Matrix &unitary, int num_qubits);

    /** Publish a leader's result and wake all joined waiters. */
    void completeFlight(const Matrix &unitary, int num_qubits,
                        CachedPulse entry);

    /**
     * Abandon a leader's flight (exception path). Waiters re-race;
     * one of them becomes the new leader.
     */
    void abortFlight(const Matrix &unitary, int num_qubits);

    /**
     * Exact canonical lookup. Single-threaded use only: the returned
     * pointer is into the table and is not protected against a
     * concurrent overwrite of the same key.
     */
    const CachedPulse *lookup(const Matrix &unitary, int num_qubits) const;

    /** Insert (or overwrite) the entry for a unitary. */
    void insert(const Matrix &unitary, int num_qubits, CachedPulse entry);

    /**
     * Closest cached entry of the same width within max_distance
     * (global-phase-invariant Frobenius distance), or nullptr.
     * Single-threaded use only; see lookup().
     */
    const CachedPulse *nearest(const Matrix &unitary, int num_qubits,
                               double max_distance) const;

    /**
     * Thread-safe nearest query restricted to entries inserted before
     * `generation_bound` (copy returned). Batch drivers snapshot
     * generation() at batch start and pass it here so every request
     * in the batch seeds against the same, deterministic view of the
     * cache no matter how the batch is scheduled. Epoch entries count
     * as inserted before any bound.
     */
    std::optional<CachedPulse> nearestBefore(
        const Matrix &unitary, int num_qubits, double max_distance,
        std::uint64_t generation_bound) const;

    /** Distinct keys in the union of the own table and the epoch. */
    std::size_t size() const;

    /** Whether `key` (a canonicalKey) resolves to an entry. */
    bool containsKey(const std::string &key) const;

    /**
     * Count of inserts into the own table so far; stamps
     * CachedPulse::generation. An attached epoch adds nothing.
     */
    std::uint64_t generation() const
    { return generation_.load(std::memory_order_relaxed); }

    /**
     * Persist the database to disk (the paper's offline/online split,
     * contribution 5: pulses generated offline -- e.g. for APA-basis
     * gates mined from a parameterized circuit -- are reloaded by the
     * online compilation and served as cache hits).
     */
    void save(const std::string &path) const;

    /**
     * Merge a previously saved database into this one. All-or-nothing:
     * a malformed or truncated file raises FatalError naming the bad
     * line and leaves the cache untouched.
     */
    void load(const std::string &path);

    /**
     * Attach a durable store: every entry published from now on is
     * forwarded to `sink` (null detaches). Call during single-threaded
     * setup. Entries already present, and the epoch's, are NOT
     * replayed to the sink.
     */
    void attachStore(PulseStoreSink *sink);

    /**
     * Attach an immutable epoch as the lower level under the own table
     * (null detaches); see the class comment. Its keys must be the
     * canonicalKey of each entry's unitary. Same setup discipline as
     * attachStore.
     */
    void attachEpoch(std::shared_ptr<const PulseEpoch> epoch);

    /**
     * Attach the shared-tier read-through source (null detaches).
     * Same setup discipline as attachStore. Generators consult it via
     * tierSource() after winning a single-flight election.
     */
    void attachTier(PulseTierSource *tier);

    /** The attached tier source, or nullptr. */
    PulseTierSource *tierSource() const;

    /** Canonical string key (exposed for tests). */
    static std::string canonicalKey(const Matrix &unitary, int num_qubits);

  private:
    /**
     * One in-flight computation awaited by joiners. All fields are
     * protected by the owning cache's mutex_ (a nested struct cannot
     * name the outer instance's capability in an annotation, so the
     * contract is enforced by the four sites that touch a Flight, each
     * of which holds mutex_).
     */
    struct Flight
    {
        bool done = false;
        bool aborted = false;
        std::optional<CachedPulse> result;
        CondVar cv;
    };

    void insertLocked(const std::string &key, const Matrix &unitary,
                      int num_qubits, CachedPulse &&entry)
        PAQOC_REQUIRES(mutex_);

    /** The entry `key` resolves to: own table first, then the epoch. */
    const CachedPulse *findLocked(const std::string &key) const
        PAQOC_REQUIRES(mutex_);

    /**
     * Closest entry of the width within max_distance among own entries
     * stamped before `generation_bound` and unshadowed epoch entries;
     * distance ties break on the canonical key.
     */
    const CachedPulse *nearestLocked(const Matrix &unitary, int num_qubits,
                                     double max_distance,
                                     std::uint64_t generation_bound) const
        PAQOC_REQUIRES(mutex_);

    mutable Mutex mutex_;
    std::unordered_map<std::string, CachedPulse> entries_
        PAQOC_GUARDED_BY(mutex_);
    /** Set in single-threaded setup; the map itself never changes. */
    std::shared_ptr<const PulseEpoch> epoch_ PAQOC_GUARDED_BY(mutex_);
    std::unordered_map<std::string, std::shared_ptr<Flight>> flights_
        PAQOC_GUARDED_BY(mutex_);
    std::atomic<std::uint64_t> generation_{0};
    /** Set in single-threaded setup; read under mutex_. */
    PulseStoreSink *sink_ PAQOC_GUARDED_BY(mutex_) = nullptr;
    /** Set in single-threaded setup; reads are lock-free. */
    std::atomic<PulseTierSource *> tier_{nullptr};
};

} // namespace paqoc

#endif // PAQOC_QOC_PULSE_CACHE_H_
