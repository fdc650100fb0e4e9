#ifndef PAQOC_TIER_TIER_CLIENT_H_
#define PAQOC_TIER_TIER_CLIENT_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/circuit_breaker.h"
#include "common/json.h"
#include "common/thread_annotations.h"
#include "qoc/pulse_cache.h"
#include "service/client.h"

namespace paqoc {
namespace tier {

/** Tuning knobs of a TierClient (the `--tier-*` daemon flags). */
struct TierClientOptions
{
    /** Primary tier endpoint: socket path or host:port. Required. */
    std::string endpoint;
    /** Replica endpoint for hedged reads ("" = no hedging). */
    std::string replica;
    /**
     * Library fingerprint namespacing every get/put: a record
     * published under one backend configuration is invisible to every
     * other (same contract as the durable library on disk).
     */
    std::string fingerprint;
    /** Strict per-op deadline (connect + request + response). */
    double opTimeoutMs = 250.0;
    /**
     * How long a fetch waits on the primary before dispatching the
     * hedged read to the replica. Only meaningful with a replica.
     */
    double hedgeDelayMs = 30.0;
    /** Write-behind queue bound; overflow sheds the *oldest* entry. */
    std::size_t publishQueueCap = 256;
    /** Publisher backoff between failed attempts / idle probes. */
    double publishRetryMs = 50.0;
    /** Where quarantined fetches are rotated ("" = drop the bytes). */
    std::string quarantineDir;
    /** Quarantine rotation depth (tier-<seq % keep>.quarantine). */
    std::size_t quarantineKeep = 8;
    /** Per-endpoint circuit breaker tuning (both endpoints). */
    CircuitBreakerOptions breaker;
};

/** Cumulative tier_* counters (stats op + shutdown table). */
struct TierClientCounters
{
    std::uint64_t hits = 0;        ///< verified tier fetches served
    std::uint64_t misses = 0;      ///< tier answered "not found"
    std::uint64_t denied = 0;      ///< tier answered "poisoned key"
    std::uint64_t fetchErrors = 0; ///< transport/op failures
    std::uint64_t fetchRejected = 0; ///< skipped: breaker open
    std::uint64_t hedged = 0;      ///< replica reads dispatched
    std::uint64_t hedgeWins = 0;   ///< replica answered first
    std::uint64_t published = 0;   ///< write-behind puts stored
    std::uint64_t publishErrors = 0;
    std::uint64_t publishRejected = 0; ///< skipped: breaker open
    std::uint64_t publishDenied = 0;   ///< tier refused: poisoned key
    std::uint64_t shed = 0;        ///< queue overflow, oldest dropped
    std::uint64_t quarantined = 0; ///< corrupt fetches rotated aside
    std::uint64_t resyncs = 0;     ///< anti-entropy rounds after heal
};

/**
 * Client side of the shared pulse-cache tier (DESIGN.md §14): the
 * fault-isolated third cache level behind the in-memory epoch and the
 * local journal. Implements both cache-miss interfaces:
 *
 *   PulseTierSource  read-through: the single-flight leader calls
 *                    fetch() before computing; a verified record is
 *                    published like a locally derived pulse.
 *   PulseStoreSink   write-behind: the durable library forwards every
 *                    fresh local derivation here; a background thread
 *                    publishes it to the tier without ever blocking
 *                    or failing a compile.
 *
 * Fault isolation, in order of defense:
 *
 *   - per-endpoint circuit breaker: a flapping tier is skipped
 *     entirely until a cooldown probe succeeds;
 *   - strict per-op deadline (opTimeoutMs) on every network call;
 *   - hedged reads: a replica is asked after hedgeDelayMs when the
 *     primary is slow, and the first answer wins;
 *   - verification of every fetched record (CRC32, payload decode,
 *     key match) with quarantine + upstream tier_deny on failure;
 *   - bounded publish queue that sheds oldest instead of blocking;
 *   - anti-entropy resync: when the breaker closes after having been
 *     open, everything the library holds is re-published, healing the
 *     tier from the partition.
 *
 * Every failure path returns nullopt ("compute locally"), so with the
 * tier down, flapping, or lying, payloads stay byte-identical to a
 * tierless daemon -- the tier is strictly an accelerator.
 *
 * Failpoints: tier.connect, tier.fetch, tier.publish, tier.corrupt,
 * tier.stall (primary leg only; delay-ms models a slow primary that
 * hedging beats).
 */
class TierClient : public PulseTierSource, public PulseStoreSink
{
  public:
    explicit TierClient(TierClientOptions options);
    ~TierClient() override;

    TierClient(const TierClient &) = delete;
    TierClient &operator=(const TierClient &) = delete;

    /**
     * PulseTierSource: hedged, verified read-through. Never throws.
     * Deadline-aware (DESIGN.md §15): a cancelled token skips the
     * tier outright, and a remaining deadline that cannot fund one
     * full tier op (opTimeoutMs) skips it too -- per-leg socket
     * timeouts are fixed at connect time, so the only honest way to
     * respect a tight budget is not to start the op. Both skips count
     * as fetchRejected and mean "compute locally". A null token
     * means no deadline.
     */
    std::optional<CachedPulse>
    fetch(const std::string &key, const CancelToken *cancel) override;

    /** PulseStoreSink: enqueue for write-behind. Never blocks. */
    void onInsert(const std::string &key,
                  const CachedPulse &entry) override;

    /**
     * Anti-entropy source: returns the library's live entries so a
     * heal-after-partition resync can re-publish everything (degraded
     * entries are skipped). Set during single-threaded setup.
     */
    using ResyncSource = std::function<std::vector<CachedPulse>()>;
    void setResyncSource(ResyncSource source);

    /**
     * Wait (bounded) for the publish queue to drain; returns whether
     * it did. Graceful-shutdown path -- a dead tier just times out.
     */
    bool flush(double timeout_ms);

    /** Stop the background threads. Idempotent; destructor calls it. */
    void stop();

    TierClientCounters counters() const;
    /** Primary breaker state name ("closed"/"open"/"half-open"). */
    const char *breakerStateName();
    /** tier_* counters + breaker state, embedded in the stats op. */
    Json statsJson();

  private:
    /** One endpoint: breaker + a serialized lazy connection. */
    struct Leg
    {
        std::string target;
        CircuitBreaker breaker;
        Mutex mutex;
        std::unique_ptr<ServiceClient> conn PAQOC_GUARDED_BY(mutex);

        Leg(std::string t, const CircuitBreakerOptions &opts)
            : target(std::move(t)), breaker(opts) {}
    };

    /** What one endpoint answered for a tier_get. */
    struct LegResult
    {
        enum class Status
        {
            Hit,      ///< record returned (still unverified)
            Miss,     ///< endpoint is healthy but has no record
            Denied,   ///< poisoned key -- do not retry anywhere
            Rejected, ///< breaker open, no network attempt made
            Error,    ///< transport/op failure
        };
        Status status = Status::Error;
        std::string recordHex;
        double crc = -1.0;
    };

    struct HedgeJob
    {
        std::string key;
        Mutex mutex;
        CondVar cv;
        bool done PAQOC_GUARDED_BY(mutex) = false;
        LegResult result PAQOC_GUARDED_BY(mutex);
    };

    struct PublishItem
    {
        std::string key;
        std::string record; ///< encodePulseRecord bytes
    };

    /** One tier_get against one endpoint, breaker-gated. */
    LegResult legFetch(Leg &leg, const std::string &key,
                       bool primary_leg);
    /** (Re)connect `leg.conn`; false leaves *why populated. */
    bool ensureConnLocked(Leg &leg, std::string *why)
        PAQOC_REQUIRES(leg.mutex);
    /** Verify a Hit end to end; quarantines on any failure. */
    std::optional<CachedPulse> verifyRecord(const std::string &key,
                                            const LegResult &result);
    /** Rotate corrupt bytes aside + best-effort upstream tier_deny. */
    void quarantine(const std::string &key, const std::string &bytes,
                    const std::string &reason);
    void hedgeWorkerLoop();
    void publisherLoop();
    /** One publish attempt; true consumes the item (even on denial). */
    bool publishOne(const PublishItem &item);
    /** Idle-time breaker probe (ping) while waiting to resync. */
    void probeIdle();
    /** Heal-after-partition: re-publish everything once Closed. */
    void maybeResync();
    void noteBreakerState();

    TierClientOptions options_;
    Leg primary_;
    std::unique_ptr<Leg> replica_; ///< null when no replica configured

    // Hedge worker: one outstanding primary read at a time; when the
    // slot is busy a concurrent fetch simply runs sequentially.
    std::thread hedgeWorker_;
    Mutex hedgeMutex_;
    CondVar hedgeCv_;
    std::shared_ptr<HedgeJob> hedgeJob_ PAQOC_GUARDED_BY(hedgeMutex_);
    bool hedgeStopping_ PAQOC_GUARDED_BY(hedgeMutex_) = false;

    // Write-behind publisher.
    std::thread publisher_;
    Mutex pubMutex_;
    CondVar pubCv_;
    std::deque<PublishItem> queue_ PAQOC_GUARDED_BY(pubMutex_);
    bool pubInFlight_ PAQOC_GUARDED_BY(pubMutex_) = false;
    bool pubStopping_ PAQOC_GUARDED_BY(pubMutex_) = false;
    /** Publisher's private connection (publisher thread only). */
    std::unique_ptr<ServiceClient> pubConn_;
    /** Breaker was seen Open; a later Closed triggers a resync. */
    bool sawOpen_ PAQOC_GUARDED_BY(pubMutex_) = false;
    ResyncSource resyncSource_;

    mutable Mutex countersMutex_;
    TierClientCounters counters_ PAQOC_GUARDED_BY(countersMutex_);
    std::uint64_t quarantineSeq_ PAQOC_GUARDED_BY(countersMutex_) = 0;

    bool stopped_ = false;
};

} // namespace tier
} // namespace paqoc

#endif // PAQOC_TIER_TIER_CLIENT_H_
