#include "tier/tier_client.h"

#include <chrono>
#include <filesystem>
#include <fstream>

#include "common/failpoint.h"
#include "store/crc32.h"
#include "store/pulse_library.h"
#include "tier/tier_protocol.h"

namespace paqoc {
namespace tier {

namespace {

ClientOptions
clientOptions(const TierClientOptions &options)
{
    ClientOptions out;
    out.retries = 0; // the breaker owns retry policy, not the socket
    out.timeoutMs = options.opTimeoutMs;
    return out;
}

/** True when an armed failpoint should fail this call site. DelayMs
 *  already slept inside evaluate() and means "proceed slowly". */
bool
injectedFailure(const char *point)
{
    const failpoint::Hit hit = failpoint::evaluate(point);
    return hit.action != failpoint::Action::Off
        && hit.action != failpoint::Action::DelayMs;
}

Json
breakerToJson(CircuitBreaker &breaker)
{
    const CircuitBreaker::Counters c = breaker.counters();
    Json out = Json::object();
    out.set("state",
            Json(CircuitBreaker::stateName(breaker.state())));
    out.set("opened", Json(c.opened));
    out.set("half_opened", Json(c.halfOpened));
    out.set("closed", Json(c.closed));
    out.set("allowed", Json(c.allowed));
    out.set("rejected", Json(c.rejected));
    return out;
}

} // namespace

TierClient::TierClient(TierClientOptions options)
    : options_(std::move(options)),
      primary_(options_.endpoint, options_.breaker)
{
    if (!options_.replica.empty())
        replica_ =
            std::make_unique<Leg>(options_.replica, options_.breaker);
    if (!options_.quarantineDir.empty()) {
        // Recursive and best-effort: the client may be constructed
        // before anything has created the library directory above it.
        std::error_code ec;
        std::filesystem::create_directories(options_.quarantineDir,
                                            ec);
    }
    publisher_ = std::thread([this]() { publisherLoop(); });
    if (replica_)
        hedgeWorker_ = std::thread([this]() { hedgeWorkerLoop(); });
}

TierClient::~TierClient()
{
    stop();
}

void
TierClient::stop()
{
    if (stopped_)
        return;
    stopped_ = true;
    {
        MutexLock lock(hedgeMutex_);
        hedgeStopping_ = true;
        hedgeCv_.notify_all();
    }
    {
        MutexLock lock(pubMutex_);
        pubStopping_ = true;
        pubCv_.notify_all();
    }
    if (hedgeWorker_.joinable())
        hedgeWorker_.join();
    if (publisher_.joinable())
        publisher_.join();
    {
        MutexLock lock(primary_.mutex);
        primary_.conn.reset();
    }
    if (replica_) {
        MutexLock lock(replica_->mutex);
        replica_->conn.reset();
    }
    pubConn_.reset();
}

bool
TierClient::ensureConnLocked(Leg &leg, std::string *why)
{
    if (leg.conn)
        return true;
    try {
        leg.conn = std::make_unique<ServiceClient>(
            leg.target, clientOptions(options_));
        return true;
    } catch (const FatalError &e) {
        *why = e.what();
        return false;
    }
}

TierClient::LegResult
TierClient::legFetch(Leg &leg, const std::string &key, bool primary_leg)
{
    LegResult out;
    if (!leg.breaker.allow()) {
        out.status = LegResult::Status::Rejected;
        return out;
    }
    // tier.stall models a slow (not dead) primary -- the case hedged
    // reads exist for. Armed with delay-ms it sleeps inside evaluate
    // while the replica leg races ahead.
    if (primary_leg && injectedFailure("tier.stall")) {
        leg.breaker.onFailure();
        return out;
    }
    if (injectedFailure("tier.connect")
        || injectedFailure("tier.fetch")) {
        leg.breaker.onFailure();
        return out;
    }

    Json response;
    {
        MutexLock lock(leg.mutex);
        std::string why;
        if (!ensureConnLocked(leg, &why)) {
            leg.breaker.onFailure();
            return out;
        }
        Json request = Json::object();
        request.set("op", Json("tier_get"));
        request.set("fingerprint", Json(options_.fingerprint));
        request.set("key", Json(key));
        try {
            response = leg.conn->request(request);
        } catch (const FatalError &) {
            // Transport failure or a wedged socket timing out: the
            // connection's framing state is unknown, drop it.
            leg.conn.reset();
            leg.breaker.onFailure();
            return out;
        }
    }
    if (!response.get("ok", Json(false)).asBool()) {
        leg.breaker.onFailure();
        return out;
    }
    leg.breaker.onSuccess();
    Json payload = response.get("payload", Json::object());
    if (payload.get("denied", Json(false)).asBool()) {
        out.status = LegResult::Status::Denied;
        return out;
    }
    if (!payload.get("found", Json(false)).asBool()) {
        out.status = LegResult::Status::Miss;
        return out;
    }
    out.recordHex =
        payload.get("record", Json(std::string())).asString();
    out.crc = payload.get("crc", Json(-1.0)).asNumber();
    out.status = LegResult::Status::Hit;
    return out;
}

std::optional<CachedPulse>
TierClient::fetch(const std::string &key, const CancelToken *cancel)
{
    if (cancel != nullptr
        && (cancel->cancelled()
            || cancel->remainingMs() < options_.opTimeoutMs)) {
        // Cancelled, or the deadline cannot fund a full tier op: the
        // leg sockets carry fixed timeouts, so starting an op we
        // cannot finish in budget would only burn the caller's
        // remaining time. Skip straight to local compute.
        MutexLock lock(countersMutex_);
        ++counters_.fetchRejected;
        return std::nullopt;
    }
    try {
        LegResult result;

        // Dispatch the primary read to the hedge worker when a
        // replica exists and the slot is free; otherwise read
        // sequentially (primary, then replica as pure failover).
        std::shared_ptr<HedgeJob> job;
        if (replica_) {
            MutexLock lock(hedgeMutex_);
            if (hedgeWorker_.joinable() && hedgeJob_ == nullptr
                && !hedgeStopping_) {
                job = std::make_shared<HedgeJob>();
                job->key = key;
                hedgeJob_ = job;
                hedgeCv_.notify_all();
            }
        }
        if (job) {
            bool primary_done = false;
            {
                MutexLock lock(job->mutex);
                if (!job->done)
                    job->cv.wait_for(
                        job->mutex,
                        std::chrono::duration<double, std::milli>(
                            options_.hedgeDelayMs));
                primary_done = job->done;
                if (primary_done)
                    result = job->result;
            }
            if (!primary_done) {
                // Primary is slow: hedge to the replica. First
                // answer wins; the worker finishes in the background
                // (the shared_ptr keeps the job alive).
                {
                    MutexLock lock(countersMutex_);
                    ++counters_.hedged;
                }
                const LegResult hedge =
                    legFetch(*replica_, key, false);
                if (hedge.status == LegResult::Status::Hit) {
                    MutexLock lock(countersMutex_);
                    ++counters_.hedgeWins;
                    result = hedge;
                } else {
                    MutexLock lock(job->mutex);
                    while (!job->done)
                        job->cv.wait(job->mutex);
                    result = job->result;
                    // A definitive replica answer beats a primary
                    // transport failure.
                    if ((result.status == LegResult::Status::Error
                         || result.status
                             == LegResult::Status::Rejected)
                        && (hedge.status == LegResult::Status::Miss
                            || hedge.status
                                == LegResult::Status::Denied))
                        result = hedge;
                }
            }
        } else {
            result = legFetch(primary_, key, true);
            if (replica_
                && (result.status == LegResult::Status::Error
                    || result.status == LegResult::Status::Rejected)) {
                const LegResult failover =
                    legFetch(*replica_, key, false);
                if (failover.status != LegResult::Status::Error
                    && failover.status != LegResult::Status::Rejected)
                    result = failover;
            }
        }

        switch (result.status) {
        case LegResult::Status::Hit: {
            std::optional<CachedPulse> entry =
                verifyRecord(key, result);
            if (entry.has_value()) {
                MutexLock lock(countersMutex_);
                ++counters_.hits;
            }
            // verifyRecord already counted + quarantined a failure;
            // nullopt means "compute locally" either way.
            return entry;
        }
        case LegResult::Status::Miss: {
            MutexLock lock(countersMutex_);
            ++counters_.misses;
            return std::nullopt;
        }
        case LegResult::Status::Denied: {
            MutexLock lock(countersMutex_);
            ++counters_.denied;
            return std::nullopt;
        }
        case LegResult::Status::Rejected: {
            MutexLock lock(countersMutex_);
            ++counters_.fetchRejected;
            return std::nullopt;
        }
        case LegResult::Status::Error:
            break;
        }
        {
            MutexLock lock(countersMutex_);
            ++counters_.fetchErrors;
        }
        return std::nullopt;
    } catch (...) {
        // fetch() must never throw into a compile; any surprise is
        // just a miss.
        MutexLock lock(countersMutex_);
        ++counters_.fetchErrors;
        return std::nullopt;
    }
}

std::optional<CachedPulse>
TierClient::verifyRecord(const std::string &key,
                         const LegResult &result)
{
    std::optional<std::string> bytes = hexDecode(result.recordHex);
    if (!bytes.has_value()) {
        quarantine(key, result.recordHex, "undecodable hex");
        return std::nullopt;
    }
    // tier.corrupt models a lying tier: flip one byte after the
    // transport delivered the record intact.
    if (failpoint::evaluate("tier.corrupt").action
            != failpoint::Action::Off
        && !bytes->empty()) {
        const std::size_t at = bytes->size() / 2;
        (*bytes)[at] = static_cast<char>((*bytes)[at] ^ 0x01);
    }
    if (static_cast<double>(crc32(bytes->data(), bytes->size()))
        != result.crc) {
        quarantine(key, *bytes, "crc mismatch");
        return std::nullopt;
    }
    std::optional<std::pair<std::string, CachedPulse>> decoded =
        decodePulseRecord(*bytes);
    if (!decoded.has_value()) {
        quarantine(key, *bytes, "undecodable record");
        return std::nullopt;
    }
    if (decoded->first != key) {
        quarantine(key, *bytes, "key mismatch");
        return std::nullopt;
    }
    if (decoded->second.degraded) {
        quarantine(key, *bytes, "degraded entry");
        return std::nullopt;
    }
    CachedPulse entry = std::move(decoded->second);
    entry.generation = 0; // re-stamped by completeFlight's insert
    entry.fromTier = true;
    return entry;
}

void
TierClient::quarantine(const std::string &key,
                       const std::string &bytes,
                       const std::string &reason)
{
    std::uint64_t seq = 0;
    {
        MutexLock lock(countersMutex_);
        ++counters_.quarantined;
        seq = quarantineSeq_++;
    }
    if (!options_.quarantineDir.empty()
        && options_.quarantineKeep > 0) {
        // Deterministic rotation: tier-<seq % keep>.quarantine, so
        // chaos runs can assert exact filenames and the directory
        // stays bounded no matter how long the tier lies.
        const std::string path = options_.quarantineDir + "/tier-"
            + std::to_string(seq % options_.quarantineKeep)
            + ".quarantine";
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        if (out.is_open())
            out << bytes;
    }
    // Best-effort upstream denial: poison the key on the tier so no
    // client (including this one) ever re-fetches the bad bytes.
    if (!primary_.breaker.allow())
        return;
    MutexLock lock(primary_.mutex);
    std::string why;
    if (!ensureConnLocked(primary_, &why)) {
        primary_.breaker.onFailure();
        return;
    }
    Json request = Json::object();
    request.set("op", Json("tier_deny"));
    request.set("fingerprint", Json(options_.fingerprint));
    request.set("key", Json(key));
    request.set("reason", Json(reason));
    try {
        const Json response = primary_.conn->request(request);
        if (response.get("ok", Json(false)).asBool())
            primary_.breaker.onSuccess();
        else
            primary_.breaker.onFailure();
    } catch (const FatalError &) {
        primary_.conn.reset();
        primary_.breaker.onFailure();
    }
}

void
TierClient::hedgeWorkerLoop()
{
    while (true) {
        std::shared_ptr<HedgeJob> job;
        bool stopping = false;
        {
            MutexLock lock(hedgeMutex_);
            while (hedgeJob_ == nullptr && !hedgeStopping_)
                hedgeCv_.wait(hedgeMutex_);
            job = hedgeJob_;
            stopping = hedgeStopping_;
            if (job == nullptr)
                return; // stopping with nothing pending
        }
        LegResult result;
        if (!stopping)
            result = legFetch(primary_, job->key, true);
        {
            // A stopping worker still completes the job (as an
            // error) so no fetch() ever blocks on an abandoned slot.
            MutexLock lock(job->mutex);
            job->result = result;
            job->done = true;
            job->cv.notify_all();
        }
        {
            MutexLock lock(hedgeMutex_);
            hedgeJob_.reset();
            if (hedgeStopping_)
                return;
        }
    }
}

void
TierClient::onInsert(const std::string &key, const CachedPulse &entry)
{
    // The library already filters these, but the client may also be
    // attached directly to an in-memory cache -- keep the contract
    // local: never publish degraded pulses or the tier's own entries.
    if (entry.degraded || entry.fromTier)
        return;
    PublishItem item;
    item.key = key;
    item.record = encodePulseRecord(key, entry);
    MutexLock lock(pubMutex_);
    if (pubStopping_)
        return;
    queue_.push_back(std::move(item));
    if (queue_.size() > options_.publishQueueCap) {
        // Shed the *oldest*: fresh derivations are likelier to be
        // re-requested, and a blocked compile is never an option.
        queue_.pop_front();
        MutexLock counters_lock(countersMutex_);
        ++counters_.shed;
    }
    pubCv_.notify_all();
}

void
TierClient::setResyncSource(ResyncSource source)
{
    resyncSource_ = std::move(source);
}

void
TierClient::publisherLoop()
{
    while (true) {
        PublishItem item;
        bool have = false;
        {
            MutexLock lock(pubMutex_);
            if (queue_.empty() && !pubStopping_) {
                // Timed idle wait: wake to probe a healing breaker
                // and poll for the post-partition resync.
                pubCv_.wait_for(
                    pubMutex_,
                    std::chrono::duration<double, std::milli>(
                        options_.publishRetryMs));
            }
            if (pubStopping_)
                return;
            if (!queue_.empty()) {
                item = std::move(queue_.front());
                queue_.pop_front();
                pubInFlight_ = true;
                have = true;
            }
        }
        bool consumed = true;
        if (have)
            consumed = publishOne(item);
        else
            probeIdle();
        noteBreakerState();
        maybeResync();
        {
            MutexLock lock(pubMutex_);
            pubInFlight_ = false;
            if (have && !consumed)
                queue_.push_front(std::move(item));
            pubCv_.notify_all();
            if (have && !consumed && !pubStopping_) {
                // Backoff after a failed attempt so a dead tier is
                // probed at publishRetryMs, not hammered.
                pubCv_.wait_for(
                    pubMutex_,
                    std::chrono::duration<double, std::milli>(
                        options_.publishRetryMs));
            }
        }
    }
}

bool
TierClient::publishOne(const PublishItem &item)
{
    if (!primary_.breaker.allow()) {
        MutexLock lock(countersMutex_);
        ++counters_.publishRejected;
        return false;
    }
    if (injectedFailure("tier.connect")
        || injectedFailure("tier.publish")) {
        primary_.breaker.onFailure();
        MutexLock lock(countersMutex_);
        ++counters_.publishErrors;
        return false;
    }
    if (!pubConn_) {
        try {
            pubConn_ = std::make_unique<ServiceClient>(
                primary_.target, clientOptions(options_));
        } catch (const FatalError &) {
            primary_.breaker.onFailure();
            MutexLock lock(countersMutex_);
            ++counters_.publishErrors;
            return false;
        }
    }
    Json request = Json::object();
    request.set("op", Json("tier_put"));
    request.set("fingerprint", Json(options_.fingerprint));
    request.set("key", Json(item.key));
    request.set("record", Json(hexEncode(item.record)));
    request.set("crc",
                Json(static_cast<double>(crc32(item.record.data(),
                                               item.record.size()))));
    Json response;
    try {
        response = pubConn_->request(request);
    } catch (const FatalError &) {
        pubConn_.reset();
        primary_.breaker.onFailure();
        MutexLock lock(countersMutex_);
        ++counters_.publishErrors;
        return false;
    }
    if (!response.get("ok", Json(false)).asBool()) {
        // The tier answered (transport is healthy) but refused the
        // record -- e.g. its CRC check failed in flight. Retrying the
        // same bytes forever would wedge the queue; count and drop.
        primary_.breaker.onSuccess();
        MutexLock lock(countersMutex_);
        ++counters_.publishErrors;
        return true;
    }
    primary_.breaker.onSuccess();
    Json payload = response.get("payload", Json::object());
    MutexLock lock(countersMutex_);
    if (payload.get("denied", Json(false)).asBool())
        ++counters_.publishDenied;
    else
        ++counters_.published;
    return true;
}

void
TierClient::probeIdle()
{
    {
        MutexLock lock(pubMutex_);
        if (!sawOpen_)
            return; // healthy and idle: no probe traffic
    }
    if (!primary_.breaker.allow())
        return;
    if (injectedFailure("tier.connect")) {
        primary_.breaker.onFailure();
        return;
    }
    if (!pubConn_) {
        try {
            pubConn_ = std::make_unique<ServiceClient>(
                primary_.target, clientOptions(options_));
        } catch (const FatalError &) {
            primary_.breaker.onFailure();
            return;
        }
    }
    Json request = Json::object();
    request.set("op", Json("ping"));
    try {
        const Json response = pubConn_->request(request);
        if (response.get("ok", Json(false)).asBool())
            primary_.breaker.onSuccess();
        else
            primary_.breaker.onFailure();
    } catch (const FatalError &) {
        pubConn_.reset();
        primary_.breaker.onFailure();
    }
}

void
TierClient::noteBreakerState()
{
    if (primary_.breaker.state() != CircuitBreaker::State::Open)
        return;
    MutexLock lock(pubMutex_);
    sawOpen_ = true;
}

void
TierClient::maybeResync()
{
    {
        MutexLock lock(pubMutex_);
        if (!sawOpen_)
            return;
    }
    if (primary_.breaker.state() != CircuitBreaker::State::Closed)
        return;
    // The partition healed (Open -> probe -> Closed): re-publish
    // everything the library holds so the tier catches up on what it
    // missed (anti-entropy, DESIGN.md §14).
    std::vector<CachedPulse> entries;
    if (resyncSource_)
        entries = resyncSource_();
    {
        MutexLock lock(pubMutex_);
        sawOpen_ = false;
        for (const CachedPulse &entry : entries) {
            if (entry.degraded)
                continue;
            PublishItem item;
            item.key = PulseCache::canonicalKey(entry.unitary,
                                                entry.numQubits);
            item.record = encodePulseRecord(item.key, entry);
            queue_.push_back(std::move(item));
            if (queue_.size() > options_.publishQueueCap) {
                queue_.pop_front();
                MutexLock counters_lock(countersMutex_);
                ++counters_.shed;
            }
        }
        pubCv_.notify_all();
    }
    MutexLock lock(countersMutex_);
    ++counters_.resyncs;
}

bool
TierClient::flush(double timeout_ms)
{
    // Chunked timed waits instead of a wall-clock deadline: the
    // publisher notifies on every state change, and tier code never
    // reads clocks near serialization sinks (determinism-taint).
    const int chunk_ms = 10;
    int rounds = timeout_ms <= 0.0
        ? 0
        : static_cast<int>(timeout_ms / chunk_ms) + 1;
    MutexLock lock(pubMutex_);
    while ((!queue_.empty() || pubInFlight_) && !pubStopping_
           && rounds-- > 0)
        pubCv_.wait_for(pubMutex_,
                        std::chrono::milliseconds(chunk_ms));
    return queue_.empty() && !pubInFlight_;
}

TierClientCounters
TierClient::counters() const
{
    MutexLock lock(countersMutex_);
    return counters_;
}

const char *
TierClient::breakerStateName()
{
    return CircuitBreaker::stateName(primary_.breaker.state());
}

Json
TierClient::statsJson()
{
    const TierClientCounters c = counters();
    std::size_t depth = 0;
    {
        MutexLock lock(pubMutex_);
        depth = queue_.size();
    }
    Json out = Json::object();
    out.set("endpoint", Json(options_.endpoint));
    if (replica_)
        out.set("replica", Json(options_.replica));
    out.set("hits", Json(c.hits));
    out.set("misses", Json(c.misses));
    out.set("denied", Json(c.denied));
    out.set("fetch_errors", Json(c.fetchErrors));
    out.set("fetch_rejected", Json(c.fetchRejected));
    out.set("hedged", Json(c.hedged));
    out.set("hedge_wins", Json(c.hedgeWins));
    out.set("published", Json(c.published));
    out.set("publish_errors", Json(c.publishErrors));
    out.set("publish_rejected", Json(c.publishRejected));
    out.set("publish_denied", Json(c.publishDenied));
    out.set("shed", Json(c.shed));
    out.set("queue_depth", Json(depth));
    out.set("quarantined", Json(c.quarantined));
    out.set("resyncs", Json(c.resyncs));
    out.set("breaker", breakerToJson(primary_.breaker));
    if (replica_)
        out.set("replica_breaker", breakerToJson(replica_->breaker));
    return out;
}

} // namespace tier
} // namespace paqoc
