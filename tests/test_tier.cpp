/**
 * @file
 * Tests for the fault-isolated shared pulse-cache tier (DESIGN.md
 * §14): the circuit breaker, the hex/record codecs, the journaled
 * TierStore, the TierServer socket front end, the TierClient
 * (read-through, write-behind, hedged reads, quarantine, anti-entropy
 * resync), and the service-level contract that payloads stay
 * byte-identical to a tierless daemon under every tier fault. Every
 * suite name starts with "Tier" so the CI chaos lane can select the
 * lot with `ctest -R '^Tier'`.
 */

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "circuit/gate.h"
#include "common/circuit_breaker.h"
#include "common/failpoint.h"
#include "common/json.h"
#include "qoc/pulse_cache.h"
#include "service/client.h"
#include "service/service.h"
#include "store/crc32.h"
#include "store/journal.h"
#include "store/pulse_library.h"
#include "tier/tier_client.h"
#include "tier/tier_protocol.h"
#include "tier/tier_server.h"
#include "tier/tier_store.h"

namespace paqoc {
namespace {

namespace fp = failpoint;

/**
 * Every test arms points through one of these so a failing assertion
 * can never leak an armed failpoint into the next test.
 */
struct FailpointGuard
{
    FailpointGuard() { fp::disarmAll(); }
    ~FailpointGuard() { fp::disarmAll(); }
};

std::string
scratchDir(const std::string &name)
{
    const std::string dir = "/tmp/paqoc_test_tier_" + name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

/** A healthy (non-degraded) cache entry for `unitary`. */
CachedPulse
makeEntry(const Matrix &unitary, int num_qubits, double latency)
{
    CachedPulse entry;
    entry.unitary = unitary;
    entry.numQubits = num_qubits;
    entry.latency = latency;
    entry.error = 1e-3;
    entry.schedule.fidelity = 0.999;
    entry.schedule.amplitudes = {{0.1, -0.2}, {0.3, 0.4}};
    return entry;
}

/** An in-process tier daemon on a scratch unix socket. */
struct TierFixture
{
    std::string dir;
    tier::TierStore store;
    tier::TierServer server;

    explicit TierFixture(const std::string &name)
        : dir(scratchDir(name)), store(dir + "/store"),
          server(store, serverOptions(dir + "/t.sock"))
    {
        server.start();
    }

    ~TierFixture() { server.stop(); }

    std::string socket() const { return dir + "/t.sock"; }

    static tier::TierServerOptions
    serverOptions(const std::string &socket)
    {
        tier::TierServerOptions opts;
        opts.socketPath = socket;
        return opts;
    }

    /** One raw op against the daemon, fresh connection. */
    Json
    rawRequest(const Json &request)
    {
        ServiceClient client(socket());
        return client.request(request);
    }
};

Json
tierGetRequest(const std::string &fingerprint, const std::string &key)
{
    Json r = Json::object();
    r.set("op", Json("tier_get"));
    r.set("fingerprint", Json(fingerprint));
    r.set("key", Json(key));
    return r;
}

Json
tierPutRequest(const std::string &fingerprint, const std::string &key,
               const std::string &record, double crc)
{
    Json r = Json::object();
    r.set("op", Json("tier_put"));
    r.set("fingerprint", Json(fingerprint));
    r.set("key", Json(key));
    r.set("record", Json(tier::hexEncode(record)));
    r.set("crc", Json(crc));
    return r;
}

// ---------------------------------------------------------------------
// Circuit breaker: the per-endpoint fault-isolation valve.
// ---------------------------------------------------------------------

CircuitBreakerOptions
smallBreaker()
{
    CircuitBreakerOptions opts;
    opts.windowSize = 4;
    opts.minSamples = 4;
    opts.failureRateToOpen = 0.5;
    opts.cooldownMs = 100.0;
    opts.halfOpenProbes = 1;
    return opts;
}

TEST(TierBreaker, ColdBreakerStaysClosedBelowMinSamples)
{
    double now = 0.0;
    CircuitBreaker breaker(smallBreaker(), [&]() { return now; });
    for (int i = 0; i < 3; ++i) {
        ASSERT_TRUE(breaker.allow());
        breaker.onFailure();
    }
    // 3 failures out of 3, but minSamples is 4: a cold endpoint must
    // not be written off on its very first hiccups.
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::Closed);
    EXPECT_TRUE(breaker.allow());
}

TEST(TierBreaker, OpensAtFailureRateAndRejectsWithoutNetwork)
{
    double now = 0.0;
    CircuitBreaker breaker(smallBreaker(), [&]() { return now; });
    ASSERT_TRUE(breaker.allow());
    breaker.onSuccess();
    ASSERT_TRUE(breaker.allow());
    breaker.onSuccess();
    ASSERT_TRUE(breaker.allow());
    breaker.onFailure();
    ASSERT_TRUE(breaker.allow());
    breaker.onFailure(); // 2 of 4 failed = failureRateToOpen
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::Open);
    EXPECT_FALSE(breaker.allow());
    EXPECT_FALSE(breaker.allow());
    const CircuitBreaker::Counters c = breaker.counters();
    EXPECT_EQ(c.opened, 1u);
    EXPECT_EQ(c.rejected, 2u);
}

TEST(TierBreaker, CooldownProbesHalfOpenAndSuccessCloses)
{
    double now = 0.0;
    CircuitBreaker breaker(smallBreaker(), [&]() { return now; });
    for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(breaker.allow());
        breaker.onFailure();
    }
    ASSERT_EQ(breaker.state(), CircuitBreaker::State::Open);
    EXPECT_FALSE(breaker.allow());

    now = 150.0; // past cooldownMs
    EXPECT_TRUE(breaker.allow()); // the probe
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::HalfOpen);
    // Only halfOpenProbes=1 concurrent probe is admitted.
    EXPECT_FALSE(breaker.allow());
    breaker.onSuccess();
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::Closed);
    EXPECT_TRUE(breaker.allow());
    const CircuitBreaker::Counters c = breaker.counters();
    EXPECT_EQ(c.halfOpened, 1u);
    EXPECT_EQ(c.closed, 1u);
}

TEST(TierBreaker, HalfOpenProbeFailureReopensForAnotherCooldown)
{
    double now = 0.0;
    CircuitBreaker breaker(smallBreaker(), [&]() { return now; });
    for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(breaker.allow());
        breaker.onFailure();
    }
    now = 150.0;
    ASSERT_TRUE(breaker.allow());
    breaker.onFailure(); // probe failed: back to Open
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::Open);
    EXPECT_FALSE(breaker.allow());
    // The *new* cooldown runs from the re-open, not the first one.
    now = 200.0;
    EXPECT_FALSE(breaker.allow());
    now = 260.0;
    EXPECT_TRUE(breaker.allow());
    breaker.onSuccess();
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::Closed);
    EXPECT_EQ(breaker.counters().opened, 2u);
}

TEST(TierBreaker, StateNamesMatchStatsVocabulary)
{
    EXPECT_STREQ(
        CircuitBreaker::stateName(CircuitBreaker::State::Closed),
        "closed");
    EXPECT_STREQ(
        CircuitBreaker::stateName(CircuitBreaker::State::Open),
        "open");
    EXPECT_STREQ(
        CircuitBreaker::stateName(CircuitBreaker::State::HalfOpen),
        "half-open");
}

// ---------------------------------------------------------------------
// Wire codecs: hex and the tier journal record.
// ---------------------------------------------------------------------

TEST(TierHex, RoundTripsEveryByteValue)
{
    std::string bytes;
    for (int b = 0; b < 256; ++b)
        bytes.push_back(static_cast<char>(b));
    const std::string hex = tier::hexEncode(bytes);
    EXPECT_EQ(hex.size(), bytes.size() * 2);
    const std::optional<std::string> back = tier::hexDecode(hex);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, bytes);
    EXPECT_EQ(tier::hexEncode(""), "");
}

TEST(TierHex, RejectsMalformedText)
{
    EXPECT_FALSE(tier::hexDecode("abc").has_value());  // odd length
    EXPECT_FALSE(tier::hexDecode("0g").has_value());   // non-hex digit
    EXPECT_FALSE(tier::hexDecode("zz").has_value());
    EXPECT_FALSE(tier::hexDecode("12 4").has_value()); // embedded space
    ASSERT_TRUE(tier::hexDecode("").has_value());
    EXPECT_TRUE(tier::hexDecode("")->empty());
}

TEST(TierRecordCodec, RoundTripsPutAndDenyPayloads)
{
    const std::string put =
        tier::encodeTierRecord(1, "fp-a", "key-1", "record bytes");
    std::optional<tier::TierRecord> rec = tier::decodeTierRecord(put);
    ASSERT_TRUE(rec.has_value());
    EXPECT_EQ(rec->type, 1);
    EXPECT_EQ(rec->fingerprint, "fp-a");
    EXPECT_EQ(rec->key, "key-1");
    EXPECT_EQ(rec->record, "record bytes");

    const std::string deny =
        tier::encodeTierRecord(2, "fp-a", "key-1", "crc mismatch");
    rec = tier::decodeTierRecord(deny);
    ASSERT_TRUE(rec.has_value());
    EXPECT_EQ(rec->type, 2);
    EXPECT_EQ(rec->record, "crc mismatch");
}

TEST(TierRecordCodec, RejectsEveryTruncationAndTrailingJunk)
{
    const std::string payload =
        tier::encodeTierRecord(1, "fp", "some-key", "some record");
    for (std::size_t cut = 0; cut < payload.size(); ++cut)
        EXPECT_FALSE(
            tier::decodeTierRecord(payload.substr(0, cut)).has_value())
            << "cut at " << cut;
    EXPECT_FALSE(tier::decodeTierRecord(payload + "x").has_value());
    // Unknown record types are rejected, not guessed at.
    EXPECT_FALSE(
        tier::decodeTierRecord(tier::encodeTierRecord(3, "fp", "k", ""))
            .has_value());
}

// ---------------------------------------------------------------------
// TierStore: the daemon's journaled state.
// ---------------------------------------------------------------------

TEST(TierStoreDurability, PutGetPersistsAcrossReopen)
{
    const std::string dir = scratchDir("store_persist");
    {
        tier::TierStore store(dir);
        EXPECT_TRUE(store.put("fp-a", "k1", "bytes-1"));
        EXPECT_TRUE(store.put("fp-a", "k2", "bytes-2"));
        EXPECT_TRUE(store.put("fp-b", "k1", "other-config"));
        EXPECT_EQ(store.size(), 3u);
        // Same fingerprint + key overwrites.
        EXPECT_TRUE(store.put("fp-a", "k1", "bytes-1-v2"));
        EXPECT_EQ(store.size(), 3u);
    }
    tier::TierStore store(dir);
    EXPECT_EQ(store.size(), 3u);
    EXPECT_EQ(store.stats().journalRecords, 4u);
    bool denied = false;
    const std::optional<std::string> got =
        store.get("fp-a", "k1", &denied);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, "bytes-1-v2");
    EXPECT_FALSE(denied);
    // Fingerprints namespace records: fp-b's k1 is a different entry.
    EXPECT_EQ(*store.get("fp-b", "k1"), "other-config");
    EXPECT_FALSE(store.get("fp-a", "unknown").has_value());
}

TEST(TierStoreDurability, DenyPoisonsKeyPermanently)
{
    const std::string dir = scratchDir("store_deny");
    {
        tier::TierStore store(dir);
        ASSERT_TRUE(store.put("fp", "poisoned", "bad bytes"));
        store.deny("fp", "poisoned", "crc mismatch at a client");
        // The stored record is dropped with the denial...
        bool denied = false;
        EXPECT_FALSE(store.get("fp", "poisoned", &denied).has_value());
        EXPECT_TRUE(denied);
        // ...and the key never resurrects.
        EXPECT_FALSE(store.put("fp", "poisoned", "bad bytes again"));
        EXPECT_EQ(store.stats().deniedPuts, 1u);
        EXPECT_EQ(store.stats().deniedGets, 1u);
        EXPECT_EQ(store.stats().deniedKeys, 1u);
        // Other keys under the same fingerprint are unaffected.
        EXPECT_TRUE(store.put("fp", "healthy", "good bytes"));
    }
    // Denials are journaled: the poison survives a restart.
    tier::TierStore store(dir);
    bool denied = false;
    EXPECT_FALSE(store.get("fp", "poisoned", &denied).has_value());
    EXPECT_TRUE(denied);
    EXPECT_FALSE(store.put("fp", "poisoned", "still refused"));
    EXPECT_EQ(store.size(), 1u);
    EXPECT_EQ(*store.get("fp", "healthy"), "good bytes");
}

TEST(TierStoreDurability, DeduplicatesIdenticalPuts)
{
    const std::string dir = scratchDir("store_dedup");
    {
        tier::TierStore store(dir);
        EXPECT_TRUE(store.put("fp", "k", "bytes"));
        EXPECT_TRUE(store.put("fp", "k", "bytes"));
        EXPECT_TRUE(store.put("fp", "k", "bytes"));
        EXPECT_EQ(store.stats().stored, 1u);
        EXPECT_EQ(store.stats().duplicatePuts, 2u);
    }
    // Only the one distinct record hit the journal.
    tier::TierStore store(dir);
    EXPECT_EQ(store.stats().journalRecords, 1u);
}

TEST(TierStoreDurability, RecoversCommittedPrefixAfterTornTail)
{
    const std::string dir = scratchDir("store_torn");
    {
        tier::TierStore store(dir);
        ASSERT_TRUE(store.put("fp", "k1", "first"));
        ASSERT_TRUE(store.put("fp", "k2", "second"));
        store.sync();
    }
    // Simulate kill -9 mid-append: chop bytes off the journal tail.
    const std::string journal = dir + "/tier.bin";
    const std::string bytes = readFile(journal);
    ASSERT_GT(bytes.size(), 5u);
    {
        std::ofstream out(journal,
                          std::ios::binary | std::ios::trunc);
        out << bytes.substr(0, bytes.size() - 5);
    }
    tier::TierStore store(dir);
    EXPECT_EQ(store.size(), 1u);
    EXPECT_EQ(*store.get("fp", "k1"), "first");
    EXPECT_FALSE(store.get("fp", "k2").has_value());
    EXPECT_GT(store.stats().droppedTailBytes, 0u);
    EXPECT_FALSE(store.stats().warnings.empty());
    // The reopened store is immediately appendable again.
    EXPECT_TRUE(store.put("fp", "k3", "third"));
    tier::TierStore again(dir);
    EXPECT_EQ(again.size(), 2u);
}

TEST(TierStoreDurability, RotatesForeignJournalAside)
{
    const std::string dir = scratchDir("store_foreign");
    std::filesystem::create_directories(dir);
    {
        JournalWriter w = JournalWriter::openAppend(
            dir + "/tier.bin", "some-other-fingerprint", 0);
        w.append(tier::encodeTierRecord(1, "fp", "k", "bytes"));
    }
    tier::TierStore store(dir);
    EXPECT_EQ(store.size(), 0u);
    EXPECT_FALSE(store.stats().warnings.empty());
    // The foreign file is preserved at the exact aside name.
    EXPECT_FALSE(readFile(dir + "/tier.bin.stale").empty());
    EXPECT_TRUE(store.put("fp", "k", "fresh"));
}

TEST(TierStoreDurability, DegradesToMemoryOnlyWhenJournalFails)
{
    FailpointGuard guard;
    const std::string dir = scratchDir("store_degraded");
    tier::TierStore store(dir);
    ASSERT_TRUE(store.put("fp", "before", "durable"));

    fp::arm("journal.append", "enospc");
    EXPECT_TRUE(store.put("fp", "after", "memory-only"));
    EXPECT_TRUE(store.stats().degraded);
    EXPECT_FALSE(store.stats().warnings.empty());
    // Both records still serve from memory for this process...
    EXPECT_EQ(*store.get("fp", "before"), "durable");
    EXPECT_EQ(*store.get("fp", "after"), "memory-only");
    store.sync(); // degraded sync is a no-op, not a crash
    fp::disarmAll();

    // ...but only the committed record survives a restart.
    tier::TierStore reopened(dir);
    EXPECT_EQ(reopened.size(), 1u);
    EXPECT_TRUE(reopened.get("fp", "before").has_value());
    EXPECT_FALSE(reopened.get("fp", "after").has_value());
}

// ---------------------------------------------------------------------
// TierServer: the socket front end.
// ---------------------------------------------------------------------

TEST(TierServerOps, AnswersPingOverUnixSocket)
{
    TierFixture tier("server_ping");
    Json ping = Json::object();
    ping.set("op", Json("ping"));
    const Json pong = tier.rawRequest(ping);
    EXPECT_TRUE(pong.at("ok").asBool());
    EXPECT_EQ(pong.at("payload").asString(), "pong");
}

TEST(TierServerOps, GetPutDenyRoundTripOverSocket)
{
    TierFixture tier("server_roundtrip");
    const std::string record = "pretend pulse record bytes";
    const double crc =
        static_cast<double>(crc32(record.data(), record.size()));

    // Miss first.
    Json r = tier.rawRequest(tierGetRequest("fp", "k"));
    ASSERT_TRUE(r.at("ok").asBool());
    EXPECT_FALSE(r.at("payload").at("found").asBool());
    EXPECT_FALSE(r.at("payload").at("denied").asBool());

    // Put, then hit with matching bytes + crc.
    r = tier.rawRequest(tierPutRequest("fp", "k", record, crc));
    ASSERT_TRUE(r.at("ok").asBool());
    EXPECT_TRUE(r.at("payload").at("stored").asBool());
    r = tier.rawRequest(tierGetRequest("fp", "k"));
    ASSERT_TRUE(r.at("ok").asBool());
    EXPECT_TRUE(r.at("payload").at("found").asBool());
    Json payload = r.at("payload");
    const std::optional<std::string> got =
        tier::hexDecode(payload.at("record").asString());
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, record);
    EXPECT_EQ(payload.at("crc").asNumber(), crc);

    // Deny poisons the key for every later client.
    Json deny = Json::object();
    deny.set("op", Json("tier_deny"));
    deny.set("fingerprint", Json("fp"));
    deny.set("key", Json("k"));
    deny.set("reason", Json("a client proved it corrupt"));
    EXPECT_TRUE(tier.rawRequest(deny).at("ok").asBool());
    r = tier.rawRequest(tierGetRequest("fp", "k"));
    ASSERT_TRUE(r.at("ok").asBool());
    EXPECT_FALSE(r.at("payload").at("found").asBool());
    EXPECT_TRUE(r.at("payload").at("denied").asBool());

    // The stats op reflects all of it.
    Json stats = Json::object();
    stats.set("op", Json("stats"));
    const Json s = tier.rawRequest(stats);
    ASSERT_TRUE(s.at("ok").asBool());
    const Json &serving = s.at("payload").at("serving");
    EXPECT_EQ(serving.at("gets").asInt(), 3);
    EXPECT_EQ(serving.at("get_hits").asInt(), 1);
    EXPECT_EQ(serving.at("get_denied").asInt(), 1);
    EXPECT_EQ(serving.at("puts").asInt(), 1);
    EXPECT_EQ(serving.at("denies").asInt(), 1);
    EXPECT_EQ(s.at("payload").at("store").at("denied_keys").asInt(), 1);
}

TEST(TierServerOps, RejectsPutWhoseCrcDoesNotMatch)
{
    TierFixture tier("server_crc");
    const std::string record = "record bytes";
    const double right =
        static_cast<double>(crc32(record.data(), record.size()));
    const Json refused =
        tier.rawRequest(tierPutRequest("fp", "k", record, right + 1));
    EXPECT_FALSE(refused.at("ok").asBool());
    // The poisoned bytes never reached the store.
    const Json r = tier.rawRequest(tierGetRequest("fp", "k"));
    EXPECT_FALSE(r.at("payload").at("found").asBool());
    Json stats = Json::object();
    stats.set("op", Json("stats"));
    const Json s = tier.rawRequest(stats);
    EXPECT_EQ(
        s.at("payload").at("serving").at("puts_rejected_crc").asInt(),
        1);
    EXPECT_EQ(s.at("payload").at("store").at("records").asInt(), 0);
}

TEST(TierServerOps, ServesTcpEndpointBesideTheSocket)
{
    const std::string dir = scratchDir("server_tcp");
    tier::TierStore store(dir + "/store");
    tier::TierServerOptions opts;
    opts.socketPath = dir + "/t.sock";
    opts.listenHost = "127.0.0.1";
    opts.listenPort = 0; // kernel-assigned
    tier::TierServer server(store, opts);
    server.start();
    ASSERT_GT(server.tcpPort(), 0);

    ServiceClient client("127.0.0.1:"
                         + std::to_string(server.tcpPort()));
    Json ping = Json::object();
    ping.set("op", Json("ping"));
    const Json pong = client.request(ping);
    EXPECT_TRUE(pong.at("ok").asBool());
    server.stop();
}

// ---------------------------------------------------------------------
// TierClient: read-through, write-behind, and every failure valve.
// ---------------------------------------------------------------------

tier::TierClientOptions
clientOptions(const std::string &endpoint, const std::string &qdir)
{
    tier::TierClientOptions opts;
    opts.endpoint = endpoint;
    opts.fingerprint = "test-fp";
    opts.opTimeoutMs = 2000.0;
    opts.quarantineDir = qdir;
    return opts;
}

TEST(TierClientReadWrite, MissThenWriteBehindThenHit)
{
    TierFixture tier("client_roundtrip");
    tier::TierClient client(
        clientOptions(tier.socket(), tier.dir + "/quarantine"));

    const Matrix cx = Gate(Op::CX, {0, 1}).unitary();
    const std::string key = PulseCache::canonicalKey(cx, 2);
    EXPECT_FALSE(client.fetch(key, nullptr).has_value());
    EXPECT_EQ(client.counters().misses, 1u);

    // Write-behind: the publish happens on the background thread.
    client.onInsert(key, makeEntry(cx, 2, 123.5));
    ASSERT_TRUE(client.flush(5000.0));
    EXPECT_EQ(client.counters().published, 1u);

    const std::optional<CachedPulse> got = client.fetch(key, nullptr);
    ASSERT_TRUE(got.has_value());
    EXPECT_TRUE(got->fromTier);
    EXPECT_DOUBLE_EQ(got->latency, 123.5);
    EXPECT_DOUBLE_EQ(got->schedule.fidelity, 0.999);
    EXPECT_EQ(got->numQubits, 2);
    EXPECT_EQ(client.counters().hits, 1u);
    EXPECT_STREQ(client.breakerStateName(), "closed");

    // Degraded and tier-fetched entries are never published back.
    CachedPulse degraded = makeEntry(cx, 2, 1.0);
    degraded.degraded = true;
    client.onInsert("other-key", degraded);
    client.onInsert("other-key", *got);
    ASSERT_TRUE(client.flush(5000.0));
    EXPECT_EQ(client.counters().published, 1u);
    client.stop();
}

TEST(TierClientReadWrite, CorruptTierEntryIsQuarantinedDeniedAndNeverJournaled)
{
    FailpointGuard guard;
    TierFixture tier("client_corrupt");
    const std::string qdir = tier.dir + "/quarantine";

    const Matrix cx = Gate(Op::CX, {0, 1}).unitary();
    const std::string key = PulseCache::canonicalKey(cx, 2);
    // A lying tier: bytes that pass the transport CRC (the tier serves
    // what it stored, CRC and all) but are not a pulse record.
    const std::string garbage = "these bytes are not a pulse record";
    ASSERT_TRUE(tier.store.put("test-fp", key, garbage));

    tier::TierClient client(clientOptions(tier.socket(), qdir));
    PulseLibrary lib(tier.dir + "/lib", "test-fp");
    PulseCache cache;
    lib.warm(cache);
    cache.attachStore(&lib);
    cache.attachTier(&client);

    // The single-flight leader consults the tier, which hands it the
    // garbage; verification quarantines it and the leader computes
    // locally. Nothing corrupt may reach the local journal.
    PulseCache::Acquired acq = cache.acquire(cx, 2);
    ASSERT_EQ(acq.role, PulseCache::FlightRole::Leader);
    PulseTierSource *source = cache.tierSource();
    ASSERT_NE(source, nullptr);
    EXPECT_FALSE(source->fetch(key, nullptr).has_value());
    cache.completeFlight(cx, 2, makeEntry(cx, 2, 77.0));

    EXPECT_EQ(client.counters().quarantined, 1u);
    EXPECT_EQ(client.counters().hits, 0u);
    // Exact rotation name, bytes preserved for forensics.
    EXPECT_EQ(readFile(qdir + "/tier-0.quarantine"), garbage);
    // The client told the tier to poison the key...
    bool denied = false;
    EXPECT_FALSE(tier.store.get("test-fp", key, &denied).has_value());
    EXPECT_TRUE(denied);
    // ...so a re-fetch is a denial, not a re-download.
    EXPECT_FALSE(client.fetch(key, nullptr).has_value());
    EXPECT_EQ(client.counters().denied, 1u);
    // The local journal holds exactly the locally computed entry.
    EXPECT_EQ(lib.size(), 1u);
    EXPECT_EQ(lib.stats().appendedRecords, 1u);
    PulseCache recovered;
    PulseLibrary(tier.dir + "/lib", "test-fp").warm(recovered);
    const CachedPulse *entry = recovered.lookup(cx, 2);
    ASSERT_NE(entry, nullptr);
    EXPECT_DOUBLE_EQ(entry->latency, 77.0);

    cache.attachTier(nullptr);
    cache.attachStore(nullptr);
    client.stop();
}

TEST(TierClientReadWrite, FetchSurvivesEveryInjectedFault)
{
    FailpointGuard guard;
    TierFixture tier("client_faults");
    const Matrix cx = Gate(Op::CX, {0, 1}).unitary();
    const std::string key = PulseCache::canonicalKey(cx, 2);

    // A lenient breaker keeps every injected fault reaching the wire;
    // breaker behavior has its own tests.
    tier::TierClientOptions opts =
        clientOptions(tier.socket(), tier.dir + "/quarantine");
    opts.breaker.minSamples = 1000;
    tier::TierClient client(opts);
    client.onInsert(key, makeEntry(cx, 2, 9.0));
    ASSERT_TRUE(client.flush(5000.0));

    // Transport faults: every one is just a local-compute miss.
    for (const char *point : {"tier.connect", "tier.fetch",
                              "tier.stall"}) {
        const std::uint64_t errors_before =
            client.counters().fetchErrors;
        fp::arm(point, "return-error");
        EXPECT_FALSE(client.fetch(key, nullptr).has_value()) << point;
        fp::disarmAll();
        EXPECT_EQ(client.counters().fetchErrors, errors_before + 1)
            << point;
    }

    // A lying tier (tier.corrupt flips a byte after transport): the
    // record fails its CRC and is quarantined, not served.
    fp::arm("tier.corrupt", "return-error");
    EXPECT_FALSE(client.fetch(key, nullptr).has_value());
    fp::disarmAll();
    EXPECT_GE(client.counters().quarantined, 1u);

    // With the faults gone (and the poisoned key denied upstream),
    // the client still never throws.
    EXPECT_FALSE(client.fetch(key, nullptr).has_value());
    EXPECT_GE(client.counters().denied, 1u);
    client.stop();
}

TEST(TierClientReadWrite, DeadEndpointTripsBreakerOpenAndRejects)
{
    const std::string dir = scratchDir("client_dead");
    tier::TierClientOptions opts =
        clientOptions(dir + "/nonexistent.sock", dir + "/quarantine");
    opts.breaker.windowSize = 4;
    opts.breaker.minSamples = 2;
    opts.breaker.failureRateToOpen = 0.5;
    opts.breaker.cooldownMs = 60000.0; // stays open for the test
    tier::TierClient client(opts);

    for (int i = 0; i < 4; ++i)
        EXPECT_FALSE(client.fetch("any-key", nullptr).has_value());
    const tier::TierClientCounters c = client.counters();
    EXPECT_GE(c.fetchErrors, 2u);
    EXPECT_GE(c.fetchRejected, 1u);
    EXPECT_STREQ(client.breakerStateName(), "open");
    const Json stats = client.statsJson();
    EXPECT_EQ(stats.at("breaker").at("state").asString(), "open");
    EXPECT_GE(stats.at("breaker").at("opened").asInt(), 1);
    client.stop();
}

TEST(TierClientReadWrite, HedgedReadBeatsStalledPrimary)
{
    FailpointGuard guard;
    TierFixture tier("client_hedge");
    const Matrix cx = Gate(Op::CX, {0, 1}).unitary();
    const std::string key = PulseCache::canonicalKey(cx, 2);
    const std::string record =
        encodePulseRecord(key, makeEntry(cx, 2, 55.0));
    ASSERT_TRUE(tier.store.put("test-fp", key, record));

    tier::TierClientOptions opts =
        clientOptions(tier.socket(), tier.dir + "/quarantine");
    opts.replica = tier.socket(); // replica serving the same store
    opts.hedgeDelayMs = 10.0;
    tier::TierClient client(opts);

    // The primary leg stalls (tier.stall fires on the primary only);
    // after hedgeDelayMs the replica is asked and answers first.
    fp::arm("tier.stall", "delay-ms(400)");
    const std::optional<CachedPulse> got = client.fetch(key, nullptr);
    fp::disarmAll();
    ASSERT_TRUE(got.has_value());
    EXPECT_DOUBLE_EQ(got->latency, 55.0);
    const tier::TierClientCounters c = client.counters();
    EXPECT_EQ(c.hits, 1u);
    EXPECT_EQ(c.hedged, 1u);
    EXPECT_EQ(c.hedgeWins, 1u);
    client.stop(); // joins the still-sleeping hedge worker
}

TEST(TierClientReadWrite, WriteBehindShedsOldestAndNeverBlocks)
{
    const std::string dir = scratchDir("client_shed");
    tier::TierClientOptions opts =
        clientOptions(dir + "/nonexistent.sock", dir + "/quarantine");
    opts.publishQueueCap = 2;
    opts.publishRetryMs = 5000.0; // park the publisher between tries
    tier::TierClient client(opts);

    const Matrix cx = Gate(Op::CX, {0, 1}).unitary();
    const std::string key = PulseCache::canonicalKey(cx, 2);
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < 8; ++i)
        client.onInsert(key, makeEntry(cx, 2, 1.0 + i));
    const double elapsed_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();
    // onInsert must never wait on the dead endpoint.
    EXPECT_LT(elapsed_ms, 1000.0);
    EXPECT_GE(client.counters().shed, 1u);
    EXPECT_EQ(client.counters().published, 0u);
    EXPECT_FALSE(client.flush(50.0));
    client.stop();
}

TEST(TierClientReadWrite, ResyncRepublishesLibraryAfterPartitionHeals)
{
    FailpointGuard guard;
    TierFixture tier("client_resync");
    const Matrix cx = Gate(Op::CX, {0, 1}).unitary();
    const Matrix h = Gate(Op::H, {0}).unitary();
    const std::string cx_key = PulseCache::canonicalKey(cx, 2);
    const std::string h_key = PulseCache::canonicalKey(h, 1);

    tier::TierClientOptions opts =
        clientOptions(tier.socket(), tier.dir + "/quarantine");
    opts.breaker.windowSize = 4;
    opts.breaker.minSamples = 2;
    opts.breaker.failureRateToOpen = 0.5;
    opts.breaker.cooldownMs = 20.0;
    opts.publishRetryMs = 10.0;
    tier::TierClient client(opts);
    client.setResyncSource([&]() {
        return std::vector<CachedPulse>{makeEntry(h, 1, 5.0)};
    });

    // A bounded partition: the first publish attempts fail, the
    // breaker opens, the budget runs out ("the network heals"), a
    // cooldown probe succeeds, and the anti-entropy resync republishes
    // what the library holds.
    fp::arm("tier.publish", "return-error:6");
    client.onInsert(cx_key, makeEntry(cx, 2, 42.0));

    const auto deadline = std::chrono::steady_clock::now()
        + std::chrono::seconds(20);
    while (client.counters().resyncs < 1
           && std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    ASSERT_GE(client.counters().resyncs, 1u);
    ASSERT_TRUE(client.flush(10000.0));

    EXPECT_TRUE(tier.store.get("test-fp", cx_key).has_value());
    EXPECT_TRUE(tier.store.get("test-fp", h_key).has_value());
    const Json stats = client.statsJson();
    EXPECT_GE(stats.at("breaker").at("opened").asInt(), 1);
    EXPECT_GE(stats.at("breaker").at("closed").asInt(), 1);
    EXPECT_EQ(stats.at("breaker").at("state").asString(), "closed");
    client.stop();
}

// ---------------------------------------------------------------------
// Service-level contract: the tier is strictly an accelerator --
// payloads are byte-identical to a tierless daemon, always.
// ---------------------------------------------------------------------

Json
compileRequest(const std::string &benchmark)
{
    Json r = Json::object();
    r.set("op", Json("compile"));
    r.set("benchmark", Json(benchmark));
    r.set("emit_pulses", Json(true));
    return r;
}

/** A service wired to the tier through both hooks. */
std::string
compileWithTier(tier::TierClient &client, const std::string &benchmark)
{
    ServiceOptions opts;
    opts.tierSpectral.source = &client;
    opts.tierSpectral.sink = &client;
    PulseService service(opts);
    const Json reply = service.handle(compileRequest(benchmark));
    EXPECT_TRUE(reply.at("ok").asBool());
    return reply.at("payload").dump();
}

tier::TierClientOptions
serviceTierOptions(const std::string &endpoint, const std::string &dir)
{
    tier::TierClientOptions opts;
    opts.endpoint = endpoint;
    opts.fingerprint = PulseLibrary::spectralFingerprint();
    opts.opTimeoutMs = 2000.0;
    opts.quarantineDir = dir + "/quarantine";
    return opts;
}

TEST(TierService, WarmTierServesByteIdenticalPayloads)
{
    TierFixture tier("service_warm");

    // Baseline: a tierless service.
    PulseService baseline_service;
    const std::string baseline =
        baseline_service.handle(compileRequest("mod5d2"))
            .at("payload")
            .dump();

    // Cold tier: the first daemon computes locally, publishes behind.
    tier::TierClient cold(
        serviceTierOptions(tier.socket(), tier.dir));
    EXPECT_EQ(compileWithTier(cold, "mod5d2"), baseline);
    ASSERT_TRUE(cold.flush(10000.0));
    EXPECT_GE(cold.counters().published, 1u);
    EXPECT_EQ(cold.counters().hits, 0u);
    cold.stop();

    // Warm tier: a second, fresh daemon fetches instead of computing
    // -- and the payload is still byte-identical.
    tier::TierClient warm(
        serviceTierOptions(tier.socket(), tier.dir));
    EXPECT_EQ(compileWithTier(warm, "mod5d2"), baseline);
    EXPECT_GE(warm.counters().hits, 1u);
    warm.stop();
}

TEST(TierService, PayloadsByteIdenticalUnderEveryTierFault)
{
    FailpointGuard guard;
    TierFixture tier("service_faults");

    PulseService baseline_service;
    const std::string baseline =
        baseline_service.handle(compileRequest("mod5d2"))
            .at("payload")
            .dump();

    // Warm the tier so fault scenarios exercise real fetch paths.
    {
        tier::TierClient seed(
            serviceTierOptions(tier.socket(), tier.dir));
        EXPECT_EQ(compileWithTier(seed, "mod5d2"), baseline);
        ASSERT_TRUE(seed.flush(10000.0));
        seed.stop();
    }

    // Tier down entirely: every fetch fails, payloads identical.
    {
        tier::TierClient dead(serviceTierOptions(
            tier.dir + "/nonexistent.sock", tier.dir));
        EXPECT_EQ(compileWithTier(dead, "mod5d2"), baseline);
        EXPECT_EQ(dead.counters().hits, 0u);
        dead.stop();
    }

    // Every injected tier fault, including a lying tier
    // (tier.corrupt) and a stalling one (tier.stall).
    const struct
    {
        const char *point;
        const char *spec;
    } kFaults[] = {
        {"tier.connect", "return-error"},
        {"tier.fetch", "return-error"},
        {"tier.publish", "return-error"},
        {"tier.corrupt", "return-error"},
        {"tier.stall", "delay-ms(1)"},
    };
    for (const auto &fault : kFaults) {
        fp::arm(fault.point, fault.spec);
        tier::TierClient client(
            serviceTierOptions(tier.socket(), tier.dir));
        EXPECT_EQ(compileWithTier(client, "mod5d2"), baseline)
            << fault.point;
        if (std::string(fault.point) == "tier.corrupt") {
            EXPECT_GE(client.counters().quarantined, 1u);
        }
        client.stop();
        fp::disarmAll();
    }
}

} // namespace
} // namespace paqoc
