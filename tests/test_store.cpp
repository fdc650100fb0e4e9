/**
 * @file
 * Tests for the durable pulse store: CRC32, the append-only journal
 * (including torn-write crash recovery), the record codec, and the
 * PulseLibrary end to end (warm, journal via attachStore, compaction,
 * fingerprint rotation).
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "circuit/gate.h"
#include "qoc/pulse_cache.h"
#include "qoc/pulse_generator.h"
#include "store/crc32.h"
#include "store/journal.h"
#include "store/pulse_library.h"

namespace paqoc {
namespace {

/** Fresh scratch directory per test. */
std::string
scratchDir(const std::string &name)
{
    const std::string dir = "/tmp/paqoc_test_store_" + name;
    std::system(("rm -rf '" + dir + "'").c_str());
    return dir;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
}

TEST(Crc32, KnownAnswer)
{
    // The standard IEEE 802.3 check value.
    EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
    EXPECT_EQ(crc32("", 0), 0x00000000u);
}

TEST(Crc32, SeedChainsIncrementally)
{
    const std::string text = "hello journal";
    const std::uint32_t whole = crc32(text.data(), text.size());
    const std::uint32_t first = crc32(text.data(), 5);
    const std::uint32_t chained =
        crc32(text.data() + 5, text.size() - 5, first);
    EXPECT_EQ(whole, chained);
}

TEST(Journal, RoundTripsRecordsInOrder)
{
    const std::string dir = scratchDir("roundtrip");
    ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0);
    const std::string path = dir + "/j.bin";
    {
        JournalWriter w = JournalWriter::openAppend(path, "fp-1", 0);
        w.append("alpha");
        w.append(std::string(1000, 'x'));
        w.append("");
        w.sync();
    }
    std::vector<std::string> got;
    const JournalScan scan = scanJournal(
        path, "fp-1", [&](const std::string &p) { got.push_back(p); });
    EXPECT_TRUE(scan.headerValid);
    EXPECT_EQ(scan.fingerprint, "fp-1");
    EXPECT_EQ(scan.records, 3u);
    EXPECT_EQ(scan.droppedBytes, 0u);
    ASSERT_EQ(got.size(), 3u);
    EXPECT_EQ(got[0], "alpha");
    EXPECT_EQ(got[1], std::string(1000, 'x'));
    EXPECT_EQ(got[2], "");
}

TEST(Journal, MissingFileScansClean)
{
    const JournalScan scan = scanJournal(
        "/tmp/paqoc_test_store_does_not_exist.bin", "fp",
        [](const std::string &) { FAIL() << "no records expected"; });
    EXPECT_TRUE(scan.headerValid);
    EXPECT_EQ(scan.records, 0u);
    EXPECT_TRUE(scan.warning.empty());
}

TEST(Journal, RecoversCommittedPrefixOfTornWrite)
{
    const std::string dir = scratchDir("torn");
    ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0);
    const std::string path = dir + "/j.bin";
    {
        JournalWriter w = JournalWriter::openAppend(path, "fp", 0);
        w.append("committed-1");
        w.append("committed-2");
    }
    // Simulate kill -9 mid-append: half a record at the tail.
    const std::string whole = readFile(path);
    {
        JournalWriter w = JournalWriter::openAppend(
            path, "fp", static_cast<std::uint64_t>(whole.size()));
        w.append("torn-away");
    }
    const std::string longer = readFile(path);
    ASSERT_GT(longer.size(), whole.size() + 4);
    writeFile(path, longer.substr(0, whole.size() + 6));

    std::vector<std::string> got;
    JournalScan scan = scanJournal(
        path, "fp", [&](const std::string &p) { got.push_back(p); });
    EXPECT_TRUE(scan.headerValid);
    EXPECT_EQ(scan.records, 2u);
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0], "committed-1");
    EXPECT_EQ(got[1], "committed-2");
    EXPECT_EQ(scan.committedBytes, whole.size());
    EXPECT_EQ(scan.droppedBytes, 6u);
    EXPECT_FALSE(scan.warning.empty());

    // Reopen-for-append truncates the torn tail and keeps going.
    {
        JournalWriter w = JournalWriter::openAppend(
            path, "fp", scan.committedBytes);
        w.append("committed-3");
    }
    got.clear();
    scan = scanJournal(path, "fp", [&](const std::string &p) {
        got.push_back(p);
    });
    EXPECT_EQ(scan.records, 3u);
    EXPECT_EQ(scan.droppedBytes, 0u);
    ASSERT_EQ(got.size(), 3u);
    EXPECT_EQ(got[2], "committed-3");
}

TEST(Journal, SkipsCorruptRecordTail)
{
    const std::string dir = scratchDir("crc");
    ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0);
    const std::string path = dir + "/j.bin";
    {
        JournalWriter w = JournalWriter::openAppend(path, "fp", 0);
        w.append("good");
        w.append("evil");
    }
    // Flip one payload byte of the second record.
    std::string bytes = readFile(path);
    bytes[bytes.size() - 1] ^= 0x40;
    writeFile(path, bytes);

    std::vector<std::string> got;
    const JournalScan scan = scanJournal(
        path, "fp", [&](const std::string &p) { got.push_back(p); });
    EXPECT_TRUE(scan.headerValid);
    EXPECT_EQ(scan.records, 1u);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0], "good");
    EXPECT_GT(scan.droppedBytes, 0u);
    EXPECT_FALSE(scan.warning.empty());
}

TEST(Journal, RejectsForeignFingerprint)
{
    const std::string dir = scratchDir("foreign");
    ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0);
    const std::string path = dir + "/j.bin";
    {
        JournalWriter w =
            JournalWriter::openAppend(path, "device-A", 0);
        w.append("pulse-for-device-A");
    }
    const JournalScan scan = scanJournal(
        path, "device-B",
        [](const std::string &) { FAIL() << "no records expected"; });
    EXPECT_TRUE(scan.headerValid);
    EXPECT_EQ(scan.fingerprint, "device-A");
    EXPECT_EQ(scan.records, 0u);
}

TEST(Journal, RejectsGarbageHeader)
{
    const std::string dir = scratchDir("garbage");
    ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0);
    const std::string path = dir + "/j.bin";
    writeFile(path, "this is not a journal at all");
    const JournalScan scan = scanJournal(
        path, "fp",
        [](const std::string &) { FAIL() << "no records expected"; });
    EXPECT_FALSE(scan.headerValid);
    EXPECT_EQ(scan.records, 0u);
}

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

TEST(PulseRecord, CodecRoundTrips)
{
    const Matrix cx = Gate(Op::CX, {0, 1}).unitary();
    const CachedPulse entry = makeEntry(cx, 2, 123.5);
    const std::string key = PulseCache::canonicalKey(cx, 2);
    const std::string payload = encodePulseRecord(key, entry);

    const auto decoded = decodePulseRecord(payload);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->first, key);
    EXPECT_EQ(decoded->second.numQubits, 2);
    EXPECT_DOUBLE_EQ(decoded->second.latency, 123.5);
    EXPECT_DOUBLE_EQ(decoded->second.error, 1e-3);
    EXPECT_DOUBLE_EQ(decoded->second.schedule.fidelity, 0.999);
    ASSERT_EQ(decoded->second.schedule.amplitudes.size(), 2u);
    EXPECT_DOUBLE_EQ(decoded->second.schedule.amplitudes[1][0], 0.3);
    for (std::size_t r = 0; r < 4; ++r)
        for (std::size_t c = 0; c < 4; ++c)
            EXPECT_EQ(decoded->second.unitary(r, c), cx(r, c));
}

TEST(PulseRecord, CodecRejectsTruncatedPayloads)
{
    const Matrix h = Gate(Op::H, {0}).unitary();
    const std::string payload = encodePulseRecord(
        PulseCache::canonicalKey(h, 1), makeEntry(h, 1, 10.0));
    for (const std::size_t cut :
         {std::size_t{0}, std::size_t{3}, payload.size() / 2,
          payload.size() - 1}) {
        EXPECT_FALSE(
            decodePulseRecord(payload.substr(0, cut)).has_value())
            << "cut at " << cut;
    }
    // Trailing junk is also rejected, not silently ignored.
    EXPECT_FALSE(decodePulseRecord(payload + "x").has_value());
}

TEST(PulseLibrary, JournalsInsertsAndWarmsNextRun)
{
    const std::string dir = scratchDir("library");
    const Matrix cx = Gate(Op::CX, {0, 1}).unitary();
    const Matrix h = Gate(Op::H, {0}).unitary();
    {
        PulseLibrary lib(dir, "fp");
        SpectralPulseGenerator gen;
        lib.warm(gen.cache());
        gen.cache().attachStore(&lib);
        gen.generate(cx, 2);
        gen.generate(h, 1);
        gen.generate(cx, 2); // cache hit: no new journal record
        EXPECT_EQ(lib.size(), 2u);
        EXPECT_EQ(lib.stats().appendedRecords, 2u);
        gen.cache().attachStore(nullptr);
        // No compaction: durability must come from the journal alone.
    }
    {
        PulseLibrary lib(dir, "fp");
        EXPECT_EQ(lib.size(), 2u);
        EXPECT_EQ(lib.stats().journalRecords, 2u);
        EXPECT_EQ(lib.stats().snapshotRecords, 0u);

        SpectralPulseGenerator gen;
        lib.warm(gen.cache());
        gen.cache().attachStore(&lib);
        const PulseGenResult warm = gen.generate(cx, 2);
        EXPECT_TRUE(warm.cacheHit);
        // Warmed entries must not re-enter the journal.
        EXPECT_EQ(lib.stats().appendedRecords, 0u);
        gen.cache().attachStore(nullptr);
    }
}

TEST(PulseLibrary, CompactionFoldsJournalIntoSnapshot)
{
    const std::string dir = scratchDir("compact");
    const Matrix cx = Gate(Op::CX, {0, 1}).unitary();
    const Matrix swap = Gate(Op::SWAP, {0, 1}).unitary();
    {
        PulseLibrary lib(dir, "fp");
        lib.onInsert(PulseCache::canonicalKey(cx, 2),
                     makeEntry(cx, 2, 100.0));
        lib.onInsert(PulseCache::canonicalKey(swap, 2),
                     makeEntry(swap, 2, 200.0));
        lib.compact();
        // Compaction truncates the journal; the snapshot holds all.
        lib.onInsert(PulseCache::canonicalKey(cx, 2),
                     makeEntry(cx, 2, 101.0)); // updated after compact
    }
    PulseLibrary lib(dir, "fp");
    EXPECT_EQ(lib.size(), 2u);
    EXPECT_EQ(lib.stats().snapshotRecords, 2u);
    EXPECT_EQ(lib.stats().journalRecords, 1u); // the post-compact update

    // The journal record (later) wins over the snapshot one.
    PulseCache cache;
    lib.warm(cache);
    const CachedPulse *hit = cache.lookup(cx, 2);
    ASSERT_NE(hit, nullptr);
    EXPECT_DOUBLE_EQ(hit->latency, 101.0);
}

TEST(PulseLibrary, CrashRecoveryKeepsCommittedRecords)
{
    // The acceptance scenario: the process dies mid-append (simulated
    // by truncating the journal to a torn tail), a fresh library
    // recovers every committed record, skips the tail, and reports it.
    const std::string dir = scratchDir("crash");
    const Matrix cx = Gate(Op::CX, {0, 1}).unitary();
    const Matrix h = Gate(Op::H, {0}).unitary();
    const Matrix swap = Gate(Op::SWAP, {0, 1}).unitary();
    {
        PulseLibrary lib(dir, "fp");
        lib.onInsert(PulseCache::canonicalKey(cx, 2),
                     makeEntry(cx, 2, 100.0));
        lib.onInsert(PulseCache::canonicalKey(h, 1),
                     makeEntry(h, 1, 20.0));
        lib.onInsert(PulseCache::canonicalKey(swap, 2),
                     makeEntry(swap, 2, 300.0));
        // No close/sync discipline assumed beyond the destructor --
        // and the torn write below clobbers the last record anyway.
    }
    const std::string journal = dir + "/journal.bin";
    std::string bytes = readFile(journal);
    writeFile(journal, bytes.substr(0, bytes.size() - 11));

    PulseLibrary lib(dir, "fp");
    EXPECT_EQ(lib.size(), 2u);
    EXPECT_EQ(lib.stats().journalRecords, 2u);
    EXPECT_GT(lib.stats().droppedTailBytes, 0u);
    ASSERT_FALSE(lib.stats().warnings.empty());

    PulseCache cache;
    lib.warm(cache);
    EXPECT_NE(cache.lookup(cx, 2), nullptr);
    EXPECT_NE(cache.lookup(h, 1), nullptr);
    EXPECT_EQ(cache.lookup(swap, 2), nullptr); // the torn record

    // The reopened library is immediately appendable again.
    lib.onInsert(PulseCache::canonicalKey(swap, 2),
                 makeEntry(swap, 2, 300.0));
    PulseLibrary again(dir, "fp");
    EXPECT_EQ(again.size(), 3u);
}

TEST(PulseLibrary, RotatesForeignFingerprintAside)
{
    const std::string dir = scratchDir("rotate");
    const Matrix cx = Gate(Op::CX, {0, 1}).unitary();
    {
        PulseLibrary lib(dir, "device-A");
        lib.onInsert(PulseCache::canonicalKey(cx, 2),
                     makeEntry(cx, 2, 100.0));
    }
    PulseLibrary lib(dir, "device-B");
    EXPECT_EQ(lib.size(), 0u);
    ASSERT_FALSE(lib.stats().warnings.empty());
    // The foreign journal is preserved, not deleted.
    EXPECT_FALSE(readFile(dir + "/journal.bin.stale").empty());

    // And device-A can still find its data after rotating back.
    PulseLibrary fresh(dir + "_does_not_share", "device-A");
    EXPECT_EQ(fresh.size(), 0u);
}

TEST(PulseLibrary, EntriesSnapshotIsSortedByKey)
{
    const std::string dir = scratchDir("snapshot");
    const Matrix cx = Gate(Op::CX, {0, 1}).unitary();
    const Matrix h = Gate(Op::H, {0}).unitary();
    PulseLibrary lib(dir, "fp");
    lib.onInsert(PulseCache::canonicalKey(cx, 2),
                 makeEntry(cx, 2, 100.0));
    lib.onInsert(PulseCache::canonicalKey(h, 1),
                 makeEntry(h, 1, 20.0));
    const std::vector<CachedPulse> snap = lib.entriesSnapshot();
    ASSERT_EQ(snap.size(), 2u);
    // Deterministic order: canonical keys ascending, independent of
    // insertion order.
    EXPECT_LT(PulseCache::canonicalKey(snap[0].unitary,
                                       snap[0].numQubits),
              PulseCache::canonicalKey(snap[1].unitary,
                                       snap[1].numQubits));
}

TEST(PulseLibrary, WarmAttachesTheEpochWithoutInserting)
{
    const std::string dir = scratchDir("epoch");
    const Matrix cx = Gate(Op::CX, {0, 1}).unitary();
    const Matrix h = Gate(Op::H, {0}).unitary();
    const Matrix swap = Gate(Op::SWAP, {0, 1}).unitary();
    PulseLibrary lib(dir, "fp");
    lib.onInsert(PulseCache::canonicalKey(cx, 2), makeEntry(cx, 2, 100.0));
    lib.onInsert(PulseCache::canonicalKey(h, 1), makeEntry(h, 1, 20.0));

    PulseCache cache;
    lib.warm(cache);
    // Served, not copied: no insert happened.
    EXPECT_EQ(cache.generation(), 0u);
    EXPECT_EQ(cache.size(), lib.size());
    ASSERT_NE(cache.lookup(cx, 2), nullptr);
    EXPECT_DOUBLE_EQ(cache.lookup(cx, 2)->latency, 100.0);

    // Callers between inserts share one epoch; an insert rebuilds it,
    // and a cache warmed earlier keeps reading the one it was given.
    const std::shared_ptr<const PulseEpoch> before = lib.epoch();
    EXPECT_EQ(lib.epoch(), before);
    lib.onInsert(PulseCache::canonicalKey(swap, 2),
                 makeEntry(swap, 2, 300.0));
    EXPECT_NE(lib.epoch(), before);
    EXPECT_EQ(before->size(), 2u);
    EXPECT_EQ(lib.epoch()->size(), 3u);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.lookup(swap, 2), nullptr);
}

TEST(PulseLibrary, FingerprintsSeparateBackendConfigs)
{
    GrapeOptions a;
    GrapeOptions b;
    b.maxIterations = a.maxIterations + 1;
    EXPECT_NE(PulseLibrary::grapeFingerprint(a),
              PulseLibrary::grapeFingerprint(b));
    EXPECT_NE(PulseLibrary::spectralFingerprint(),
              PulseLibrary::grapeFingerprint(a));
}

// --- Journal recovery fuzz sweep --------------------------------------
//
// The targeted torn-write tests above pick a handful of interesting
// offsets; these sweeps cover *every* single-fault shape a crash or a
// lying disk can produce on a small fixture: truncation at each byte
// offset and a bit flip at each byte. The recovery contract under any
// such fault: scanJournal never throws, never delivers a record that
// differs from what was appended, and always recovers the exact
// longest committed prefix in front of the damage.

struct FuzzFixture
{
    std::string path;
    std::string whole;                 ///< pristine journal bytes
    std::vector<std::string> payloads; ///< appended records, in order
    std::size_t headerBytes = 0;
    std::vector<std::size_t> ends; ///< file length after record i
};

FuzzFixture
makeFuzzJournal(const std::string &name, const std::string &fingerprint)
{
    FuzzFixture fx;
    const std::string dir = scratchDir(name);
    EXPECT_EQ(::mkdir(dir.c_str(), 0755), 0);
    fx.path = dir + "/j.bin";
    fx.payloads = {"alpha", std::string(64, 'b'), "",
                   "a-fourth-record"};
    {
        JournalWriter w =
            JournalWriter::openAppend(fx.path, fingerprint, 0);
        for (const std::string &p : fx.payloads)
            w.append(p);
        w.sync();
    }
    fx.whole = readFile(fx.path);
    // Layout per store/journal.h: 8-byte magic + u32 version
    // + u32 fingerprint_len + fingerprint, then (u32 len + u32 crc
    // + payload) per record.
    fx.headerBytes = 16 + fingerprint.size();
    std::size_t off = fx.headerBytes;
    for (const std::string &p : fx.payloads) {
        off += 8 + p.size();
        fx.ends.push_back(off);
    }
    EXPECT_EQ(off, fx.whole.size());
    return fx;
}

/** Records of `fx` wholly contained in the first `length` bytes. */
std::size_t
wholeRecordsWithin(const FuzzFixture &fx, std::size_t length)
{
    std::size_t n = 0;
    while (n < fx.ends.size() && fx.ends[n] <= length)
        ++n;
    return n;
}

TEST(JournalFuzz, TruncationSweepRecoversExactCommittedPrefix)
{
    const FuzzFixture fx = makeFuzzJournal("fuzz_trunc", "fuzz-fp");
    for (std::size_t cut = 0; cut <= fx.whole.size(); ++cut) {
        writeFile(fx.path, fx.whole.substr(0, cut));
        std::vector<std::string> got;
        const JournalScan scan =
            scanJournal(fx.path, "fuzz-fp", [&](const std::string &p) {
                got.push_back(p);
            });
        if (cut < fx.headerBytes) {
            // Truncation inside the header invalidates the whole file
            // (the owner rotates it aside and starts fresh).
            EXPECT_FALSE(scan.headerValid) << "cut at " << cut;
            EXPECT_TRUE(got.empty()) << "cut at " << cut;
            continue;
        }
        const std::size_t expect = wholeRecordsWithin(fx, cut);
        EXPECT_TRUE(scan.headerValid) << "cut at " << cut;
        ASSERT_EQ(got.size(), expect) << "cut at " << cut;
        for (std::size_t i = 0; i < expect; ++i)
            EXPECT_EQ(got[i], fx.payloads[i]) << "cut at " << cut;
        const std::size_t committed =
            expect == 0 ? fx.headerBytes : fx.ends[expect - 1];
        EXPECT_EQ(scan.committedBytes, committed) << "cut at " << cut;
        EXPECT_EQ(scan.droppedBytes, cut - committed)
            << "cut at " << cut;

        // The truncated journal must reopen for append at the
        // committed prefix and keep working.
        {
            JournalWriter w = JournalWriter::openAppend(
                fx.path, "fuzz-fp", scan.committedBytes);
            w.append("appended-after-recovery");
        }
        got.clear();
        const JournalScan again =
            scanJournal(fx.path, "fuzz-fp", [&](const std::string &p) {
                got.push_back(p);
            });
        EXPECT_EQ(again.records, expect + 1) << "cut at " << cut;
        EXPECT_EQ(again.droppedBytes, 0u) << "cut at " << cut;
        ASSERT_FALSE(got.empty());
        EXPECT_EQ(got.back(), "appended-after-recovery");
    }
}

TEST(JournalFuzz, BitFlipSweepNeverDeliversACorruptRecord)
{
    const FuzzFixture fx = makeFuzzJournal("fuzz_flip", "fuzz-fp");
    for (std::size_t pos = 0; pos < fx.whole.size(); ++pos) {
        for (int bit = 0; bit < 8; ++bit) {
            std::string bytes = fx.whole;
            bytes[pos] = static_cast<char>(
                static_cast<unsigned char>(bytes[pos]) ^ (1u << bit));
            writeFile(fx.path, bytes);
            std::vector<std::string> got;
            const JournalScan scan = scanJournal(
                fx.path, "fuzz-fp", [&](const std::string &p) {
                    got.push_back(p);
                });
            if (pos < fx.headerBytes) {
                // Header damage: either the header no longer parses
                // or the fingerprint no longer matches. Both must
                // yield zero records, never a guess.
                EXPECT_TRUE(got.empty())
                    << "flip at " << pos << " bit " << bit;
                EXPECT_TRUE(!scan.headerValid
                            || scan.fingerprint != "fuzz-fp")
                    << "flip at " << pos << " bit " << bit;
                continue;
            }
            // Damage inside record i: the per-record CRC32 detects
            // any single-bit payload error, and a bent length/crc
            // word misframes into a CRC or length violation. Exactly
            // the records in front of the damage survive.
            const std::size_t expect = wholeRecordsWithin(fx, pos);
            EXPECT_TRUE(scan.headerValid)
                << "flip at " << pos << " bit " << bit;
            ASSERT_EQ(got.size(), expect)
                << "flip at " << pos << " bit " << bit;
            for (std::size_t i = 0; i < expect; ++i)
                EXPECT_EQ(got[i], fx.payloads[i])
                    << "flip at " << pos << " bit " << bit;
            EXPECT_FALSE(scan.warning.empty())
                << "flip at " << pos << " bit " << bit;
            EXPECT_EQ(scan.committedBytes + scan.droppedBytes,
                      fx.whole.size())
                << "flip at " << pos << " bit " << bit;
        }
    }
}

TEST(JournalFuzz, PulseLibraryRotatesMangledHeaderToStale)
{
    // A library whose journal header is mangled (any bit of the magic
    // or version words) must rotate the file to the exact documented
    // aside name -- journal.bin.stale -- and start fresh, preserving
    // the damaged bytes for forensics instead of deleting them.
    const std::string dir = scratchDir("fuzz_rotate");
    const Matrix cx = Gate(Op::CX, {0, 1}).unitary();
    {
        PulseLibrary lib(dir, "fp");
        lib.onInsert(PulseCache::canonicalKey(cx, 2),
                     makeEntry(cx, 2, 100.0));
    }
    const std::string journal = dir + "/journal.bin";
    const std::string stale = journal + ".stale";
    const std::string pristine = readFile(journal);
    for (std::size_t pos = 0; pos < 12; ++pos) {
        std::string bytes = pristine;
        bytes[pos] = static_cast<char>(
            static_cast<unsigned char>(bytes[pos]) ^ 0x10u);
        writeFile(journal, bytes);
        ::unlink(stale.c_str());

        PulseLibrary lib(dir, "fp");
        EXPECT_EQ(lib.size(), 0u) << "flip at " << pos;
        ASSERT_FALSE(lib.stats().warnings.empty()) << "flip at " << pos;
        EXPECT_EQ(readFile(stale), bytes) << "flip at " << pos;
        // The rotated-in replacement journal is immediately usable.
        lib.onInsert(PulseCache::canonicalKey(cx, 2),
                     makeEntry(cx, 2, 100.0));
        EXPECT_EQ(lib.size(), 1u) << "flip at " << pos;
    }
}

} // namespace
} // namespace paqoc
