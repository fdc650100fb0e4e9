#ifndef PAQOC_STORE_PULSE_LIBRARY_H_
#define PAQOC_STORE_PULSE_LIBRARY_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"
#include "qoc/grape.h"
#include "qoc/pulse_cache.h"
#include "store/journal.h"

namespace paqoc {

/** Tuning knobs of a PulseLibrary. */
struct PulseLibraryOptions
{
    /**
     * fsync after every appended record. Off by default: a process
     * crash (kill -9) never loses flushed appends anyway because each
     * record is a single write(); fsync only adds protection against
     * whole-OS crashes, at a large per-record cost. Compaction and
     * graceful shutdown always fsync.
     */
    bool syncEveryAppend = false;
};

/** What a library recovered and did; surfaced by `paqocd` and tests. */
struct PulseLibraryStats
{
    /** Records loaded from the snapshot file. */
    std::size_t snapshotRecords = 0;
    /** Records replayed from the journal. */
    std::size_t journalRecords = 0;
    /** CRC-valid records whose payload failed to decode (skipped). */
    std::size_t corruptPayloads = 0;
    /** Torn/corrupt tail bytes dropped during recovery. */
    std::uint64_t droppedTailBytes = 0;
    /** Records appended since open. */
    std::size_t appendedRecords = 0;
    /**
     * True once a journal write, fsync, or compaction failed (disk
     * full, injected failpoint). The library then serves read-only
     * from memory: new derivations update the in-memory map but are
     * no longer persisted, and compaction is skipped. A restart with
     * a healthy disk recovers everything journaled before the fault.
     */
    bool degraded = false;
    /** Appends abandoned because of the degraded transition. */
    std::size_t failedAppends = 0;
    /** Degraded (stitched-fallback) pulses refused persistence. */
    std::size_t skippedDegradedPulses = 0;
    /** Everything recovery had to skip or rotate aside. */
    std::vector<std::string> warnings;
};

/**
 * Crash-safe durable pulse library (DESIGN.md §6): the persistence
 * layer that lets the paper's offline/online split outlive a process.
 * State lives in a directory as
 *
 *   snapshot.bin   last compaction (journal record format)
 *   journal.bin    CRC32-checked append-only journal since then
 *
 * both keyed by PulseCache::canonicalKey and stamped with a
 * device/GRAPE-config fingerprint -- a library written under one
 * backend configuration is never served to another (mismatched files
 * are rotated aside with a warning, not deleted).
 *
 * Usage:
 *
 *   PulseLibrary lib(dir, PulseLibrary::spectralFingerprint());
 *   lib.warm(generator.cache());   // start warm: attach the epoch
 *   generator.cache().attachStore(&lib); // journal completed flights
 *   ...
 *   lib.compact();                 // snapshot + truncate, fsynced
 *
 * Warming inserts nothing, so the stored entries never echo back into
 * the journal whichever of warm and attachStore comes first.
 *
 * Durability guarantees: every append is a single write() to an
 * append-only fd, so kill -9 at any instant leaves a valid prefix plus
 * at most one torn record, which recovery skips and reports. Recovery
 * never aborts on corrupt content. Compaction writes the snapshot to a
 * temp file, fsyncs, and renames -- a crash mid-compaction leaves
 * either the old or the new snapshot, never a mix.
 *
 * Thread-safety: onInsert/compact/size/stats are internally locked;
 * the library is shared by all of a daemon's generators.
 */
class PulseLibrary : public PulseStoreSink
{
  public:
    /**
     * Open (or create) the library in `directory`, recovering snapshot
     * and journal. Raises FatalError only on real I/O failures (e.g.
     * unwritable directory), never on corrupt or foreign content.
     */
    PulseLibrary(std::string directory, std::string fingerprint,
                 PulseLibraryOptions options = {});
    ~PulseLibrary() override;

    /**
     * Serve every stored pulse from `cache`: attaches epoch() as the
     * cache's lower level, copying and inserting nothing (the cache's
     * generation() stays where it was).
     */
    void warm(PulseCache &cache) const;

    /**
     * The live entries as an immutable epoch, keyed and ordered by
     * canonical key. Built from the recovered map on first use and
     * rebuilt only after an insert changed the map, so callers between
     * inserts share one copy. The service freezes the one it takes at
     * startup as its serving epoch (see PulseService): every request's
     * cache reads it in place, so concurrent serving stays
     * deterministic while fresh derivations keep journaling here for
     * the next launch.
     */
    std::shared_ptr<const PulseEpoch> epoch() const;

    /**
     * Copy of the live entries, ordered by canonical key (the shared
     * tier's anti-entropy resync re-publishes these).
     */
    std::vector<CachedPulse> entriesSnapshot() const;

    /** PulseStoreSink: journal one published cache entry. */
    void onInsert(const std::string &key,
                  const CachedPulse &entry) override;

    /**
     * Chain a second sink behind this one (null detaches): every
     * entry accepted by onInsert is forwarded after the library's own
     * lock is released -- the shared-tier write-behind queue hangs
     * here. Entries the tier already owns (CachedPulse::fromTier) and
     * degraded pulses are not forwarded. Set during single-threaded
     * setup, like PulseCache::attachStore.
     */
    void setForwardSink(PulseStoreSink *sink);

    /**
     * Fold the journal into a fresh snapshot (write-temp-fsync-rename)
     * and truncate the journal. Safe to call at any time.
     */
    void compact();

    /** fsync the journal (graceful-shutdown path). */
    void sync();

    /** Live (deduplicated) record count. */
    std::size_t size() const;
    PulseLibraryStats stats() const;
    const std::string &directory() const { return directory_; }
    const std::string &fingerprint() const { return fingerprint_; }

    /** Fingerprint of the analytical backend + device constants. */
    static std::string spectralFingerprint();
    /** Fingerprint of a GRAPE backend configuration + device. */
    static std::string grapeFingerprint(const GrapeOptions &options);

  private:
    /**
     * Recovery-time only (runs in the constructor, before the object
     * is shared), hence exempt from the lock analysis.
     */
    void applyRecord(const std::string &payload, std::size_t &counter)
        PAQOC_NO_THREAD_SAFETY_ANALYSIS;

    /**
     * Flip to read-only degraded mode after a persistence failure:
     * close the journal, record the reason, and keep serving from
     * memory (DESIGN.md §9).
     */
    void enterDegradedLocked(const std::string &reason)
        PAQOC_REQUIRES(mutex_);

    std::string snapshotPath() const;
    std::string journalPath() const;

    mutable Mutex mutex_;
    std::string directory_;
    std::string fingerprint_;
    PulseLibraryOptions options_;
    /** Ordered by canonical key so snapshots are deterministic. */
    PulseEpoch entries_ PAQOC_GUARDED_BY(mutex_);
    /** epoch()'s copy of entries_; null once an insert changed them. */
    mutable std::shared_ptr<const PulseEpoch> epoch_
        PAQOC_GUARDED_BY(mutex_);
    JournalWriter journal_ PAQOC_GUARDED_BY(mutex_);
    PulseLibraryStats stats_ PAQOC_GUARDED_BY(mutex_);
    /** Set in single-threaded setup; reads are lock-free. */
    std::atomic<PulseStoreSink *> forward_{nullptr};
};

/** Binary record payload codec (exposed for tests and tooling). */
std::string encodePulseRecord(const std::string &key,
                              const CachedPulse &entry);
/** Returns nullopt on a structurally invalid payload. */
std::optional<std::pair<std::string, CachedPulse>>
decodePulseRecord(const std::string &payload);

} // namespace paqoc

#endif // PAQOC_STORE_PULSE_LIBRARY_H_
