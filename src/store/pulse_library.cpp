#include "store/pulse_library.h"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/error.h"
#include "common/failpoint.h"
#include "qoc/device.h"

namespace paqoc {

namespace {

constexpr char kSnapshotFile[] = "snapshot.bin";
constexpr char kJournalFile[] = "journal.bin";

void
putU32(std::string &out, std::uint32_t v)
{
    char buf[4];
    std::memcpy(buf, &v, 4);
    out.append(buf, 4);
}

void
putF64(std::string &out, double v)
{
    char buf[8];
    std::memcpy(buf, &v, 8);
    out.append(buf, 8);
}

/** Bounds-checked cursor over a record payload. */
struct Cursor
{
    const std::string &data;
    std::size_t pos = 0;
    bool ok = true;

    std::uint32_t
    u32()
    {
        std::uint32_t v = 0;
        if (pos + 4 > data.size()) {
            ok = false;
            return 0;
        }
        std::memcpy(&v, data.data() + pos, 4);
        pos += 4;
        return v;
    }

    double
    f64()
    {
        double v = 0.0;
        if (pos + 8 > data.size()) {
            ok = false;
            return 0.0;
        }
        std::memcpy(&v, data.data() + pos, 8);
        pos += 8;
        return v;
    }

    std::string
    bytes(std::size_t n)
    {
        if (pos + n > data.size()) {
            ok = false;
            return {};
        }
        std::string s = data.substr(pos, n);
        pos += n;
        return s;
    }
};

void
makeDirectory(const std::string &path)
{
    // mkdir -p over the path's components.
    std::string partial;
    for (std::size_t i = 0; i <= path.size(); ++i) {
        if (i < path.size() && path[i] != '/') {
            partial += path[i];
            continue;
        }
        if (i < path.size())
            partial += '/';
        if (partial.empty() || partial == "/")
            continue;
        if (::mkdir(partial.c_str(), 0755) != 0 && errno != EEXIST)
            PAQOC_FATAL_IF(true, "cannot create directory '", partial,
                           "': ", std::strerror(errno));
    }
}

void
rotateAside(const std::string &path, std::vector<std::string> &warnings)
{
    const std::string stale = path + ".stale";
    ::unlink(stale.c_str());
    if (::rename(path.c_str(), stale.c_str()) == 0)
        warnings.push_back("rotated incompatible file '" + path
                           + "' to '" + stale + "'");
}

void
fsyncDirectory(const std::string &dir)
{
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd >= 0) {
        ::fsync(fd);
        ::close(fd);
    }
}

} // namespace

std::string
encodePulseRecord(const std::string &key, const CachedPulse &entry)
{
    std::string out;
    const std::size_t dim = entry.unitary.rows();
    const std::size_t slices = entry.schedule.amplitudes.size();
    const std::size_t channels =
        slices > 0 ? entry.schedule.amplitudes[0].size() : 0;
    out.reserve(key.size() + dim * dim * 16 + slices * channels * 8
                + 64);
    putU32(out, static_cast<std::uint32_t>(key.size()));
    out += key;
    putU32(out, static_cast<std::uint32_t>(entry.numQubits));
    putF64(out, entry.latency);
    putF64(out, entry.error);
    putU32(out, static_cast<std::uint32_t>(dim));
    for (std::size_t r = 0; r < dim; ++r) {
        for (std::size_t c = 0; c < dim; ++c) {
            putF64(out, entry.unitary(r, c).real());
            putF64(out, entry.unitary(r, c).imag());
        }
    }
    putU32(out, static_cast<std::uint32_t>(slices));
    putU32(out, static_cast<std::uint32_t>(channels));
    putF64(out, entry.schedule.fidelity);
    for (const auto &slice : entry.schedule.amplitudes) {
        PAQOC_ASSERT(slice.size() == channels,
                     "ragged schedule cannot be serialized");
        for (double a : slice)
            putF64(out, a);
    }
    return out;
}

std::optional<std::pair<std::string, CachedPulse>>
decodePulseRecord(const std::string &payload)
{
    Cursor cur{payload};
    const std::uint32_t key_len = cur.u32();
    if (!cur.ok || key_len > payload.size())
        return std::nullopt;
    std::string key = cur.bytes(key_len);
    CachedPulse entry;
    entry.numQubits = static_cast<int>(cur.u32());
    entry.latency = cur.f64();
    entry.error = cur.f64();
    const std::uint32_t dim = cur.u32();
    if (!cur.ok || entry.numQubits <= 0 || entry.numQubits > 8
        || dim != (std::uint32_t{1} << entry.numQubits))
        return std::nullopt;
    entry.unitary = Matrix(dim, dim);
    for (std::uint32_t r = 0; r < dim; ++r)
        for (std::uint32_t c = 0; c < dim; ++c) {
            const double re = cur.f64();
            const double im = cur.f64();
            entry.unitary(r, c) = Complex(re, im);
        }
    const std::uint32_t slices = cur.u32();
    const std::uint32_t channels = cur.u32();
    entry.schedule.fidelity = cur.f64();
    if (!cur.ok
        || static_cast<std::uint64_t>(slices) * channels * 8
            > payload.size())
        return std::nullopt;
    entry.schedule.amplitudes.assign(slices,
                                     std::vector<double>(channels));
    for (auto &slice : entry.schedule.amplitudes)
        for (double &a : slice)
            a = cur.f64();
    if (!cur.ok || cur.pos != payload.size())
        return std::nullopt;
    return std::make_pair(std::move(key), std::move(entry));
}

PulseLibrary::PulseLibrary(std::string directory, std::string fingerprint,
                           PulseLibraryOptions options)
    : directory_(std::move(directory)),
      fingerprint_(std::move(fingerprint)), options_(options)
{
    makeDirectory(directory_);

    // 1. Snapshot: the state as of the last compaction.
    JournalScan snap = scanJournal(
        snapshotPath(), fingerprint_, [this](const std::string &p) {
            applyRecord(p, stats_.snapshotRecords);
        });
    if (!snap.warning.empty())
        stats_.warnings.push_back(snap.warning);
    if (!snap.headerValid
        || (!snap.fingerprint.empty()
            && snap.fingerprint != fingerprint_))
        rotateAside(snapshotPath(), stats_.warnings);
    stats_.droppedTailBytes += snap.droppedBytes;

    // 2. Journal: everything appended since; later records win.
    JournalScan jrn = scanJournal(
        journalPath(), fingerprint_, [this](const std::string &p) {
            applyRecord(p, stats_.journalRecords);
        });
    if (!jrn.warning.empty())
        stats_.warnings.push_back(jrn.warning);
    std::uint64_t truncate_to = jrn.committedBytes;
    if (!jrn.headerValid
        || (!jrn.fingerprint.empty()
            && jrn.fingerprint != fingerprint_)) {
        rotateAside(journalPath(), stats_.warnings);
        truncate_to = 0; // fresh file, openAppend writes the header
    } else {
        stats_.droppedTailBytes += jrn.droppedBytes;
    }

    // 3. Reopen for appending, dropping any torn tail.
    journal_ =
        JournalWriter::openAppend(journalPath(), fingerprint_,
                                  truncate_to);
}

PulseLibrary::~PulseLibrary()
{
    journal_.sync();
}

void
PulseLibrary::applyRecord(const std::string &payload,
                          std::size_t &counter)
{
    // Called during recovery only (constructor; mutex not yet shared).
    auto decoded = decodePulseRecord(payload);
    if (!decoded.has_value()) {
        ++stats_.corruptPayloads;
        stats_.warnings.push_back(
            "pulse library: skipped an undecodable record of "
            + std::to_string(payload.size()) + " bytes");
        return;
    }
    entries_[decoded->first] = std::move(decoded->second);
    ++counter;
}

void
PulseLibrary::warm(PulseCache &cache) const
{
    cache.attachEpoch(epoch());
}

std::shared_ptr<const PulseEpoch>
PulseLibrary::epoch() const
{
    MutexLock lock(mutex_);
    if (epoch_ == nullptr)
        epoch_ = std::make_shared<const PulseEpoch>(entries_);
    return epoch_;
}

std::vector<CachedPulse>
PulseLibrary::entriesSnapshot() const
{
    MutexLock lock(mutex_);
    std::vector<CachedPulse> out;
    out.reserve(entries_.size());
    for (const auto &[key, entry] : entries_)
        out.push_back(entry);
    return out;
}

void
PulseLibrary::onInsert(const std::string &key, const CachedPulse &entry)
{
    bool fresh = false;
    {
        MutexLock lock(mutex_);
        if (entry.degraded) {
            // Stitched best-effort pulses are session-local: serving
            // them again after a restart would freeze a degraded
            // result into the library forever.
            ++stats_.skippedDegradedPulses;
            return;
        }
        const auto it = entries_.find(key);
        if (it != entries_.end() && it->second.latency == entry.latency
            && it->second.error == entry.error
            && it->second.schedule.amplitudes.size()
                == entry.schedule.amplitudes.size()) {
            // Exact re-derivation of a stored pulse: nothing new to
            // log (and nothing new for the forward sink either).
            return;
        }
        entries_[key] = entry;
        epoch_.reset(); // the next epoch() sees this entry
        fresh = true;
        if (stats_.degraded) {
            // Read-only mode: keep serving the fresh derivation from
            // memory, but stop touching the (failing) disk.
            ++stats_.failedAppends;
        } else {
            try {
                journal_.append(encodePulseRecord(key, entry));
                ++stats_.appendedRecords;
                if (options_.syncEveryAppend && !journal_.sync())
                    enterDegradedLocked("journal fsync failed");
            } catch (const FatalError &e) {
                ++stats_.failedAppends;
                enterDegradedLocked(e.what());
            }
        }
    }
    // Write-behind forwarding runs outside the lock (the tier queue
    // takes its own). Entries that came *from* the tier stay here --
    // echoing them back would just churn the queue -- and a locally
    // degraded library still forwards: the tier may well be healthier
    // than this host's disk.
    if (fresh && !entry.fromTier) {
        if (PulseStoreSink *next =
                forward_.load(std::memory_order_acquire))
            next->onInsert(key, entry);
    }
}

void
PulseLibrary::setForwardSink(PulseStoreSink *sink)
{
    forward_.store(sink, std::memory_order_release);
}

void
PulseLibrary::enterDegradedLocked(const std::string &reason)
{
    if (stats_.degraded)
        return;
    stats_.degraded = true;
    stats_.warnings.push_back(
        "pulse library degraded to read-only: " + reason);
    // The fd is in an unknown state (possibly a torn tail record);
    // the next clean start rescans, truncates, and recovers.
    journal_.close();
}

void
PulseLibrary::compact()
{
    MutexLock lock(mutex_);
    if (stats_.degraded) {
        // The disk already failed once; rewriting the snapshot could
        // replace a good file with a torn one. Keep what we have.
        return;
    }
    try {
        const std::string tmp = snapshotPath() + ".tmp";
        ::unlink(tmp.c_str());
        {
            JournalWriter snap =
                JournalWriter::openAppend(tmp, fingerprint_, 0);
            for (const auto &[key, entry] : entries_)
                snap.append(encodePulseRecord(key, entry));
            PAQOC_FATAL_IF(!snap.sync(), "cannot fsync snapshot '",
                           tmp, "'");
        }
        const failpoint::Hit hit =
            failpoint::evaluate("library.compact");
        const bool rename_blocked =
            hit.action != failpoint::Action::Off
            && hit.action != failpoint::Action::DelayMs;
        PAQOC_FATAL_IF(rename_blocked
                           || ::rename(tmp.c_str(),
                                       snapshotPath().c_str())
                               != 0,
                       "cannot publish snapshot '", snapshotPath(),
                       "': ",
                       rename_blocked ? "injected rename failure"
                                      : std::strerror(errno));
        fsyncDirectory(directory_);

        // Reset the journal: every record it held is now in the
        // snapshot. A crash before this truncate merely leaves
        // duplicate records, which replay idempotently.
        journal_.close();
        PAQOC_FATAL_IF(::truncate(journalPath().c_str(), 0) != 0,
                       "cannot truncate journal '", journalPath(),
                       "': ", std::strerror(errno));
        journal_ =
            JournalWriter::openAppend(journalPath(), fingerprint_, 0);
        PAQOC_FATAL_IF(!journal_.sync(), "cannot fsync journal '",
                       journalPath(), "'");
    } catch (const FatalError &e) {
        // Compaction is an optimization; failing it must not take the
        // daemon down. The snapshot/journal pair on disk is still one
        // of the states the crash-safety argument covers.
        enterDegradedLocked(e.what());
    }
}

void
PulseLibrary::sync()
{
    MutexLock lock(mutex_);
    if (!stats_.degraded && !journal_.sync())
        enterDegradedLocked("journal fsync failed");
}

std::size_t
PulseLibrary::size() const
{
    MutexLock lock(mutex_);
    return entries_.size();
}

PulseLibraryStats
PulseLibrary::stats() const
{
    MutexLock lock(mutex_);
    return stats_;
}

std::string
PulseLibrary::spectralFingerprint()
{
    char buf[96];
    std::snprintf(buf, sizeof buf,
                  "spectral-v2;dev=xy-transmon;u2=%.17g;u1=%.17g",
                  DeviceModel::kTwoQubitBound,
                  DeviceModel::kOneQubitBound);
    return buf;
}

std::string
PulseLibrary::grapeFingerprint(const GrapeOptions &options)
{
    char buf[192];
    std::snprintf(buf, sizeof buf,
                  "grape-v2;dev=xy-transmon;u2=%.17g;u1=%.17g;"
                  "ti=%.17g;mi=%d;lr=%.17g;seed=%llu;rs=%d;dp=%d",
                  DeviceModel::kTwoQubitBound,
                  DeviceModel::kOneQubitBound, options.targetInfidelity,
                  options.maxIterations, options.learningRate,
                  static_cast<unsigned long long>(options.seed),
                  options.restarts, options.durationProbes);
    return buf;
}

std::string
PulseLibrary::snapshotPath() const
{
    return directory_ + "/" + kSnapshotFile;
}

std::string
PulseLibrary::journalPath() const
{
    return directory_ + "/" + kJournalFile;
}

} // namespace paqoc
