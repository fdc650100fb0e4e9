#include "qoc/pulse_cache.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/error.h"
#include "linalg/unitary_util.h"

namespace paqoc {

namespace {

/** Normalize global phase: largest-magnitude entry made real positive. */
Matrix
phaseNormalized(const Matrix &u)
{
    std::size_t best_r = 0, best_c = 0;
    double best = -1.0;
    for (std::size_t r = 0; r < u.rows(); ++r) {
        for (std::size_t c = 0; c < u.cols(); ++c) {
            const double m = std::abs(u(r, c));
            if (m > best + 1e-12) {
                best = m;
                best_r = r;
                best_c = c;
            }
        }
    }
    const Complex pivot = u(best_r, best_c);
    Matrix out = u;
    if (std::abs(pivot) > 1e-12)
        out *= std::conj(pivot) / std::abs(pivot);
    return out;
}

/**
 * Append `v` rounded at 1e-4, as printf's "%.4f" prints it (the
 * standard defines std::to_chars' fixed format so). Rounding first
 * maps GRAPE noise to a stable key; the +0.0 folds negative zero.
 */
void
appendQuantized(std::string &out, double v)
{
    const double q = std::round(v * 1e4) / 1e4 + 0.0;
    // Room for any finite double in fixed notation.
    char buf[std::numeric_limits<double>::max_exponent10 + 8];
    const std::to_chars_result res = std::to_chars(
        buf, buf + sizeof buf, q, std::chars_format::fixed, 4);
    out.append(buf, res.ptr);
}

} // namespace

std::string
PulseCache::canonicalKey(const Matrix &unitary, int num_qubits)
{
    PAQOC_ASSERT(unitary.rows() == (std::size_t{1} << num_qubits),
                 "unitary does not match qubit count");
    const Matrix u = phaseNormalized(unitary);
    std::string key = std::to_string(num_qubits);
    key.reserve(key.size() + 1 + u.rows() * u.cols() * 16);
    key += ':';
    for (std::size_t r = 0; r < u.rows(); ++r) {
        for (std::size_t c = 0; c < u.cols(); ++c) {
            appendQuantized(key, u(r, c).real());
            key += ',';
            appendQuantized(key, u(r, c).imag());
            key += ';';
        }
    }
    return key;
}

PulseCache::Acquired
PulseCache::acquire(const Matrix &unitary, int num_qubits)
{
    const std::string key = canonicalKey(unitary, num_qubits);
    MutexLock lock(mutex_);
    for (;;) {
        if (const CachedPulse *hit = findLocked(key))
            return {FlightRole::Hit, *hit};
        const auto it = flights_.find(key);
        if (it == flights_.end()) {
            flights_.emplace(key, std::make_shared<Flight>());
            return {FlightRole::Leader, std::nullopt};
        }
        const std::shared_ptr<Flight> flight = it->second;
        while (!flight->done)
            flight->cv.wait(mutex_);
        if (!flight->aborted)
            return {FlightRole::Joined, flight->result};
        // The leader failed; loop and re-race for leadership.
    }
}

void
PulseCache::completeFlight(const Matrix &unitary, int num_qubits,
                           CachedPulse entry)
{
    const std::string key = canonicalKey(unitary, num_qubits);
    std::optional<CachedPulse> journaled;
    PulseStoreSink *sink = nullptr;
    {
        MutexLock lock(mutex_);
        const auto it = flights_.find(key);
        PAQOC_ASSERT(it != flights_.end(),
                     "completeFlight without a matching acquire");
        const std::shared_ptr<Flight> flight = it->second;
        flights_.erase(it);
        insertLocked(key, unitary, num_qubits, std::move(entry));
        flight->done = true;
        flight->result = entries_.at(key);
        if (sink_ != nullptr) {
            journaled = entries_.at(key);
            sink = sink_;
        }
        flight->cv.notify_all();
    }
    // Forward outside the lock: the sink may do blocking file I/O.
    if (journaled.has_value())
        sink->onInsert(key, *journaled);
}

void
PulseCache::abortFlight(const Matrix &unitary, int num_qubits)
{
    const std::string key = canonicalKey(unitary, num_qubits);
    MutexLock lock(mutex_);
    const auto it = flights_.find(key);
    if (it == flights_.end())
        return;
    const std::shared_ptr<Flight> flight = it->second;
    flights_.erase(it);
    flight->done = true;
    flight->aborted = true;
    flight->cv.notify_all();
}

const CachedPulse *
PulseCache::lookup(const Matrix &unitary, int num_qubits) const
{
    const std::string key = canonicalKey(unitary, num_qubits);
    MutexLock lock(mutex_);
    return findLocked(key);
}

bool
PulseCache::containsKey(const std::string &key) const
{
    MutexLock lock(mutex_);
    return findLocked(key) != nullptr;
}

const CachedPulse *
PulseCache::findLocked(const std::string &key) const
{
    if (const auto it = entries_.find(key); it != entries_.end())
        return &it->second;
    if (epoch_ != nullptr)
        if (const auto it = epoch_->find(key); it != epoch_->end())
            return &it->second;
    return nullptr;
}

void
PulseCache::insert(const Matrix &unitary, int num_qubits,
                   CachedPulse entry)
{
    const std::string key = canonicalKey(unitary, num_qubits);
    std::optional<CachedPulse> journaled;
    PulseStoreSink *sink = nullptr;
    {
        MutexLock lock(mutex_);
        insertLocked(key, unitary, num_qubits, std::move(entry));
        if (sink_ != nullptr) {
            journaled = entries_.at(key);
            sink = sink_;
        }
    }
    if (journaled.has_value())
        sink->onInsert(key, *journaled);
}

void
PulseCache::attachStore(PulseStoreSink *sink)
{
    MutexLock lock(mutex_);
    sink_ = sink;
}

void
PulseCache::attachEpoch(std::shared_ptr<const PulseEpoch> epoch)
{
    MutexLock lock(mutex_);
    epoch_ = std::move(epoch);
}

void
PulseCache::attachTier(PulseTierSource *tier)
{
    tier_.store(tier, std::memory_order_release);
}

PulseTierSource *
PulseCache::tierSource() const
{
    return tier_.load(std::memory_order_acquire);
}

void
PulseCache::insertLocked(const std::string &key, const Matrix &unitary,
                         int num_qubits, CachedPulse &&entry)
{
    entry.unitary = unitary;
    entry.numQubits = num_qubits;
    entry.generation =
        generation_.fetch_add(1, std::memory_order_relaxed);
    entries_[key] = std::move(entry);
}

std::size_t
PulseCache::size() const
{
    MutexLock lock(mutex_);
    if (epoch_ == nullptr)
        return entries_.size();
    std::size_t n = entries_.size() + epoch_->size();
    // paqoc-lint: allow(unordered-iteration) a count is order-free
    for (const auto &[key, entry] : entries_)
        n -= epoch_->count(key);
    return n;
}

void
PulseCache::save(const std::string &path) const
{
    std::ofstream out(path);
    PAQOC_FATAL_IF(!out, "cannot write pulse database '", path, "'");
    out << "paqoc-pulse-db 1\n";
    out.precision(17);
    MutexLock lock(mutex_);
    // Emit in canonical-key order so the file is byte-stable across
    // STL hash implementations and insert histories. Stitched fallback
    // pulses are session-local best effort; a saved database must
    // never freeze one in.
    std::vector<std::pair<const std::string *, const CachedPulse *>>
        ordered;
    ordered.reserve(entries_.size()
                    + (epoch_ != nullptr ? epoch_->size() : 0));
    // paqoc-lint: allow(unordered-iteration) order folded by sort below
    for (const auto &[key, e] : entries_)
        if (!e.degraded)
            ordered.emplace_back(&key, &e);
    if (epoch_ != nullptr)
        for (const auto &[key, e] : *epoch_)
            if (!e.degraded && entries_.count(key) == 0)
                ordered.emplace_back(&key, &e);
    std::sort(ordered.begin(), ordered.end(),
              [](const auto &a, const auto &b) {
                  return *a.first < *b.first;
              });
    for (const auto &[key_ptr, entry_ptr] : ordered) {
        const CachedPulse &e = *entry_ptr;
        const std::size_t dim = e.unitary.rows();
        out << "entry " << e.numQubits << ' ' << e.latency << ' '
            << e.error << ' ' << dim << ' '
            << e.schedule.numSlices() << ' '
            << (e.schedule.numSlices() > 0
                    ? e.schedule.amplitudes[0].size()
                    : 0)
            << ' ' << e.schedule.fidelity << '\n';
        for (std::size_t r = 0; r < dim; ++r) {
            for (std::size_t c = 0; c < dim; ++c)
                out << e.unitary(r, c).real() << ' '
                    << e.unitary(r, c).imag() << ' ';
            out << '\n';
        }
        for (const auto &slice : e.schedule.amplitudes) {
            for (double a : slice)
                out << a << ' ';
            out << '\n';
        }
    }
}

void
PulseCache::load(const std::string &path)
{
    std::ifstream in(path);
    PAQOC_FATAL_IF(!in, "cannot read pulse database '", path, "'");

    // Parse line-by-line into a staging area first: a malformed file
    // raises a FatalError naming the offending line and the cache is
    // left exactly as it was (no partial load).
    int line_no = 0;
    std::string line;
    auto next_line = [&](const char *what) {
        PAQOC_FATAL_IF(!std::getline(in, line), "pulse database '",
                       path, "' line ", line_no + 1,
                       ": unexpected end of file (expected ", what,
                       ")");
        ++line_no;
    };
    auto bad_line = [&](const std::string &why) {
        PAQOC_FATAL_IF(true, "pulse database '", path, "' line ",
                       line_no, ": ", why, " -- got '", line, "'");
    };

    next_line("header");
    {
        std::istringstream hdr(line);
        std::string magic;
        int version = 0;
        if (!(hdr >> magic >> version) || magic != "paqoc-pulse-db"
            || version != 1)
            bad_line("not a version-1 pulse database header");
    }

    std::vector<CachedPulse> staged;
    while (std::getline(in, line)) {
        ++line_no;
        if (line.empty())
            continue;
        CachedPulse e;
        std::size_t dim = 0, slices = 0, channels = 0;
        {
            std::istringstream row(line);
            std::string tag;
            if (!(row >> tag) || tag != "entry")
                bad_line("expected an 'entry' record");
            if (!(row >> e.numQubits >> e.latency >> e.error >> dim
                  >> slices >> channels >> e.schedule.fidelity))
                bad_line("malformed entry header");
            if (e.numQubits <= 0 || dim == 0 || dim > 256
                || dim != (std::size_t{1} << e.numQubits))
                bad_line("entry dimension does not match qubit count");
        }
        e.unitary = Matrix(dim, dim);
        for (std::size_t r = 0; r < dim; ++r) {
            next_line("a unitary row");
            std::istringstream row(line);
            for (std::size_t c = 0; c < dim; ++c) {
                double re = 0.0, im = 0.0;
                if (!(row >> re >> im))
                    bad_line("truncated unitary row");
                e.unitary(r, c) = Complex(re, im);
            }
        }
        e.schedule.amplitudes.assign(slices,
                                     std::vector<double>(channels));
        for (auto &slice : e.schedule.amplitudes) {
            next_line("an amplitude row");
            std::istringstream row(line);
            for (double &a : slice)
                if (!(row >> a))
                    bad_line("truncated amplitude row");
        }
        staged.push_back(std::move(e));
    }
    for (CachedPulse &e : staged) {
        const Matrix u = e.unitary;
        const int nq = e.numQubits;
        insert(u, nq, std::move(e));
    }
}

const CachedPulse *
PulseCache::nearest(const Matrix &unitary, int num_qubits,
                    double max_distance) const
{
    MutexLock lock(mutex_);
    return nearestLocked(unitary, num_qubits, max_distance,
                         std::numeric_limits<std::uint64_t>::max());
}

std::optional<CachedPulse>
PulseCache::nearestBefore(const Matrix &unitary, int num_qubits,
                          double max_distance,
                          std::uint64_t generation_bound) const
{
    MutexLock lock(mutex_);
    const CachedPulse *best =
        nearestLocked(unitary, num_qubits, max_distance, generation_bound);
    if (best == nullptr)
        return std::nullopt;
    return *best;
}

const CachedPulse *
PulseCache::nearestLocked(const Matrix &unitary, int num_qubits,
                          double max_distance,
                          std::uint64_t generation_bound) const
{
    const CachedPulse *best = nullptr;
    double best_dist = 0.0;
    // Tie-break on the canonical key so equal-distance entries resolve
    // identically regardless of hash-map iteration order or of the
    // (thread-dependent) order concurrent inserts landed in.
    const std::string *best_key = nullptr;
    auto consider = [&](const std::string &key, const CachedPulse &entry) {
        if (entry.numQubits != num_qubits)
            return;
        const double d = phaseInvariantDistance(entry.unitary, unitary);
        if (d > max_distance)
            return;
        if (best == nullptr || d < best_dist
            || (d == best_dist && key < *best_key)) {
            best_dist = d;
            best = &entry;
            best_key = &key;
        }
    };
    // paqoc-lint: allow(unordered-iteration) order folded by tie-break
    for (const auto &[key, entry] : entries_)
        if (entry.generation < generation_bound)
            consider(key, entry);
    // An own entry shadows the epoch's whatever its stamp, as an
    // overwriting insert would have replaced it.
    if (epoch_ != nullptr)
        for (const auto &[key, entry] : *epoch_)
            if (entries_.count(key) == 0)
                consider(key, entry);
    return best;
}

} // namespace paqoc
