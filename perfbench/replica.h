#ifndef PERFBENCH_REPLICA_H_
#define PERFBENCH_REPLICA_H_

#include <memory>
#include <string>
#include <vector>

#include "circuit/circuit.h"
#include "inputs.h"
#include "paqoc/merge_engine.h"
#include "qoc/pulse_generator.h"
#include "store/pulse_library.h"
#include "trace.h"

namespace perfbench {

/** Counts taken by the benchmark's hooks inside the layers. */
struct ReplicaCounters
{
    std::size_t estimates = 0;
    /** Cache-missing pulse productions (GRAPE runs or model calls). */
    std::size_t derivations = 0;
    /** Derivations that came back as stitched degraded pulses. */
    std::size_t degraded = 0;
    /** Journal appends seen by the forwarding store sink. */
    std::size_t appends = 0;
};

/** Everything one replayed request produced. */
struct ReplicaResult
{
    /** Json::dump of the payload, comparable with the daemon's. */
    std::string payload;
    paqoc::Circuit logical{1};
    /** Routed circuit lowered to {h, rz, sx, x, cx}. */
    paqoc::Circuit physical{1};
    /** The compiled customized-gate circuit the payload describes. */
    paqoc::Circuit finalCircuit{1};
    std::vector<int> initialLayout;
    std::vector<int> finalLayout;
    int swaps = 0;
    int patterns = 0;
    int apaUses = 0;
    paqoc::MergeStats merge;
    std::size_t pulseCalls = 0;
    std::size_t cacheHits = 0;
    long grapeIters = 0;
    /** Degraded pulses this request derived. */
    std::size_t degraded = 0;
    /** Wall seconds of the replayed request path. */
    double seconds = 0.0;
    /** The request's generator, its cache holding every pulse. */
    std::unique_ptr<paqoc::PulseGenerator> generator;
};

/**
 * In-process replay of the daemon's compile path (PulseService's
 * handleCompile: runCompileJob + compilePaqoc + compilePayload),
 * rebuilt from the same public calls with a span around each. The
 * payload it produces must equal the daemon's byte for byte; that
 * is what makes its spans evidence about the daemon.
 *
 * The epoch library is opened once (its recovery is the store.recover
 * measurement) and only ever read, like the daemon's frozen epoch.
 * Derivations journal through a forwarding sink into a separate
 * library, which times the appends.
 */
class Replica
{
  public:
    /**
     * `epoch_dir` is the daemon's --library directory; `journal_dir`
     * an empty directory for this replica's appends.
     */
    Replica(Tracer &tracer, const std::string &backend,
            const std::string &epoch_dir, const std::string &journal_dir);
    ~Replica();

    Replica(const Replica &) = delete;
    Replica &operator=(const Replica &) = delete;

    ReplicaResult run(int index, const BenchInput &input);

    const ReplicaCounters &counters() const { return counters_; }
    double recoverSeconds() const { return recover_s_; }
    std::size_t epochRecords() const { return epoch_->size(); }

  private:
    class TimedSink;

    Tracer &tracer_;
    ReplicaCounters counters_;
    double recover_s_ = 0.0;
    std::unique_ptr<paqoc::PulseLibrary> epoch_;
    std::unique_ptr<paqoc::PulseLibrary> journal_;
    std::unique_ptr<TimedSink> sink_;
};

} // namespace perfbench

#endif // PERFBENCH_REPLICA_H_
