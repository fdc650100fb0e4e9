#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "inputs.h"

namespace perfbench {

/** How one benchmark run is driven. */
struct RunOptions
{
    Workload workload = Workload::GrapeCold;
    std::uint64_t seed = 0;
    /** Timed passes continue until this much wall time has passed. */
    double seconds = 10.0;
    /** Traced run (per-layer metrics) instead of timed passes. */
    bool trace = false;
    std::string paqocd;
    /** Working directory for libraries, sockets and logs. */
    std::string workdir;
    /** Keep only the first N inputs (0 = all); smoke mode. */
    std::size_t inputLimit = 0;
    /** Fixed pass count (0 = fill `seconds`, at least two). */
    int passes = 0;
};

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** The result line of a run. */
struct RunResult
{
    bool correct = false;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<Metric> metrics;
};

/**
 * Run one workload against `paqocd`: timed passes (end-to-end
 * metrics) or the traced replay (per-layer metrics). Human-readable
 * detail goes to `log`.
 */
RunResult runBenchmark(const RunOptions &options, std::ostream &log);

/** The final JSON line of a run. */
std::string resultJson(const RunResult &result);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H_
