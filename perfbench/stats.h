#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <vector>

namespace perfbench {

/** Median (mean of the two middle values for an even count). */
double median(std::vector<double> values);

/** Geometric mean; every value must be positive. */
double geomean(const std::vector<double> &values);

/**
 * The tail percentile of the choosing-metrics rule: the highest
 * nearest-rank percentile that still has at least `beyond` values
 * ranked above it. With n values the answer is the value of rank
 * n - beyond (1-based); fewer than beyond + 1 values have no such
 * percentile, and the maximum is reported with beyondCount < beyond.
 */
struct TailPercentile
{
    double value = 0.0;
    /** Nearest-rank percentile the value sits at, in [0, 100]. */
    double percentile = 0.0;
    /** Values ranked above it (the "n beyond" of the report). */
    std::size_t beyondCount = 0;
};
TailPercentile tailPercentile(std::vector<double> values,
                              std::size_t beyond = 10);

/**
 * Each input's best sample over passes: samples[p][i] is input i's
 * value in pass p; the result has one minimum per input.
 */
std::vector<double>
bestOfPasses(const std::vector<std::vector<double>> &samples);

} // namespace perfbench

#endif // PERFBENCH_STATS_H_
