#include "stats.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace perfbench {

double
median(std::vector<double> values)
{
    PAQOC_FATAL_IF(values.empty(), "median of no values");
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
geomean(const std::vector<double> &values)
{
    PAQOC_FATAL_IF(values.empty(), "geometric mean of no values");
    double log_sum = 0.0;
    for (double v : values) {
        PAQOC_FATAL_IF(!(v > 0.0),
                       "geometric mean needs positive "
                       "values, got ",
                       v);
        log_sum += std::log(v);
    }
    return std::exp(log_sum / static_cast<double>(values.size()));
}

TailPercentile
tailPercentile(std::vector<double> values, std::size_t beyond)
{
    PAQOC_FATAL_IF(values.empty(), "tail percentile of no values");
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    // Rank r (1-based) has n - r values above it; keep n - r >= beyond
    // when possible, else fall back to the maximum.
    const std::size_t rank = n > beyond ? n - beyond : n;
    TailPercentile t;
    t.value = values[rank - 1];
    t.percentile = 100.0 * static_cast<double>(rank) / static_cast<double>(n);
    t.beyondCount = n - rank;
    return t;
}

std::vector<double>
bestOfPasses(const std::vector<std::vector<double>> &samples)
{
    PAQOC_FATAL_IF(samples.empty(), "best of no passes");
    std::vector<double> best = samples.front();
    for (const std::vector<double> &pass : samples) {
        PAQOC_FATAL_IF(pass.size() != best.size(),
                       "passes disagree on the input count");
        for (std::size_t i = 0; i < best.size(); ++i)
            best[i] = std::min(best[i], pass[i]);
    }
    return best;
}

} // namespace perfbench
