#ifndef E2EBENCH_SRC_STATS_H_
#define E2EBENCH_SRC_STATS_H_

#include <vector>

namespace e2ebench {

/// Exact nearest-rank percentile, p in [0, 100]: the smallest sample with
/// at least p% of the samples at or below it. 0 for no samples. Reorders
/// `samples`.
double Percentile(std::vector<double>& samples, double p);

/// Median of a small set (the set-up repetitions). 0 for no samples.
double Median(std::vector<double> samples);

}  // namespace e2ebench

#endif  // E2EBENCH_SRC_STATS_H_
