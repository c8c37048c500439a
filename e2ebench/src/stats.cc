#include "e2ebench/src/stats.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

namespace e2ebench {

double Percentile(std::vector<double>& samples, double p) {
  if (samples.empty()) return 0;
  auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(samples.size())));
  std::size_t k = rank == 0 ? 0 : rank - 1;
  if (k >= samples.size()) k = samples.size() - 1;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(k),
                   samples.end());
  return samples[k];
}

double Median(std::vector<double> samples) {
  return Percentile(samples, 50);
}

}  // namespace e2ebench
