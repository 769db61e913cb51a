// Small sample helpers. Percentiles come from qkdpp::PercentileSampler.
#pragma once

#include <numeric>
#include <vector>

namespace perfbench {

inline double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

/// Whether a percentile q has at least ten samples beyond it.
inline bool has_tail(std::size_t samples, double q) {
  // The epsilon absorbs rounding in 1 - q (1 - 0.9 is below 0.1).
  return static_cast<double>(samples) * (1.0 - q) >= 10.0 - 1e-9;
}

}  // namespace perfbench
