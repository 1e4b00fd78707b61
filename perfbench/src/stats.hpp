// Order statistics the benchmark reports: medians, and the tail rule
// "the highest percentile of a fixed ladder that still has at least ten
// samples beyond it", reported together with that percentile and the
// sample count so a reader can tell a p90 from a p99.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

/// Median (mean of the two middle values for even sizes); NaN when empty.
[[nodiscard]] double median(std::vector<double> values);

/// Nearest-rank percentile (p in (0, 100]) of `values`; NaN when empty.
[[nodiscard]] double percentile(std::vector<double> values, double p);

struct Tail {
  double value = 0.0;    ///< the percentile's value
  double pct = 0.0;      ///< which percentile of the ladder was used
  std::size_t n = 0;     ///< sample count
  std::size_t beyond = 0;  ///< samples strictly above the percentile rank
};

/// Samples beyond the nearest-rank p-th percentile of n samples.
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double pct);

/// Highest percentile of the ladder 50, 75, 90, 99, 99.9, 99.99 with
/// >= `min_beyond` samples beyond it. With too few samples for any rung,
/// falls back to the median (pct = 50) so the metric stays defined;
/// `beyond` then shows it is under-sampled.
[[nodiscard]] Tail tail(const std::vector<double>& values,
                        std::size_t min_beyond = 10);

}  // namespace perfbench
