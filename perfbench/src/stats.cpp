#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

namespace {

// 1-based nearest rank of the p-th percentile of n samples.
std::size_t rank_of(std::size_t n, double pct) {
  const double r = std::ceil(pct / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(r), 1, n);
}

}  // namespace

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  return values[rank_of(values.size(), p) - 1];
}

std::size_t samples_beyond(std::size_t n, double pct) {
  return n == 0 ? 0 : n - rank_of(n, pct);
}

Tail tail(const std::vector<double>& values, std::size_t min_beyond) {
  Tail t;
  t.n = values.size();
  t.pct = 50.0;
  for (const double p : {50.0, 75.0, 90.0, 99.0, 99.9, 99.99}) {
    if (samples_beyond(t.n, p) >= min_beyond) t.pct = p;
  }
  t.beyond = samples_beyond(t.n, t.pct);
  t.value = percentile(values, t.pct);
  return t;
}

}  // namespace perfbench
