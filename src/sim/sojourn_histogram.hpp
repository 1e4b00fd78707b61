// Fixed-footprint sojourn-time histogram for large-n runs.
//
// SimConfig::collect_sojourns keeps every measured sojourn (8 bytes per
// completed task — gigabytes at n = 10^6), which is the one per-task
// memory term left in the engine. This histogram replaces it at scale:
// 1/8-octave log-spaced buckets with integer counts, so quantiles are
// recovered to within the bucket ratio 2^(1/8) ~ 9% at O(1) memory.
//
// Counts are plain integers, so instances merge EXACTLY — the merged
// histogram is bit-identical no matter how the sojourns were partitioned
// (across replications, say), unlike any floating-point accumulator,
// whose merge order changes the rounding; tests/sim_shard_test.cpp pins
// merge(a, b) == one accumulation.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "util/error.hpp"

namespace lsm::sim {

class SojournHistogram {
 public:
  /// Bucketed range: [2^kMinExp, 2^kMaxExp), kSub buckets per octave.
  static constexpr int kMinExp = -16;
  static constexpr int kMaxExp = 16;
  static constexpr int kSub = 8;
  /// Index 0 underflows, index kBuckets-1 overflows.
  static constexpr std::size_t kBuckets =
      static_cast<std::size_t>((kMaxExp - kMinExp) * kSub) + 2;

  SojournHistogram() = default;
  /// Enabled instances own their count array; a default-constructed one
  /// is an empty placeholder (SimResult's disabled state).
  explicit SojournHistogram(bool enable) {
    if (enable) counts_.assign(kBuckets, 0);
  }

  [[nodiscard]] bool enabled() const noexcept { return !counts_.empty(); }

  void add(double t) noexcept {
    LSM_ASSERT(enabled());
    ++counts_[bucket(t)];
    ++total_;
  }

  /// Exact integer merge; commutative and associative, so any partition
  /// of the same sojourns yields identical state.
  void merge(const SojournHistogram& o) {
    if (!o.enabled()) return;
    if (!enabled()) counts_.assign(kBuckets, 0);
    for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += o.counts_[i];
    total_ += o.total_;
  }

  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  [[nodiscard]] const std::vector<std::uint64_t>& counts() const noexcept {
    return counts_;
  }

  /// p-th quantile (p in [0,1]) by linear interpolation inside the
  /// holding bucket; resolution is the bucket ratio 2^(1/8).
  [[nodiscard]] double quantile(double p) const {
    LSM_EXPECT(enabled() && total_ > 0, "quantile of an empty histogram");
    LSM_EXPECT(p >= 0.0 && p <= 1.0, "quantile order must lie in [0,1]");
    const double target = p * static_cast<double>(total_);
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      if (counts_[i] == 0) continue;
      const double lo_cum = static_cast<double>(cum);
      cum += counts_[i];
      if (static_cast<double>(cum) >= target) {
        const double frac =
            counts_[i] > 0
                ? (target - lo_cum) / static_cast<double>(counts_[i])
                : 0.0;
        const double lo = bucket_lo(i);
        const double hi = bucket_hi(i);
        return lo + (hi - lo) * std::min(std::max(frac, 0.0), 1.0);
      }
    }
    return bucket_hi(kBuckets - 1);
  }

  /// Bucket index of a sojourn time.
  [[nodiscard]] static std::size_t bucket(double t) noexcept {
    if (!(t >= std::ldexp(1.0, kMinExp))) return 0;  // underflow, <= 0, NaN
    if (t >= std::ldexp(1.0, kMaxExp)) return kBuckets - 1;
    const std::uint64_t u = std::bit_cast<std::uint64_t>(t);
    const int e2 = static_cast<int>(u >> 52) - 1023;
    const auto sub = static_cast<std::size_t>((u >> 49) & 7u);
    return 1 + static_cast<std::size_t>(e2 - kMinExp) * kSub + sub;
  }

  [[nodiscard]] static double bucket_lo(std::size_t i) noexcept {
    if (i == 0) return 0.0;
    if (i >= kBuckets - 1) return std::ldexp(1.0, kMaxExp);
    const std::size_t k = i - 1;
    const int e2 = kMinExp + static_cast<int>(k / kSub);
    const double m = 1.0 + static_cast<double>(k % kSub) / kSub;
    return std::ldexp(m, e2);
  }

  [[nodiscard]] static double bucket_hi(std::size_t i) noexcept {
    if (i == 0) return std::ldexp(1.0, kMinExp);
    if (i >= kBuckets - 1) return std::ldexp(2.0, kMaxExp);
    return bucket_lo(i + 1);
  }

  [[nodiscard]] std::size_t resident_bytes() const noexcept {
    return counts_.capacity() * sizeof(std::uint64_t);
  }

 private:
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

}  // namespace lsm::sim
