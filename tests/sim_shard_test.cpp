// Calendar independence of the SoA engine, plus unit coverage for the
// pieces that make it hold: the two event calendars (winner tree and
// calendar queue), the shared queue arena, and the exact-merging sojourn
// histogram.
//
// The load-bearing property: the event calendar is a LAYOUT choice.
// simulate() picks the winner tree or the calendar queue from n alone,
// and both pop the strict (time, seq) order, so the event order — and
// with it every RNG draw, every float accumulation, every counter — is
// the same on either. The ShardIndependence cases pin that end to end
// through the detail::simulate_on seam: the full SimResult must be
// bit-for-bit identical on both calendars across policies, including the
// float bit patterns of mean_sojourn / mean_tasks / tail_fraction and the
// sojourn histogram.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <vector>

#include "parallel/thread_pool.hpp"
#include "sim/calendar.hpp"
#include "sim/calendar_queue.hpp"
#include "sim/event_queue.hpp"
#include "sim/queue_arena.hpp"
#include "sim/replicate.hpp"
#include "sim/simulator.hpp"
#include "sim/sojourn_histogram.hpp"
#include "util/xoshiro.hpp"

namespace {

using namespace lsm;

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

using sim::detail::CalendarKind;

sim::SimConfig base_config() {
  sim::SimConfig cfg;
  cfg.processors = 96;  // not a power of two: exercises the padded tree
  cfg.arrival_rate = 0.9;
  cfg.horizon = 600.0;
  cfg.warmup = 100.0;
  cfg.seed = 4242;
  cfg.collect_sojourn_histogram = true;
  return cfg;
}

/// Every observable of `a` and `b` must match to the bit.
void expect_bit_identical(const sim::SimResult& a, const sim::SimResult& b) {
  EXPECT_EQ(a.arrivals, b.arrivals);
  EXPECT_EQ(a.completions, b.completions);
  EXPECT_EQ(a.steal_attempts, b.steal_attempts);
  EXPECT_EQ(a.steal_successes, b.steal_successes);
  EXPECT_EQ(a.tasks_moved, b.tasks_moved);
  EXPECT_EQ(a.forwards, b.forwards);
  EXPECT_EQ(a.control_messages_measured, b.control_messages_measured);
  EXPECT_EQ(a.max_queue, b.max_queue);
  EXPECT_EQ(a.tasks_remaining, b.tasks_remaining);
  EXPECT_EQ(bits(a.mean_sojourn()), bits(b.mean_sojourn()));
  EXPECT_EQ(bits(a.mean_tasks), bits(b.mean_tasks));
  EXPECT_EQ(bits(a.sojourn.stddev()), bits(b.sojourn.stddev()));
  ASSERT_EQ(a.tail_fraction.size(), b.tail_fraction.size());
  for (std::size_t i = 0; i < a.tail_fraction.size(); ++i) {
    EXPECT_EQ(bits(a.tail_fraction[i]), bits(b.tail_fraction[i]))
        << "tail_fraction[" << i << "]";
  }
  ASSERT_EQ(a.sojourn_hist.enabled(), b.sojourn_hist.enabled());
  EXPECT_EQ(a.sojourn_hist.total(), b.sojourn_hist.total());
  EXPECT_EQ(a.sojourn_hist.counts(), b.sojourn_hist.counts());
}

/// An n on the calendar-queue side of simulate()'s choice, with a short
/// horizon: ~2·10^5 events per run.
sim::SimConfig large_config() {
  auto cfg = base_config();
  cfg.processors = std::size_t{1} << 15;
  cfg.horizon = 4.0;
  cfg.warmup = 1.0;
  return cfg;
}

/// Runs `cfg` on both calendars and requires bit-identical results.
void expect_calendars_agree(const sim::SimConfig& cfg) {
  const util::Xoshiro256 rng(cfg.seed);
  const auto tree = sim::detail::simulate_on(cfg, rng, CalendarKind::WinnerTree);
  const auto queue =
      sim::detail::simulate_on(cfg, rng, CalendarKind::CalendarQueue);
  EXPECT_GT(tree.completions, 0u);
  expect_bit_identical(tree, queue);
  // simulate() itself takes the calendar n selects.
  expect_bit_identical(sim::simulate(cfg), tree);
}

TEST(ShardIndependence, SimulateChoosesTheCalendarFromN) {
  EXPECT_EQ(sim::detail::calendar_for(128), CalendarKind::WinnerTree);
  EXPECT_EQ(sim::detail::calendar_for(large_config().processors),
            CalendarKind::CalendarQueue);
  EXPECT_EQ(sim::detail::calendar_for(std::size_t{1} << 23),
            CalendarKind::CalendarQueue);
}

TEST(ShardIndependence, OnEmptyBitIdenticalAcrossCalendars) {
  auto cfg = large_config();
  cfg.policy = sim::StealPolicy::on_empty();
  expect_calendars_agree(cfg);
  // Small n too, where the calendar queue's buckets hold few events and
  // most late pushes take the side heap.
  expect_calendars_agree(base_config());
}

TEST(ShardIndependence, ShareBitIdenticalAcrossCalendars) {
  auto cfg = large_config();
  cfg.policy = sim::StealPolicy::sharing(2);
  expect_calendars_agree(cfg);
}

TEST(ShardIndependence, PreemptiveWithTransferBitIdentical) {
  // Constant service and constant transfer latency: completions, transfer
  // arrivals and the spill events tie on exact times all the time, so
  // the (time, seq) tie-break is exercised across all three streams.
  auto cfg = large_config();
  cfg.service = sim::ServiceDistribution::constant(1.0);
  cfg.policy = sim::StealPolicy::preemptive(1, 2);
  cfg.policy.transfer = sim::StealPolicy::Transfer::Constant;
  cfg.policy.transfer_mean = 0.25;
  cfg.policy.retry_rate = 4.0;
  expect_calendars_agree(cfg);
}

TEST(ShardIndependence, RebalanceBitIdenticalAcrossCalendars) {
  auto cfg = large_config();
  cfg.policy = sim::StealPolicy::rebalance(0.5);
  expect_calendars_agree(cfg);
}

TEST(ShardIndependence, RetryBitIdenticalAcrossCalendars) {
  auto cfg = large_config();
  cfg.policy = sim::StealPolicy::with_retries(2.0);
  cfg.policy.transfer = sim::StealPolicy::Transfer::Exponential;
  cfg.policy.transfer_mean = 0.05;
  expect_calendars_agree(cfg);
}

TEST(ShardIndependence, PooledReplicationsMatchSerial) {
  // Same property under the thread pool: replications are independent
  // engines, so the pool must not introduce any cross-thread coupling.
  // (This test is the TSan target for the scale-out path.)
  auto cfg = base_config();
  cfg.policy = sim::StealPolicy::on_empty();
  cfg.horizon = 300.0;
  const auto serial = sim::replicate(cfg, sim::ReplicateOptions{.replications = 4});
  par::ThreadPool pool(2);
  const auto pooled = sim::replicate(
      cfg, sim::ReplicateOptions{.replications = 4, .pool = &pool});
  ASSERT_EQ(serial.replications.size(), pooled.replications.size());
  for (std::size_t r = 0; r < serial.replications.size(); ++r) {
    expect_bit_identical(serial.replications[r], pooled.replications[r]);
  }
}

TEST(WinnerTreeCalendar, MatchesReferenceOnRandomizedTrace) {
  // Randomized schedule/pop churn, including a fired slot left to settle()
  // and re-scheduled slots, cross-checked against an ordered map from
  // (time, seq) to slot: every pop must be the reference's minimum.
  constexpr std::size_t kProcs = 37;  // pads the tree
  sim::WinnerTreeCalendar<std::uint32_t> cal(kProcs);
  std::map<std::pair<double, std::uint64_t>, std::uint32_t> ref;
  std::vector<bool> pending(2 * kProcs, false);
  std::vector<std::pair<double, std::uint64_t>> key_of(2 * kProcs);
  util::Xoshiro256 rng(7);
  std::uint64_t seq = 0;
  double now = 0.0;
  auto schedule = [&](std::uint32_t slot, double t) {
    if (pending[slot]) ref.erase(key_of[slot]);
    cal.schedule(slot >> 1, static_cast<sim::Stream>(slot & 1u), t);
    key_of[slot] = {t, seq++};
    ref[key_of[slot]] = slot;
    pending[slot] = true;
  };
  for (int step = 0; step < 20000; ++step) {
    if (ref.empty() || rng.below(3) != 0) {
      const auto slot = static_cast<std::uint32_t>(rng.below(2 * kProcs));
      // Integer-spaced times collide often; the seq must break the ties.
      schedule(slot, now + static_cast<double>(rng.below(8)));
      continue;
    }
    ASSERT_EQ(bits(cal.next_time()), bits(ref.begin()->first.first));
    const auto ev = cal.pop();
    const auto [key, slot] = *ref.begin();
    EXPECT_EQ(bits(ev.time), bits(key.first));
    EXPECT_EQ(2 * ev.proc + static_cast<std::uint32_t>(ev.stream), slot);
    ref.erase(ref.begin());
    pending[slot] = false;
    now = ev.time;
    // The handler re-schedules the fired slot half the time (the fused
    // re-key) and settles either way.
    if (rng.below(2) == 0) schedule(slot, now + 0.5 * static_cast<double>(rng.below(4)));
    cal.settle();
  }
  while (!ref.empty()) {
    const auto ev = cal.pop();
    EXPECT_EQ(bits(ev.time), bits(ref.begin()->first.first));
    ref.erase(ref.begin());
    cal.settle();
  }
  EXPECT_EQ(cal.next_time(), std::numeric_limits<double>::infinity());
}

/// One scheduled event as both calendars see it: stream, and processor or
/// spill id.
struct RefEvent {
  sim::Stream stream;
  std::uint32_t id;
};

TEST(CalendarQueue, MatchesEventQueueOnRandomizedTrace) {
  // Differential test against the 4-ary reference heap, whose own push
  // counter is the calendar's seq order. A tiny geometry (an 8-bucket
  // ring) with times on a quarter grid forces every path: heavy
  // exact-time ties within a bucket and between entries that reached it
  // from the overflow heap and by direct append, pushes into the bucket
  // being drained (the side heap), pushes past the ring (the overflow
  // heap and its migration), and — in the sparse phases, which push only
  // past the ring and pop more than they push — jumps over an empty ring.
  for (const double width : {1.0, 0.37}) {
    sim::CalendarQueue<std::uint32_t> cal(64, width, 8);
    sim::EventQueue<RefEvent> ref;
    util::Xoshiro256 rng(11);
    double now = 0.0;
    std::uint32_t next_spill = 0;
    std::size_t popped = 0;
    for (int step = 0; step < 200000; ++step) {
      const bool sparse = (step / 5000) % 4 == 3;
      if (ref.empty() || rng.below(sparse ? 3 : 2) == 0) {
        double t = now;
        switch (sparse ? 2 : rng.below(4)) {
          case 0:  // same instant: a tie, in the current bucket
            break;
          case 1:  // quarter steps inside the ring
            t += 0.25 * static_cast<double>(rng.below(20));
            break;
          case 2:  // past the ring
            t += 0.25 * static_cast<double>(40 + rng.below(160));
            break;
          case 3:  // mostly inside the current bucket
            t += 0.25 * static_cast<double>(rng.below(3));
            break;
        }
        const auto p = static_cast<std::uint32_t>(rng.below(64));
        switch (rng.below(3)) {
          case 0:
            cal.schedule(p, sim::Stream::Arrival, t);
            ref.push(t, RefEvent{sim::Stream::Arrival, p});
            break;
          case 1:
            cal.schedule(p, sim::Stream::Completion, t);
            ref.push(t, RefEvent{sim::Stream::Completion, p});
            break;
          default:
            cal.schedule_spill(t, next_spill);
            ref.push(t, RefEvent{sim::Stream::Spill, next_spill++});
            break;
        }
        continue;
      }
      ASSERT_EQ(bits(cal.next_time()), bits(ref.top().time)) << "pop " << popped;
      const auto ev = cal.pop();
      cal.settle();
      const auto want = ref.pop();
      ASSERT_EQ(bits(ev.time), bits(want.time)) << "pop " << popped;
      ASSERT_EQ(ev.stream, want.payload.stream) << "pop " << popped;
      ASSERT_EQ(ev.stream == sim::Stream::Spill ? ev.spill : ev.proc,
                want.payload.id)
          << "pop " << popped;
      now = ev.time;
      ++popped;
    }
    while (!ref.empty()) {
      ASSERT_EQ(bits(cal.next_time()), bits(ref.top().time));
      const auto ev = cal.pop();
      const auto want = ref.pop();
      ASSERT_EQ(ev.stream, want.payload.stream);
      ASSERT_EQ(ev.stream == sim::Stream::Spill ? ev.spill : ev.proc,
                want.payload.id);
    }
    EXPECT_EQ(cal.next_time(), std::numeric_limits<double>::infinity());
    EXPECT_GT(popped, 50000u);
  }
}

TEST(QueueArena, MatchesDequeOnRandomizedTrace) {
  // The arena must behave exactly like n independent deques (FIFO pops,
  // steal-from-tail in FIFO order) while blocks grow, relocate, and
  // recycle underneath.
  constexpr std::size_t kProcs = 19;
  sim::QueueArena arena(kProcs);
  std::vector<std::deque<double>> ref(kProcs);
  util::Xoshiro256 rng(99);
  std::vector<double> got;
  for (int step = 0; step < 50000; ++step) {
    const auto p = static_cast<std::uint32_t>(rng.below(kProcs));
    switch (rng.below(4)) {
      case 0:
      case 1:
        arena.push_back(p, static_cast<double>(step));
        ref[p].push_back(static_cast<double>(step));
        break;
      case 2:
        if (!ref[p].empty()) {
          EXPECT_EQ(arena.front(p), ref[p].front());
          arena.pop_front(p);
          ref[p].pop_front();
        }
        break;
      case 3:
        if (!ref[p].empty()) {
          const std::size_t take = 1 + rng.below(ref[p].size());
          got.clear();
          arena.take_back(p, take, got);
          ASSERT_EQ(got.size(), take);
          const std::size_t start = ref[p].size() - take;
          for (std::size_t i = 0; i < take; ++i) {
            EXPECT_EQ(got[i], ref[p][start + i]);
          }
          ref[p].erase(ref[p].begin() + static_cast<std::ptrdiff_t>(start),
                       ref[p].end());
        }
        break;
    }
    ASSERT_EQ(arena.size(p), ref[p].size());
  }
  for (std::uint32_t p = 0; p < kProcs; ++p) {
    for (std::size_t i = 0; i < ref[p].size(); ++i) {
      EXPECT_EQ(arena.at(p, i), ref[p][i]);
    }
  }
}

TEST(SojournHistogram, MergeIsExactForAnyPartition) {
  // Integer counts merge exactly: accumulating a stream into one
  // histogram and accumulating an arbitrary partition of the same stream
  // into parts (replications, say) then merging yields identical state.
  util::Xoshiro256 rng(5);
  sim::SojournHistogram whole(true);
  std::vector<sim::SojournHistogram> shards;
  for (int s = 0; s < 5; ++s) shards.emplace_back(true);
  for (int i = 0; i < 100000; ++i) {
    const double t = rng.exponential(2.5);
    whole.add(t);
    shards[rng.below(5)].add(t);
  }
  sim::SojournHistogram merged(true);
  for (const auto& s : shards) merged.merge(s);
  EXPECT_EQ(merged.total(), whole.total());
  EXPECT_EQ(merged.counts(), whole.counts());
}

TEST(SojournHistogram, BucketBoundsAndQuantiles) {
  sim::SojournHistogram h(true);
  // Bucket index must be consistent with the bucket bounds everywhere.
  util::Xoshiro256 rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double t = rng.exponential(1.0);
    const std::size_t b = sim::SojournHistogram::bucket(t);
    EXPECT_GE(t, sim::SojournHistogram::bucket_lo(b));
    EXPECT_LT(t, sim::SojournHistogram::bucket_hi(b));
    h.add(t);
  }
  // Quantiles of Exp(1): within bucket resolution (2^(1/8) ~ 9%) plus
  // sampling noise of the 10k draws.
  EXPECT_NEAR(h.quantile(0.5), 0.693, 0.12);
  EXPECT_NEAR(h.quantile(0.9), 2.303, 0.35);
  EXPECT_EQ(h.total(), 10000u);
  // Degenerate inputs land in the under/overflow buckets, not UB.
  EXPECT_EQ(sim::SojournHistogram::bucket(0.0), 0u);
  EXPECT_EQ(sim::SojournHistogram::bucket(-1.0), 0u);
  EXPECT_EQ(sim::SojournHistogram::bucket(1e30),
            sim::SojournHistogram::kBuckets - 1);
}

TEST(ShardIndependence, HistogramQuantileTracksExactPercentile) {
  // The histogram is the large-n replacement for collect_sojourns: its
  // quantiles must agree with the exact sample percentiles to within the
  // bucket ratio.
  auto cfg = base_config();
  cfg.policy = sim::StealPolicy::on_empty();
  cfg.collect_sojourns = true;
  const auto res = sim::simulate(cfg);
  ASSERT_GT(res.sojourn_hist.total(), 0u);
  EXPECT_EQ(res.sojourn_hist.total(), res.sojourn_samples.size());
  for (double q : {0.5, 0.9, 0.99}) {
    const double exact = res.sojourn_percentile(q);
    const double approx = res.sojourn_hist.quantile(q);
    EXPECT_NEAR(approx, exact, 0.13 * exact + 1e-9) << "q = " << q;
  }
}

TEST(ShardIndependence, EngineBytesReported) {
  auto cfg = base_config();
  cfg.policy = sim::StealPolicy::on_empty();
  const auto res = sim::simulate(cfg);
  // 96 processors: 32 B/proc of keys alone, so a zero or tiny value means
  // the accounting broke; a huge one means a container leaked into it.
  EXPECT_GT(res.engine_bytes, 96u * 32u);
  EXPECT_LT(res.engine_bytes, 10u * 1024u * 1024u);
  // On the calendar queue: at least the 12-byte entries of the ~n
  // pending arrivals plus the queue arena, and within the winner tree's
  // 86 B/proc budget.
  const auto big = large_config();
  const auto q = sim::simulate(big);
  const auto n = static_cast<std::uint64_t>(big.processors);
  EXPECT_GT(q.engine_bytes, n * (12u + 13u));
  EXPECT_LT(q.engine_bytes, n * 86u);
}

}  // namespace
