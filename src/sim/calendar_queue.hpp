// The large-n event calendar: a monotone calendar queue (Brown, CACM
// 1988) with the interface of WinnerTreeCalendar (see calendar.hpp).
//
// Time is cut into buckets of a fixed width; bucket k holds the events
// with floor(t / width) == k. A ring of 2^r bucket heads covers the
// buckets (cur, cur + 2^r), where cur is the bucket being drained:
//
//   * a push into the ring APPENDS to its bucket — no ordering work;
//   * when the drain reaches a bucket, its entries are copied out into
//     one sorted run, which is then popped front to back;
//   * a push that lands in the current bucket (or, after a bucket was
//     skipped, before it) goes to a small side heap;
//   * a push past the ring goes to an overflow heap, and moves into its
//     bucket when the ring advances to cover it.
//
// Pop order is exact (time, seq), not approximate. Buckets partition time
// monotonically (floor(t * inverse_width) never decreases in t), so
// draining bucket by bucket is time order, and only ties need care. The
// append order within a bucket IS seq order: overflow entries move into a
// bucket, in their own (time, seq) order, at the moment the ring first
// covers it — before any direct append to it can happen — and later
// appends carry later seqs. So sorting a bucket by (time, append index)
// is sorting it by (time, seq), without storing seq. Side-heap entries
// were pushed after the run was formed, so on a time tie the run goes
// first; within each heap the EventQueue's own push counter is seq order.
//
// Memory is the binding constraint at n = 2^23. An entry is 12 bytes
// (time + a 32-bit tag: 2p | stream, or a spill-pool index), stored in
// 64-byte chunks of five linked per bucket; chunks come from slabs and
// go back on a free list when their bucket is drained, so there is no
// per-bucket vector slack and the steady state allocates nothing. Spill
// payloads sit in a recycled pool. No seq, no winner tree: with ~1.9n
// pending entries this is ~30 B/proc where the winner tree took 40.
//
// Lookahead: the sorted run names the processors of the next events, so
// lookahead(d, f) lets the engine prefetch their state d pops ahead —
// the calendar's part of the large-n speedup (docs/SIMULATOR.md).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "sim/calendar.hpp"
#include "sim/event_queue.hpp"
#include "util/error.hpp"

namespace lsm::sim {

template <typename Spill>
class CalendarQueue {
 public:
  using Fired = FiredEvent<Spill>;

  /// `bucket_width` > 0 sets the time resolution; the ring holds
  /// `ring_buckets` (rounded down to a power of two) buckets. Both are
  /// performance choices only: the pop order never depends on them.
  CalendarQueue(std::size_t processors, double bucket_width,
                std::size_t ring_buckets)
      : n_(processors), inv_width_(1.0 / bucket_width) {
    LSM_EXPECT(processors >= 1, "calendar needs at least one processor");
    LSM_EXPECT(processors < kSpillBit / 2,
               "calendar queue exceeds 31-bit event tags");
    LSM_EXPECT(bucket_width > 0.0 && std::isfinite(inv_width_),
               "calendar bucket width must be positive");
    ring_ = 1;
    while (ring_ * 2 <= std::max<std::size_t>(ring_buckets, 2)) ring_ *= 2;
    buckets_.assign(ring_, Bucket{kNone, 0});
    slab_log2_ = 6;
    while (slab_log2_ < kMaxSlabLog2 &&
           (std::size_t{1} << slab_log2_) < processors / 8) {
      ++slab_log2_;
    }
  }

  void schedule(std::uint32_t p, Stream stream, double time) {
    LSM_ASSERT(p < n_ && stream != Stream::Spill);
    push(time, (p << 1) | static_cast<std::uint32_t>(stream));
  }

  void schedule_spill(double time, const Spill& payload) {
    std::uint32_t idx;
    if (!spill_free_.empty()) {
      idx = spill_free_.back();
      spill_free_.pop_back();
      spill_pool_[idx] = payload;
    } else {
      idx = static_cast<std::uint32_t>(spill_pool_.size());
      spill_pool_.push_back(payload);
    }
    push(time, kSpillBit | idx);
  }

  /// Earliest pending time; +inf when drained. Advances the ring to the
  /// next non-empty bucket when the current one is used up.
  [[nodiscard]] double next_time() {
    if (pos_ == run_len_ && side_.empty()) advance();
    if (pos_ < run_len_) {
      const double t = run_[pos_].time;
      return side_.empty() ? t : std::min(t, side_.top().time);
    }
    return side_.empty() ? kInf : side_.top().time;
  }

  /// Requires next_time() < +inf (which must have been called since the
  /// last push).
  Fired pop() {
    std::uint32_t tag;
    double time;
    if (pos_ < run_len_ &&
        (side_.empty() || !(side_.top().time < run_[pos_].time))) {
      time = run_[pos_].time;
      tag = run_[pos_].tag;
      ++pos_;
      // One step along the next bucket's chunk chain per pop: the chain
      // is in cache by the time that bucket is opened.
      if (next_chunk_ != kNone) {
        next_chunk_ = chunk(next_chunk_).next;
        if (next_chunk_ != kNone) __builtin_prefetch(&chunk(next_chunk_));
      }
    } else {
      LSM_ASSERT(!side_.empty());
      const auto e = side_.pop();
      time = e.time;
      tag = e.payload;
    }
    if (tag & kSpillBit) {
      const std::uint32_t idx = tag & ~kSpillBit;
      spill_free_.push_back(idx);
      return Fired{time, Stream::Spill, 0, spill_pool_[idx]};
    }
    return Fired{time, static_cast<Stream>(tag & 1u), tag >> 1, Spill{}};
  }

  /// Nothing is deferred: pop() already removed the event.
  void settle() noexcept {}

  /// f(p) for the processor whose event is `distance` pops ahead in the
  /// current sorted run (skipped for spill events and past the run).
  template <typename F>
  void lookahead(std::size_t distance, F&& f) const {
    const std::size_t i = pos_ + distance;
    if (i < run_len_ && !(run_[i].tag & kSpillBit)) f(run_[i].tag >> 1);
  }

  /// Bytes of heap state this calendar owns.
  [[nodiscard]] std::size_t resident_bytes() const noexcept {
    return buckets_.capacity() * sizeof(Bucket) +
           slabs_.size() * (sizeof(Chunk) << slab_log2_) +
           slabs_.capacity() * sizeof(std::unique_ptr<Chunk[]>) +
           run_.capacity() * sizeof(RunEntry) +
           (side_.size() + overflow_.size()) *
               sizeof(typename EventQueue<std::uint32_t>::Entry) +
           spill_pool_.capacity() * sizeof(Spill) +
           spill_free_.capacity() * sizeof(std::uint32_t);
  }

 private:
  static constexpr double kInf = std::numeric_limits<double>::infinity();
  static constexpr std::uint32_t kNone =
      std::numeric_limits<std::uint32_t>::max();
  static constexpr std::uint32_t kSpillBit = std::uint32_t{1} << 31;
  static constexpr std::uint32_t kChunkEntries = 5;
  static constexpr std::uint32_t kMaxSlabLog2 = 14;  ///< 1 MiB slabs
  /// Bucket indices saturate here (times beyond ~2^62 widths all share
  /// one bucket, which still sorts them exactly).
  static constexpr double kMaxBucket = 4611686018427387904.0;  // 2^62

  /// One cache line: five entries and the link to the bucket's older
  /// chunk (or the next free chunk).
  struct alignas(64) Chunk {
    double time[kChunkEntries];
    std::uint32_t tag[kChunkEntries];
    std::uint32_t next;
  };
  static_assert(sizeof(Chunk) == 64);

  /// A ring slot: its newest chunk and entry count (chunks are filled
  /// newest-first, so only the head chunk is partial).
  struct Bucket {
    std::uint32_t head;
    std::uint32_t count;
  };

  struct RunEntry {
    double time;
    std::uint32_t tag;
    std::uint32_t order;  ///< append index within the bucket = seq order
  };

  [[nodiscard]] std::uint64_t bucket_of(double time) const noexcept {
    const double k = time * inv_width_;
    return k < kMaxBucket ? static_cast<std::uint64_t>(k)
                          : static_cast<std::uint64_t>(kMaxBucket);
  }

  void push(double time, std::uint32_t tag) {
    LSM_ASSERT(time >= 0.0 && time < kInf);
    const std::uint64_t k = bucket_of(time);
    if (k <= cur_) {
      side_.push(time, tag);
    } else if (k - cur_ < ring_) {
      append(k, time, tag);
    } else {
      overflow_.push(time, tag);
    }
  }

  void append(std::uint64_t k, double time, std::uint32_t tag) {
    Bucket& b = buckets_[k & (ring_ - 1)];
    const std::uint32_t fill = b.count % kChunkEntries;
    if (fill == 0) {
      const std::uint32_t c = alloc_chunk();
      chunk(c).next = b.head;
      b.head = c;
    }
    Chunk& ch = chunk(b.head);
    ch.time[fill] = time;
    ch.tag[fill] = tag;
    ++b.count;
    ++ring_count_;
  }

  /// Moves the drain to the next bucket holding events (jumping over an
  /// empty ring straight to the overflow's earliest bucket) and sorts it
  /// into the run.
  void advance() {
    while (pos_ == run_len_ && side_.empty()) {
      if (ring_count_ == 0) {
        if (overflow_.empty()) return;  // drained
        cur_ = bucket_of(overflow_.top().time) - 1;
      }
      ++cur_;
      // The ring now reaches bucket cur_ + ring_ - 1: move the overflow
      // entries it covers, in their (time, seq) order.
      while (!overflow_.empty() &&
             bucket_of(overflow_.top().time) - cur_ < ring_) {
        const auto e = overflow_.pop();
        append(bucket_of(e.time), e.time, e.payload);
      }
      open(buckets_[cur_ & (ring_ - 1)]);
      next_chunk_ = buckets_[(cur_ + 1) & (ring_ - 1)].head;
      if (next_chunk_ != kNone) __builtin_prefetch(&chunk(next_chunk_));
    }
  }

  /// Copies bucket b's entries into the run in append order, frees its
  /// chunks and sorts the run by (time, append index).
  void open(Bucket& b) {
    const std::uint32_t m = b.count;
    pos_ = 0;
    run_len_ = m;
    if (m == 0) return;
    if (run_.size() < m) run_.resize(m);
    std::uint32_t end = m;
    std::uint32_t fill = (m - 1) % kChunkEntries + 1;
    for (std::uint32_t c = b.head; c != kNone;) {
      Chunk& ch = chunk(c);
      const std::uint32_t next = ch.next;
      end -= fill;
      for (std::uint32_t i = 0; i < fill; ++i) {
        run_[end + i] = RunEntry{ch.time[i], ch.tag[i], end + i};
      }
      ch.next = free_;
      free_ = c;
      c = next;
      fill = kChunkEntries;
    }
    LSM_ASSERT(end == 0);
    ring_count_ -= m;
    b = Bucket{kNone, 0};
    std::sort(run_.begin(), run_.begin() + m,
              [](const RunEntry& a, const RunEntry& e) {
                return a.time < e.time || (a.time == e.time && a.order < e.order);
              });
  }

  [[nodiscard]] Chunk& chunk(std::uint32_t c) noexcept {
    return slabs_[c >> slab_log2_][c & ((std::uint32_t{1} << slab_log2_) - 1)];
  }

  std::uint32_t alloc_chunk() {
    if (free_ != kNone) {
      const std::uint32_t c = free_;
      free_ = chunk(c).next;
      return c;
    }
    const std::size_t per_slab = std::size_t{1} << slab_log2_;
    if (fresh_ == slabs_.size() * per_slab) {
      LSM_EXPECT(fresh_ + per_slab < kNone, "calendar queue chunk overflow");
      // Default-initialised: pages are touched only as chunks are used.
      slabs_.emplace_back(new Chunk[per_slab]);
    }
    return static_cast<std::uint32_t>(fresh_++);
  }

  std::size_t n_;
  double inv_width_;
  std::size_t ring_ = 2;           ///< ring slots (power of two)
  std::uint64_t cur_ = 0;          ///< bucket being drained
  std::size_t ring_count_ = 0;     ///< entries held in ring buckets
  std::vector<Bucket> buckets_;    ///< ring slot = bucket & (ring_ - 1)
  std::vector<RunEntry> run_;      ///< current bucket, sorted
  std::uint32_t run_len_ = 0;
  std::uint32_t pos_ = 0;          ///< next run entry to pop
  EventQueue<std::uint32_t> side_;      ///< late pushes into bucket <= cur_
  EventQueue<std::uint32_t> overflow_;  ///< pushes past the ring
  std::vector<std::unique_ptr<Chunk[]>> slabs_;
  std::uint32_t slab_log2_ = 6;    ///< chunks per slab = 2^slab_log2_
  std::size_t fresh_ = 0;          ///< chunks ever handed out
  std::uint32_t free_ = kNone;     ///< free chunk list (linked by next)
  std::uint32_t next_chunk_ = kNone;  ///< prefetch cursor, bucket cur_ + 1
  std::vector<Spill> spill_pool_;
  std::vector<std::uint32_t> spill_free_;
};

}  // namespace lsm::sim
