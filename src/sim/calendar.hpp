// Event calendars for the simulator engine, and the small-n one: a winner
// tree over two keyed slots per processor.
//
// The engine's events come in three streams: every processor always owns
// one pending Arrival (a self-regenerating Poisson stream) and at most
// one pending Completion (service is serial); the rare cancellable kinds
// (retries, transfer arrivals, rebalances) are Spill events carrying an
// engine-defined payload. A calendar owns all three streams and pops them
// in one total order: (time, seq), where seq counts every schedule call
// made on the calendar. Both calendars (WinnerTreeCalendar here, and
// CalendarQueue in calendar_queue.hpp for large n) share one interface,
// so the engine has one event loop for either:
//
//   schedule(p, stream, t)      arrival/completion of processor p at t
//   schedule_spill(t, payload)  a spill event
//   next_time()                 earliest pending time (+inf when drained)
//   pop()                       remove and return the earliest event
//   settle()                    end of the popped event's handler
//   lookahead(d, f)             f(p) for the processor of the event d
//                               pops ahead, when the calendar knows it
//
// Because (time, seq) is a strict total order and both calendars number
// schedule calls the same way, they emit the identical event sequence:
// results are bit-for-bit the same whichever one the engine uses
// (tests/sim_shard_test.cpp pins that end to end).
//
// WinnerTreeCalendar keeps two keyed slots per processor and re-keys them
// in place — no push/pop churn — under one winner tree over the 2n slots.
// A key packs the IEEE-754 pattern of the (non-negative) time into the
// high 64 bits and the sequence number into the low 64, so one unsigned
// 128-bit compare IS the (time, seq) order. Idle slots park at (+inf, ~0)
// and lose every match. Spill events live in a 4-ary EventQueue under the
// same sequence counter; pop() takes the lesser of the two tops.
//
// Fired-slot handling (the fused re-key): pop() leaves the fired slot's
// key in place and remembers it. If the handler re-schedules the same
// slot (every arrival does; a completion does when the processor keeps
// serving), that one replay overwrites it; otherwise settle() clears it.
// This halves the tree traffic on the busy path versus clear-then-set.
#pragma once

#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "sim/event_queue.hpp"
#include "util/error.hpp"

namespace lsm::sim {

enum class Stream : std::uint8_t { Arrival = 0, Completion = 1, Spill = 2 };

/// One popped event: `proc` is valid for Arrival/Completion, `spill` for
/// Spill.
template <typename Spill>
struct FiredEvent {
  double time;
  Stream stream;
  std::uint32_t proc;
  Spill spill;
};

template <typename Spill>
class WinnerTreeCalendar {
 public:
  using Fired = FiredEvent<Spill>;

  explicit WinnerTreeCalendar(std::size_t processors) : n_(processors) {
    LSM_EXPECT(processors >= 1, "calendar needs at least one processor");
    LSM_EXPECT(processors <= kMaxProcessors,
               "winner-tree calendar exceeds 32-bit slot indexing");
    leaves_ = 2;
    while (leaves_ < 2 * n_) leaves_ <<= 1;
    keys_.assign(leaves_, kIdleNode);
    win_.assign(leaves_, 0);
    // Bottom-up build: every internal node must name the minimum leaf of
    // its subtree, because replays read sibling caches.
    for (std::size_t i = leaves_ - 1; i >= 1; --i) {
      const std::uint32_t wl = winner_below(2 * i);
      const std::uint32_t wr = winner_below(2 * i + 1);
      win_[i] = keys_[wr] < keys_[wl] ? wr : wl;
    }
  }

  void schedule(std::uint32_t p, Stream stream, double time) {
    LSM_ASSERT(p < n_ && stream != Stream::Spill);
    LSM_ASSERT(time >= 0.0 && time < kInf);
    const std::uint32_t slot = (p << 1) | static_cast<std::uint32_t>(stream);
    if (slot == fired_) fired_ = kNone;  // fused re-key
    update(slot, pack(time, seq_++));
  }

  void schedule_spill(double time, const Spill& payload) {
    LSM_ASSERT(time >= 0.0 && time < kInf);
    spill_.push_with_seq(time, seq_++, payload);
  }

  [[nodiscard]] double next_time() const noexcept {
    const double t = root_time();
    return spill_.empty() ? t : std::min(t, spill_.top().time);
  }

  /// Requires next_time() < +inf.
  Fired pop() {
    LSM_ASSERT(fired_ == kNone);
    const Node root = keys_[win_[1]];
    if (!spill_.empty() && pack(spill_.top().time, spill_.top().seq) < root) {
      auto e = spill_.pop();
      return Fired{e.time, Stream::Spill, 0, e.payload};
    }
    LSM_ASSERT(root != kIdleNode);
    fired_ = win_[1];
    return Fired{root_time(), static_cast<Stream>(fired_ & 1u), fired_ >> 1,
                 Spill{}};
  }

  /// Clears the popped slot unless its handler re-scheduled it.
  void settle() {
    if (fired_ != kNone) update(fired_, kIdleNode);
    fired_ = kNone;
  }

  /// The winner tree does not know the order past its root.
  template <typename F>
  void lookahead(std::size_t /*distance*/, F&& /*f*/) const noexcept {}

  /// Bytes of heap state this calendar owns.
  [[nodiscard]] std::size_t resident_bytes() const noexcept {
    return keys_.capacity() * sizeof(Node) +
           win_.capacity() * sizeof(std::uint32_t) +
           spill_.size() * sizeof(typename EventQueue<Spill>::Entry);
  }

 private:
  __extension__ typedef unsigned __int128 Node;

  static constexpr double kInf = std::numeric_limits<double>::infinity();
  static constexpr std::uint32_t kNone =
      std::numeric_limits<std::uint32_t>::max();
  static constexpr std::size_t kMaxProcessors = std::size_t{1} << 30;
  /// (+inf, ~0): loses every match, decodes as idle.
  static constexpr Node kIdleNode =
      Node{0x7FF0000000000000ULL} << 64 | ~std::uint64_t{0};

  static Node pack(double time, std::uint64_t seq) noexcept {
    return Node{std::bit_cast<std::uint64_t>(time)} << 64 | seq;
  }

  [[nodiscard]] double root_time() const noexcept {
    return std::bit_cast<double>(
        static_cast<std::uint64_t>(keys_[win_[1]] >> 64));
  }

  /// Winner of tree node i: the slot itself at leaf level.
  [[nodiscard]] std::uint32_t winner_below(std::size_t i) const noexcept {
    return i >= leaves_ ? static_cast<std::uint32_t>(i - leaves_) : win_[i];
  }

  /// Writes `slot`'s key and replays the matches up to the root.
  void update(std::uint32_t slot, Node value) {
    keys_[slot] = value;
    std::size_t i = leaves_ + slot;
    std::uint32_t w = slot;
    Node wk = value;
    while (i > 1) {
      const std::uint32_t cand = winner_below(i ^ 1);
      const Node ck = keys_[cand];
      if (ck < wk) {
        w = cand;
        wk = ck;
      }
      i >>= 1;
      win_[i] = w;
    }
  }

  std::size_t n_;
  std::size_t leaves_ = 2;         ///< slots, padded to a power of two
  std::uint64_t seq_ = 0;          ///< (time, seq) tie-break counter
  std::uint32_t fired_ = kNone;    ///< popped slot awaiting settle()
  std::vector<Node> keys_;         ///< slot (2p | stream) -> packed key
  std::vector<std::uint32_t> win_;  ///< winner tree, node 1 = root
  EventQueue<Spill> spill_;        ///< spill events, same seq counter
};

}  // namespace lsm::sim
