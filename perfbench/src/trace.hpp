// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded by the benchmark's own code around each call it makes
// into an lsm module (nothing inside src/ is instrumented): name, layer,
// start, end, parent span and a request/job id. They stay in memory and
// are written once, at the end, as Chrome trace-event JSON (the format
// chrome://tracing and Perfetto open offline). A disabled tracer records
// nothing, so the untraced run pays one branch per would-be span.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds between two steady-clock points.
[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Span {
  std::string name;
  std::string layer;  ///< src/ module the span times: serve, exp, sim, core, util
  double start_us = 0.0;  ///< since the tracer's epoch
  double end_us = 0.0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< 0 = root
  std::uint64_t request = 0;  ///< one id per request or job
  std::uint32_t tid = 0;      ///< recording thread (small dense index)
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Microseconds since the epoch of `t`.
  [[nodiscard]] double us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
  }

  /// Records a finished span, times in epoch microseconds (us() of the
  /// time points, or reconstructed from durations the program reports,
  /// e.g. JobResult::wall_seconds); returns its id (0 when disabled).
  std::uint64_t record_us(std::string name, std::string layer,
                          double start_us, double end_us,
                          std::uint64_t parent = 0,
                          std::uint64_t request = 0);
  /// Reserves an id for a span whose children are recorded before it.
  std::uint64_t reserve_id();
  /// Records a span under a previously reserved id.
  void record_reserved(std::uint64_t id, std::string name, std::string layer,
                       Clock::time_point start, Clock::time_point end,
                       std::uint64_t parent = 0, std::uint64_t request = 0);

  [[nodiscard]] std::vector<Span> spans() const;

  /// Per-layer self time in milliseconds: each span's duration minus the
  /// part of its interval covered by the union of its children.
  [[nodiscard]] std::map<std::string, double> self_ms_by_layer() const;

  /// Writes every span as Chrome trace-event JSON ("X" complete events).
  void write_chrome(const std::string& path) const;

 private:
  std::uint32_t thread_index();

  bool enabled_;
  Clock::time_point epoch_;
  mutable std::mutex mu_;  // guards everything below
  std::vector<Span> spans_;
  std::uint64_t next_id_ = 1;
  std::map<std::uint64_t, std::uint32_t> tids_;  // hashed thread id -> index
};

/// RAII span: times its own scope and records on destruction.
class Scope {
 public:
  Scope(Tracer& tracer, std::string name, std::string layer,
        std::uint64_t parent = 0, std::uint64_t request = 0)
      : tracer_(tracer),
        name_(std::move(name)),
        layer_(std::move(layer)),
        parent_(parent),
        request_(request),
        id_(tracer.enabled() ? tracer.reserve_id() : 0),
        start_(Clock::now()) {}
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  ~Scope() {
    if (id_ != 0) {
      tracer_.record_reserved(id_, std::move(name_), std::move(layer_),
                              start_, Clock::now(), parent_, request_);
    }
  }

  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

 private:
  Tracer& tracer_;
  std::string name_;
  std::string layer_;
  std::uint64_t parent_;
  std::uint64_t request_;
  std::uint64_t id_;
  Clock::time_point start_;
};

}  // namespace perfbench
