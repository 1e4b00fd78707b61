// The unit of work behind exp::SweepRunner (exp/sweep.hpp) and the report
// it returns: execute_job computes one (entry, λ) job, RunReport collects
// a run's results in spec order and emits its artifacts (a CSV of all job
// outputs plus a JSON run manifest with per-job wall time, event counts,
// cache provenance and aggregate steal statistics), and the detail::
// helpers hold the failure policy (retries, isolation) and the atomic
// artifact writes.
//
// A Job's results are a pure function of (spec.seed, entry, lambda,
// replication count, solver annotations): each job runs its replications
// serially on deterministic per-replication jump streams, so no result
// depends on which pool worker ran it or in what order jobs completed.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "exp/cache.hpp"
#include "exp/result.hpp"
#include "exp/spec.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace lsm::core {
class FixedPointContinuation;
}  // namespace lsm::core

namespace lsm::exp {

/// Strict-vs-degraded failure handling for a run.
enum class OnFailure {
  /// The first job failure (after retries) aborts the whole run: a
  /// util::FailureError with the job identity attached propagates out of
  /// SweepRunner::run. The pre-isolation behaviour, and the safe default for
  /// golden-table benches.
  Abort,
  /// Failures are isolated: the job's JobResult carries status = Failed
  /// plus the error, the rest of the run completes, and the failure is
  /// surfaced in the manifest/CSV/summary. For long sweeps where losing
  /// one near-critical point must not discard hours of finished work.
  Report,
};

/// Bounded exponential backoff for retryable job failures (transient
/// I/O, injected faults). Non-retryable failures never retry.
struct RetryPolicy {
  std::size_t max_attempts = 3;  ///< total executions, including the first
  double initial_backoff_seconds = 0.025;
  double backoff_multiplier = 4.0;
  double max_backoff_seconds = 1.0;
};

/// Everything one SweepRunner::run produced, in spec order.
struct RunReport {
  std::string spec_name;
  std::vector<Job> jobs;
  std::vector<JobResult> results;  ///< parallel to `jobs`
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  /// Events executed by this run (cache hits contribute nothing).
  std::uint64_t events_simulated = 0;
  /// Jobs that ended Failed (Report mode; counted by finalize alongside
  /// the cache stats — hits + misses + failed == jobs).
  std::size_t failed_jobs = 0;
  double wall_seconds = 0.0;
  unsigned threads = 0;
  std::string manifest_path;  ///< "" when artifacts are disabled
  std::string csv_path;
  /// Why artifact emission was skipped ("" = it wasn't): artifacts are
  /// written after all compute, so their I/O failures degrade to this
  /// field + a stderr warning instead of discarding the finished run.
  std::string artifact_error;

  /// Result lookup by grid label + arrival rate; throws util::Error when
  /// the job does not exist. λ matches within a few ulps, so values
  /// produced by grid arithmetic (0.1 * 9) still find the 0.9 job.
  [[nodiscard]] const JobResult& at(const std::string& label,
                                    double lambda) const;
  /// Simulated mean sojourn of (label, lambda); NaN when the job failed
  /// (so degraded tables render holes instead of aborting the bench).
  [[nodiscard]] double sim(const std::string& label, double lambda) const;
  /// Fixed-point sojourn estimate of (label, lambda); NaN when failed.
  [[nodiscard]] double estimate(const std::string& label,
                                double lambda) const;
  /// The failed results, in spec order (empty on a fully clean run).
  [[nodiscard]] std::vector<const JobResult*> failed() const;

  /// The run manifest. With include_timing = false every
  /// schedule-dependent field (wall times, rates, thread count) is
  /// omitted and the document is a pure function of (spec, seed, cache
  /// state) — byte-identical across thread counts.
  [[nodiscard]] util::Json manifest(bool include_timing = true) const;

  /// All job outputs as one flat table (the CSV artifact).
  [[nodiscard]] util::Table table() const;

  /// One-line observability summary for bench output.
  [[nodiscard]] std::string summary() const;
};

/// Computes one job without cache or pool; the unit of work the runner
/// schedules. Exposed for tests. With a non-null `chain` the estimate side
/// solves through the continuation (warm-started from the chain's carried
/// state, which the call then updates); nullptr solves cold. `attempt`
/// (1-based) only feeds the fault-injection hooks, so a retry draws a
/// fresh deterministic fault decision.
[[nodiscard]] JobResult execute_job(
    const Job& job, core::FixedPointContinuation* chain = nullptr,
    std::uint64_t attempt = 1);

namespace detail {

/// Report finalization: fills the aggregate cache/event/failure counters
/// from `report.results` and, when `artifact_dir` and the spec name are
/// non-empty, writes the manifest + CSV artifacts atomically (recording
/// their paths in the report). Artifact I/O failures degrade to
/// report.artifact_error.
void finalize_report(RunReport& report, const std::string& artifact_dir);

/// Runs `fn(attempt)` under the failure policy: a retryable failure
/// (per util::classify_exception) is retried with bounded exponential
/// backoff up to retry.max_attempts total executions. A final failure
/// either rethrows as util::FailureError with the job identity attached
/// (Abort) or returns a JobResult whose status/error/error_kind/attempts
/// describe it (Report). Successful results get attempts stamped.
JobResult run_isolated(const Job& job, OnFailure on_failure,
                       const RetryPolicy& retry,
                       const std::function<JobResult(std::uint64_t)>& fn);

/// cache.store, with I/O failures downgraded to a stderr warning: a
/// lost cache entry only costs a recompute, never the computed job.
void store_quietly(const ResultCache& cache, const std::string& key,
                   const JobResult& result);

/// Writes `contents` to `path` atomically (tmp + rename), so a crash
/// mid-write never leaves a partial file behind. Throws
/// util::FailureError (Io) on failure, removing the tmp file.
void write_atomic(const std::string& path, const std::string& contents);

}  // namespace detail

}  // namespace lsm::exp
