// Shared plumbing of the lsmbench binary: run options, the result every
// workload fills in, and small process helpers.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "stats.hpp"
#include "trace.hpp"
#include "util/json.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;    ///< per-run scratch dir (caches, socket, trace)
  unsigned threads = 4;   ///< min(nproc, 4)
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  lsm::util::Json metrics = lsm::util::Json::object();
  /// Deterministic work counters; a rerun of the same code and seed must
  /// reproduce every one exactly.
  lsm::util::Json exact = lsm::util::Json::object();
  /// Free-form context printed with the result (percentiles used, sample
  /// counts, sizes).
  lsm::util::Json details = lsm::util::Json::object();
  std::vector<std::string> errors;

  void metric(const std::string& name, double value, const std::string& unit);
  /// A latency metric under the tail rule: value plus which percentile
  /// and how many samples, recorded in details.
  void tail_metric(const std::string& name, const std::vector<double>& ms);
  void tail_metric(const std::string& name, const Tail& t);
  void counter(const std::string& name, std::uint64_t value);
  /// Records a failed correctness gate (the run then reports no metrics).
  void fail(const std::string& why);
  /// fail() unless `ok`.
  void check(bool ok, const std::string& why) {
    if (!ok) fail(why);
  }
};

/// High-water resident set of a process in MiB (VmHWM); pid 0 = self.
[[nodiscard]] double peak_rss_mib(int pid = 0);
/// Current resident set of a process in MiB (VmRSS).
[[nodiscard]] double rss_mib(int pid);

/// Relative difference |a-b| / max(|b|, tiny).
[[nodiscard]] double rel_diff(double a, double b);

/// Creates `path` and its parents; throws on failure.
void make_dirs(const std::string& path);
/// Removes `path` recursively (errors ignored).
void remove_tree(const std::string& path);

/// What a workload's traced half reached, so the layer probes can fill in
/// the per-layer metrics of the layers it did not reach.
struct Reach {
  bool serve = false;  ///< it drove the daemon and reported serve.*
  /// A result cache it filled ("" = none) and its exact hit/miss counts.
  std::string cache_dir;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
};

// Workloads. Untraced, each reports the end-to-end metrics; traced, the
// per-layer metrics of the layers it reaches (the probes do the rest).
Reach run_paper_tables(const Options& opt, Tracer& tracer, Result& res);
Reach run_serve_mix(const Options& opt, Tracer& tracer, Result& res);
Reach run_large_n_sim(const Options& opt, Tracer& tracer, Result& res);

// Layer probes, run after the workload in every traced run.
void probe_rhs_kernels(Tracer& tracer, Result& res);
void probe_samplers(Tracer& tracer, Result& res);
/// Simulate calls at a fixed in-cache size, for the sim.* metrics the
/// workload did not report.
void probe_sim(Tracer& tracer, Result& res);
/// Times ResultCache::load on every entry of `cache_dir` and
/// ResultCache::store of the loaded results into `scratch_dir`.
void probe_cache(const std::string& cache_dir, const std::string& scratch_dir,
                 Tracer& tracer, Result& res);
/// Replays the seed's block-0 serve-mix cold grids through a warm
/// FixedPointContinuation: core.solve_* per class and the warm-start
/// ratios, each point checked against an independent cold solve.
void probe_solvers(const Options& opt, Tracer& tracer, Result& res);
/// One serve-mix block against a fresh daemon: the serve.* metrics for a
/// workload that does not drive the daemon. Returns the daemon's cache.
Reach probe_serve(const Options& opt, Tracer& tracer, Result& res);

/// Every per-layer metric the workload did not report, from the probes,
/// plus each layer's share of the workload's own traced time.
void run_probes(const Options& opt, const Reach& reach, Tracer& tracer,
                Result& res);

}  // namespace perfbench
