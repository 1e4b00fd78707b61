// paper-tables: the Table 1-4 reproduction users actually run.
//
// The four ExperimentSpecs are built exactly as bench/table{1..4}_*.cpp
// build them (same entries, same λ grids), at one fixed reduced fidelity
// so several cold rounds fit in one run, with the spec seed taken from the
// benchmark's --seed. Each round computes all four tables through
// exp::SweepRunner against a fresh cache directory, then replays them
// against the now-warm cache. Throughput divides by the mean cold round:
// Table 2's erlang c=20 estimate chain is one serial job and a scheduling
// straggler, so single cold runs vary by tens of percent. An operation is
// one cold job.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <mutex>
#include <string>
#include <vector>

#include "common.hpp"
#include "exp/spec.hpp"
#include "exp/sweep.hpp"
#include "parallel/thread_pool.hpp"

namespace perfbench {
namespace {

using namespace lsm;

exp::Fidelity bench_fidelity() {
  exp::Fidelity f;
  f.replications = 2;
  f.horizon = 4000.0;
  f.warmup = 400.0;
  f.label = "perfbench (2 x 4,000s, 400s warmup)";
  return f;
}

std::vector<exp::ExperimentSpec> table_specs(std::uint64_t seed) {
  const auto f = bench_fidelity();
  std::vector<exp::ExperimentSpec> specs;
  {
    exp::ExperimentSpec spec;
    spec.name = "table1_simple_ws";
    spec.lambdas = {0.50, 0.70, 0.80, 0.90, 0.95, 0.99};
    for (const std::size_t n : {16u, 32u, 64u, 128u}) {
      exp::GridEntry e;
      e.label = "sim" + std::to_string(n);
      e.config.processors = n;
      e.config.policy = sim::StealPolicy::on_empty(2);
      e.estimate = false;
      spec.add(std::move(e));
    }
    exp::GridEntry e;
    e.label = "est";
    e.model = "simple";
    e.simulate = false;
    spec.add(std::move(e));
    specs.push_back(std::move(spec));
  }
  {
    exp::ExperimentSpec spec;
    spec.name = "table2_constant_service";
    spec.lambdas = {0.50, 0.70, 0.80, 0.90, 0.95, 0.99};
    for (const std::size_t n : {16u, 32u, 64u, 128u}) {
      exp::GridEntry e;
      e.label = "sim" + std::to_string(n);
      e.config.processors = n;
      e.config.service = sim::ServiceDistribution::constant(1.0);
      e.config.policy = sim::StealPolicy::on_empty(2);
      e.estimate = false;
      spec.add(std::move(e));
    }
    for (const std::size_t c : {10u, 20u}) {
      exp::GridEntry e;
      e.label = "est_c" + std::to_string(c);
      e.model = "erlang";
      e.params = {{"c", static_cast<double>(c)}};
      e.simulate = false;
      spec.add(std::move(e));
    }
    specs.push_back(std::move(spec));
  }
  {
    constexpr double kRate = 0.25;
    exp::ExperimentSpec spec;
    spec.name = "table3_transfer_time";
    spec.lambdas = {0.50, 0.70, 0.80, 0.90, 0.95};
    for (const std::size_t T : {3u, 4u, 5u, 6u}) {
      exp::GridEntry e;
      e.label = "T" + std::to_string(T);
      e.model = "transfer";
      e.params = {{"r", kRate}, {"T", static_cast<double>(T)}};
      e.config.processors = 128;
      e.config.policy = sim::StealPolicy::with_transfer(1.0 / kRate, T);
      spec.add(std::move(e));
    }
    specs.push_back(std::move(spec));
  }
  {
    exp::ExperimentSpec spec;
    spec.name = "table4_two_choices";
    spec.lambdas = {0.50, 0.70, 0.80, 0.90, 0.95, 0.99};
    exp::GridEntry one;
    one.label = "d1";
    one.model = "simple";
    one.config.processors = 128;
    one.config.policy = sim::StealPolicy::on_empty(2, 1);
    spec.add(std::move(one));
    exp::GridEntry two;
    two.label = "d2";
    two.model = "multi-choice";
    two.params = {{"d", 2.0}, {"T", 2.0}};
    two.config.processors = 128;
    two.config.policy = sim::StealPolicy::on_empty(2, 2);
    spec.add(std::move(two));
    specs.push_back(std::move(spec));
  }
  for (auto& spec : specs) {
    spec.fidelity = f;
    spec.seed = seed;
  }
  return specs;
}

// Expected estimates with tolerances. Rows present in
// tests/golden_values_test.cpp carry its values and tolerances; the Table 3
// cells that test does not list are pinned the same way (three decimals of
// the truncation-converged solve, tolerance 4e-3).
struct Golden {
  const char* table;
  const char* label;
  double lambda;
  double expected;
  double tol;
};

const std::vector<Golden>& golden() {
  static const std::vector<Golden> rows = [] {
    std::vector<Golden> g;
    const double l6[] = {0.50, 0.70, 0.80, 0.90, 0.95, 0.99};
    const double t1[] = {1.618, 2.107, 2.562, 3.541, 4.887, 10.462};
    const double c10[] = {1.405, 1.749, 2.070, 2.759, 3.701, 7.581};
    const double c20[] = {1.391, 1.727, 2.039, 2.709, 3.625, 7.399};
    const double d2[] = {1.433, 1.673, 1.864, 2.220, 2.640, 4.011};
    for (int i = 0; i < 6; ++i) {
      g.push_back({"table1_simple_ws", "est", l6[i], t1[i], 5e-4});
      g.push_back({"table2_constant_service", "est_c10", l6[i], c10[i], 2e-3});
      g.push_back({"table2_constant_service", "est_c20", l6[i], c20[i], 2e-3});
      g.push_back({"table4_two_choices", "d1", l6[i], t1[i], 5e-4});
      g.push_back({"table4_two_choices", "d2", l6[i], d2[i], 2e-3});
    }
    const struct {
      const char* label;
      double lambda, expected;
    } t3[] = {{"T3", 0.50, 1.985}, {"T3", 0.70, 2.971}, {"T3", 0.80, 4.030},
              {"T3", 0.90, 7.077}, {"T3", 0.95, 13.154}, {"T4", 0.50, 1.950},
              {"T4", 0.70, 2.938}, {"T4", 0.80, 3.996}, {"T4", 0.90, 7.015},
              {"T4", 0.95, 13.061}, {"T5", 0.50, 1.954}, {"T5", 0.70, 2.962},
              {"T5", 0.80, 4.020}, {"T5", 0.90, 7.001}, {"T5", 0.95, 12.999},
              {"T6", 0.50, 1.967}, {"T6", 0.70, 3.008}, {"T6", 0.80, 4.079},
              {"T6", 0.90, 7.026}, {"T6", 0.95, 12.968}};
    for (const auto& r : t3) {
      g.push_back({"table3_transfer_time", r.label, r.lambda, r.expected, 4e-3});
    }
    return g;
  }();
  return rows;
}

// The per-job part of the timing-free manifest with cache provenance
// normalised away, so a cold run and its cached replay compare equal. (The
// manifest's run-level aggregates count hits, misses and simulated events
// of this run, which is exactly what a replay changes.)
std::string provenance_free_jobs(const exp::RunReport& report) {
  std::string s = report.manifest(false).at("jobs").dump();
  const std::string hit = "\"cache_hit\":true";
  for (auto pos = s.find(hit); pos != std::string::npos; pos = s.find(hit)) {
    s.replace(pos, hit.size(), "\"cache_hit\":false");
  }
  return s;
}

struct RoundStats {
  std::vector<double> setup_s;
  double cold_s = 0.0;
  std::vector<double> replay_ms;
  double job_s = 0.0;  // Σ job wall of the cold pass
  std::vector<double> job_ms;  // each cold job's wall, in job order
  // Per work-unit half (a simulated point or an estimate chain point), as
  // reported through SweepOptions::on_point; traced runs only.
  double sim_half_s = 0.0;
  double est_half_s = 0.0;
  double max_half_s = 0.0;
  std::uint64_t events = 0;
  std::uint64_t rhs_evals = 0;
  std::uint64_t misses = 0;
  std::uint64_t replay_hits = 0;
};

struct PhaseStats {
  std::vector<RoundStats> rounds;
  std::string last_cache_dir;
};

// The correctness gates of one table's cold report.
void check_cold(const exp::ExperimentSpec& spec, const exp::RunReport& rep,
                Result& res) {
  res.check(rep.failed_jobs == 0,
            spec.name + ": " + std::to_string(rep.failed_jobs) + " failed jobs");
  res.check(rep.cache_hits + rep.cache_misses + rep.failed_jobs ==
                rep.jobs.size(),
            spec.name + ": hits + misses + failed != jobs");
  res.check(rep.cache_hits == 0, spec.name + ": cold run hit the cache");
  for (const auto& g : golden()) {
    if (spec.name != g.table) continue;
    const double est = rep.estimate(g.label, g.lambda);
    res.check(std::abs(est - g.expected) <= g.tol,
              spec.name + " " + g.label + "@" + std::to_string(g.lambda) +
                  ": estimate " + std::to_string(est) + " vs golden " +
                  std::to_string(g.expected));
  }
  for (const auto& r : rep.results) {
    res.check(!r.has_sim || std::isfinite(r.sim_sojourn.mean),
              spec.name + ": non-finite simulated sojourn");
  }
}

// Set-up: a fresh cache directory, a worker pool and the four specs
// expanded into keyed jobs, i.e. everything before the first table can be
// issued. Timed kSetups times before every round, so the samples spread
// over the whole run like every other measurement. The timed pools are
// thrown away unused: the tables run on one pool for the whole run, since
// every fresh pool's threads would grow the allocator's per-thread arenas
// and with them the run's peak RSS.
constexpr int kSetups = 5;

std::vector<exp::ExperimentSpec> set_up(const Options& opt,
                                        const std::string& cache_dir,
                                        RoundStats& rs, Result& res) {
  std::vector<exp::ExperimentSpec> specs;
  for (int i = 0; i < kSetups; ++i) {
    remove_tree(cache_dir);
    const auto t0 = Clock::now();
    make_dirs(cache_dir);
    const par::ThreadPool pool(opt.threads);
    specs = table_specs(opt.seed);
    std::size_t jobs = 0;
    for (const auto& spec : specs) {
      for (const auto& job : spec.expand()) jobs += job.key().empty() ? 0 : 1;
    }
    rs.setup_s.push_back(seconds_between(t0, Clock::now()));
    res.details["jobs_per_pass"] = jobs;
  }
  return specs;
}

PhaseStats run_phase(const Options& opt, const std::string& tag,
                     double budget_s, par::ThreadPool& pool, Tracer& tracer,
                     Result& res) {
  PhaseStats ph;
  constexpr int kReplays = 20;
  const auto start = Clock::now();
  for (int round = 0;; ++round) {
    if (round > 0) {
      const double elapsed = seconds_between(start, Clock::now());
      const double per_round = elapsed / round;
      if (elapsed + per_round > budget_s) break;
    }
    RoundStats rs;
    const std::string cache_dir =
        opt.workdir + "/" + tag + "-cache-" + std::to_string(round);
    const std::string art_dir =
        opt.workdir + "/" + tag + "-artifacts-" + std::to_string(round);
    const auto specs = set_up(opt, cache_dir, rs, res);

    std::vector<std::string> cold_manifests;
    std::mutex halves_mu;
    const auto r0 = Clock::now();
    const std::uint64_t round_span = tracer.reserve_id();
    for (std::size_t t = 0; t < specs.size(); ++t) {
      const auto& spec = specs[t];
      Scope run_span(tracer, "SweepRunner.run " + spec.name, "exp",
                     round_span, t + 1);
      exp::SweepOptions so;
      so.pool = &pool;
      so.cache_dir = cache_dir;
      so.artifact_dir = art_dir;
      so.on_failure = exp::OnFailure::Report;
      if (tracer.enabled()) {
        const std::uint64_t parent = run_span.id();
        so.on_point = [&tracer, &rs, &halves_mu, parent, t](
                          std::size_t index, const exp::JobResult& p) {
          const double end = tracer.us(Clock::now());
          tracer.record_us(p.has_sim ? "sim job " + p.label
                                     : "estimate " + p.label,
                           p.has_sim ? "sim" : "core",
                           end - p.wall_seconds * 1e6, end, parent,
                           (t + 1) * 1000 + index);
          const std::lock_guard lock(halves_mu);
          (p.has_sim ? rs.sim_half_s : rs.est_half_s) += p.wall_seconds;
          rs.max_half_s = std::max(rs.max_half_s, p.wall_seconds);
        };
      }
      const auto rep = exp::SweepRunner(so).run(spec);
      check_cold(spec, rep, res);
      res.attempted += rep.jobs.size();
      res.failed += rep.failed_jobs;
      rs.misses += rep.cache_misses;
      rs.events += rep.events_simulated;
      for (const auto& r : rep.results) {
        rs.job_s += r.wall_seconds;
        rs.job_ms.push_back(r.wall_seconds * 1e3);
        rs.rhs_evals += r.est_rhs_evals;
      }
      cold_manifests.push_back(provenance_free_jobs(rep));
    }
    const auto r1 = Clock::now();
    tracer.record_reserved(round_span, "tables cold", "exp", r0, r1);
    rs.cold_s = seconds_between(r0, r1);

    for (int k = 0; k < kReplays; ++k) {
      const auto p0 = Clock::now();
      const std::uint64_t replay_span = tracer.reserve_id();
      std::vector<exp::RunReport> replays;
      for (std::size_t t = 0; t < specs.size(); ++t) {
        Scope run_span(tracer, "SweepRunner.run " + specs[t].name + " (cached)",
                       "exp", replay_span, t + 1);
        exp::SweepOptions so;
        so.pool = &pool;
        so.cache_dir = cache_dir;
        so.artifact_dir = art_dir;
        so.on_failure = exp::OnFailure::Report;
        replays.push_back(exp::SweepRunner(so).run(specs[t]));
      }
      const auto p1 = Clock::now();
      tracer.record_reserved(replay_span, "tables cached", "exp", p0, p1);
      rs.replay_ms.push_back(seconds_between(p0, p1) * 1e3);
      for (std::size_t t = 0; t < specs.size(); ++t) {
        const auto& rep = replays[t];
        res.attempted += rep.jobs.size();
        res.failed += rep.failed_jobs;
        res.check(rep.cache_hits == rep.jobs.size(),
                  specs[t].name + ": cached replay missed " +
                      std::to_string(rep.jobs.size() - rep.cache_hits) +
                      " jobs");
        res.check(provenance_free_jobs(rep) == cold_manifests[t],
                  specs[t].name + ": cached manifest differs from the cold one");
        if (k == 0) rs.replay_hits += rep.cache_hits;
      }
    }
    if (!ph.last_cache_dir.empty()) remove_tree(ph.last_cache_dir);
    ph.last_cache_dir = cache_dir;
    remove_tree(art_dir);
    ph.rounds.push_back(std::move(rs));
  }
  return ph;
}

template <typename F>
double median_of(const std::vector<RoundStats>& rounds, F f) {
  std::vector<double> v;
  for (const auto& r : rounds) v.push_back(f(r));
  return median(v);
}

// Cold Tables 1-4 take one of two times: whether the pool runs Table 2's
// c=10 and c=20 estimate chains side by side or one after the other is a
// scheduling lottery worth ~1.3 s. A median of a few rounds flips between
// the two modes; the mean over every cold round of the run (total cold
// time / rounds) converges instead.
double mean_cold_s(const std::vector<RoundStats>& rounds) {
  double total = 0.0;
  for (const auto& r : rounds) total += r.cold_s;
  return total / static_cast<double>(rounds.size());
}

// Per-job latency over the run: each job's median wall over the cold
// rounds (every round runs the same jobs in the same order), so a host
// stall of a second or two, which can slow the jobs it overlaps by 4x,
// moves one round's sample and not the result. The tail's percentile is
// chosen by the tail rule over all cold job samples of the run.
struct JobLatency {
  double p50_ms = 0.0;
  Tail tail;
};

JobLatency job_latency(const std::vector<RoundStats>& rounds) {
  std::vector<double> all, per_job;
  for (const auto& r : rounds) all.insert(all.end(), r.job_ms.begin(), r.job_ms.end());
  const std::size_t jobs = rounds.front().job_ms.size();
  for (std::size_t j = 0; j < jobs; ++j) {
    std::vector<double> v;
    for (const auto& r : rounds) v.push_back(r.job_ms.at(j));
    per_job.push_back(median(v));
  }
  JobLatency out;
  out.p50_ms = median(per_job);
  out.tail = tail(all);
  out.tail.value = percentile(per_job, out.tail.pct);
  return out;
}

// The exact counters of a cold pass, which every round must repeat.
void record_counters(const PhaseStats& ph, Result& res) {
  const auto& r0 = ph.rounds.front();
  res.counter("sim.events.tables", r0.events);
  res.counter("core.rhs_evals.tables", r0.rhs_evals);
  res.counter("exp.cache_misses", r0.misses);
  res.counter("exp.cache_hits", r0.replay_hits);
  for (const auto& r : ph.rounds) {
    res.check(r.events == r0.events && r.rhs_evals == r0.rhs_evals &&
                  r.misses == r0.misses && r.replay_hits == r0.replay_hits,
              "exact counters differ between cold rounds of one run");
  }
}

}  // namespace

Reach run_paper_tables(const Options& opt, Tracer& tracer, Result& res) {
  res.details["fidelity"] = bench_fidelity().label;
  par::ThreadPool pool(opt.threads);
  if (!opt.trace) {
    const auto ph = run_phase(opt, "cold", opt.seconds, pool, tracer, res);
    record_counters(ph, res);
    std::vector<double> setup, replays;
    auto cold = lsm::util::Json::array();
    std::size_t jobs = 0;
    for (const auto& r : ph.rounds) {
      setup.insert(setup.end(), r.setup_s.begin(), r.setup_s.end());
      replays.insert(replays.end(), r.replay_ms.begin(), r.replay_ms.end());
      jobs += r.job_ms.size();
      cold.push_back(r.cold_s);
    }
    const double tables_s = mean_cold_s(ph.rounds);
    res.metric("setup_s", median(setup), "s");
    res.metric("peak_rss_mb", peak_rss_mib(), "MiB");
    // Jobs per second of cold table time: the mean over rounds, inverted.
    res.metric("ops_per_s",
               static_cast<double>(jobs) /
                   (tables_s * static_cast<double>(ph.rounds.size())),
               "1/s");
    const JobLatency lat = job_latency(ph.rounds);
    res.metric("op_p50_ms", lat.p50_ms, "ms");
    res.tail_metric("op_tail_ms", lat.tail);
    res.details["tables_wall_s"] = tables_s;
    res.details["cold_rounds_s"] = std::move(cold);
    res.details["replays"] = replays.size();
    res.details["replay_p50_ms"] = median(replays);
    return {};
  }
  // Traced run: the same work untraced, then traced, half the time each;
  // per-layer numbers come from the traced half.
  Tracer off(false);
  const auto base = run_phase(opt, "untraced", opt.seconds / 2, pool, off, res);
  remove_tree(base.last_cache_dir);
  const auto ph = run_phase(opt, "traced", opt.seconds / 2, pool, tracer, res);
  record_counters(ph, res);
  const auto& r0 = ph.rounds.front();
  res.metric("trace.overhead_frac",
             mean_cold_s(ph.rounds) / mean_cold_s(base.rounds) - 1.0, "ratio");
  res.metric("sim.events", static_cast<double>(r0.events), "count");
  res.metric("sim.ns_per_event",
             median_of(ph.rounds,
                       [](const RoundStats& r) {
                         return r.sim_half_s * 1e9 / static_cast<double>(r.events);
                       }),
             "ns");
  // Runner-level context (no other workload has these, so they are not
  // per-layer metrics): the estimate chains' time, Table 2's c=20 chain
  // being the straggler; pool occupancy; the longest job; the cached
  // replay of Tables 1-4, which moves with host CPU steal by up to 2x.
  res.details["estimate_ms"] = median_of(
      ph.rounds, [](const RoundStats& r) { return r.est_half_s * 1e3; });
  res.details["runner_busy_frac"] = median_of(ph.rounds, [&](const RoundStats& r) {
    return r.job_s / (r.cold_s * opt.threads);
  });
  res.details["max_job_s"] =
      median_of(ph.rounds, [](const RoundStats& r) { return r.max_half_s; });
  std::vector<double> replays;
  for (const auto& r : ph.rounds) {
    replays.insert(replays.end(), r.replay_ms.begin(), r.replay_ms.end());
  }
  res.details["tables_cached_ms"] = median(replays);
  Reach reach;
  reach.cache_dir = ph.last_cache_dir;
  reach.cache_hits = r0.replay_hits;
  reach.cache_misses = r0.misses;
  return reach;
}

}  // namespace perfbench
