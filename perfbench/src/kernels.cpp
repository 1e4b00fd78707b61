// Per-layer probes for traced runs, each timed from outside through a
// module's public functions: MeanFieldModel::deriv at a converged state,
// the simulator's service samplers and RNG, simulate calls at an in-cache
// size, and ResultCache::load/store on the entries a workload produced.
// run_probes() runs them after the workload; a probe fills in only the
// metrics the workload did not report itself, so each traced run prints
// every per-layer metric.
#include <algorithm>
#include <filesystem>

#include "common.hpp"
#include "core/fixed_point.hpp"
#include "core/phase_type.hpp"
#include "core/registry.hpp"
#include "exp/cache.hpp"
#include "sim/distributions.hpp"
#include "sim/simulator.hpp"
#include "util/xoshiro.hpp"

namespace perfbench {
namespace {

using namespace lsm;

// Median over `batches` batches of the per-item cost (ns) of `body(n)`,
// which performs n items; n grows until a batch takes >= 5 ms.
template <typename F>
double ns_per_item(F body, int batches = 7) {
  std::size_t n = 64;
  for (;;) {
    const auto t0 = Clock::now();
    body(n);
    if (seconds_between(t0, Clock::now()) >= 5e-3 || n >= (std::size_t{1} << 30)) break;
    n *= 2;
  }
  std::vector<double> per;
  for (int b = 0; b < batches; ++b) {
    const auto t0 = Clock::now();
    body(n);
    per.push_back(seconds_between(t0, Clock::now()) * 1e9 / static_cast<double>(n));
  }
  return median(per);
}

}  // namespace

void probe_rhs_kernels(Tracer& tracer, Result& res) {
  const struct {
    const char* name;
    const char* model;
    core::ModelParams params;
  } cases[] = {
      {"simple", "simple", {}},
      {"erlang", "erlang", {{"c", 10.0}}},
      {"transfer", "transfer", {{"r", 0.25}, {"T", 4.0}}},
      {"staged_transfer", "staged-transfer", {{"r", 0.25}, {"c", 4.0}, {"T", 3.0}}},
      {"phase_type", "simple", {{"service", "erlang:10"}}},
      {"multi_choice", "multi-choice", {{"d", 2.0}}},
  };
  double sink = 0.0;
  for (const auto& c : cases) {
    Scope span(tracer, std::string("deriv ") + c.name, "core");
    const auto model = core::make_model(c.model, 0.9, c.params);
    const auto fp = core::solve_fixed_point(*model);
    const ode::State& s = fp.state;
    ode::State ds(s.size());
    const double ns = ns_per_item([&](std::size_t n) {
      for (std::size_t i = 0; i < n; ++i) {
        model->deriv(0.0, s, ds);
        sink += ds[1];
      }
    });
    res.metric(std::string("core.rhs_ns_per_comp.") + c.name,
               ns / static_cast<double>(s.size()), "ns");
    res.details[std::string("rhs_dim.") + c.name] = s.size();
  }
  res.details["rhs_sink"] = sink;
}

void probe_samplers(Tracer& tracer, Result& res) {
  const struct {
    const char* name;
    sim::ServiceDistribution dist;
  } cases[] = {
      {"exp", sim::ServiceDistribution::exponential(1.0)},
      {"constant", sim::ServiceDistribution::constant(1.0)},
      {"erlang10", sim::ServiceDistribution::erlang(10, 1.0)},
      {"hyperexp4", sim::ServiceDistribution::phase_type(core::PhaseType::hyperexp(4.0))},
  };
  double sink = 0.0;
  util::Xoshiro256 rng(12345);
  for (const auto& c : cases) {
    Scope span(tracer, std::string("sample ") + c.name, "sim");
    const double ns = ns_per_item([&](std::size_t n) {
      for (std::size_t i = 0; i < n; ++i) sink += c.dist.sample(rng);
    });
    res.metric(std::string("sim.sample_ns.") + c.name, ns, "ns");
  }
  {
    Scope span(tracer, "Xoshiro256 draw", "util");
    std::uint64_t acc = 0;
    const double ns = ns_per_item([&](std::size_t n) {
      for (std::size_t i = 0; i < n; ++i) acc += rng();
    });
    sink += static_cast<double>(acc & 1);
    res.metric("util.rng_ns", ns, "ns");
  }
  res.details["sampler_sink"] = sink;
}

void probe_cache(const std::string& cache_dir, const std::string& scratch_dir,
                 Tracer& tracer, Result& res) {
  Scope span(tracer, "ResultCache load/store probe", "exp");
  std::vector<std::string> keys;
  for (const auto& e : std::filesystem::directory_iterator(cache_dir)) {
    if (e.path().extension() == ".job") keys.push_back(e.path().stem().string());
  }
  std::sort(keys.begin(), keys.end());
  remove_tree(scratch_dir);
  const exp::ResultCache src(cache_dir);
  const exp::ResultCache dst(scratch_dir);
  std::vector<double> load_us, store_us;
  constexpr int kPasses = 3;
  for (int pass = 0; pass < kPasses; ++pass) {
    for (const auto& key : keys) {
      exp::JobResult r;
      const auto t0 = Clock::now();
      const bool ok = src.load(key, r);
      const auto t1 = Clock::now();
      res.check(ok, "cache entry " + key + " failed to load");
      dst.store(key, r);
      const auto t2 = Clock::now();
      load_us.push_back(seconds_between(t0, t1) * 1e6);
      store_us.push_back(seconds_between(t1, t2) * 1e6);
    }
  }
  const Tail lt = tail(load_us), st = tail(store_us);
  res.metric("exp.cache_load_us.p50", median(load_us), "us");
  res.metric("exp.cache_load_us.tail", lt.value, "us");
  res.metric("exp.cache_store_us.p50", median(store_us), "us");
  res.metric("exp.cache_store_us.tail", st.value, "us");
  res.details["cache_probe_entries"] = keys.size();
  res.details["cache_probe_tail_pct"] = lt.pct;
  remove_tree(scratch_dir);
}

void probe_sim(Tracer& tracer, Result& res) {
  // n = 2^16 (~5.6 MB of engine state) from empty, past the start-up
  // transient; median of three identical calls.
  sim::SimConfig cfg;
  cfg.processors = std::size_t{1} << 16;
  cfg.arrival_rate = 0.9;
  cfg.policy = sim::StealPolicy::on_empty(2);
  cfg.horizon = 4.0;
  cfg.warmup = 2.0;
  cfg.seed = 7;
  std::vector<double> ns;
  std::uint64_t events = 0;
  double bytes = 0.0;
  for (int call = 0; call < 3; ++call) {
    const auto t0 = Clock::now();
    const auto r = sim::simulate(cfg);
    const auto t1 = Clock::now();
    tracer.record_us("sim::simulate n=2^16", "sim", tracer.us(t0), tracer.us(t1));
    events = r.arrivals + r.completions + r.steal_attempts + r.forwards;
    bytes = static_cast<double>(r.engine_bytes) / static_cast<double>(cfg.processors);
    ns.push_back(seconds_between(t0, t1) * 1e9 / static_cast<double>(events));
    res.check(r.arrivals + r.initial_tasks == r.completions + r.tasks_remaining,
              "sim probe: tasks not conserved");
  }
  res.counter("probe.sim.events", events);
  if (!res.metrics.contains("sim.bytes_per_proc")) {
    res.metric("sim.bytes_per_proc", bytes, "B");
  }
  if (!res.metrics.contains("sim.events")) {
    res.metric("sim.events", static_cast<double>(events), "count");
    res.metric("sim.ns_per_event", median(ns), "ns");
  }
}

void run_probes(const Options& opt, const Reach& reach, Tracer& tracer,
                Result& res) {
  // Layer shares of the workload's own traced time, before any probe.
  const char* layers[] = {"serve", "exp", "sim", "core"};
  const auto self_ms = tracer.self_ms_by_layer();
  double total = 0.0;
  auto by_layer = lsm::util::Json::object();
  for (const auto& [layer, ms] : self_ms) {
    total += ms;
    by_layer[layer] = ms;
  }
  res.details["layer_self_ms"] = std::move(by_layer);
  for (const char* layer : layers) {
    const auto it = self_ms.find(layer);
    res.metric(std::string("layer.self_share.") + layer,
               it == self_ms.end() || total <= 0.0 ? 0.0 : it->second / total,
               "ratio");
  }

  Reach cache = reach;
  if (!reach.serve) {
    const Reach served = probe_serve(opt, tracer, res);
    if (cache.cache_dir.empty()) cache = served;
  }
  res.metric("exp.cache_hits", static_cast<double>(cache.cache_hits), "count");
  res.metric("exp.cache_misses", static_cast<double>(cache.cache_misses), "count");
  probe_cache(cache.cache_dir, opt.workdir + "/store-probe", tracer, res);
  probe_sim(tracer, res);
  probe_samplers(tracer, res);
  probe_rhs_kernels(tracer, res);
  probe_solvers(opt, tracer, res);
}

}  // namespace perfbench
