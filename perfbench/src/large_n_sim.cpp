// large-n-sim: one single-threaded sim::simulate at n = 2^23 processors
// (λ = 0.9, steal-on-empty T = 2, starting empty, horizon 2). Engine state
// is about n x 86 bytes = 0.72 GB, 2.4 times this host's 300 MiB LLC. The
// cost of an event grows with n well before the LLC is full (measured on a
// 4-vCPU Xeon VM: 205 ns at n = 2^16, 627 ns at 2^20, 866 ns at 2^22 and
// about 1050 ns at 2^23), unlike the n <= 128 simulations of paper-tables,
// which run from cache. The horizon is past the start-up transient: at
// n = 2^22 the cost per event at horizon 2 is within 1.2% of horizon 4,
// while horizon 1 is 15% above it.
//
// The horizon is fixed, so every call repeats the same work; the run makes
// as many calls as fit in --seconds (at least one; one of ~26 s in a 30-s
// run) and reports the median rate. An operation is one call. Each call is checked: tasks are conserved, repeated calls are
// bit-identical, and the busy-fraction timeline tracks the ThresholdWS(0.9,
// 2) ODE integrated from empty (at this n the sampling noise is ~1e-3).
#include <cmath>
#include <fstream>

#include "common.hpp"
#include "core/threshold_ws.hpp"
#include "ode/integrator.hpp"
#include "sim/simulator.hpp"

namespace perfbench {
namespace {

using namespace lsm;

constexpr std::size_t kProcessors = std::size_t{1} << 23;
constexpr double kLambda = 0.9;
constexpr double kHorizon = 2.0;
constexpr double kTimelineDt = 0.125;
constexpr double kBusyTol = 0.01;

sim::SimConfig config(std::uint64_t seed, double horizon) {
  sim::SimConfig cfg;
  cfg.processors = kProcessors;
  cfg.arrival_rate = kLambda;
  cfg.policy = sim::StealPolicy::on_empty(2);
  cfg.horizon = horizon;
  cfg.warmup = horizon / 2;
  cfg.seed = seed;
  cfg.timeline_dt = kTimelineDt;
  return cfg;
}

std::uint64_t events_of(const sim::SimResult& r) {
  return r.arrivals + r.completions + r.steal_attempts + r.forwards;
}

// Busy fraction of the mean-field ODE started empty, at each timeline t.
std::vector<double> ode_busy(const std::vector<sim::SimResult::TimelinePoint>& tl) {
  core::ThresholdWS model(kLambda, 2);
  ode::State s = model.empty_state();
  double t = 0.0;
  std::vector<double> busy;
  for (const auto& p : tl) {
    if (p.t > t) t = ode::integrate_adaptive(model, s, t, p.t, {});
    busy.push_back(s[1]);
  }
  return busy;
}

void check_call(const sim::SimResult& r, const sim::SimResult& first,
                const std::vector<double>& busy, Result& res) {
  res.check(r.arrivals + r.initial_tasks == r.completions + r.tasks_remaining,
            "tasks not conserved");
  res.check(events_of(r) == events_of(first) &&
                r.sojourn.mean() == first.sojourn.mean(),
            "repeated identical simulate calls differ");
  res.check(r.timeline.size() == busy.size(), "timeline length changed");
  double worst = 0.0;
  for (std::size_t i = 0; i < busy.size() && i < r.timeline.size(); ++i) {
    worst = std::max(worst, std::abs(r.timeline[i].busy_fraction - busy[i]));
  }
  res.check(worst <= kBusyTol, "busy fraction strays " + std::to_string(worst) +
                                   " from the ODE trajectory");
  res.details["max_busy_dev"] = worst;
}

std::string llc_size() {
  // The highest-level cache sysfs lists for cpu0.
  std::string best;
  for (int i = 0; i < 8; ++i) {
    std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index" +
                     std::to_string(i) + "/size");
    std::string s;
    if (in >> s) best = s;
  }
  return best;
}

// Set-up: building and tearing down the 2^23-processor engine, i.e. a
// simulate call whose horizon admits almost no events. Sampled kSetups
// times before every timed call of an untraced run, so the samples spread
// over the run.
constexpr int kSetups = 3;

double engine_setup_s(std::uint64_t seed, Result& res) {
  auto cfg = config(seed, 1e-6);
  cfg.warmup = 0.0;
  cfg.timeline_dt = 0.0;
  const auto t0 = Clock::now();
  const auto r = sim::simulate(cfg);
  const double s = seconds_between(t0, Clock::now());
  res.check(r.arrivals == r.completions + r.tasks_remaining,
            "set-up call lost tasks");
  return s;
}

struct Calls {
  std::vector<double> rate;
  std::vector<double> wall_ms;
  std::uint64_t events = 0;
  std::uint64_t engine_bytes = 0;
};

Calls run_calls(const Options& opt, double budget_s, Tracer& tracer,
                Result& res, std::vector<double>& busy,
                std::vector<double>* setup) {
  Calls c;
  const auto start = Clock::now();
  sim::SimResult first;
  for (int call = 0;; ++call) {
    if (call > 0) {
      const double elapsed = seconds_between(start, Clock::now());
      if (elapsed + elapsed / call > budget_s) break;
    }
    for (int i = 0; setup != nullptr && i < kSetups; ++i) {
      setup->push_back(engine_setup_s(opt.seed, res));
    }
    const auto cfg = config(opt.seed, kHorizon);
    const auto t0 = Clock::now();
    auto r = sim::simulate(cfg);
    const auto t1 = Clock::now();
    tracer.record_us("sim::simulate n=2^23", "sim", tracer.us(t0),
                     tracer.us(t1), 0, static_cast<std::uint64_t>(call + 1));
    const double s = seconds_between(t0, t1);
    ++res.attempted;
    if (call == 0) {
      first = r;
      busy = ode_busy(r.timeline);
    }
    check_call(r, first, busy, res);
    const auto ev = static_cast<double>(events_of(r));
    c.rate.push_back(ev / s);
    c.wall_ms.push_back(s * 1e3);
    c.events = events_of(r);
    c.engine_bytes = r.engine_bytes;
  }
  return c;
}

}  // namespace

Reach run_large_n_sim(const Options& opt, Tracer& tracer, Result& res) {
  std::vector<double> setup;
  std::vector<double> busy;
  res.details["n"] = kProcessors;
  res.details["horizon"] = kHorizon;
  res.details["llc"] = llc_size();
  if (!opt.trace) {
    const Calls c = run_calls(opt, opt.seconds, tracer, res, busy, &setup);
    res.metric("setup_s", median(setup), "s");
    res.metric("peak_rss_mb", peak_rss_mib(), "MiB");
    res.metric("ops_per_s", median(c.rate), "1/s");  // simulated events
    res.metric("op_p50_ms", median(c.wall_ms), "ms");
    res.tail_metric("op_tail_ms", c.wall_ms);
    res.counter("sim.events.large_n", c.events);
    res.details["calls"] = c.rate.size();
    auto rates = lsm::util::Json::array();
    for (const double v : c.rate) rates.push_back(v);
    res.details["call_rates"] = std::move(rates);
    res.details["engine_bytes"] = c.engine_bytes;
    res.details["bytes_per_proc"] =
        static_cast<double>(c.engine_bytes) / static_cast<double>(kProcessors);
    return {};
  }
  Tracer off(false);
  // No set-up samples: a traced run reports no setup_s.
  const Calls base = run_calls(opt, opt.seconds / 2, off, res, busy, nullptr);
  const Calls c = run_calls(opt, opt.seconds / 2, tracer, res, busy, nullptr);
  res.metric("trace.overhead_frac", median(base.rate) / median(c.rate) - 1.0,
             "ratio");
  res.metric("sim.events", static_cast<double>(c.events), "count");
  res.metric("sim.ns_per_event", 1e9 / median(c.rate), "ns");
  res.metric("sim.bytes_per_proc",
             static_cast<double>(c.engine_bytes) / static_cast<double>(kProcessors),
             "B");
  res.counter("sim.events.large_n", c.events);
  return {};
}

}  // namespace perfbench
