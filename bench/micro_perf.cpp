// Microbenchmarks (google-benchmark) for the numeric kernels and the
// discrete-event simulator: derivative evaluation cost by model and
// truncation, stepper cost, fixed-point solve latency, event throughput.
#include <benchmark/benchmark.h>

#include "core/erlang_ws.hpp"
#include "core/fixed_point.hpp"
#include "core/rebalance_ws.hpp"
#include "core/threshold_ws.hpp"
#include "core/transfer_ws.hpp"
#include "ode/banded.hpp"
#include "ode/integrator.hpp"
#include "ode/linalg.hpp"
#include "ode/steppers.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "util/xoshiro.hpp"

namespace {

using namespace lsm;

void BM_Xoshiro(benchmark::State& state) {
  util::Xoshiro256 rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng());
  }
}
BENCHMARK(BM_Xoshiro);

void BM_ExponentialSample(benchmark::State& state) {
  util::Xoshiro256 rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.exponential(1.0));
  }
}
BENCHMARK(BM_ExponentialSample);

void BM_SimpleWSDeriv(benchmark::State& state) {
  core::SimpleWS model(0.9, static_cast<std::size_t>(state.range(0)));
  const auto s = model.mm1_state();
  ode::State ds(s.size());
  for (auto _ : state) {
    model.deriv(0.0, s, ds);
    benchmark::DoNotOptimize(ds.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(s.size()));
}
BENCHMARK(BM_SimpleWSDeriv)->Arg(64)->Arg(256)->Arg(1024);

void BM_RebalanceDeriv(benchmark::State& state) {
  // O(L^2) interaction kernel; the heaviest derivative in the library.
  core::RebalanceWS model(0.9, 1.0, static_cast<std::size_t>(state.range(0)));
  const auto s = model.mm1_state();
  ode::State ds(s.size());
  for (auto _ : state) {
    model.deriv(0.0, s, ds);
    benchmark::DoNotOptimize(ds.data());
  }
}
BENCHMARK(BM_RebalanceDeriv)->Arg(64)->Arg(128);

void BM_Rk4Step(benchmark::State& state) {
  core::SimpleWS model(0.9, 256);
  ode::RungeKutta4 rk4;
  auto s = model.mm1_state();
  for (auto _ : state) {
    rk4.step(model, 0.0, s, 0.01);
    benchmark::DoNotOptimize(s.data());
  }
}
BENCHMARK(BM_Rk4Step);

void BM_FixedPointSolve(benchmark::State& state) {
  for (auto _ : state) {
    core::SimpleWS model(0.9);
    auto fp = core::solve_fixed_point(model);
    benchmark::DoNotOptimize(fp.residual);
  }
}
BENCHMARK(BM_FixedPointSolve)->Unit(benchmark::kMillisecond);

void BM_TransferFixedPointSolve(benchmark::State& state) {
  for (auto _ : state) {
    core::TransferTimeWS model(0.9, 0.25, 4);
    auto fp = core::solve_fixed_point(model);
    benchmark::DoNotOptimize(fp.residual);
  }
}
BENCHMARK(BM_TransferFixedPointSolve)->Unit(benchmark::kMillisecond);

void BM_LuSolve(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  ode::Matrix a(n, n);
  util::Xoshiro256 rng(3);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      a(i, j) = (i == j) ? 4.0 : rng.uniform() * 0.1;
    }
  }
  std::vector<double> b(n, 1.0);
  for (auto _ : state) {
    ode::LuSolver lu(a);
    benchmark::DoNotOptimize(lu.solve(b));
  }
}
BENCHMARK(BM_LuSolve)->Arg(128)->Arg(256)->Unit(benchmark::kMillisecond);

void BM_BandedLuSolve(benchmark::State& state) {
  // Banded factorization at the Erlang model's shape: n x n, band c.
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t band = 20;
  ode::BandedMatrix a(n, band, band);
  util::Xoshiro256 rng(7);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t j_lo = i >= band ? i - band : 0;
    const std::size_t j_hi = std::min(i + band, n - 1);
    for (std::size_t j = j_lo; j <= j_hi; ++j) {
      a.set(i, j, i == j ? 4.0 : 0.05 * rng.uniform());
    }
  }
  std::vector<double> b(n, 1.0);
  for (auto _ : state) {
    ode::BandedLuSolver lu(a);
    benchmark::DoNotOptimize(lu.solve(b));
  }
}
BENCHMARK(BM_BandedLuSolve)->Arg(1024)->Arg(4096)->Unit(benchmark::kMillisecond);

void BM_ErlangFixedPoint(benchmark::State& state) {
  // Full Auto solve of the c = 10 stage model at lambda = 0.9: the
  // truncation ladder with Newton-Krylov at every rung, then the polish.
  for (auto _ : state) {
    core::ErlangServiceWS model(0.9, 10);
    auto fp = core::solve_fixed_point(model);
    benchmark::DoNotOptimize(fp.residual);
  }
}
BENCHMARK(BM_ErlangFixedPoint)->Unit(benchmark::kMillisecond);

void BM_BandedFdJacobian(benchmark::State& state) {
  core::ErlangServiceWS model(0.9, 10);
  const auto s = model.empty_state();
  for (auto _ : state) {
    auto jac = ode::banded_fd_jacobian(model, 0.0, s, 10, 10);
    benchmark::DoNotOptimize(jac.get(5, 5));
  }
}
BENCHMARK(BM_BandedFdJacobian)->Unit(benchmark::kMillisecond);

void BM_EventQueue(benchmark::State& state) {
  util::Xoshiro256 rng(5);
  for (auto _ : state) {
    sim::EventQueue<int> q;
    for (int i = 0; i < 1000; ++i) q.push(rng.uniform(), i);
    while (!q.empty()) benchmark::DoNotOptimize(q.pop().payload);
  }
  state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(BM_EventQueue);

void BM_SimulatorThroughput(benchmark::State& state) {
  sim::SimConfig cfg;
  cfg.processors = 64;
  cfg.arrival_rate = 0.9;
  cfg.policy = sim::StealPolicy::on_empty(2);
  cfg.horizon = 500.0;
  cfg.warmup = 50.0;
  std::uint64_t events = 0;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    cfg.seed = seed++;
    const auto res = sim::simulate(cfg);
    // Arrivals + completions + steal attempts ~ total dispatched events.
    events += res.arrivals + res.completions + res.steal_attempts;
    benchmark::DoNotOptimize(res.completions);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.SetLabel("items = simulated events");
}
BENCHMARK(BM_SimulatorThroughput)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
