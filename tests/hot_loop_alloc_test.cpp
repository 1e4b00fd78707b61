// Counting-allocator enforcement of the allocation-free hot loops: once an
// AdaptiveIntegrator (or a fixed-step Stepper) is warm, further integration
// performs zero heap allocations, an Anderson run's allocation count is
// a function of the problem size only, never of the iteration count, and
// a warm simulator calendar queue recycles its chunks and pools.
//
// The counter hooks the global operator new/delete for this test binary.
// Only allocation DELTAS measured around the hot region are asserted, so
// gtest's own bookkeeping outside those windows cannot interfere.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/threshold_ws.hpp"
#include "ode/anderson.hpp"
#include "ode/integrator.hpp"
#include "ode/krylov.hpp"
#include "ode/steppers.hpp"
#include "sim/calendar_queue.hpp"
#include "util/xoshiro.hpp"

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace lsm;

std::size_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

TEST(HotLoopAlloc, AdaptiveIntegratorIsAllocationFreeOnceWarm) {
  core::SimpleWS model(0.9, 96);
  ode::State s = model.empty_state();
  ode::AdaptiveIntegrator integrator;
  // First call sizes the proposal buffer and the Cash-Karp stage vectors.
  double t = integrator.integrate(model, s, 0.0, 5.0);
  const std::size_t warm = allocations();
  t = integrator.integrate(model, s, t, 50.0);
  EXPECT_EQ(allocations(), warm)
      << "steady-state adaptive integration must not touch the heap";
  EXPECT_DOUBLE_EQ(t, 50.0);
}

TEST(HotLoopAlloc, FixedStepDriverIsAllocationFreeOnceWarm) {
  core::SimpleWS model(0.9, 96);
  ode::State s = model.empty_state();
  ode::RungeKutta4 rk4;
  ode::integrate_fixed(model, rk4, s, 0.0, 1.0, 0.01);  // warms the stages
  const std::size_t warm = allocations();
  ode::integrate_fixed(model, rk4, s, 1.0, 10.0, 0.01);
  EXPECT_EQ(allocations(), warm)
      << "fixed-step integration must reuse the stepper's stage vectors";
}

TEST(HotLoopAlloc, AndersonAllocationsIndependentOfIterationCount) {
  // The whole AA workspace (iterates, m-deep difference history, QR
  // factors) is sized on entry; iterating longer must not allocate more.
  core::SimpleWS model(0.9, 96);
  const ode::State s0 = model.empty_state();

  ode::AndersonOptions opts;
  opts.depth = 10;

  opts.max_iter = 5;
  std::size_t before = allocations();
  auto short_run = ode::anderson_fixed_point(model, s0, opts);
  const std::size_t short_allocs = allocations() - before;

  opts.max_iter = 500;
  before = allocations();
  auto long_run = ode::anderson_fixed_point(model, s0, opts);
  const std::size_t long_allocs = allocations() - before;

  EXPECT_FALSE(short_run.converged);
  EXPECT_TRUE(long_run.converged);
  EXPECT_GT(long_run.iterations, 10 * short_run.iterations);
  EXPECT_EQ(long_allocs, short_allocs)
      << "per-iteration heap traffic in the Anderson loop";
}

TEST(HotLoopAlloc, GmresIterationsAllocationFree) {
  // The GmresWorkspace owns every buffer the Krylov iteration touches;
  // after the first (sizing) solve, repeated solves of the same shape must
  // not allocate, no matter how many Arnoldi steps or restarts they take.
  const std::size_t n = 64;
  class Tridiag final : public ode::LinearOperator {
   public:
    explicit Tridiag(std::size_t n) : n_(n) {}
    void apply(const double* x, double* y) const override {
      for (std::size_t i = 0; i < n_; ++i) {
        double acc = 4.0 * x[i];
        if (i > 0) acc -= x[i - 1];
        if (i + 1 < n_) acc -= x[i + 1];
        y[i] = acc;
      }
    }
    [[nodiscard]] std::size_t size() const override { return n_; }

   private:
    std::size_t n_;
  };
  const Tridiag op(n);
  std::vector<double> b(n, 1.0), x(n, 0.0);
  ode::GmresOptions gopts;
  gopts.restart = 10;  // forces restart cycles: the restart path too
  gopts.tol = 1e-12;
  ode::GmresWorkspace ws;
  auto warmup = gmres(op, b.data(), x.data(), gopts, ws);
  ASSERT_TRUE(warmup.converged);

  const std::size_t warm = allocations();
  for (int rep = 0; rep < 3; ++rep) {
    std::fill(x.begin(), x.end(), 0.0);
    auto r = gmres(op, b.data(), x.data(), gopts, ws);
    ASSERT_TRUE(r.converged);
  }
  EXPECT_EQ(allocations(), warm)
      << "warm GMRES solves must reuse the workspace buffers";
}

TEST(HotLoopAlloc, CalendarQueueAllocationFreeOnceWarm) {
  // The simulator's large-n calendar in its steady state: every processor
  // holds one pending arrival, each pop re-schedules its stream, and some
  // pops also schedule a completion or a spill event (retry-like). Chunks
  // return to the free list as buckets drain, the spill pool recycles its
  // slots and the heaps and the sorted run keep their capacity, so after
  // the warm-up no operation allocates.
  constexpr std::size_t kProcs = 4096;
  sim::CalendarQueue<std::uint32_t> cal(kProcs, 48.0 / (2.0 * kProcs), 2048);
  util::Xoshiro256 rng(3);
  for (std::uint32_t p = 0; p < kProcs; ++p) {
    cal.schedule(p, sim::Stream::Arrival, rng.exponential(1.0));
  }
  auto churn = [&](int ops) {
    for (int i = 0; i < ops; ++i) {
      const double now = cal.next_time();
      const auto ev = cal.pop();
      cal.settle();
      switch (ev.stream) {
        case sim::Stream::Arrival:
          cal.schedule(ev.proc, sim::Stream::Arrival, now + rng.exponential(1.0));
          if (rng.below(2) == 0) {
            cal.schedule(ev.proc, sim::Stream::Completion,
                         now + rng.exponential(0.5));
          }
          break;
        case sim::Stream::Completion:
          if (rng.below(8) == 0) cal.schedule_spill(now + rng.exponential(4.0), ev.proc);
          break;
        case sim::Stream::Spill:
          break;
      }
    }
  };
  churn(2000000);  // sizes the slabs, the run, the heaps and the pool
  const std::size_t warm = allocations();
  churn(200000);
  EXPECT_EQ(allocations(), warm)
      << "a warm calendar queue must recycle its storage";
}

}  // namespace
