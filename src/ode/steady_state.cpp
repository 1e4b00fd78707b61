#include "ode/steady_state.hpp"

#include <chrono>
#include <cmath>
#include <utility>

#include "util/error.hpp"
#include "util/failure.hpp"

namespace lsm::ode {

SteadyStateResult relax_to_fixed_point(const OdeSystem& sys, State s0,
                                       const SteadyStateOptions& opts) {
  LSM_EXPECT(s0.size() == sys.dimension(), "initial state has wrong dimension");
  const auto wall0 = std::chrono::steady_clock::now();
  const CountingSystem counted(sys);
  State ds(s0.size());
  AdaptiveIntegrator driver;
  double t = 0.0;
  double next_check = opts.check_interval;
  double norm = 0.0;
  AdaptiveOptions aopts = opts.adaptive;
  aopts.dt_max = std::max(aopts.dt_max, opts.check_interval);

  auto give_up = [&](SolveStatus status,
                     const std::string& why) -> SteadyStateResult {
    const std::string msg =
        "relax_to_fixed_point: " + why +
        (opts.label.empty() ? std::string() : " [" + opts.label + "]") +
        ": t_max=" + std::to_string(opts.t_max) +
        " deriv_norm=" + std::to_string(norm) +
        " deriv_tol=" + std::to_string(opts.deriv_tol) +
        " rhs_evals=" + std::to_string(counted.evals());
    if (opts.throw_on_failure) {
      util::Failure f;
      f.kind = status == SolveStatus::Diverged
                   ? util::FailureKind::SolverDiverged
                   : util::FailureKind::SolverBudget;
      f.message = msg;
      f.context = opts.label;
      throw util::FailureError(std::move(f));
    }
    return SteadyStateResult{std::move(s0), t, norm, counted.evals(), status,
                             msg};
  };

  counted.project(s0);
  counted.deriv(0.0, s0, ds);
  norm = norm_linf(ds);
  // `!(norm < tol)` rather than `norm >= tol`: a NaN norm must stay in
  // the loop so it reaches the divergence check instead of reading as
  // converged.
  while (!(norm < opts.deriv_tol)) {
    if (!std::isfinite(norm)) {
      return give_up(SolveStatus::Diverged, "derivative norm is not finite");
    }
    if (t >= opts.t_max) {
      return give_up(SolveStatus::BudgetExhausted, "no convergence by t_max");
    }
    if (opts.max_rhs_evals != 0 && counted.evals() >= opts.max_rhs_evals) {
      return give_up(SolveStatus::BudgetExhausted,
                     "RHS evaluation budget exhausted");
    }
    if (opts.max_wall_seconds > 0.0) {
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        wall0)
              .count();
      if (elapsed >= opts.max_wall_seconds) {
        return give_up(SolveStatus::BudgetExhausted, "wall budget exhausted");
      }
    }
    const double target = std::min(next_check, opts.t_max);
    t = driver.integrate(counted, s0, t, target, aopts);
    next_check = t + opts.check_interval;
    counted.deriv(t, s0, ds);
    norm = norm_linf(ds);
  }
  return SteadyStateResult{std::move(s0), t, norm, counted.evals(),
                           SolveStatus::Converged, {}};
}

}  // namespace lsm::ode
