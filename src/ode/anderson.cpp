#include "ode/anderson.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace lsm::ode {

namespace {

inline double dot(const State& a, const State& b) {
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

/// Fixed-capacity workspace for one AA run. Everything is sized once in
/// the constructor; solve() performs no heap allocations.
class Workspace {
 public:
  Workspace(std::size_t n, std::size_t m)
      : f_(n),
        r_(n),
        xn_(n),
        fn_(n),
        fbest_(n),
        m_(m),
        rmat_(m * m),
        rhs_(m),
        theta_(m) {
    dx_.assign(m, State(n));
    dr_.assign(m, State(n));
    q_.assign(m, State(n));
  }

  std::size_t depth() const noexcept { return mk_; }
  void clear_history() noexcept { mk_ = 0; slot_ = 0; }

  void push_history(const State& x_old, const State& x_new,
                    const State& r_old, const State& r_new) {
    State& dx = dx_[slot_];
    State& dr = dr_[slot_];
    for (std::size_t i = 0; i < dx.size(); ++i) {
      dx[i] = x_new[i] - x_old[i];
      dr[i] = r_new[i] - r_old[i];
    }
    slot_ = (slot_ + 1) % m_;
    mk_ = std::min(mk_ + 1, m_);
  }

  /// Least squares min_theta ||r - DR theta||_2 by modified Gram-Schmidt
  /// over the mk_ history columns. Returns false when the history is
  /// numerically rank-deficient (caller should restart).
  bool solve_theta(const State& r) {
    for (std::size_t j = 0; j < mk_; ++j) {
      State& qj = q_[j];
      qj = dr_[j];  // same size: copy without reallocation
      const double col_norm = std::sqrt(dot(qj, qj));
      for (std::size_t i = 0; i < j; ++i) {
        const double rij = dot(q_[i], qj);
        rmat_[i * m_ + j] = rij;
        axpy(-rij, q_[i], qj);
      }
      const double rjj = std::sqrt(dot(qj, qj));
      if (!(rjj > 1e-12 * std::max(col_norm, 1e-300))) return false;
      rmat_[j * m_ + j] = rjj;
      const double inv = 1.0 / rjj;
      for (double& v : qj) v *= inv;
    }
    for (std::size_t i = 0; i < mk_; ++i) rhs_[i] = dot(q_[i], r);
    for (std::size_t j = mk_; j-- > 0;) {
      double acc = rhs_[j];
      for (std::size_t i = j + 1; i < mk_; ++i) {
        acc -= rmat_[j * m_ + i] * theta_[i];
      }
      theta_[j] = acc / rmat_[j * m_ + j];
    }
    return true;
  }

  /// xn = x + r - sum_j theta_j (dx_j + dr_j)
  void accelerated_step(const State& x, const State& r, State& xn) const {
    for (std::size_t i = 0; i < x.size(); ++i) xn[i] = x[i] + r[i];
    for (std::size_t j = 0; j < mk_; ++j) {
      const double th = theta_[j];
      if (th == 0.0) continue;
      const State& dx = dx_[j];
      const State& dr = dr_[j];
      for (std::size_t i = 0; i < xn.size(); ++i) {
        xn[i] -= th * (dx[i] + dr[i]);
      }
    }
  }

  State f_, r_, xn_, fn_, fbest_;

 private:
  std::size_t m_;
  std::size_t mk_ = 0;
  std::size_t slot_ = 0;
  std::vector<State> dx_, dr_, q_;
  std::vector<double> rmat_, rhs_, theta_;
};

}  // namespace

AndersonResult anderson_fixed_point(const OdeSystem& sys, State s0,
                                    const AndersonOptions& opts) {
  LSM_EXPECT(s0.size() == sys.dimension(), "initial state has wrong dimension");
  LSM_EXPECT(opts.depth >= 1, "Anderson depth must be at least 1");
  LSM_EXPECT(opts.gamma > 0.0, "Picard damping must be positive");

  const CountingSystem counted(sys);
  const std::size_t n = s0.size();
  Workspace w(n, opts.depth);
  const double gamma_min = opts.gamma / 64.0;
  double gamma = opts.gamma;

  AndersonResult out;
  counted.project(s0);
  out.state = s0;  // best-so-far
  State x = std::move(s0);
  counted.deriv(0.0, x, w.f_);
  double norm = norm_linf(w.f_);
  out.residual_norm = norm;
  w.fbest_ = w.f_;
  std::size_t bad_streak = 0;
  std::size_t since_best = 0;

  for (std::size_t k = 0; k < opts.max_iter; ++k) {
    if (norm < opts.tol) {
      out.state = x;
      out.residual_norm = norm;
      out.converged = true;
      break;
    }
    if (norm > opts.divergence_factor * (out.residual_norm + opts.tol)) {
      break;  // hopeless: hand the best iterate to the fallback path
    }
    if (since_best > opts.stall_patience) {
      break;  // orbiting the residual floor: stop burning evaluations
    }

    for (std::size_t i = 0; i < n; ++i) w.r_[i] = gamma * w.f_[i];
    const bool plain = k < opts.warmup || w.depth() == 0;
    if (plain) {
      for (std::size_t i = 0; i < n; ++i) w.xn_[i] = x[i] + w.r_[i];
    } else if (w.solve_theta(w.r_)) {
      w.accelerated_step(x, w.r_, w.xn_);
    } else {
      // Rank-deficient history: restart with a plain damped step.
      w.clear_history();
      ++out.restarts;
      for (std::size_t i = 0; i < n; ++i) w.xn_[i] = x[i] + w.r_[i];
    }
    counted.project(w.xn_);
    counted.deriv(0.0, w.xn_, w.fn_);
    const double norm_next = norm_linf(w.fn_);
    ++out.iterations;

    if (plain && norm_next > norm && gamma > gamma_min) {
      // The damped map is locally expansive at this gamma: back off and
      // retry from the same iterate (history is stale once gamma moves).
      gamma *= 0.5;
      w.clear_history();
      continue;
    }

    // Accept the step and extend the difference history. Reuse f_ to hold
    // r_old = gamma f(x) (f(x) is not needed past this point) and r_ for
    // r_new = gamma f(xn).
    for (std::size_t i = 0; i < n; ++i) w.f_[i] = gamma * w.f_[i];
    for (std::size_t i = 0; i < n; ++i) w.r_[i] = gamma * w.fn_[i];
    w.push_history(x, w.xn_, w.f_, w.r_);
    x.swap(w.xn_);
    w.f_.swap(w.fn_);

    if (norm_next < out.residual_norm) {
      out.state = x;
      out.residual_norm = norm_next;
      w.fbest_ = w.f_;
      since_best = 0;
    } else {
      ++since_best;
    }
    if (norm_next > norm) {
      if (++bad_streak > opts.restart_patience) {
        // A run of non-monotone residuals: restart from the best iterate.
        w.clear_history();
        ++out.restarts;
        bad_streak = 0;
        x = out.state;
        w.f_ = w.fbest_;
        norm = out.residual_norm;
        continue;
      }
    } else {
      bad_streak = 0;
    }
    norm = norm_next;
  }

  if (!out.converged && norm < opts.tol) {
    // max_iter landed exactly on a converged iterate.
    out.state = x;
    out.residual_norm = norm;
    out.converged = true;
  }
  out.rhs_evals = counted.evals();
  return out;
}

}  // namespace lsm::ode
