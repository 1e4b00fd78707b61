#include "ode/banded.hpp"

#include <algorithm>
#include <cmath>

namespace lsm::ode {

BandedMatrix::BandedMatrix(std::size_t n, std::size_t kl, std::size_t ku)
    : n_(n), kl_(kl), ku_(ku), data_((2 * kl + ku + 1) * n, 0.0) {
  LSM_EXPECT(n >= 1, "matrix must be non-empty");
  LSM_EXPECT(kl < n && ku < n, "bandwidths must be below the dimension");
}

double BandedMatrix::get(std::size_t i, std::size_t j) const noexcept {
  if (i >= n_ || j >= n_ || !in_storage(i, j)) return 0.0;
  return data_[index(i, j)];
}

void BandedMatrix::set(std::size_t i, std::size_t j, double v) {
  LSM_EXPECT(i < n_ && j < n_, "index out of range");
  LSM_EXPECT(in_storage(i, j), "entry outside the stored band");
  data_[index(i, j)] = v;
}

void BandedMatrix::add(std::size_t i, std::size_t j, double v) {
  LSM_EXPECT(i < n_ && j < n_, "index out of range");
  LSM_EXPECT(in_storage(i, j), "entry outside the stored band");
  data_[index(i, j)] += v;
}

BandedLuSolver::BandedLuSolver(BandedMatrix a)
    : lu_(std::move(a)), pivot_(lu_.n_) {
  const std::size_t n = lu_.n_;
  const std::size_t kl = lu_.kl_;
  const std::size_t ku_eff = lu_.ku_ + kl;  // fill region counts as upper band
  for (std::size_t k = 0; k < n; ++k) {
    // Pivot among rows k .. min(k + kl, n-1) in column k.
    std::size_t pivot = k;
    double best = std::abs(lu_.get(k, k));
    const std::size_t row_max = std::min(k + kl, n - 1);
    for (std::size_t r = k + 1; r <= row_max; ++r) {
      const double v = std::abs(lu_.get(r, k));
      if (v > best) {
        best = v;
        pivot = r;
      }
    }
    if (best < 1e-300) throw util::Error("BandedLuSolver: singular matrix");
    pivot_[k] = pivot;
    const std::size_t col_max = std::min(k + ku_eff, n - 1);
    if (pivot != k) {
      for (std::size_t c = k; c <= col_max; ++c) {
        const double tmp = lu_.get(pivot, c);
        lu_.set(pivot, c, lu_.get(k, c));
        lu_.set(k, c, tmp);
      }
    }
    const double inv = 1.0 / lu_.get(k, k);
    for (std::size_t r = k + 1; r <= row_max; ++r) {
      const double factor = lu_.get(r, k) * inv;
      lu_.set(r, k, factor);  // store the multiplier in place of the zero
      if (factor != 0.0) {
        for (std::size_t c = k + 1; c <= col_max; ++c) {
          lu_.add(r, c, -factor * lu_.get(k, c));
        }
      }
    }
  }
}

std::vector<double> BandedLuSolver::solve(std::vector<double> b) const {
  LSM_EXPECT(b.size() == lu_.n_, "rhs has wrong dimension");
  solve_into(b.data(), b.data());  // in-place: aliasing is fine here
  return b;
}

void BandedLuSolver::solve_into(const double* b, double* x) const {
  const std::size_t n = lu_.n_;
  const std::size_t kl = lu_.kl_;
  const std::size_t ku_eff = lu_.ku_ + kl;
  if (x != b) {
    for (std::size_t i = 0; i < n; ++i) x[i] = b[i];
  }
  // Forward: apply row swaps and the unit-lower multipliers.
  for (std::size_t k = 0; k < n; ++k) {
    if (pivot_[k] != k) std::swap(x[k], x[pivot_[k]]);
    const std::size_t row_max = std::min(k + kl, n - 1);
    for (std::size_t r = k + 1; r <= row_max; ++r) {
      x[r] -= lu_.get(r, k) * x[k];
    }
  }
  // Back substitution on the upper factor.
  for (std::size_t ii = n; ii-- > 0;) {
    double acc = x[ii];
    const std::size_t col_max = std::min(ii + ku_eff, n - 1);
    for (std::size_t j = ii + 1; j <= col_max; ++j) {
      acc -= lu_.get(ii, j) * x[j];
    }
    x[ii] = acc / lu_.get(ii, ii);
  }
}

namespace {

BandedMatrix fd_per_column(const OdeSystem& sys, double t, const State& s,
                           std::size_t kl, std::size_t ku, double eps) {
  const std::size_t n = s.size();
  BandedMatrix jac(n, kl, ku);
  State f0(n), f1(n);
  sys.deriv(t, s, f0);
  State pert = s;
  for (std::size_t j = 0; j < n; ++j) {
    const double h = eps * std::max(1.0, std::abs(s[j]));
    pert[j] = s[j] + h;
    sys.deriv(t, pert, f1);
    pert[j] = s[j];
    const double inv_h = 1.0 / h;
    const std::size_t i_lo = j >= ku ? j - ku : 0;
    const std::size_t i_hi = std::min(j + kl, n - 1);
    for (std::size_t i = i_lo; i <= i_hi; ++i) {
      jac.set(i, j, (f1[i] - f0[i]) * inv_h);
    }
  }
  return jac;
}

BandedMatrix fd_grouped(const OdeSystem& sys, double t, const State& s,
                        std::size_t kl, std::size_t ku, double eps) {
  const std::size_t n = s.size();
  BandedMatrix jac(n, kl, ku);
  State f0(n), f1(n);
  sys.deriv(t, s, f0);
  // Columns a full bandwidth apart touch disjoint row ranges, so each
  // group of them shares one perturbed evaluation. Only exact when the
  // Jacobian really is banded.
  const std::size_t groups = kl + ku + 1;
  State pert = s;
  std::vector<double> h(n, 0.0);
  for (std::size_t g = 0; g < groups; ++g) {
    for (std::size_t j = g; j < n; j += groups) {
      h[j] = eps * std::max(1.0, std::abs(s[j]));
      pert[j] = s[j] + h[j];
    }
    sys.deriv(t, pert, f1);
    for (std::size_t j = g; j < n; j += groups) {
      const std::size_t i_lo = j >= ku ? j - ku : 0;
      const std::size_t i_hi = std::min(j + kl, n - 1);
      const double inv_h = 1.0 / h[j];
      for (std::size_t i = i_lo; i <= i_hi; ++i) {
        jac.set(i, j, (f1[i] - f0[i]) * inv_h);
      }
      pert[j] = s[j];
    }
  }
  return jac;
}

}  // namespace

BandedMatrix banded_fd_jacobian(const OdeSystem& sys, double t,
                                const State& s, std::size_t kl,
                                std::size_t ku, FdMode mode, double eps) {
  LSM_EXPECT(kl < s.size() && ku < s.size(),
             "bandwidths must be below the dimension");
  return mode == FdMode::PerColumn ? fd_per_column(sys, t, s, kl, ku, eps)
                                   : fd_grouped(sys, t, s, kl, ku, eps);
}

}  // namespace lsm::ode
