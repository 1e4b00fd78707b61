// Tests for the banded substrate of the Newton-Krylov chord
// preconditioner: banded storage/LU and banded FD Jacobians (per-column vs
// grouped).
#include <gtest/gtest.h>

#include <cmath>

#include "ode/banded.hpp"
#include "ode/linalg.hpp"
#include "util/error.hpp"
#include "util/xoshiro.hpp"

namespace {

using namespace lsm;
using ode::State;

// --- BandedMatrix -------------------------------------------------------------

TEST(BandedMatrix, StoresAndRetrievesWithinBand) {
  ode::BandedMatrix m(5, 1, 2);
  m.set(0, 0, 1.0);
  m.set(0, 2, 3.0);
  m.set(3, 2, -2.0);
  EXPECT_DOUBLE_EQ(m.get(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m.get(0, 2), 3.0);
  EXPECT_DOUBLE_EQ(m.get(3, 2), -2.0);
  EXPECT_DOUBLE_EQ(m.get(4, 4), 0.0);  // unset entries read as 0
}

TEST(BandedMatrix, OutOfBandReadsAreZero) {
  ode::BandedMatrix m(6, 1, 1);
  EXPECT_DOUBLE_EQ(m.get(0, 5), 0.0);
  EXPECT_DOUBLE_EQ(m.get(5, 0), 0.0);
}

TEST(BandedMatrix, RejectsOutOfBandWrites) {
  ode::BandedMatrix m(6, 1, 1);
  EXPECT_THROW(m.set(5, 0, 1.0), util::LogicError);
}

// --- BandedLuSolver ---------------------------------------------------------------

/// Builds matching banded and dense versions of a random diagonally
/// dominant band matrix and checks the two solvers agree.
TEST(BandedLu, MatchesDenseSolver) {
  util::Xoshiro256 rng(11);
  for (std::size_t kl : {1u, 3u}) {
    for (std::size_t ku : {1u, 2u}) {
      const std::size_t n = 40;
      ode::BandedMatrix band(n, kl, ku);
      ode::Matrix dense(n, n);
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t j_lo = i >= kl ? i - kl : 0;
        const std::size_t j_hi = std::min(i + ku, n - 1);
        for (std::size_t j = j_lo; j <= j_hi; ++j) {
          const double v = (i == j) ? 5.0 : 2.0 * rng.uniform() - 1.0;
          band.set(i, j, v);
          dense(i, j) = v;
        }
      }
      std::vector<double> b(n);
      for (auto& v : b) v = rng.uniform();
      const auto xb = ode::BandedLuSolver(band).solve(b);
      const auto xd = ode::LuSolver(dense).solve(b);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_NEAR(xb[i], xd[i], 1e-11) << "kl=" << kl << " ku=" << ku;
      }
    }
  }
}

TEST(BandedLu, PivotsWhenDiagonalVanishes) {
  // [[0, 1], [1, 0]] needs a row swap.
  ode::BandedMatrix m(2, 1, 1);
  m.set(0, 1, 1.0);
  m.set(1, 0, 1.0);
  const auto x = ode::BandedLuSolver(m).solve({2.0, 3.0});
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(BandedLu, DetectsSingularity) {
  ode::BandedMatrix m(3, 1, 1);
  m.set(0, 0, 1.0);  // row 1 is entirely zero
  m.set(2, 2, 1.0);
  EXPECT_THROW(ode::BandedLuSolver{std::move(m)}, util::Error);
}

TEST(BandedLu, TridiagonalLaplacianRoundTrip) {
  const std::size_t n = 100;
  ode::BandedMatrix m(n, 1, 1);
  for (std::size_t i = 0; i < n; ++i) {
    m.set(i, i, 2.0);
    if (i > 0) m.set(i, i - 1, -1.0);
    if (i + 1 < n) m.set(i, i + 1, -1.0);
  }
  // Known solution x, compute b = Ax, solve back.
  std::vector<double> x_true(n), b(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    x_true[i] = std::sin(0.1 * static_cast<double>(i + 1));
  }
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = 2.0 * x_true[i];
    if (i > 0) b[i] -= x_true[i - 1];
    if (i + 1 < n) b[i] -= x_true[i + 1];
  }
  const auto x = ode::BandedLuSolver(std::move(m)).solve(b);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-9);
}

// --- banded FD Jacobians ----------------------------------------------------------

/// Truly banded nonlinear system: a reaction-diffusion chain.
class Diffusion final : public ode::OdeSystem {
 public:
  explicit Diffusion(std::size_t n, double rate) : n_(n), rate_(rate) {}
  void deriv(double, const State& s, State& ds) const override {
    for (std::size_t i = 0; i < n_; ++i) {
      const double left = i > 0 ? s[i - 1] : 0.0;
      const double right = i + 1 < n_ ? s[i + 1] : 0.0;
      ds[i] = rate_ * (left - 2.0 * s[i] + right) - s[i] * s[i] * s[i];
    }
  }
  [[nodiscard]] std::size_t dimension() const override { return n_; }

 private:
  std::size_t n_;
  double rate_;
};

TEST(BandedFd, PerColumnAndGroupedAgreeOnBandedSystem) {
  Diffusion sys(30, 50.0);
  State s(30);
  for (std::size_t i = 0; i < 30; ++i) {
    s[i] = std::cos(static_cast<double>(i));
  }
  const auto a = ode::banded_fd_jacobian(sys, 0.0, s, 1, 1,
                                         ode::FdMode::PerColumn);
  const auto b = ode::banded_fd_jacobian(sys, 0.0, s, 1, 1,
                                         ode::FdMode::Grouped);
  for (std::size_t i = 0; i < 30; ++i) {
    for (std::size_t j = (i >= 1 ? i - 1 : 0); j <= std::min<std::size_t>(i + 1, 29); ++j) {
      EXPECT_NEAR(a.get(i, j), b.get(i, j), 1e-5) << i << "," << j;
    }
  }
}

TEST(BandedFd, RecoversAnalyticDerivatives) {
  Diffusion sys(10, 2.0);
  State s(10, 0.5);
  const auto jac = ode::banded_fd_jacobian(sys, 0.0, s, 1, 1);
  // d(ds_i)/d(s_i) = -2*rate - 3 s_i^2 = -4 - 0.75
  EXPECT_NEAR(jac.get(4, 4), -4.75, 1e-5);
  EXPECT_NEAR(jac.get(4, 5), 2.0, 1e-5);
  EXPECT_NEAR(jac.get(4, 3), 2.0, 1e-5);
}

}  // namespace
