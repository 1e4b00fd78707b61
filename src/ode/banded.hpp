// Banded dense linear algebra (LAPACK-style band storage) for the
// Newton-Krylov chord preconditioner: the mean-field Jacobians are
// dominated by a narrow band (nearest-neighbor and +/- c stage coupling),
// so an O(n b^2) banded factorization replaces the O(n^3) dense one.
//
// banded_fd_jacobian builds the band of f = sys.deriv by forward
// differences in one of two modes: per-column (exact band entries of any
// Jacobian, n evaluations) and grouped Curtis-Powell-Reid (kl + ku + 1
// evaluations, exact ONLY when the true Jacobian is banded -- the
// mean-field models are band + low-rank, so they use per-column).
#pragma once

#include <cstddef>
#include <vector>

#include "ode/system.hpp"
#include "util/error.hpp"

namespace lsm::ode {

/// n x n matrix with kl subdiagonals and ku superdiagonals. Storage holds
/// kl extra superdiagonals for the fill-in produced by partial pivoting
/// (the standard *gbtrf layout).
class BandedMatrix {
 public:
  BandedMatrix(std::size_t n, std::size_t kl, std::size_t ku);

  [[nodiscard]] std::size_t size() const noexcept { return n_; }
  [[nodiscard]] std::size_t lower() const noexcept { return kl_; }
  [[nodiscard]] std::size_t upper() const noexcept { return ku_; }

  /// Access A(i, j); j must satisfy |i - j| within the declared bands
  /// (plus pivot fill for internal use). Out-of-band reads return 0.
  [[nodiscard]] double get(std::size_t i, std::size_t j) const noexcept;
  void set(std::size_t i, std::size_t j, double v);
  void add(std::size_t i, std::size_t j, double v);

 private:
  friend class BandedLuSolver;

  [[nodiscard]] bool in_storage(std::size_t i, std::size_t j) const noexcept {
    // Stored band: j - i in [-kl, ku + kl] (fill region included).
    const auto d = static_cast<std::ptrdiff_t>(j) - static_cast<std::ptrdiff_t>(i);
    return d >= -static_cast<std::ptrdiff_t>(kl_) &&
           d <= static_cast<std::ptrdiff_t>(ku_ + kl_);
  }
  [[nodiscard]] std::size_t index(std::size_t i, std::size_t j) const noexcept {
    // Row i of column j sits at band row (ku + kl + i - j).
    return (kl_ + ku_ + i - j) * n_ + j;
  }

  std::size_t n_, kl_, ku_;
  std::vector<double> data_;
};

/// LU factorization with partial pivoting of a banded matrix.
class BandedLuSolver {
 public:
  /// Factors `a` (consumed). Throws util::Error on singularity.
  explicit BandedLuSolver(BandedMatrix a);

  [[nodiscard]] std::vector<double> solve(std::vector<double> b) const;

  /// Allocation-free solve for hot paths: reads b, writes x, both length
  /// size(); x == b solves in place.
  void solve_into(const double* b, double* x) const;

  [[nodiscard]] std::size_t size() const noexcept { return lu_.size(); }

 private:
  BandedMatrix lu_;
  std::vector<std::size_t> pivot_;  // pivot row chosen at each step
};

enum class FdMode {
  PerColumn,  ///< exact band of any Jacobian; n derivative evaluations
  Grouped,    ///< Curtis-Powell-Reid; only for truly banded Jacobians
};

/// Approximates the (kl, ku) band of the Jacobian of sys.deriv(t, .) at s.
BandedMatrix banded_fd_jacobian(const OdeSystem& sys, double t,
                                const State& s, std::size_t kl,
                                std::size_t ku,
                                FdMode mode = FdMode::PerColumn,
                                double eps = 1e-7);

}  // namespace lsm::ode
