#pragma once

// Output checks that do not go through the FETI path.

#include <memory>
#include <vector>

#include "decomp/feti_problem.hpp"
#include "la/csr.hpp"
#include "sparse/solver.hpp"

namespace perfbench {

struct Verdict {
  double rel_error = 0.0;     ///< ||u - u_ref|| / ||u_ref||
  double rel_residual = 0.0;  ///< ||K u - f|| / ||f|| of the global system
  bool ok = false;
};

/// The monolithic global system of a FETI problem, summed from the
/// subdomain K and f through dof_l2g with the (homogeneous) Dirichlet DOFs
/// eliminated, and solved by a direct sparse Cholesky factorization.
///
/// The subdomain values captured at construction are the base; a step's
/// system is sum_s kscale[s] K_s and sum_s fscale[s] f_s, which is what
/// decomp::scale_subdomain and a per-subdomain load factor produce.
class GlobalReference {
 public:
  explicit GlobalReference(const feti::decomp::FetiProblem& p);

  /// Sums and factorizes sum_s kscale[s] K_s.
  void factorize(const std::vector<double>& kscale);

  /// Checks a gathered global solution against the direct solve of the
  /// last factorized system with load sum_s fscale[s] f_s.
  [[nodiscard]] Verdict check(const std::vector<double>& fscale,
                              const std::vector<double>& u) const;

  /// Largest relative error and residual that pass.
  static constexpr double kMaxRelError = 1e-6;
  static constexpr double kMaxRelResidual = 1e-5;

 private:
  feti::idx ndof_ = 0;
  std::vector<feti::idx> free_of_;  ///< global DOF -> reduced index or -1
  feti::la::Csr k_;                 ///< reduced global K
  /// Per subdomain: (reduced CSR position, base value) of each K entry.
  std::vector<std::vector<std::pair<feti::idx, double>>> k_parts_;
  /// Per subdomain: (reduced index, base value) of each f entry.
  std::vector<std::vector<std::pair<feti::idx, double>>> f_parts_;
  std::unique_ptr<feti::sparse::DirectSolver> solver_;
};

/// ||u - ref|| / ||ref||.
double relative_difference(const std::vector<double>& u,
                           const std::vector<double>& ref);

/// Algorithm 1 applies F once to λ₀ (shared by every system of a lockstep
/// wave) and once per system per iteration, so the F columns a decorator
/// counts over `waves` solves equal waves + the summed iteration counts.
[[nodiscard]] inline bool apply_count_holds(long columns, long waves,
                                            long iterations) {
  return columns == waves + iterations;
}

/// A load case d = sum_i B̃ᵢ xᵢ of the dual system, with xᵢ a per-subdomain
/// constant plus small per-DOF noise, all drawn from `seed`. Any d in the
/// range of B̃ keeps the projected system consistent; a random vector would
/// not (F is singular beyond the coarse space when multipliers are
/// redundant).
std::vector<double> dual_load_case(const feti::decomp::FetiProblem& p,
                                   std::uint64_t seed);

}  // namespace perfbench
