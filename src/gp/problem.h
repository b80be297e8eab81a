// Geometric program in standard form (Boyd et al., "A tutorial on geometric
// programming" [28]):
//
//     minimize    f0(x)                    (posynomial)
//     subject to  f_i(x) <= 1, i = 1..p    (posynomials)
//                 x > 0
//
// Monomial equality constraints are intentionally unsupported: every program
// HYDRA builds fixes assignments outside the GP, and callers can always
// eliminate a monomial equality by substitution.
#pragma once

#include <optional>
#include <vector>

#include "gp/terms.h"

namespace hydra::gp {

class GpProblem {
 public:
  /// Registers a new positive decision variable and returns its id.
  VarId add_variable();

  std::size_t num_variables() const { return num_variables_; }

  /// Convenience factories tied to this problem's variable count.
  Monomial monomial(double coeff) const { return Monomial(coeff, num_variables()); }
  Posynomial posynomial() const { return Posynomial(num_variables()); }

  /// Sets the posynomial objective to minimize.  Must be non-empty.
  void set_objective(Posynomial objective);

  /// Adds the constraint `p <= 1`.
  void add_constraint_leq1(Posynomial p);

  /// Adds the box constraint lo <= x_v <= hi (lo > 0).
  void add_bounds(VarId v, double lo, double hi);

  bool has_objective() const { return objective_.has_value(); }
  const Posynomial& objective() const;
  const std::vector<Posynomial>& constraints() const { return constraints_; }

  /// Checks a candidate point against every constraint with tolerance `tol`
  /// (multiplicative: f_i(x) <= 1 + tol).  Used by tests and by callers that
  /// re-validate solver output independently.
  bool is_feasible(const std::vector<double>& x, double tol = 1e-7) const;

 private:
  std::size_t num_variables_ = 0;
  std::optional<Posynomial> objective_;
  std::vector<Posynomial> constraints_;
};

}  // namespace hydra::gp
