// Signomial extension: maximizing a posynomial via sequential convex
// programming (monomial condensation).
//
// The paper's joint objective — maximize Σ ωs·Tdes_s/Ts — is a posynomial to
// *maximize*, which is not a GP (see DESIGN.md §5).  The standard remedy
// (Boyd et al. [28], §9 "Signomial programming") replaces the posynomial
// f(x) = Σ u_k(x) at the current iterate x̄ by its arithmetic-geometric-mean
// monomial lower bound
//
//     f(x) ≥ f̂(x) = Π ( u_k(x) / α_k )^{α_k},   α_k = u_k(x̄)/f(x̄),
//
// which is tight at x̄.  Maximizing the monomial f̂ is a GP (minimize f̂⁻¹),
// and iterating to a fixed point yields a KKT point of the original signomial
// program.  Multi-start over caller-supplied seeds guards against poor local
// optima; tests validate against dense grid search on small instances.
#pragma once

#include <functional>
#include <vector>

#include "gp/problem.h"
#include "gp/solver.h"

namespace hydra::gp {

struct ScpOptions {
  /// Options for each inner GP solve.  The backend solving them is the
  /// ambient one (innermost GpBackendScope, else kDefaultGpBackend); every
  /// backend serves SCP, since the condensation loop only needs plain-GP
  /// solves.
  SolveOptions gp;
  int max_rounds = 25;      ///< condensation iterations per start point
  double rel_tol = 1e-6;    ///< stop when objective improves less than this

  /// Test/diagnostic hook: invoked after every condensation round with the
  /// 1-based round number, the refined iterate, and its true (uncondensed)
  /// objective value.  Rounds are not guaranteed monotone when the inner
  /// solves run loose tolerances — the regression tests observe that here.
  std::function<void(int round, const std::vector<double>& x, double objective)> on_round;
};

struct ScpResult {
  bool feasible = false;
  std::vector<double> x;    ///< best point found
  double objective = 0.0;   ///< maximized posynomial value at x
  int rounds = 0;           ///< condensation rounds used (best start)
};

/// Builds the AM-GM monomial lower bound of `f` at the positive point `x_bar`.
/// Exposed for testing; requires f(x_bar) > 0.
Monomial condense(const Posynomial& f, const std::vector<double>& x_bar);

/// Maximizes the posynomial `objective` subject to `constraints.is_feasible`,
/// where `constraints` carries the posynomial <= 1 constraint set (its
/// objective, if any, is ignored).  Each start point is refined by iterated
/// condensation; the best feasible result wins.  Within one start point the
/// best-seen iterate across rounds is returned — condensation rounds are not
/// guaranteed monotone under loose inner tolerances, so the latest iterate
/// can be worse than an earlier one.
ScpResult maximize_posynomial_scp(const GpProblem& constraints, const Posynomial& objective,
                                  const std::vector<std::vector<double>>& start_points,
                                  const ScpOptions& options = {});

/// maximize_posynomial_scp with additional *warm* start points (for example a
/// neighboring sweep cell's converged period vector).  Warm starts are added
/// to the start-point set, never replacing the cold starts, and a
/// warm-derived result is adopted only when it beats the cold-start best by
/// more than `options.rel_tol` relatively: within-tolerance differences are
/// ties that go to the cold result, so enabling warm starts cannot perturb
/// the answer through last-ulp objective noise — output is byte-identical
/// with warm starts on or off unless a warm start finds a materially better
/// KKT point (or a feasible one where every cold start failed).  Warm points
/// whose size does not match, or with non-positive entries, are skipped.
ScpResult maximize_posynomial_scp_warm(const GpProblem& constraints, const Posynomial& objective,
                                       const std::vector<std::vector<double>>& start_points,
                                       const std::vector<std::vector<double>>& warm_start_points,
                                       const ScpOptions& options = {});

}  // namespace hydra::gp
