// Geometric-program solver: log-space convex transform + barrier method.
//
// This is the C++ replacement for the paper's GPkit [20] + CVXOPT [21] stack.
// Given a GpProblem in standard form it:
//   1. substitutes x = exp(y), turning the objective and constraints into
//      smooth convex log-sum-exp functions (paper appendix);
//   2. finds a strictly feasible start (caller hint, else a basic phase-I
//      program minimizing the worst constraint violation);
//   3. minimizes with the primal barrier interior-point method.
#pragma once

#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "gp/barrier.h"
#include "gp/problem.h"

namespace hydra::gp {

enum class SolveStatus {
  kOptimal,     ///< converged; solution satisfies every constraint
  kInfeasible,  ///< phase I proved no strictly feasible point exists
  kUnbounded,   ///< objective can be driven to -inf (malformed program)
  kError,       ///< numerical failure
};

struct SolveResult {
  SolveStatus status = SolveStatus::kError;
  std::vector<double> x;      ///< optimal point in the original domain
  double objective = 0.0;     ///< posynomial objective value at x
  int newton_steps = 0;       ///< total Newton iterations (phases I+II)
  std::string message;        ///< human-readable diagnostic; ALWAYS non-empty
                              ///< on any non-kOptimal status (tested)
  /// False when the solver hit its iteration budget and returned its best
  /// feasible iterate as kOptimal anyway (the point is usable, but KKT
  /// conditions were not certified).
  bool converged = true;
  /// Final scaled KKT error (max of stationarity, primal feasibility and
  /// complementarity residuals).  Filled by backends that certify a dual
  /// point (the primal-dual reference of the differential GP suites); NaN
  /// from those that do not (the primal barrier).
  double kkt_residual = std::numeric_limits<double>::quiet_NaN();
  /// Name of the registry backend that produced this result ("" when the
  /// solver was invoked directly rather than through gp::SolverRegistry).
  std::string backend;

  bool ok() const { return status == SolveStatus::kOptimal; }
};

struct SolveOptions {
  BarrierOptions barrier;
  /// Phase I declares the problem infeasible when the minimized max-violation
  /// slack cannot be pushed below this margin (log-space units).
  double phase1_margin = 1e-9;
};

class GpSolver {
 public:
  explicit GpSolver(SolveOptions options = {}) : options_(options) {}

  /// Solves the program.  `initial_guess`, when provided, must be a positive
  /// point; if it is strictly feasible phase I is skipped entirely.
  SolveResult solve(const GpProblem& problem,
                    const std::optional<std::vector<double>>& initial_guess = std::nullopt) const;

 private:
  SolveOptions options_;
};

}  // namespace hydra::gp
