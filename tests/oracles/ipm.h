// Primal-dual interior-point solver for geometric programs: the reference
// the differential GP suites check the production backend (`scp/barrier`,
// gp/solver.h) against.  No binary reaches it; a suite that wants it under
// its registry name `ipm/filter` calls register_ipm_backend() first.
//
// Written in the style of filter-line-search IPM codes (Wächter & Biegler;
// Uno's InteriorPoint, MFEM's IPsolver).  It works on the same log-space
// convex transform
//
//     minimize    F0(y)                      F(y) = log p(e^y)
//     subject to  Fi(y) <= 0,  i = 1..m
//
// but in slack form Fi(y) + s_i = 0, s > 0, solving the perturbed KKT system
//
//     ∇F0(y) + Σ λ_i ∇Fi(y) = 0,   Fi(y) + s_i = 0,   s_i λ_i = μ
//
// with a condensed Newton system (W + JᵀDJ + δI)Δy = rhs, D = diag(λ/s),
// factorized by `linalg::cholesky_factorize` and inertia-corrected by growing
// δ until the factorization succeeds.  Steps obey the fraction-to-boundary
// rule and a (θ, φ) filter line search; μ follows the monotone
// Fiacco-McCormick schedule μ₊ = max(tol/10, min(κ_μ·μ, μ^θ_μ)).
//
// Differences from the barrier backend that the differential tests exercise:
// no phase I (infeasible starts are handled natively through the slacks), a
// certified dual point (SolveResult::kkt_residual is the scaled KKT error),
// and native infeasibility detection via the filter's restoration path.
#pragma once

#include <optional>
#include <vector>

#include "gp/problem.h"
#include "gp/solver.h"

namespace hydra::oracle {

struct IpmOptions {
  /// Convergence: scaled KKT error (stationarity, primal feasibility,
  /// complementarity; IPOPT's E_0) at or below this declares kOptimal.
  double tol = 1e-8;
  double mu0 = 1e-1;        ///< initial barrier parameter
  double kappa_mu = 0.2;    ///< linear μ decrease factor
  double theta_mu = 1.5;    ///< superlinear μ decrease exponent
  double kappa_eps = 10.0;  ///< advance μ once E_μ <= kappa_eps · μ
  double tau_min = 0.995;   ///< fraction-to-boundary floor (τ = max(τ_min, 1-μ))
  double gamma_theta = 1e-5;  ///< filter margin on constraint violation
  double gamma_phi = 1e-5;    ///< filter margin on barrier objective
  double eta_phi = 1e-4;      ///< Armijo factor for the φ descent alternative
  int max_iterations = 400;
  int max_backtracks = 30;
  double delta0 = 1e-8;        ///< first inertia-correction shift
  double delta_growth = 10.0;  ///< shift ladder multiplier
  double delta_max = 1e12;     ///< give up (kError) beyond this shift
  /// Mirror of BarrierOptions::unbounded_below: declare kUnbounded when the
  /// log-space objective falls below this.
  double unbounded_below = -1e12;
  /// Declare kUnbounded when an iterate leaves the log-space box |y_i| <= this
  /// (exp would overflow long before the objective reaches unbounded_below).
  double diverged_log = 350.0;
  /// Primal infeasibility (max_i Fi(y)+) above this when progress stalls is
  /// reported as kInfeasible rather than kError.
  double feas_tol = 1e-6;
};

/// Solves the program with the primal-dual filter IPM.  Contract matches
/// GpSolver::solve: throws std::invalid_argument on malformed programs
/// (no variables / no objective / non-positive or mis-sized guess); every
/// non-kOptimal result carries a non-empty diagnostic message.
gp::SolveResult ipm_solve(const gp::GpProblem& problem,
                          const std::optional<std::vector<double>>& initial_guess = std::nullopt,
                          const IpmOptions& options = {});

/// Registered name of the IPM in gp::SolverRegistry::global().
inline constexpr const char* kIpmBackend = "ipm/filter";

/// Adds kIpmBackend to gp::SolverRegistry::global() unless it is already
/// there.  The shared SolveOptions map onto the IPM knobs that have a barrier
/// counterpart; everything else keeps the IpmOptions defaults.  An explicit
/// call, not a static registrar, so the linker cannot drop it.
void register_ipm_backend();

}  // namespace hydra::oracle
