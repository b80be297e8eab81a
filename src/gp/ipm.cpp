#include "gp/ipm.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <cstdio>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "gp/barrier.h"
#include "linalg/cholesky.h"
#include "linalg/matrix.h"
#include "linalg/vector.h"
#include "util/contracts.h"

namespace hydra::gp {

namespace {

/// %g-formatted double for diagnostics (std::to_string renders small
/// residuals as "0.000000").
std::string format_diag(double v) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%g", v);
  return buffer;
}

linalg::Vector to_log_point(const std::vector<double>& x) {
  linalg::Vector y(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    HYDRA_REQUIRE(x[i] > 0.0, "initial guess must be strictly positive");
    y[i] = std::log(x[i]);
  }
  return y;
}

std::vector<double> to_positive_point(const linalg::Vector& y) {
  std::vector<double> x(y.size());
  for (std::size_t i = 0; i < y.size(); ++i) x[i] = std::exp(y[i]);
  return x;
}

/// Full first/second-order picture of the log-space program at one iterate.
/// One Eval lives for the whole solve; evaluate() refills its buffers.
struct Eval {
  LogEval obj;                ///< F0(y) with gradient and Hessian
  std::vector<LogEval> cons;  ///< Fi(y) with gradients and Hessians

  bool finite(std::size_t n) const {
    if (!std::isfinite(obj.value) || !obj.grad.all_finite()) return false;
    for (const auto& c : cons) {
      if (!std::isfinite(c.value) || !c.grad.all_finite()) return false;
    }
    const double* h0 = obj.hess.raw();
    for (std::size_t i = 0; i < n * n; ++i) {
      if (!std::isfinite(h0[i])) return false;
    }
    return true;
  }
};

void evaluate(const GpProblem& problem, const linalg::Vector& y, Eval& e) {
  problem.objective().log_eval_into(y, /*need_hess=*/true, e.obj);
  const auto& constraints = problem.constraints();
  e.cons.resize(constraints.size());
  for (std::size_t i = 0; i < constraints.size(); ++i) {
    constraints[i].log_eval_into(y, /*need_hess=*/true, e.cons[i]);
  }
}

/// IPOPT-style scaled KKT errors at (y, s, λ).
struct Residuals {
  double e0 = 0.0;        ///< error with μ = 0 (convergence test)
  double e_mu = 0.0;      ///< error with the current μ (μ-advance test)
  double theta = 0.0;     ///< Σ_i |Fi + s_i|  (primal infeasibility, 1-norm)
  double primal_inf = 0.0;  ///< max_i |Fi + s_i|
  double worst = 0.0;     ///< max_i Fi(y): signed constraint violation
};

Residuals compute_residuals(const Eval& e, const linalg::Vector& s,
                            const linalg::Vector& lam, double mu) {
  const std::size_t n = e.obj.grad.size();
  const std::size_t m = e.cons.size();
  Residuals r;
  linalg::Vector rd = e.obj.grad;
  double lam_l1 = 0.0;
  r.worst = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) rd[j] += lam[i] * e.cons[i].grad[j];
    lam_l1 += lam[i];
    const double rp = e.cons[i].value + s[i];
    r.theta += std::fabs(rp);
    r.primal_inf = std::fmax(r.primal_inf, std::fabs(rp));
    r.worst = std::fmax(r.worst, e.cons[i].value);
    const double comp = s[i] * lam[i];
    r.e0 = std::fmax(r.e0, comp);
    r.e_mu = std::fmax(r.e_mu, std::fabs(comp - mu));
  }
  if (m == 0) r.worst = 0.0;
  // Dual/complementarity scaling guards against huge multipliers making the
  // unscaled residual unattainable (IPOPT eq. 6, s_max = 100).
  const double s_max = 100.0;
  const double scale =
      m == 0 ? 1.0 : std::fmax(s_max, lam_l1 / static_cast<double>(m)) / s_max;
  r.e0 = std::fmax(rd.norm_inf() / scale, std::fmax(r.primal_inf, r.e0 / scale));
  r.e_mu = std::fmax(rd.norm_inf() / scale, std::fmax(r.primal_inf, r.e_mu / scale));
  return r;
}

/// θ and barrier objective φ = F0 − μ Σ log s_i at a trial point (value-only).
struct Merit {
  double theta = 0.0;
  double phi = 0.0;
  bool finite = false;
};

Merit trial_merit(const GpProblem& problem, const linalg::Vector& y,
                  const linalg::Vector& s, double mu) {
  Merit m;
  m.phi = problem.objective().log_value(y);
  const auto& cons = problem.constraints();
  for (std::size_t i = 0; i < cons.size(); ++i) {
    if (s[i] <= 0.0) return m;  // not finite: slack left the cone
    m.theta += std::fabs(cons[i].log_value(y) + s[i]);
    m.phi -= mu * std::log(s[i]);
  }
  m.finite = std::isfinite(m.theta) && std::isfinite(m.phi);
  return m;
}

/// Unconstrained programs have no slacks or multipliers; the damped-Newton
/// machinery inside barrier_minimize (with an empty constraint set) is
/// exactly the right tool, so delegate rather than duplicate it.
SolveResult solve_unconstrained(const GpProblem& problem, const linalg::Vector& y0,
                                const IpmOptions& options) {
  SolveResult result;
  try {
    const Posynomial& objective = problem.objective();
    const SmoothFn f0 = [&objective](const linalg::Vector& y, EvalLevel level, FnEval& out) {
      if (level == EvalLevel::kValue) {
        out.value = objective.log_value(y);
      } else {
        objective.log_eval_into(y, /*need_hess=*/true, out);
      }
    };
    BarrierOptions bopts;
    bopts.newton_tol = options.tol;
    bopts.unbounded_below = options.unbounded_below;
    const BarrierResult br = barrier_minimize(f0, {}, y0, bopts);
    result.newton_steps = br.newton_steps;
    switch (br.status) {
      case BarrierStatus::kOptimal:
      case BarrierStatus::kMaxIterations:
        result.x = to_positive_point(br.y);
        result.objective = problem.objective().eval(result.x);
        result.kkt_residual = objective.log_eval(br.y, /*need_hess=*/false).grad.norm_inf();
        result.status = SolveStatus::kOptimal;
        if (br.status == BarrierStatus::kMaxIterations) {
          result.converged = false;
          result.message = "ipm: unconstrained Newton budget reached; returning best iterate";
        }
        return result;
      case BarrierStatus::kUnbounded:
        result.status = SolveStatus::kUnbounded;
        result.message = "ipm: unconstrained objective unbounded below";
        return result;
    }
  } catch (const std::exception& e) {
    result.status = SolveStatus::kError;
    result.message = std::string("ipm: unconstrained Newton failed: ") +
                     (e.what()[0] != '\0' ? e.what() : "unnamed exception");
    return result;
  }
  result.status = SolveStatus::kError;
  result.message = "ipm: unconstrained Newton returned an unknown status";
  return result;
}

}  // namespace

SolveResult ipm_solve(const GpProblem& problem,
                      const std::optional<std::vector<double>>& initial_guess,
                      const IpmOptions& options) {
  SolveResult result;
  HYDRA_REQUIRE(problem.has_objective(), "GP has no objective");
  HYDRA_REQUIRE(problem.num_variables() > 0, "GP has no variables");
  const std::size_t n = problem.num_variables();
  const std::size_t m = problem.constraints().size();

  linalg::Vector y(n);
  if (initial_guess.has_value()) {
    HYDRA_REQUIRE(initial_guess->size() == n, "initial guess size mismatch");
    y = to_log_point(*initial_guess);
  }

  if (m == 0) return solve_unconstrained(problem, y, options);

  double mu = options.mu0;
  const double mu_min = options.tol / 10.0;
  double tau = std::fmax(options.tau_min, 1.0 - mu);

  // Slack-form infeasible start: s covers the violation (or the actual slack
  // when the start is feasible), multipliers sit on the central path for μ.
  linalg::Vector s(m), lam(m);
  {
    for (std::size_t i = 0; i < m; ++i) {
      const double fi = problem.constraints()[i].log_value(y);
      if (!std::isfinite(fi)) {
        result.status = SolveStatus::kError;
        result.message = "ipm: non-finite constraint value at the starting point";
        return result;
      }
      s[i] = std::fmax(-fi, 1e-2);
      lam[i] = mu / s[i];
    }
  }

  // Filter of (θ, φ) pairs a trial point must dominate; reset at each μ.
  std::deque<std::pair<double, double>> filter;
  constexpr std::size_t kFilterCapacity = 128;
  double theta_max = 0.0;  // set from θ_0 below

  linalg::SpdWorkspace ws;
  linalg::Matrix newton(n, n);
  linalg::Vector rhs(n), rd(n), dy(n), ds(m), dlam(m);
  linalg::Vector y_trial(n), s_trial(m);
  double delta_last = 0.0;
  constexpr double kSigma = 1e10;  // multiplier safeguard corridor

  Eval e;
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    evaluate(problem, y, e);
    if (!e.finite(n)) {
      result.status = SolveStatus::kError;
      result.message = "ipm: non-finite evaluation at iteration " + std::to_string(iter);
      result.newton_steps = iter;
      return result;
    }
    if (e.obj.value < options.unbounded_below || y.norm_inf() > options.diverged_log) {
      result.status = SolveStatus::kUnbounded;
      result.message = "ipm: objective diverged towards -inf (log-space iterate escaped)";
      result.newton_steps = iter;
      return result;
    }

    const Residuals res = compute_residuals(e, s, lam, mu);
    result.kkt_residual = res.e0;
    if (iter == 0) theta_max = 1e4 * std::fmax(1.0, res.theta);

    if (res.e0 <= options.tol && res.worst <= options.tol) {
      result.status = SolveStatus::kOptimal;
      result.x = to_positive_point(y);
      result.objective = problem.objective().eval(result.x);
      result.newton_steps = iter;
      return result;
    }

    // Monotone Fiacco-McCormick μ schedule: once the μ-perturbed KKT system
    // is solved loosely, tighten μ (superlinearly near the end) and drop the
    // filter, whose φ entries were measured against the old barrier.
    if (mu > mu_min && res.e_mu <= options.kappa_eps * mu) {
      mu = std::fmax(mu_min, std::fmin(options.kappa_mu * mu,
                                       std::pow(mu, options.theta_mu)));
      tau = std::fmax(options.tau_min, 1.0 - mu);
      filter.clear();
      continue;
    }

    // Condensed primal-dual Newton system (W + JᵀDJ + δI) Δy = rhs with
    // D = diag(λ/s); Δs and Δλ recovered by back-substitution below.
    newton.assign(n, n);
    newton += e.obj.hess;
    rhs.assign(n);
    rd = e.obj.grad;
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < n; ++j) rd[j] += lam[i] * e.cons[i].grad[j];
    }
    for (std::size_t j = 0; j < n; ++j) rhs[j] = -rd[j];
    for (std::size_t i = 0; i < m; ++i) {
      newton.add_scaled(e.cons[i].hess, lam[i]);
      newton.add_outer(e.cons[i].grad, lam[i] / s[i]);
      const double rp = e.cons[i].value + s[i];
      const double w = mu / s[i] - lam[i] + (lam[i] / s[i]) * rp;
      for (std::size_t j = 0; j < n; ++j) rhs[j] -= w * e.cons[i].grad[j];
    }

    // Inertia correction: grow a diagonal shift δ until the condensed matrix
    // factorizes.  Warm-start the ladder from the last successful shift so a
    // barely-curved stretch does not re-climb from δ0 every iteration.
    bool factored = false;
    double delta = delta_last > 0.0 ? std::fmax(options.delta0, delta_last / 10.0) : 0.0;
    while (true) {
      ws.work = newton;
      if (delta > 0.0) {
        for (std::size_t j = 0; j < n; ++j) ws.work(j, j) += delta;
      }
      if (linalg::cholesky_factorize(ws.work, ws.l)) {
        factored = true;
        break;
      }
      delta = delta == 0.0 ? options.delta0 : delta * options.delta_growth;
      if (delta > options.delta_max) break;
    }
    if (!factored) {
      result.status = SolveStatus::kError;
      result.message = "ipm: inertia correction exhausted (Newton matrix not PD up to shift " +
                       format_diag(options.delta_max) + ")";
      result.newton_steps = iter;
      return result;
    }
    delta_last = delta;
    linalg::cholesky_solve_into(ws.l, rhs, ws.y, ws.x);
    dy = ws.x;
    for (std::size_t i = 0; i < m; ++i) {
      const double rp = e.cons[i].value + s[i];
      const double jdy = dot(e.cons[i].grad, dy);
      ds[i] = -rp - jdy;
      dlam[i] = mu / s[i] - lam[i] + (lam[i] / s[i]) * (rp + jdy);
    }

    // Fraction-to-boundary caps keep s and λ strictly inside the cone.
    double alpha_max = 1.0;
    double alpha_dual = 1.0;
    for (std::size_t i = 0; i < m; ++i) {
      if (ds[i] < 0.0) alpha_max = std::fmin(alpha_max, -tau * s[i] / ds[i]);
      if (dlam[i] < 0.0) alpha_dual = std::fmin(alpha_dual, -tau * lam[i] / dlam[i]);
    }

    // Filter line search on (θ, φ): accept a trial that improves feasibility
    // or the barrier objective past every filter entry and the current pair,
    // or that satisfies Armijo on φ along a descent direction.
    double phi_k = e.obj.value;
    double dphi = dot(e.obj.grad, dy);
    for (std::size_t i = 0; i < m; ++i) {
      phi_k -= mu * std::log(s[i]);
      dphi -= (mu / s[i]) * ds[i];
    }
    const double theta_k = res.theta;

    double alpha = alpha_max;
    bool accepted = false;
    bool f_type = false;
    Merit trial;
    for (int bt = 0; bt < options.max_backtracks; ++bt, alpha *= 0.5) {
      for (std::size_t j = 0; j < n; ++j) y_trial[j] = y[j] + alpha * dy[j];
      for (std::size_t i = 0; i < m; ++i) s_trial[i] = s[i] + alpha * ds[i];
      trial = trial_merit(problem, y_trial, s_trial, mu);
      if (!trial.finite || trial.theta > theta_max) continue;
      bool filter_ok = true;
      for (const auto& [ft, fp] : filter) {
        if (trial.theta > (1.0 - options.gamma_theta) * ft && trial.phi > fp - options.gamma_phi * ft) {
          filter_ok = false;
          break;
        }
      }
      if (!filter_ok) continue;
      const bool armijo = dphi < 0.0 && trial.phi <= phi_k + options.eta_phi * alpha * dphi;
      const bool pair_ok = trial.theta <= (1.0 - options.gamma_theta) * theta_k ||
                           trial.phi <= phi_k - options.gamma_phi * theta_k;
      if (armijo || pair_ok) {
        accepted = true;
        f_type = armijo && !pair_ok;
        break;
      }
    }

    if (!accepted) {
      result.newton_steps = iter;
      if (theta_k > options.feas_tol) {
        result.status = SolveStatus::kInfeasible;
        result.message = "ipm: restoration — line search stalled at primal infeasibility theta=" +
                         format_diag(theta_k) + "; declaring the program infeasible";
      } else if (res.e0 <= 1e-6 && res.worst <= 1e-7) {
        result.status = SolveStatus::kOptimal;
        result.converged = false;
        result.x = to_positive_point(y);
        result.objective = problem.objective().eval(result.x);
        result.message = "ipm: filter line search stalled near the optimum; returning best iterate";
      } else {
        result.status = SolveStatus::kError;
        result.message = "ipm: filter line search failed (theta=" + format_diag(theta_k) +
                         ", kkt=" + format_diag(res.e0) + ")";
      }
      return result;
    }

    // A θ-type step must block the region it left, or the iteration can
    // cycle; pure Armijo (f-type) steps leave the filter untouched.
    if (!f_type) {
      filter.emplace_back((1.0 - options.gamma_theta) * theta_k,
                          phi_k - options.gamma_phi * theta_k);
      if (filter.size() > kFilterCapacity) filter.pop_front();
    }

    y = y_trial;
    s = s_trial;
    for (std::size_t i = 0; i < m; ++i) {
      lam[i] += alpha_dual * dlam[i];
      // Safeguard corridor (IPOPT's κ_Σ): a multiplier drifting far off the
      // central path for its slack is clipped back, keeping D well scaled.
      lam[i] = std::clamp(lam[i], mu / (kSigma * s[i]), kSigma * mu / s[i]);
    }
  }

  // Budget exhausted: classify the final iterate the same way the stall path
  // does so callers always get a verdict plus diagnostics.
  evaluate(problem, y, e);
  const Residuals res = compute_residuals(e, s, lam, mu);
  result.kkt_residual = res.e0;
  result.newton_steps = options.max_iterations;
  if (res.e0 <= 1e-6 && res.worst <= 1e-7) {
    result.status = SolveStatus::kOptimal;
    result.converged = false;
    result.x = to_positive_point(y);
    result.objective = problem.objective().eval(result.x);
    result.message = "ipm: iteration budget reached; returning near-optimal iterate";
  } else if (res.theta > options.feas_tol) {
    result.status = SolveStatus::kInfeasible;
    result.message = "ipm: iteration budget reached at primal infeasibility theta=" +
                     format_diag(res.theta);
  } else {
    result.status = SolveStatus::kError;
    result.message = "ipm: iteration budget reached without convergence (kkt=" +
                     format_diag(res.e0) + ")";
  }
  return result;
}

}  // namespace hydra::gp
