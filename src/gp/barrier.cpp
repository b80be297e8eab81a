#include "gp/barrier.h"

#include <cmath>

#include "linalg/cholesky.h"
#include "util/contracts.h"

namespace hydra::gp {

namespace {

/// One solve's evaluation scratch: the callbacks' shared output bundle plus
/// the assembled barrier gradient and Hessian.  Reused by every Newton step
/// and line-search probe, so the loop does no copies beyond these buffers.
struct BarrierScratch {
  FnEval fn;
  linalg::Vector grad;
  linalg::Matrix hess;
};

/// Value-only φ_t(y) for line searches: no derivative work.  Returns false
/// (leaving `value` unset) when y violates a constraint.
bool eval_barrier_value(const SmoothFn& f0, const std::vector<SmoothFn>& cons, double t,
                        const linalg::Vector& y, FnEval& fn, double& value) {
  f0(y, EvalLevel::kValue, fn);
  double acc = t * fn.value;
  for (const auto& ci : cons) {
    ci(y, EvalLevel::kValue, fn);
    const double cv = fn.value;
    if (!(cv < 0.0)) return false;  // infeasible
    acc -= std::log(-cv);
  }
  value = acc;
  return true;
}

/// Full barrier evaluation for Newton step assembly into `s.grad`/`s.hess`.
/// Returns false when y violates a constraint.
bool eval_barrier_full(const SmoothFn& f0, const std::vector<SmoothFn>& cons, double t,
                       const linalg::Vector& y, BarrierScratch& s, double& value) {
  const std::size_t n = y.size();
  FnEval& fn = s.fn;

  f0(y, EvalLevel::kFull, fn);
  double acc = t * fn.value;
  s.grad = fn.grad;
  s.grad *= t;
  s.hess = fn.hess;
  s.hess *= t;

  double* grad = s.grad.raw();
  for (const auto& ci : cons) {
    ci(y, EvalLevel::kFull, fn);
    if (!(fn.value < 0.0)) return false;  // infeasible
    acc -= std::log(-fn.value);
    const double inv = 1.0 / (-fn.value);  // > 0
    HYDRA_ASSERT(fn.grad.size() == n, "constraint gradient size mismatch");
    const double* gi = fn.grad.raw();
    for (std::size_t k = 0; k < n; ++k) grad[k] += inv * gi[k];
    // ∇² of −log(−Fi) = (1/Fi²)·g gᵀ + (1/(−Fi))·H.
    s.hess.add_outer(fn.grad, inv * inv);
    s.hess.add_scaled(fn.hess, inv);
  }
  value = acc;
  return true;
}

}  // namespace

BarrierResult barrier_minimize(const SmoothFn& f0, const std::vector<SmoothFn>& constraints,
                               const linalg::Vector& y0, const BarrierOptions& opts) {
  HYDRA_REQUIRE(y0.size() > 0, "barrier_minimize: empty start point");
  // One scratch set for the whole solve: every Newton iteration and line
  // search probe reuses these buffers instead of allocating.
  BarrierScratch scratch;
  double value = 0.0;
  const bool start_feasible =
      eval_barrier_value(f0, constraints, opts.t0, y0, scratch.fn, value);
  HYDRA_REQUIRE(start_feasible, "barrier_minimize: start point is not strictly feasible");

  BarrierResult result;
  result.y = y0;
  double t = opts.t0;
  linalg::SpdWorkspace spd_ws;
  linalg::Vector neg_grad;
  linalg::Vector cand;
  const double m = static_cast<double>(constraints.size());
  // With no constraints the inner tolerance IS the final accuracy (there is
  // no outer loop to tighten things); Newton is quadratic near the optimum,
  // so a much smaller tolerance costs only a couple of extra steps.
  const double newton_tol =
      constraints.empty() ? std::fmin(opts.newton_tol, 1e-14) : opts.newton_tol;

  while (true) {
    // --- Inner loop: damped Newton on φ_t. ---
    for (int it = 0; it < opts.max_newton_per_stage; ++it) {
      double cur_value = 0.0;
      const bool feasible = eval_barrier_full(f0, constraints, t, result.y, scratch, cur_value);
      HYDRA_ASSERT(feasible, "iterate left the feasible region");

      neg_grad = scratch.grad;
      neg_grad *= -1.0;
      const linalg::Vector& step = linalg::solve_spd_into(scratch.hess, neg_grad, spd_ws);
      // Newton decrement λ² = gradᵀ H⁻¹ grad = −gradᵀ·step.
      const double decrement = -dot(scratch.grad, step);
      if (decrement * 0.5 <= newton_tol) break;

      // Backtracking line search: stay strictly feasible + Armijo decrease.
      double step_len = 1.0;
      bool moved = false;
      const std::size_t n = result.y.size();
      cand.assign(n);
      for (int bt = 0; bt < opts.max_backtracks; ++bt) {
        const double* yv = result.y.raw();
        const double* sv = step.raw();
        double* cv = cand.raw();
        for (std::size_t i = 0; i < n; ++i) cv[i] = yv[i] + step_len * sv[i];
        if (eval_barrier_value(f0, constraints, t, cand, scratch.fn, value) &&
            value <= cur_value - opts.armijo_alpha * step_len * decrement) {
          result.y = cand;
          moved = true;
          break;
        }
        step_len *= opts.backtrack_beta;
      }
      ++result.newton_steps;
      if (!moved) break;  // step too small to make progress at this t

      f0(result.y, EvalLevel::kValue, scratch.fn);
      const double obj = scratch.fn.value;
      if (obj < opts.unbounded_below) {
        result.status = BarrierStatus::kUnbounded;
        result.objective = obj;
        return result;
      }
    }

    f0(result.y, EvalLevel::kValue, scratch.fn);
    result.objective = scratch.fn.value;
    if (m == 0.0 || m / t < opts.duality_gap_tol) {
      result.status = BarrierStatus::kOptimal;
      return result;
    }
    if (result.newton_steps >= 20 * opts.max_newton_per_stage) {
      result.status = BarrierStatus::kMaxIterations;
      return result;
    }
    t *= opts.mu;
  }
}

}  // namespace hydra::gp
