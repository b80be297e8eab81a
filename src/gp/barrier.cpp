#include "gp/barrier.h"

#include <cmath>
#include <limits>
#include <utility>

#include "linalg/cholesky.h"
#include "util/contracts.h"

namespace hydra::gp {

namespace {

/// Sizes `pt` for `num_constraints` and clears each bundle's scalars and
/// flags to a fresh bundle's; the buffers keep their capacity (and stale
/// contents, which the SmoothFn contract already allows).
void reset(BarrierPoint& pt, std::size_t num_constraints) {
  pt.fns.resize(num_constraints + 1);
  pt.log_neg.assign(num_constraints, 0.0);
  for (FnEval& fn : pt.fns) {
    fn.value = 0.0;
    fn.has_hess = false;
    fn.hess_zero = false;
    fn.wsum = 0.0;
    fn.single_term = false;
  }
}

/// Value probe at y: every function at kValue, stopping at the first
/// violated constraint.  Returns false (leaving `pt` partly stale) when y
/// is not strictly feasible.
bool probe(const SmoothFn& f0, const std::vector<SmoothFn>& cons, const linalg::Vector& y,
           BarrierPoint& pt) {
  f0(y, EvalLevel::kValue, pt.fns[0]);
  for (std::size_t i = 0; i < cons.size(); ++i) {
    FnEval& fn = pt.fns[i + 1];
    cons[i](y, EvalLevel::kValue, fn);
    if (!(fn.value < 0.0)) return false;  // infeasible
    pt.log_neg[i] = std::log(-fn.value);
  }
  return true;
}

/// Adds every function's derivatives at y to `pt`, which holds the probe at
/// the same y (the kFull contract in barrier.h).
void finish(const SmoothFn& f0, const std::vector<SmoothFn>& cons, const linalg::Vector& y,
            BarrierPoint& pt) {
  f0(y, EvalLevel::kFull, pt.fns[0]);
  for (std::size_t i = 0; i < cons.size(); ++i) {
    cons[i](y, EvalLevel::kFull, pt.fns[i + 1]);
    HYDRA_ASSERT(pt.fns[i + 1].value < 0.0, "iterate left the feasible region");
  }
}

/// φ_t(y) = t·F0 − Σ log(−Fi), summed in constraint order.
double barrier_value(const BarrierPoint& pt, double t) {
  double acc = t * pt.fns[0].value;
  for (const double l : pt.log_neg) acc -= l;
  return acc;
}

/// ∇φ_t and ∇²φ_t at a finished point: t·∇F0 and t·∇²F0, then per
/// constraint (1/−Fi)·∇Fi, the outer product (1/Fi²)·∇Fi∇Fiᵀ and
/// (1/−Fi)·∇²Fi.
void assemble(const BarrierPoint& pt, double t, std::size_t n, linalg::Vector& grad,
              linalg::Matrix& hess) {
  const FnEval& obj = pt.fns[0];
  HYDRA_ASSERT(obj.grad.size() == n, "objective gradient size mismatch");
  grad = obj.grad;
  grad *= t;
  // Adding a +0 Hessian, which a hess_zero constraint skips, changes an
  // entry only if the entry is −0.0 (to +0) or the scale is +inf (to NaN).
  // An entry can only be −0.0 if t·∇²F0 put it there, so that is tracked.
  bool may_hold_neg_zero = false;
  if (obj.hess_zero) {
    hess.assign(n, n);  // t·(+0) = +0 for the finite t > 0
  } else {
    hess = obj.hess;
    double* h = hess.raw();
    for (std::size_t k = 0; k < n * n; ++k) {
      h[k] *= t;
      may_hold_neg_zero |= h[k] == 0.0 && std::signbit(h[k]);
    }
  }

  double* g = grad.raw();
  for (std::size_t i = 1; i < pt.fns.size(); ++i) {
    const FnEval& fn = pt.fns[i];
    const double inv = 1.0 / (-fn.value);  // > 0
    HYDRA_ASSERT(fn.grad.size() == n, "constraint gradient size mismatch");
    const double* gi = fn.grad.raw();
    for (std::size_t k = 0; k < n; ++k) g[k] += inv * gi[k];
    // ∇² of −log(−Fi) = (1/Fi²)·g gᵀ + (1/(−Fi))·H.
    hess.add_outer(fn.grad, inv * inv);
    if (!fn.hess_zero) {
      hess.add_scaled(fn.hess, inv);
    } else if (may_hold_neg_zero || !(inv < std::numeric_limits<double>::infinity())) {
      double* h = hess.raw();
      for (std::size_t k = 0; k < n * n; ++k) h[k] += inv * 0.0;
      may_hold_neg_zero = false;
    }
  }
}

}  // namespace

BarrierResult barrier_minimize(const SmoothFn& f0, const std::vector<SmoothFn>& constraints,
                               const linalg::Vector& y0, const BarrierOptions& opts) {
  BarrierWorkspace workspace;
  return barrier_minimize(f0, constraints, y0, opts, workspace);
}

BarrierResult barrier_minimize(const SmoothFn& f0, const std::vector<SmoothFn>& constraints,
                               const linalg::Vector& y0, const BarrierOptions& opts,
                               BarrierWorkspace& workspace) {
  HYDRA_REQUIRE(y0.size() > 0, "barrier_minimize: empty start point");
  const std::size_t n = y0.size();
  // The current iterate and the line-search probe; an accepted probe swaps
  // in as the next iterate.  Every Newton iteration and probe reuses these
  // buffers instead of allocating.
  BarrierPoint& cur = workspace.cur;
  BarrierPoint& trial = workspace.trial;
  reset(cur, constraints.size());
  reset(trial, constraints.size());
  HYDRA_REQUIRE(probe(f0, constraints, y0, cur),
                "barrier_minimize: start point is not strictly feasible");
  bool cur_finished = false;  // whether `cur` holds derivatives yet

  BarrierResult result;
  result.y = y0;
  double t = opts.t0;
  linalg::SpdWorkspace& spd_ws = workspace.spd;
  linalg::Vector& grad = workspace.grad;
  linalg::Matrix& hess = workspace.hess;
  linalg::Vector& neg_grad = workspace.neg_grad;
  linalg::Vector& cand = workspace.cand;
  const double m = static_cast<double>(constraints.size());
  // With no constraints the inner tolerance IS the final accuracy (there is
  // no outer loop to tighten things); Newton is quadratic near the optimum,
  // so a much smaller tolerance costs only a couple of extra steps.
  const double newton_tol =
      constraints.empty() ? std::fmin(opts.newton_tol, 1e-14) : opts.newton_tol;

  while (true) {
    // --- Inner loop: damped Newton on φ_t. ---
    for (int it = 0; it < opts.max_newton_per_stage; ++it) {
      if (!cur_finished) {
        finish(f0, constraints, result.y, cur);
        cur_finished = true;
      }
      const double cur_value = barrier_value(cur, t);
      assemble(cur, t, n, grad, hess);

      neg_grad = grad;
      neg_grad *= -1.0;
      const linalg::Vector& step = linalg::solve_spd_into(hess, neg_grad, spd_ws);
      // Newton decrement λ² = gradᵀ H⁻¹ grad = −gradᵀ·step.
      const double decrement = -dot(grad, step);
      if (decrement * 0.5 <= newton_tol) break;

      // Backtracking line search: stay strictly feasible + Armijo decrease.
      double step_len = 1.0;
      bool moved = false;
      cand.assign(n);
      for (int bt = 0; bt < opts.max_backtracks; ++bt) {
        const double* yv = result.y.raw();
        const double* sv = step.raw();
        double* cv = cand.raw();
        for (std::size_t i = 0; i < n; ++i) cv[i] = yv[i] + step_len * sv[i];
        if (probe(f0, constraints, cand, trial) &&
            barrier_value(trial, t) <= cur_value - opts.armijo_alpha * step_len * decrement) {
          result.y = cand;
          std::swap(cur, trial);
          cur_finished = false;
          moved = true;
          break;
        }
        step_len *= opts.backtrack_beta;
      }
      ++result.newton_steps;
      if (!moved) break;  // step too small to make progress at this t

      const double obj = cur.fns[0].value;
      if (obj < opts.unbounded_below) {
        result.status = BarrierStatus::kUnbounded;
        result.objective = obj;
        return result;
      }
    }

    result.objective = cur.fns[0].value;
    if (m == 0.0 || m / t < opts.duality_gap_tol) {
      result.status = BarrierStatus::kOptimal;
      return result;
    }
    if (result.newton_steps >= 20 * opts.max_newton_per_stage) {
      result.status = BarrierStatus::kMaxIterations;
      return result;
    }
    // A rise of t keeps y: `cur` keeps its values, logs and derivatives.
    t *= opts.mu;
  }
}

}  // namespace hydra::gp
