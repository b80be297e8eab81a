#include "gp/solver.h"

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>

#include "util/contracts.h"

namespace hydra::gp {

namespace {

/// %g-formatted double for diagnostics (std::to_string renders 1e-9 as
/// "0.000000", which reads as an impossible margin).
std::string format_diag(double v) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%g", v);
  return buffer;
}

/// Wraps a posynomial's log-space image as a SmoothFn.
SmoothFn make_log_fn(const Posynomial& p) {
  return [&p](const linalg::Vector& y, EvalLevel level, FnEval& out) {
    if (level == EvalLevel::kValue) {
      out.value = p.log_value(y);
    } else {
      p.log_eval_into(y, /*need_hess=*/true, out);
    }
  };
}

/// Log-space constraint of a `p <= 1` posynomial constraint: F(y) = log p(e^y).
/// Strict feasibility means F(y) < 0.
std::vector<SmoothFn> make_constraint_fns(const GpProblem& problem) {
  std::vector<SmoothFn> fns;
  fns.reserve(problem.constraints().size());
  for (const auto& c : problem.constraints()) fns.push_back(make_log_fn(c));
  return fns;
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

double max_constraint_log(const GpProblem& problem, const linalg::Vector& y) {
  double worst = -std::numeric_limits<double>::infinity();
  for (const auto& c : problem.constraints()) {
    worst = std::fmax(worst, c.log_value(y));
  }
  return worst;
}

/// Phase I: over (y, s) minimize s subject to F_i(y) − s < 0.  The program is
/// always strictly feasible (pick s above the worst violation), and the
/// original problem has a strictly feasible point iff the optimum is < 0.
struct Phase1Outcome {
  bool feasible = false;
  linalg::Vector y;  ///< strictly feasible point when feasible
  int newton_steps = 0;
};

Phase1Outcome run_phase1(const GpProblem& problem, const linalg::Vector& y_start,
                         const SolveOptions& options) {
  const std::size_t n = problem.num_variables();
  const std::size_t ext = n + 1;  // extra slack variable s at index n

  // Objective: s (linear).
  SmoothFn obj = [ext, n](const linalg::Vector& z, EvalLevel level, FnEval& out) {
    out.value = z[n];
    if (level == EvalLevel::kFull) {
      out.grad.assign(ext);
      out.grad[n] = 1.0;
      out.hess.assign(ext, ext);
    }
  };

  // The constraints share one scratch for the y-part of z and its
  // log-space evaluation (the barrier calls them one at a time).
  struct Scratch {
    linalg::Vector y;
    LogEval le;
  } scratch;
  std::vector<SmoothFn> cons;
  cons.reserve(problem.constraints().size());
  for (const auto& c : problem.constraints()) {
    cons.push_back([&c, &scratch, n, ext](const linalg::Vector& z, EvalLevel level,
                                          FnEval& out) {
      scratch.y.assign(n);
      for (std::size_t i = 0; i < n; ++i) scratch.y[i] = z[i];
      if (level == EvalLevel::kValue) {
        out.value = c.log_value(scratch.y) - z[n];
        return;
      }
      c.log_eval_into(scratch.y, /*need_hess=*/true, scratch.le);
      const LogEval& le = scratch.le;
      out.value = le.value - z[n];
      out.grad.assign(ext);
      for (std::size_t i = 0; i < n; ++i) out.grad[i] = le.grad[i];
      out.grad[n] = -1.0;
      out.hess.assign(ext, ext);
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) out.hess(i, j) = le.hess(i, j);
      }
    });
  }

  linalg::Vector z0(ext);
  for (std::size_t i = 0; i < n; ++i) z0[i] = y_start[i];
  z0[n] = max_constraint_log(problem, y_start) + 1.0;

  BarrierOptions bopts = options.barrier;
  // Phase I only needs the sign of the optimum, not high accuracy.
  bopts.duality_gap_tol = std::fmax(bopts.duality_gap_tol, 1e-10);

  Phase1Outcome out;
  const BarrierResult br = barrier_minimize(obj, cons, z0, bopts);
  out.newton_steps = br.newton_steps;
  if (br.y[n] < -options.phase1_margin) {
    out.feasible = true;
    out.y = linalg::Vector(n);
    for (std::size_t i = 0; i < n; ++i) out.y[i] = br.y[i];
  }
  return out;
}

}  // namespace

SolveResult GpSolver::solve(const GpProblem& problem,
                            const std::optional<std::vector<double>>& initial_guess) const {
  SolveResult result;
  HYDRA_REQUIRE(problem.has_objective(), "GP has no objective");
  HYDRA_REQUIRE(problem.num_variables() > 0, "GP has no variables");
  const std::size_t n = problem.num_variables();

  // Starting point: caller hint or all-ones (y = 0).
  linalg::Vector y0(n);
  if (initial_guess.has_value()) {
    HYDRA_REQUIRE(initial_guess->size() == n, "initial guess size mismatch");
    y0 = to_log_point(*initial_guess);
  }

  // Establish strict feasibility, via phase I when the hint is not feasible.
  // Wrapped like phase II below: a numerical failure inside the phase-I
  // barrier (near-singular Hessians on degenerate boxes) must surface as a
  // diagnosed kError, not an exception thrown past the caller.
  int phase1_steps = 0;
  if (!problem.constraints().empty() && max_constraint_log(problem, y0) >= 0.0) {
    try {
      const Phase1Outcome p1 = run_phase1(problem, y0, options_);
      phase1_steps = p1.newton_steps;
      if (!p1.feasible) {
        result.status = SolveStatus::kInfeasible;
        result.newton_steps = phase1_steps;
        result.message = "phase I: no strictly feasible point within margin " +
                         format_diag(options_.phase1_margin);
        return result;
      }
      y0 = p1.y;
    } catch (const std::exception& e) {
      result.status = SolveStatus::kError;
      result.newton_steps = phase1_steps;
      result.message = std::string("phase I failed: ") +
                       (e.what()[0] != '\0' ? e.what() : "unnamed exception");
      return result;
    }
  }

  try {
    const SmoothFn obj = make_log_fn(problem.objective());
    const std::vector<SmoothFn> cons = make_constraint_fns(problem);
    const BarrierResult br = barrier_minimize(obj, cons, y0, options_.barrier);
    result.newton_steps = phase1_steps + br.newton_steps;
    switch (br.status) {
      case BarrierStatus::kOptimal:
      case BarrierStatus::kMaxIterations: {
        result.x = to_positive_point(br.y);
        result.objective = problem.objective().eval(result.x);
        // The iterate is strictly feasible by construction; report optimal
        // even on iteration cap since the point is usable (tests check the
        // KKT gap independently).
        result.status = SolveStatus::kOptimal;
        if (br.status == BarrierStatus::kMaxIterations) {
          result.converged = false;
          result.message = "iteration budget reached; returning best feasible iterate";
        }
        return result;
      }
      case BarrierStatus::kUnbounded:
        result.status = SolveStatus::kUnbounded;
        result.message = "objective unbounded below";
        return result;
    }
  } catch (const std::exception& e) {
    result.status = SolveStatus::kError;
    // Every non-optimal exit must carry a diagnostic (tested); a rethrown
    // exception with an empty what() would otherwise leave the caller blind.
    result.message = e.what()[0] != '\0' ? e.what() : "barrier solve failed (unnamed exception)";
    return result;
  }
  result.status = SolveStatus::kError;
  result.message = "barrier returned an unknown status";
  return result;
}

}  // namespace hydra::gp
