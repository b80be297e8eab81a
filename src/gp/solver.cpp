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

/// Wraps a posynomial's log-space image as a SmoothFn.  A kFull call
/// finishes the kValue probe the barrier made at the same point.
SmoothFn make_log_fn(const Posynomial& p) {
  return [&p](const linalg::Vector& y, EvalLevel level, FnEval& out) {
    if (level == EvalLevel::kValue) {
      p.log_probe(y, out);
    } else {
      p.log_finish(y, /*need_hess=*/true, out);
    }
  };
}

/// Phase I's state beside the barrier's: the problem, one scratch for the
/// y-part of z, and one log-space evaluation per constraint, whose kValue
/// probe a kFull call finishes.
struct Phase1State {
  const GpProblem* problem = nullptr;
  linalg::Vector y;
  std::vector<LogEval> le;  ///< grow-only: entries past the constraint count idle
};

/// What a solve needs besides the problem, kept per thread and reused by
/// every solve the thread runs, the way the barrier workspaces are: those
/// workspaces, each phase's constraint callbacks and phase I's state.  The
/// callbacks capture a pointer or a pointer and an index, which std::function
/// stores without a heap allocation, so refilling them allocates nothing once
/// the vectors have grown.  Every buffer is overwritten before it is read, so
/// no result depends on an earlier solve.
struct SolveWorkspace {
  BarrierWorkspace phase1;
  BarrierWorkspace phase2;
  Phase1State phase1_state;
  std::vector<SmoothFn> phase1_constraints;
  std::vector<SmoothFn> phase2_constraints;
};

/// Log-space constraint of a `p <= 1` posynomial constraint: F(y) = log p(e^y).
/// Strict feasibility means F(y) < 0.  Refills `fns` in place.
void fill_constraint_fns(const GpProblem& problem, std::vector<SmoothFn>& fns) {
  fns.clear();
  for (const auto& c : problem.constraints()) fns.push_back(make_log_fn(c));
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
                         const SolveOptions& options, SolveWorkspace& workspace) {
  const std::size_t n = problem.num_variables();
  const std::size_t ext = n + 1;  // extra slack variable s at index n

  // Objective: s (linear).
  SmoothFn obj = [ext, n](const linalg::Vector& z, EvalLevel level, FnEval& out) {
    out.value = z[n];
    if (level == EvalLevel::kFull) {
      out.grad.assign(ext);
      out.grad[n] = 1.0;
      out.hess_zero = true;
    }
  };

  Phase1State& state = workspace.phase1_state;
  state.problem = &problem;
  const std::size_t num_constraints = problem.constraints().size();
  if (state.le.size() < num_constraints) state.le.resize(num_constraints);
  std::vector<SmoothFn>& cons = workspace.phase1_constraints;
  cons.clear();
  for (std::size_t ci = 0; ci < num_constraints; ++ci) {
    cons.push_back([st = &state, ci](const linalg::Vector& z, EvalLevel level, FnEval& out) {
      const Posynomial& c = st->problem->constraints()[ci];
      LogEval& le = st->le[ci];
      const std::size_t n = st->problem->num_variables();
      const std::size_t ext = n + 1;
      st->y.assign(n);
      for (std::size_t i = 0; i < n; ++i) st->y[i] = z[i];
      if (level == EvalLevel::kValue) {
        out.value = c.log_probe(st->y, le) - z[n];
        return;
      }
      c.log_finish(st->y, /*need_hess=*/true, le);
      out.grad.assign(ext);
      for (std::size_t i = 0; i < n; ++i) out.grad[i] = le.grad[i];
      out.grad[n] = -1.0;
      out.hess_zero = le.hess_zero;
      if (le.hess_zero) return;
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
  const BarrierResult br = barrier_minimize(obj, cons, z0, bopts, workspace.phase1);
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

  // One workspace per thread, reused by every solve the thread runs.  No
  // SmoothFn below starts a solve, so it is never in use twice at once.
  thread_local SolveWorkspace workspace;

  // Establish strict feasibility, via phase I when the hint is not feasible.
  // Wrapped like phase II below: a numerical failure inside the phase-I
  // barrier (near-singular Hessians on degenerate boxes) must surface as a
  // diagnosed kError, not an exception thrown past the caller.
  int phase1_steps = 0;
  if (!problem.constraints().empty() && max_constraint_log(problem, y0) >= 0.0) {
    try {
      const Phase1Outcome p1 = run_phase1(problem, y0, options_, workspace);
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
    fill_constraint_fns(problem, workspace.phase2_constraints);
    const BarrierResult br = barrier_minimize(obj, workspace.phase2_constraints, y0,
                                              options_.barrier, workspace.phase2);
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
