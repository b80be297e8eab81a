#include "gp/scp.h"

#include <cmath>
#include <memory>
#include <optional>

#include "gp/solver_registry.h"
#include "util/contracts.h"

namespace hydra::gp {

Monomial condense(const Posynomial& f, const std::vector<double>& x_bar) {
  HYDRA_REQUIRE(!f.empty(), "cannot condense an empty posynomial");
  // Every term is evaluated once: the values are summed in term order (what
  // f.eval(x_bar) computes) and then reused for the weights α_k.
  std::vector<double> values;
  values.reserve(f.num_terms());
  double total = 0.0;
  for (const auto& term : f.terms()) {
    values.push_back(term.eval(x_bar));
    total += values.back();
  }
  HYDRA_REQUIRE(total > 0.0 && std::isfinite(total), "condensation point must give f > 0");

  // f̂ = Π (u_k/α_k)^{α_k}: coefficient Π (c_k/α_k)^{α_k}, exponents Σ α_k·a_k.
  Monomial out(1.0, f.num_vars());
  double log_coeff = 0.0;
  for (std::size_t k = 0; k < f.num_terms(); ++k) {
    const Monomial& term = f.terms()[k];
    const double alpha = values[k] / total;
    if (alpha <= 0.0) continue;  // vanishing weight contributes nothing
    log_coeff += alpha * (term.log_coeff() - std::log(alpha));
    for (VarId v = 0; v < f.num_vars(); ++v) {
      const double e = term.exponent(v);
      if (e != 0.0) out.with(v, alpha * e);
    }
  }
  return out.scaled(std::exp(log_coeff));
}

namespace {

/// What every condensation pass of one maximize call shares: the inner-GP
/// backend, resolved once, and the inner GP — a copy of the constraint
/// problem whose objective each round replaces with the condensed one (any
/// objective `constraints` carried is never solved).  Backends are stateless
/// const solvers, so sharing one across start points changes no result.
struct ScpSetup {
  std::unique_ptr<SolverBackend> solver;
  GpProblem gp;

  ScpSetup(const GpProblem& constraints, const ScpOptions& options)
      : solver(SolverRegistry::global().make(resolve_gp_backend(options.backend), options.gp)),
        gp(constraints) {}
};

/// One condensation pass from `x0`; returns the best-seen iterate or nullopt
/// if the very first inner GP fails.  A later inner-GP failure ends the
/// refinement but keeps what was already found.
std::optional<ScpResult> refine_from(ScpSetup& setup, const Posynomial& objective,
                                     std::vector<double> x0, const ScpOptions& options) {
  ScpResult best;
  double prev = -1.0;

  for (int round = 0; round < options.max_rounds; ++round) {
    // GP: minimize the reciprocal of the monomial lower bound at x0.
    setup.gp.set_objective(Posynomial(condense(objective, x0).reciprocal()));

    const SolveResult sr = setup.solver->solve(setup.gp, x0);
    if (!sr.ok()) {
      if (best.feasible) break;  // keep the best iterate found before the failure
      return std::nullopt;
    }

    const double value = objective.eval(sr.x);
    // Condensation is monotone in exact arithmetic but not under loose inner
    // tolerances, so the latest iterate may be worse than an earlier one:
    // keep the best-seen objective/iterate, not the last.
    if (!best.feasible || value > best.objective) {
      best.feasible = true;
      best.x = sr.x;
      best.objective = value;
    }
    best.rounds = round + 1;
    if (options.on_round) options.on_round(round + 1, sr.x, value);
    if (prev > 0.0 && std::fabs(value - prev) <= options.rel_tol * std::fabs(prev)) break;
    prev = value;
    x0 = sr.x;
  }
  return best;
}

/// Best result over the cold start points (maximize_posynomial_scp's body).
ScpResult best_cold_start(ScpSetup& setup, const GpProblem& constraints,
                          const Posynomial& objective,
                          const std::vector<std::vector<double>>& start_points,
                          const ScpOptions& options) {
  ScpResult best;
  for (const auto& x0 : start_points) {
    HYDRA_REQUIRE(x0.size() == constraints.num_variables(), "start point size mismatch");
    const auto refined = refine_from(setup, objective, x0, options);
    if (refined.has_value() && refined->feasible &&
        (!best.feasible || refined->objective > best.objective)) {
      best = *refined;
    }
  }
  return best;
}

void require_scp_inputs(const GpProblem& constraints, const Posynomial& objective,
                        const std::vector<std::vector<double>>& start_points) {
  HYDRA_REQUIRE(objective.num_vars() == constraints.num_variables(),
                "objective/constraint variable count mismatch");
  HYDRA_REQUIRE(!start_points.empty(), "at least one start point required");
}

}  // namespace

ScpResult maximize_posynomial_scp(const GpProblem& constraints, const Posynomial& objective,
                                  const std::vector<std::vector<double>>& start_points,
                                  const ScpOptions& options) {
  require_scp_inputs(constraints, objective, start_points);
  ScpSetup setup(constraints, options);
  return best_cold_start(setup, constraints, objective, start_points, options);
}

ScpResult maximize_posynomial_scp_warm(const GpProblem& constraints, const Posynomial& objective,
                                       const std::vector<std::vector<double>>& start_points,
                                       const std::vector<std::vector<double>>& warm_start_points,
                                       const ScpOptions& options) {
  require_scp_inputs(constraints, objective, start_points);
  ScpSetup setup(constraints, options);
  ScpResult best = best_cold_start(setup, constraints, objective, start_points, options);

  for (const auto& warm : warm_start_points) {
    if (warm.size() != constraints.num_variables()) continue;
    bool positive = true;
    for (const double w : warm) {
      if (!(w > 0.0) || !std::isfinite(w)) positive = false;
    }
    if (!positive) continue;

    const auto refined = refine_from(setup, objective, warm, options);
    if (!refined.has_value() || !refined->feasible) continue;
    // Ties (within rel_tol) go to the cold-start result so warm starts can
    // only change the answer when they are materially better — see header.
    if (!best.feasible ||
        refined->objective > best.objective * (1.0 + options.rel_tol) + options.rel_tol) {
      best = *refined;
    }
  }
  return best;
}

}  // namespace hydra::gp
