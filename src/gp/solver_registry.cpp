#include "gp/solver_registry.h"

#include <stdexcept>
#include <utility>

#include "gp/ipm.h"

namespace hydra::gp {

namespace {

/// The incumbent stack: log-space primal barrier with phase-I feasibility
/// (gp/solver.h).  A thin adapter — GpSolver carries the whole
/// implementation — that stamps its registry name onto every result.
class BarrierBackend final : public SolverBackend {
 public:
  BarrierBackend(std::string name, SolveOptions options)
      : name_(std::move(name)), solver_(options) {}

  const std::string& name() const override { return name_; }

  SolveResult solve(const GpProblem& problem,
                    const std::optional<std::vector<double>>& initial_guess) const override {
    SolveResult result = solver_.solve(problem, initial_guess);
    result.backend = name_;
    return result;
  }

 private:
  std::string name_;
  GpSolver solver_;
};

/// Primal-dual filter IPM (gp/ipm.h).  The shared SolveOptions map onto the
/// IPM knobs that have a barrier counterpart; everything else keeps the
/// IpmOptions defaults.
class IpmBackend final : public SolverBackend {
 public:
  IpmBackend(std::string name, const SolveOptions& options) : name_(std::move(name)) {
    options_.tol = options.barrier.duality_gap_tol;
    options_.unbounded_below = options.barrier.unbounded_below;
  }

  const std::string& name() const override { return name_; }

  SolveResult solve(const GpProblem& problem,
                    const std::optional<std::vector<double>>& initial_guess) const override {
    SolveResult result = ipm_solve(problem, initial_guess, options_);
    result.backend = name_;
    return result;
  }

 private:
  std::string name_;
  IpmOptions options_;
};

SolverRegistry build_global() {
  SolverRegistry registry("GP solver backend");
  registry.add("scp/barrier",
               "log-space primal barrier with phase-I feasibility — the "
               "incumbent stack the signomial SCP layer drives (default)",
               [](const SolveOptions& options) {
                 return std::make_unique<BarrierBackend>("scp/barrier", options);
               });
  registry.add("ipm/filter",
               "primal-dual interior point: perturbed KKT Newton system, "
               "fraction-to-boundary rule, inertia-corrected Cholesky, filter "
               "line search; certifies a dual point (kkt_residual)",
               [](const SolveOptions& options) {
                 return std::make_unique<IpmBackend>("ipm/filter", options);
               });
  return registry;
}

}  // namespace

const std::string& resolve_gp_backend(const std::string& configured) {
  if (!configured.empty()) return configured;
  if (const std::string* scoped = GpBackendScope::current()) return *scoped;
  static const std::string fallback = kDefaultGpBackend;
  return fallback;
}

SolveResult solve_with_backend(const GpProblem& problem,
                               const std::optional<std::vector<double>>& initial_guess,
                               const SolveOptions& options) {
  return SolverRegistry::global()
      .make(resolve_gp_backend(""), options)
      ->solve(problem, initial_guess);
}

const char kSolverCatalogPreamble[] =
    "# GP solver catalog\n\n"
    "Every GP solver backend registered in `gp::SolverRegistry::global()`, in\n"
    "registration order.  The name is the stable identifier accepted by\n"
    "`--gp-backend` flags and `SweepSpec::gp_backend`, and stamped onto every\n"
    "`SolveResult::backend`.\n\n"
    "**Generated file — do not edit by hand.**  Regenerate after touching the\n"
    "registry with `./build/bench_table1_catalog --solver-catalog-out docs/solver-catalog.md`\n"
    "(or `HYDRA_UPDATE_CATALOG=1 ./build/test_solver_catalog`); the ctest suite\n"
    "`test_solver_catalog` fails whenever this file and the registry disagree.\n\n"
    "| Name | Description |\n|---|---|\n";

}  // namespace hydra::gp

template <>
hydra::gp::SolverRegistry& hydra::gp::SolverRegistry::global() {
  static Registry registry = gp::build_global();
  return registry;
}
