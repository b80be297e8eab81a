#include "gp/solver_registry.h"

#include <memory>
#include <utility>

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

SolverRegistry build_global() {
  SolverRegistry registry("GP solver backend");
  registry.add("scp/barrier",
               "log-space primal barrier with phase-I feasibility — the "
               "incumbent stack the signomial SCP layer drives (default)",
               [](const SolveOptions& options) {
                 return std::make_unique<BarrierBackend>("scp/barrier", options);
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

}  // namespace hydra::gp

template <>
hydra::gp::SolverRegistry& hydra::gp::SolverRegistry::global() {
  static Registry registry = gp::build_global();
  return registry;
}
