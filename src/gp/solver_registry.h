// Name-indexed construction of GP solver backends (a util::Registry, like
// core::AllocatorRegistry one layer up): CLI flags like
// `--gp-backend ipm/filter` and SweepSpec::gp_backend pick the solver that
// every plain-GP solve in the process runs through, without compiling against
// backend option structs.
//
// The global registry ships three backends:
//
//     scp/barrier   log-space primal barrier with phase-I feasibility — the
//                   incumbent stack the signomial SCP layer drives (default)
//     ipm/filter    primal-dual interior point: perturbed KKT Newton system,
//                   fraction-to-boundary rule, inertia-corrected Cholesky,
//                   filter line search; certifies a dual point (kkt_residual)
//     pick-best     meta-backend: runs scp/barrier, falls back to ipm/filter
//                   on kError / non-convergence / infeasible verdicts, and
//                   keeps the better objective when both are optimal
//
// Backend selection has one path: the thread-local GpBackendScope, which
// exp::Sweep installs around each unit from SweepSpec::gp_backend and which
// reaches every GP solve below it without options plumbing.  Registered
// names are stable identifiers: the sweep stamps the backend into
// sweep_fingerprint, so rows solved by different backends disagree loudly.
// docs/solver-authoring.md walks through adding a backend end to end;
// docs/solver-catalog.md is the generated catalog of this registry.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "gp/problem.h"
#include "gp/solver.h"
#include "util/registry.h"
#include "util/thread_scope.h"

namespace hydra::gp {

/// The backend every call site uses when no GpBackendScope names one.
/// Keeping this the incumbent stack preserves byte-identical sweep rows
/// across the registry refactor (tested).
inline constexpr const char* kDefaultGpBackend = "scp/barrier";

/// A plain-GP solve strategy.  The signomial SCP layer sits ABOVE this
/// interface: it builds condensed convex GPs and solves each through a
/// backend, so every backend automatically serves SCP too.
class SolverBackend {
 public:
  virtual ~SolverBackend() = default;

  /// The registered name (stamped into SolveResult::backend).
  virtual const std::string& name() const = 0;

  /// Solves the program.  Same contract as GpSolver::solve: throws
  /// std::invalid_argument on malformed programs, never throws for numerical
  /// failures (those come back as kError with a diagnostic message).
  virtual SolveResult solve(const GpProblem& problem,
                            const std::optional<std::vector<double>>& initial_guess =
                                std::nullopt) const = 0;
};

/// Backend registry; `make(name, options)` passes the shared SolveOptions to
/// the factory.
using SolverRegistry = util::Registry<SolverBackend, const SolveOptions&>;

/// RAII thread-local backend selection (util::ThreadScope): scopes nest
/// innermost-wins, and every solve resolves the ambient backend through
/// `current()`.  An empty backend string re-selects the default, which is how
/// the sweep-layer warm-start memo pins its canonical solves to scp/barrier
/// regardless of the spec's backend.
class GpBackendScope : public util::ThreadScope<std::string, GpBackendScope> {
 public:
  explicit GpBackendScope(std::string backend)
      : ThreadScope(backend.empty() ? kDefaultGpBackend : std::move(backend)) {}
};

/// Resolves which backend a solve uses: a non-empty `configured` name wins,
/// else the innermost GpBackendScope, else kDefaultGpBackend.  Library call
/// sites pass "" (the scope is the one selection path).
const std::string& resolve_gp_backend(const std::string& configured);

/// One-shot convenience: construct the ambient backend (innermost scope, else
/// the default) from the global registry and solve.  The hot SCP loop instead
/// holds the constructed backend across rounds; this is for one-off solves.
SolveResult solve_with_backend(const GpProblem& problem,
                               const std::optional<std::vector<double>>& initial_guess =
                                   std::nullopt,
                               const SolveOptions& options = {});

/// Everything docs/solver-catalog.md holds above the backend rows; render the
/// catalog with util::catalog_markdown(SolverRegistry::global(), this).
extern const char kSolverCatalogPreamble[];

}  // namespace hydra::gp

template <>
hydra::gp::SolverRegistry& hydra::gp::SolverRegistry::global();
