// Name-indexed construction of GP solver backends (a util::Registry, like
// core::AllocatorRegistry one layer up): SweepSpec::gp_backend picks the
// solver that every plain-GP solve in the process runs through, without
// compiling against backend option structs.
//
// The global registry ships one backend, the default:
//
//     scp/barrier   log-space primal barrier with phase-I feasibility — the
//                   incumbent stack the signomial SCP layer drives
//
// Tests add their own (the interior-point reference of the differential GP
// suites, a counting delegate); docs/architecture.md ("GP solver backends")
// states the SolveResult contract every backend keeps.
//
// Backend selection has one path: the thread-local GpBackendScope, which
// exp::Sweep installs around each unit from SweepSpec::gp_backend and which
// reaches every GP solve below it without options plumbing.  Registered
// names are stable identifiers: the sweep stamps the backend into
// sweep_fingerprint, so rows solved by different backends disagree loudly.
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
/// `current()`.  An empty backend string re-selects the default.
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

}  // namespace hydra::gp

template <>
hydra::gp::SolverRegistry& hydra::gp::SolverRegistry::global();
