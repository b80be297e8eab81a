// Warm-start seam for the signomial-SCP joint period solves.
//
// optimize_joint_periods' kSignomialScp branch consults the innermost
// ScpWarmStartScope installed on the current thread: `source` supplies extra
// start points (for example a neighboring sweep cell's converged period
// vector) that are ADDED to the cold start set via
// gp::maximize_posynomial_scp_warm — never replacing it.  Combined with the
// warm-adoption tie rule documented in gp/scp.h (a warm-derived result wins
// only when it beats the cold best by more than rel_tol), installing or
// removing a scope cannot perturb results through last-ulp objective noise:
// output is byte-identical with the seam active or not unless a warm start
// finds a materially better KKT point.
//
// Scopes are thread-local and nest innermost-wins.  Installing a scope with
// default-constructed (empty) hooks shadows any outer scope, which is how
// the sweep-layer memo (exp/scp_warm.h) runs its own canonical solves cold
// without re-entering itself.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "util/thread_scope.h"

namespace hydra::core {

struct ScpWarmStartHooks {
  /// Extra start points for a joint solve over `num_periods` period
  /// variables.  Vectors of the wrong size or with non-positive entries are
  /// skipped by the gp layer, so a source may return candidates without
  /// checking them against the solve at hand.  Called once per
  /// kSignomialScp solve, and must return the same candidates on every call
  /// within one scope: OptimalAllocator solves only the assignments its
  /// bound cannot rule out, in bound order, so a source whose answer
  /// depended on earlier solves would make results depend on that order.
  std::function<std::vector<std::vector<double>>(std::size_t num_periods)> source;
};

/// RAII installation of warm-start hooks for the current thread
/// (util::ThreadScope: innermost wins).
using ScpWarmStartScope = util::ThreadScope<ScpWarmStartHooks>;

}  // namespace hydra::core
