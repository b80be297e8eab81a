// Design-space exploration driver — the workflow the paper's title and
// conclusion describe: "Since we provide comparisons of our solution with two
// extremes — an 'optimal' assignment strategy and isolating all security
// tasks to a single core — we are able to provide valuable hints to designers
// on how to build security into such systems."
//
// `explore_design_space` is a thin single-instance convenience over the
// scheme registry (core/registry.h): it runs `evaluate_scheme` on each named
// scheme and collects the comparison.  Batch sweeps over many instances —
// with worker threads and streaming sinks — live in exp/sweep.h.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/allocator.h"
#include "core/instance.h"

namespace hydra::core {

struct ExplorationReport {
  std::vector<DesignPoint> points;

  /// The feasible point with the highest cumulative tightness, if any.
  std::optional<std::size_t> best_index() const;

  /// True iff at least one scheme produced a feasible, validated allocation.
  bool any_feasible() const;
};

/// Evaluates the paper's line-up, by registry name: "hydra",
/// "hydra/exact-rta", "single-core" and "optimal".  A scheme whose search
/// space exceeds kDefaultOptimalBudget is omitted (the sweep's skip rule,
/// over_search_budget); on M = 1, single-core is reported infeasible with
/// its reason.
ExplorationReport explore_design_space(const Instance& instance);

/// Evaluates the registry schemes named in `schemes` (e.g. {"hydra",
/// "single-core", "optimal"}) on `instance`.  Unknown names throw; a scheme
/// whose evaluation throws is reported infeasible with the error.
ExplorationReport explore_design_space(const Instance& instance,
                                       const std::vector<std::string>& schemes);

}  // namespace hydra::core
