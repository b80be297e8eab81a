#include "core/design_space.h"

#include <exception>
#include <limits>

#include "core/registry.h"

namespace hydra::core {

std::optional<std::size_t> ExplorationReport::best_index() const {
  std::optional<std::size_t> best;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (!points[i].allocation.feasible || !points[i].validated) continue;
    if (!best.has_value() ||
        points[i].cumulative_tightness > points[*best].cumulative_tightness) {
      best = i;
    }
  }
  return best;
}

bool ExplorationReport::any_feasible() const {
  for (const auto& p : points) {
    if (p.allocation.feasible && p.validated) return true;
  }
  return false;
}

ExplorationReport explore_design_space(const Instance& instance) {
  const auto& registry = AllocatorRegistry::global();
  std::vector<std::string> schemes;
  for (const char* name : {"hydra", "hydra/exact-rta", "single-core", "optimal"}) {
    if (!over_search_budget(*registry.make(name), instance, kDefaultOptimalBudget)) {
      schemes.emplace_back(name);
    }
  }
  return explore_design_space(instance, schemes);
}

ExplorationReport explore_design_space(const Instance& instance,
                                       const std::vector<std::string>& schemes) {
  instance.validate();
  ExplorationReport report;
  const auto& registry = AllocatorRegistry::global();
  for (const auto& name : schemes) {
    const auto scheme = registry.make(name);  // unknown names still throw
    try {
      report.points.push_back(evaluate_scheme(*scheme, instance));
    } catch (const std::exception& e) {
      // E.g. the exhaustive optimal tripping its enumeration cap on a large
      // instance: report the scheme as infeasible instead of losing the
      // whole comparison.
      DesignPoint point;
      point.scheme = name;
      point.allocation = infeasible_allocation(
          std::numeric_limits<std::size_t>::max(),
          std::string("evaluation failed: ") + e.what());
      report.points.push_back(std::move(point));
    }
  }
  return report;
}

}  // namespace hydra::core
