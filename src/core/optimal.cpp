#include "core/optimal.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>

#include "core/joint_period.h"
#include "util/contracts.h"

namespace hydra::core {

namespace {

/// Hard cap on the M^NS assignments one allocate() enumerates.
constexpr std::size_t kMaxAssignments = 1u << 20;

}  // namespace

Allocation OptimalAllocator::allocate(const Instance& instance,
                                      const rt::Partition& rt_partition) const {
  validate_rt_partition(instance, rt_partition);

  const std::size_t ns = instance.security_tasks.size();
  const std::size_t m = instance.num_cores;

  // Guard the M^NS blow-up before enumerating.
  double combos = 1.0;
  for (std::size_t s = 0; s < ns; ++s) combos *= static_cast<double>(m);
  HYDRA_REQUIRE(combos <= static_cast<double>(kMaxAssignments),
                "M^NS exceeds the 2^20 assignments the exhaustive search allows");

  Allocation best;
  best.rt_partition = rt_partition;
  best.failed_task = ns == 0 ? 0 : std::numeric_limits<std::size_t>::max();
  best.failure_reason = "no assignment admits acceptable periods for every task";

  // Decodes `code` as a base-M numeral into the assignment vector.
  std::vector<std::size_t> core_of(ns, 0);
  const auto decode = [&](std::size_t code) {
    for (std::size_t s = 0; s < ns; ++s) {
      core_of[s] = code % m;
      code /= m;
    }
  };

  // Pass 1: bound every assignment without a solve; drop the ones whose
  // Tmax corner is infeasible, and order the rest highest bound first
  // (stable, so equal bounds keep ascending code order).
  struct Candidate {
    double bound;
    std::size_t code;
  };
  std::vector<Candidate> candidates;
  const std::size_t total = static_cast<std::size_t>(combos);
  for (std::size_t code = 0; code < total; ++code) {
    decode(code);
    if (const auto bound = joint_tightness_bound(instance, rt_partition, core_of)) {
      candidates.push_back(Candidate{*bound, code});
    }
  }
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const Candidate& a, const Candidate& b) { return a.bound > b.bound; });

  // Pass 2: solve in bound order and skip every assignment that cannot beat
  // the incumbent.  Ties go to the lowest code, so the argmax is the one the
  // plain enumeration in code order (strict > wins) would return.
  double best_value = -1.0;
  std::size_t best_code = std::numeric_limits<std::size_t>::max();
  JointPeriodResult best_joint;
  for (const Candidate& candidate : candidates) {
    if (candidate.bound < best_value) break;  // later bounds are no higher
    if (candidate.bound == best_value && candidate.code > best_code) continue;
    decode(candidate.code);
    JointPeriodResult joint = optimize_joint_periods(instance, rt_partition, core_of);
    if (!joint.feasible) continue;
    if (joint.cumulative_tightness > best_value ||
        (joint.cumulative_tightness == best_value && candidate.code < best_code)) {
      best_value = joint.cumulative_tightness;
      best_code = candidate.code;
      best_joint = std::move(joint);
    }
  }

  if (best_code != std::numeric_limits<std::size_t>::max()) {
    decode(best_code);
    best.feasible = true;
    best.failure_reason.clear();
    best.placements.assign(ns, TaskPlacement{});
    for (std::size_t s = 0; s < ns; ++s) {
      best.placements[s] = TaskPlacement{
          core_of[s], best_joint.periods[s],
          instance.security_tasks[s].period_des / best_joint.periods[s]};
    }
  }
  return best;
}

double OptimalAllocator::search_space(const Instance& instance) const {
  return std::pow(static_cast<double>(instance.num_cores),
                  static_cast<double>(instance.security_tasks.size()));
}

std::string OptimalAllocator::describe() const {
  return "exhaustive M^NS assignment search with joint period optimization (signomial SCP)";
}

}  // namespace hydra::core
