// HYDRA (paper Algorithm 1): greedy joint task-allocation and period
// adaptation.
//
// Security tasks are visited from highest to lowest priority (ascending
// Tmax).  For each task the Eq. (7) subproblem is solved on every core; the
// task goes to the core giving the maximum achievable tightness, its period
// is fixed, and it becomes an interferer for the tasks that follow.  If no
// core is feasible the whole set is declared unschedulable — exactly the
// paper's early-return on line 9.
//
// Knobs beyond the paper (defaults reproduce the paper's behaviour):
//   * `solver`      — closed-form vs GP subproblem (identical results).
//   * `tie_break`   — the paper leaves η ties unspecified; the default
//                     spreads load (least busy core), the ablation picks the
//                     lowest index.
//   * `priority_order` — security priority override (e.g. §V precedence
//                     chains).
#pragma once

#include <string>

#include "core/allocator.h"
#include "core/instance.h"
#include "core/period_adaptation.h"
#include "rt/partition.h"

namespace hydra::core {

/// Resolves equal-tightness candidates for line 11's argmax-ηs core pick.
enum class TieBreak {
  kLeastLoaded,  ///< spread security load (default; helps detection latency)
  kLowestIndex,  ///< deterministic first-core rule
};

struct HydraOptions {
  PeriodSolver solver = PeriodSolver::kClosedForm;
  TieBreak tie_break = TieBreak::kLeastLoaded;
  /// Security priority order override (highest first), e.g. a
  /// sec::chain_consistent_order honouring §V precedence chains.  Absent =
  /// the paper's ascending-Tmax rule.  Pass the same order to
  /// validate_allocation and build_sim_tasks.
  std::optional<std::vector<std::size_t>> priority_order;
};

class HydraAllocator : public Allocator {
 public:
  explicit HydraAllocator(HydraOptions options = {})
      : Allocator("hydra"), options_(options) {}

  /// Runs Algorithm 1 against an externally supplied RT partition over all M
  /// cores (the paper's input `I`).
  Allocation allocate(const Instance& instance,
                      const rt::Partition& rt_partition) const override;

  /// Convenience overload matching the paper's evaluation setup: partitions
  /// the RT tasks over all M cores with best-fit first, then runs HYDRA.
  /// Infeasible if the RT tasks alone cannot be partitioned.
  Allocation allocate(const Instance& instance) const override;

  std::string describe() const override;
  ScheduleTest schedule_test() const override {
    return options_.solver == PeriodSolver::kExactRta ? ScheduleTest::kExactRta
                                                      : ScheduleTest::kLinearBound;
  }
  std::optional<std::vector<std::size_t>> priority_order() const override {
    return options_.priority_order;
  }

  const HydraOptions& options() const { return options_; }

 private:
  HydraOptions options_;
};

}  // namespace hydra::core
