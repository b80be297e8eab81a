// The pluggable allocation-scheme interface every integration strategy
// implements (HYDRA, SingleCore, Optimal, and any future scheme).
//
// The paper's contribution is the *comparison workflow* — evaluating several
// schemes on the same instance and handing the designer the trade-off table.
// This interface is the seam that workflow plugs into: a scheme exposes its
// name, a human-readable description of its configuration, the two allocate
// entry points, and the validation contract (which schedulability test it
// promises to satisfy and any priority-order override) so
// `evaluate_scheme` can re-check the result independently.
//
// Schemes are usually constructed by name through core/registry.h; the
// concrete classes remain directly constructible for callers that need
// programmatic option control.
#pragma once

#include <algorithm>
#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "core/instance.h"
#include "core/validation.h"
#include "rt/partition.h"
#include "util/units.h"

namespace hydra::core {

class Allocator {
 public:
  virtual ~Allocator() = default;

  /// Registry-style identifier, e.g. "hydra", "hydra/exact-rta",
  /// "single-core".  The registry overrides it with the registered name so a
  /// scheme constructed from a spec string reports that exact spec.
  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  /// One-line human-readable summary of the scheme and its configuration.
  virtual std::string describe() const = 0;

  /// Runs the scheme with its own RT-partitioning policy (HYDRA/Optimal:
  /// best-fit over all M cores; SingleCore: RT on M−1 cores).
  virtual Allocation allocate(const Instance& instance) const = 0;

  /// Runs the scheme against an externally supplied RT partition so several
  /// schemes can be compared on identical footing (the Fig.-3 protocol).
  /// Schemes whose placement policy dictates its own partition (SingleCore)
  /// document how they treat the hint.
  virtual Allocation allocate(const Instance& instance,
                              const rt::Partition& rt_partition) const = 0;

  // --- validation contract -------------------------------------------------
  /// The schedulability test this scheme's results satisfy (and hence the one
  /// an independent checker must re-run).
  virtual ScheduleTest schedule_test() const { return ScheduleTest::kLinearBound; }
  /// Retired: no scheme overrides it and no library code reads it.  Kept
  /// only because the benchmark harness's TracedAllocator still overrides
  /// it; drop both together.
  virtual util::Millis blocking() const { return 0.0; }
  /// Security priority order the scheme used (absent = ascending Tmax).
  virtual std::optional<std::vector<std::size_t>> priority_order() const {
    return std::nullopt;
  }

  /// Upper bound on the scheme's search effort on `instance` (the exhaustive
  /// optimal returns M^NS; polynomial schemes return 1).  Batch drivers skip
  /// (instance, scheme) pairs over their budget (over_search_budget) instead
  /// of stalling a sweep.
  virtual double search_space(const Instance& instance) const {
    (void)instance;
    return 1.0;
  }

 protected:
  explicit Allocator(std::string default_name) : name_(std::move(default_name)) {}

  /// Shared body for the paper-evaluation convenience overload: best-fit
  /// partitions the RT tasks over all M cores and delegates to
  /// allocate(instance, partition); infeasible when the RT tasks alone cannot
  /// be partitioned.  Schemes whose placement dictates its own partition
  /// shape (SingleCore) implement their overload directly instead.
  Allocation allocate_with_default_partition(const Instance& instance) const;

 private:
  std::string name_;
};

/// One evaluated design point: a scheme's allocation plus the derived
/// tightness metrics and the verdict of the independent validator.
struct DesignPoint {
  std::string scheme;            ///< Allocator::name() at evaluation time
  Allocation allocation;         ///< the scheme's result
  double cumulative_tightness = 0.0;  ///< Σ ω·η (0 when infeasible)
  double normalized_tightness = 0.0;  ///< divided by Σ ω (1.0 = every monitor at Tdes)
  bool validated = false;        ///< passed the independent checker
  std::string validation_problem;
};

/// The default search-space budget of exp::SweepSpec::optimal_budget and
/// explore_design_space: M^NS = 4096 admits e.g. the M = 4, NS = 6 UAV case.
inline constexpr std::size_t kDefaultOptimalBudget = 4096;

/// The skip rule every batch driver applies: true when `scheme`'s search
/// space on `instance` exceeds `budget`.  Polynomial schemes report 1, so a
/// budget of 0 (or 1) still runs them while skipping every exhaustive scheme.
inline bool over_search_budget(const Allocator& scheme, const Instance& instance,
                               std::size_t budget) {
  return scheme.search_space(instance) > static_cast<double>(std::max<std::size_t>(budget, 1));
}

/// Evaluates one scheme on one instance: allocates, computes the tightness
/// metrics, and independently re-validates the result under the scheme's own
/// contract.  The second overload pins the RT partition.
DesignPoint evaluate_scheme(const Allocator& scheme, const Instance& instance);
DesignPoint evaluate_scheme(const Allocator& scheme, const Instance& instance,
                            const rt::Partition& rt_partition);

}  // namespace hydra::core
