// Per-item evaluation, the pure function exp::Sweep fans out to its workers:
// every registry scheme on one batch item, plus the per-row metric hooks.
//
// Guarantees:
//   * Determinism — the instance is materialized from the item's own
//     (base_seed, index)-derived seed and every scheme is a pure function of
//     the instance, so rows do not depend on which worker evaluates the item.
//   * Isolation — a scheme that throws (e.g. the exhaustive optimal tripping
//     its enumeration cap) yields an "error" row for that pair; the sweep
//     continues.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/allocator.h"
#include "exp/batch.h"
#include "exp/sinks.h"

namespace hydra::exp {

/// A per-row metric hook: computed for every feasible, validated (instance,
/// scheme) evaluation and appended to the row's `metrics` in declaration
/// order.  `compute` MUST be a deterministic pure function of its arguments
/// (seed any internal simulation from the instance/row data, never from a
/// clock) — it runs on worker threads and its results are covered by the
/// byte-identical-across-jobs guarantee.  A throwing metric turns the row
/// into an "error" row; it does not abort the sweep.
struct RowMetric {
  std::string name;
  std::function<double(const core::Instance&, const core::DesignPoint&)> compute;
  /// Canonical description of every parameter baked into `compute`'s closure
  /// (trials, horizons, seeds, thresholds...).  Two metrics with the same
  /// name but different parameters produce different row bytes, and this
  /// string is the only way the sweep's spec fingerprint — and therefore the
  /// shard-merge and resume safety checks — can see that.  Library metric
  /// factories (exp/metrics.h) fill it; leave "" only for parameterless
  /// hooks.
  std::string identity;
};

/// Evaluates every scheme on one batch item, in scheme order.  Schemes whose
/// Allocator::search_space(instance) exceeds core::kDefaultOptimalBudget get
/// a "skipped" row (polynomial schemes, search_space 1, always run).
/// `preloaded` (optional) bypasses materialization for instance-backed items.
/// Never throws — any failure becomes one "error" row per scheme, which is
/// what keeps an escaped exception from terminating a worker thread.
std::vector<BatchRow> evaluate_batch_item(
    const BatchSpec& spec, const BatchItem& item, const core::Instance* preloaded,
    const std::vector<std::unique_ptr<core::Allocator>>& schemes,
    const std::vector<RowMetric>& metrics = {});

}  // namespace hydra::exp
