#include "exp/engine.h"

#include <exception>
#include <memory>

namespace hydra::exp {

namespace {

using SchemeSet = std::vector<std::unique_ptr<core::Allocator>>;

/// Evaluates every scheme on one batch item.  Pure function of the item (and
/// the spec), which is what makes sweep output independent of worker count
/// and scheduling order.
std::vector<BatchRow> evaluate_item(const BatchSpec& spec, const BatchItem& item,
                                    const core::Instance* preloaded,
                                    const SchemeSet& schemes,
                                    const std::vector<RowMetric>& metrics) {
  std::vector<BatchRow> rows;
  rows.reserve(schemes.size());

  BatchRow base;
  base.instance_index = item.index;
  base.instance_label = item.label;
  base.seed = item.seed;

  MaterializedItem materialized;
  const core::Instance* instance = preloaded;
  if (instance == nullptr) {
    materialized = materialize(spec, item);
    if (materialized.instance.has_value()) instance = &*materialized.instance;
    base.rt_utilization = materialized.rt_utilization;
    base.sec_utilization = materialized.sec_utilization;
  }

  if (instance == nullptr) {
    for (const auto& scheme : schemes) {
      BatchRow row = base;
      row.scheme = scheme->name();
      row.status = "no-instance";
      row.note = materialized.error;
      rows.push_back(std::move(row));
    }
    return rows;
  }

  for (const auto& scheme : schemes) {
    BatchRow row = base;
    row.scheme = scheme->name();
    if (core::over_search_budget(*scheme, *instance, core::kDefaultOptimalBudget)) {
      row.status = "skipped";
      row.note = "search space exceeds the engine budget of " +
                 std::to_string(core::kDefaultOptimalBudget);
      rows.push_back(std::move(row));
      continue;
    }
    try {
      const auto point = core::evaluate_scheme(*scheme, *instance);
      row.feasible = point.allocation.feasible;
      row.validated = point.validated;
      row.cumulative_tightness = point.cumulative_tightness;
      row.normalized_tightness = point.normalized_tightness;
      if (!point.allocation.feasible) {
        row.note = point.allocation.failure_reason;
      } else if (!point.validated) {
        row.note = point.validation_problem;
      } else {
        // Metric hooks only see results that passed independent validation —
        // a metric over an invalid allocation would measure a fiction.
        for (const auto& metric : metrics) {
          row.metrics.emplace_back(metric.name, metric.compute(*instance, point));
        }
      }
    } catch (const std::exception& e) {
      row.status = "error";
      row.note = e.what();
      row.metrics.clear();  // no partial metric lists on error rows
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace

// evaluate_item with a last-resort catch: a throw outside the per-scheme try
// (materialization preconditions, allocation failure) becomes one "error"
// row per scheme instead of escaping — essential on worker threads, where an
// escaped exception would terminate the process.
std::vector<BatchRow> evaluate_batch_item(const BatchSpec& spec, const BatchItem& item,
                                          const core::Instance* preloaded,
                                          const SchemeSet& schemes,
                                          const std::vector<RowMetric>& metrics) {
  try {
    return evaluate_item(spec, item, preloaded, schemes, metrics);
  } catch (const std::exception& e) {
    std::vector<BatchRow> rows;
    rows.reserve(schemes.size());
    for (const auto& scheme : schemes) {
      BatchRow row;
      row.instance_index = item.index;
      row.instance_label = item.label;
      row.seed = item.seed;
      row.scheme = scheme->name();
      row.status = "error";
      row.note = e.what();
      rows.push_back(std::move(row));
    }
    return rows;
  }
}

}  // namespace hydra::exp
