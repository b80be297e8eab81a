// Result aggregation for sweeps: an Aggregator is a ResultSink that folds the
// row stream into per-(point, scheme) cell statistics — acceptance ratio,
// mean/percentile tightness, gap against a reference scheme, and summaries of
// any RowMetric values — so benches declare *what* they plot instead of
// hand-rolling accumulation loops.
//
// The per-cell statistics are exactly the quantities the paper's evaluation
// reports: Fig. 2's acceptance ratio δ per (utilization, scheme), Fig. 3's
// mean/max optimality gap Δη against the exhaustive reference, and Fig. 1's
// per-scheme detection-latency summaries (via metrics).
//
// Aggregation is deterministic: cells appear in row-arrival order (the
// sweep's stable point-major order) and every statistic is a pure function of
// the row stream, so aggregated JSONL is as byte-stable as the row JSONL —
// the property the golden-corpus regression test pins down.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "exp/sinks.h"
#include "stats/summary.h"

namespace hydra::exp {

struct AggregateOptions {
  /// Scheme whose accepted results serve as the per-instance reference for
  /// the gap statistics (Fig. 3's exhaustive optimal).  "" disables gaps.
  std::string reference_scheme;
};

/// Distribution summary of one quantity inside one cell: stats::summary
/// moments, the stats::mean_ci95 normal-approximation confidence interval of
/// the mean, and the 50th and 95th percentiles (written as "p50" and "p95").
/// `count == 0` means no samples — emitted as JSON nulls, never fake zeros.
struct CellDistribution {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double ci95_lo = 0.0;  ///< mean − 1.96·s/√n (== mean when n == 1)
  double ci95_hi = 0.0;  ///< mean + 1.96·s/√n
  double min = 0.0;
  double max = 0.0;
  std::vector<double> percentiles;
};

/// Statistics of one (point, scheme) cell.
struct CellStats {
  std::size_t point_index = 0;
  std::string point_label;
  double target_utilization = 0.0;
  std::string scheme;

  // Row accounting.  `total` counts every row of the cell; "accepted" means
  // status "ok" with a feasible result that passed independent validation —
  // the paper's schedulability-acceptance criterion.
  std::size_t total = 0;
  std::size_t accepted = 0;
  std::size_t skipped = 0;
  std::size_t errors = 0;       ///< status "error"
  std::size_t no_instance = 0;  ///< status "no-instance"
  double acceptance_ratio = 0.0;  ///< accepted / total (0 when total is 0)
  /// 95 % CI of the acceptance ratio (binomial normal approximation, the
  /// closed form of stats::mean_ci95 over the per-row accept indicator,
  /// clamped to [0, 1]) — how much of an acceptance-ratio difference between
  /// two schemes is replication noise.  Degenerate [ratio, ratio] when
  /// total ≤ 1; zeros when the cell is empty.
  double acceptance_ci95_lo = 0.0;
  double acceptance_ci95_hi = 0.0;

  /// Normalized tightness over the accepted rows.
  CellDistribution tightness;

  /// Cumulative-tightness gap against the reference scheme, in percent
  /// (Fig. 3's Δη = (η_ref − η_this)/η_ref · 100), joined per instance over
  /// the instances both schemes accepted.  Zero samples when no reference is
  /// configured, this cell IS the reference, or the accepted sets are
  /// disjoint.  The join is keyed by (point, instance) index, so absorbing
  /// UNRELATED runs whose indices collide into one Aggregator keeps only the
  /// first tightness sample per key — clear() between unrelated sweeps.
  std::size_t gap_samples = 0;
  double gap_mean_percent = 0.0;
  double gap_max_percent = 0.0;
  double gap_ci95_lo_percent = 0.0;  ///< mean_ci95 over the joined gap samples
  double gap_ci95_hi_percent = 0.0;

  /// One distribution per RowMetric name, over the accepted rows.
  std::map<std::string, CellDistribution> metrics;
};

class Aggregator : public ResultSink {
 public:
  explicit Aggregator(AggregateOptions options = {});
  ~Aggregator() override;  // out-of-line: CellAccum is incomplete here

  /// ResultSink contract: begin() is idempotent and end() keeps the sink
  /// usable, so one Aggregator can absorb several sweep runs.  Use
  /// clear() to start a fresh aggregation.
  void row(const BatchRow& row) override;
  void clear();

  /// Computes the cell statistics for everything absorbed so far, in
  /// first-row-arrival order (= the sweep's stable point-major order).
  std::vector<CellStats> cells() const;

  /// Lookup helpers over a cells() snapshot (nullptr when absent).
  static const CellStats* find(const std::vector<CellStats>& cells,
                               std::size_t point_index, const std::string& scheme);
  static const CellStats* find(const std::vector<CellStats>& cells,
                               const std::string& point_label,
                               const std::string& scheme);

  /// Writes one JSON object per cell — the aggregated counterpart of the row
  /// JSONL, and the format the golden-corpus regression files are stored in.
  void write_jsonl(std::ostream& os) const;

  const AggregateOptions& options() const { return options_; }

 private:
  struct CellAccum;

  CellAccum& accum_for(const BatchRow& row);
  CellStats finalize(const CellAccum& accum) const;

  AggregateOptions options_;
  std::vector<CellAccum> accums_;
  std::map<std::pair<std::size_t, std::string>, std::size_t> index_;
};

}  // namespace hydra::exp
