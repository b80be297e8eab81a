#include "exp/aggregate.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <ostream>

namespace hydra::exp {

/// Raw per-cell material: counters plus the sample vectors the statistics
/// are computed from on demand.  `accepted_by_instance` keeps the cumulative
/// tightness keyed by instance index so the gap join can pair this cell's
/// results with the reference scheme's on identical instances.
struct Aggregator::CellAccum {
  std::size_t point_index = 0;
  std::string point_label;
  double target_utilization = 0.0;
  std::string scheme;

  std::size_t total = 0;
  std::size_t accepted = 0;
  std::size_t skipped = 0;
  std::size_t errors = 0;
  std::size_t no_instance = 0;

  std::vector<double> normalized_tightness;
  std::map<std::size_t, double> accepted_by_instance;  ///< instance → Σ ω·η
  std::map<std::string, std::vector<double>> metric_samples;
};

namespace {

/// Percentile levels computed for the tightness and metric distributions.
constexpr double kPercentiles[] = {0.5, 0.95};

CellDistribution distribution(std::vector<double> samples) {
  CellDistribution dist;
  dist.count = samples.size();
  if (samples.empty()) return dist;
  const auto s = stats::summarize(samples);
  dist.mean = s.mean;
  dist.stddev = s.stddev;
  dist.min = s.min;
  dist.max = s.max;
  const auto ci = stats::mean_ci95(samples);
  dist.ci95_lo = ci.lo;
  dist.ci95_hi = ci.hi;
  std::sort(samples.begin(), samples.end());
  dist.percentiles.reserve(std::size(kPercentiles));
  for (const double p : kPercentiles) {
    dist.percentiles.push_back(stats::percentile_sorted(samples, p));
  }
  return dist;
}

/// Percentile key suffix: 0.5 → "p50", 0.999 → "p99.9".
std::string percentile_key(double level) { return "p" + format_double(level * 100.0); }

void write_distribution(std::ostream& os, const CellDistribution& dist) {
  os << "{\"count\":" << dist.count;
  if (dist.count == 0) {
    os << ",\"mean\":null,\"stddev\":null,\"ci95_lo\":null,\"ci95_hi\":null"
          ",\"min\":null,\"max\":null";
    for (const double level : kPercentiles) os << ",\"" << percentile_key(level) << "\":null";
  } else {
    os << ",\"mean\":" << json_number(dist.mean)
       << ",\"stddev\":" << json_number(dist.stddev)
       << ",\"ci95_lo\":" << json_number(dist.ci95_lo)
       << ",\"ci95_hi\":" << json_number(dist.ci95_hi)
       << ",\"min\":" << json_number(dist.min)
       << ",\"max\":" << json_number(dist.max);
    for (std::size_t i = 0; i < std::size(kPercentiles); ++i) {
      os << ",\"" << percentile_key(kPercentiles[i])
         << "\":" << json_number(dist.percentiles[i]);
    }
  }
  os << '}';
}

}  // namespace

Aggregator::~Aggregator() = default;

Aggregator::Aggregator(AggregateOptions options) : options_(std::move(options)) {}

Aggregator::CellAccum& Aggregator::accum_for(const BatchRow& row) {
  const auto key = std::make_pair(row.point_index, row.scheme);
  const auto found = index_.find(key);
  if (found != index_.end()) return accums_[found->second];
  index_.emplace(key, accums_.size());
  CellAccum accum;
  accum.point_index = row.point_index;
  accum.point_label = row.point_label;
  accum.target_utilization = row.target_utilization;
  accum.scheme = row.scheme;
  accums_.push_back(std::move(accum));
  return accums_.back();
}

void Aggregator::row(const BatchRow& row) {
  auto& accum = accum_for(row);
  ++accum.total;
  if (row.status == "skipped") {
    ++accum.skipped;
  } else if (row.status == "error") {
    ++accum.errors;
  } else if (row.status == "no-instance") {
    ++accum.no_instance;
  }
  const bool accepted = row.status == "ok" && row.feasible && row.validated;
  if (!accepted) return;
  ++accum.accepted;
  accum.normalized_tightness.push_back(row.normalized_tightness);
  accum.accepted_by_instance.emplace(row.instance_index, row.cumulative_tightness);
  for (const auto& [name, value] : row.metrics) {
    accum.metric_samples[name].push_back(value);
  }
}

void Aggregator::clear() {
  accums_.clear();
  index_.clear();
}

CellStats Aggregator::finalize(const CellAccum& accum) const {
  CellStats cell;
  cell.point_index = accum.point_index;
  cell.point_label = accum.point_label;
  cell.target_utilization = accum.target_utilization;
  cell.scheme = accum.scheme;
  cell.total = accum.total;
  cell.accepted = accum.accepted;
  cell.skipped = accum.skipped;
  cell.errors = accum.errors;
  cell.no_instance = accum.no_instance;
  cell.acceptance_ratio =
      accum.total == 0
          ? 0.0
          : static_cast<double>(accum.accepted) / static_cast<double>(accum.total);
  if (accum.total > 0) {
    // Binomial normal-approximation CI (mean_ci95 over the 0/1 accept
    // indicator, in closed form: the indicator's sample variance is
    // n·p·(1−p)/(n−1)), clamped to [0, 1] — a probability bound outside the
    // unit interval is an artifact of the approximation, not a statistic.
    const double n = static_cast<double>(accum.total);
    const double p = cell.acceptance_ratio;
    const double half =
        accum.total > 1 ? 1.96 * std::sqrt(p * (1.0 - p) * n / (n - 1.0) / n) : 0.0;
    cell.acceptance_ci95_lo = std::max(0.0, p - half);
    cell.acceptance_ci95_hi = std::min(1.0, p + half);
  }
  cell.tightness = distribution(accum.normalized_tightness);
  for (const auto& [name, samples] : accum.metric_samples) {
    cell.metrics.emplace(name, distribution(samples));
  }

  if (!options_.reference_scheme.empty() && accum.scheme != options_.reference_scheme) {
    const auto ref_key = std::make_pair(accum.point_index, options_.reference_scheme);
    const auto ref = index_.find(ref_key);
    if (ref != index_.end()) {
      const auto& ref_accum = accums_[ref->second];
      std::vector<double> gaps;
      for (const auto& [instance, eta] : accum.accepted_by_instance) {
        const auto match = ref_accum.accepted_by_instance.find(instance);
        if (match == ref_accum.accepted_by_instance.end()) continue;
        gaps.push_back(stats::gap_percent(match->second, eta));
      }
      if (!gaps.empty()) {
        const auto s = stats::summarize(gaps);
        cell.gap_samples = s.count;
        cell.gap_mean_percent = s.mean;
        cell.gap_max_percent = s.max;
        const auto ci = stats::mean_ci95(gaps);
        cell.gap_ci95_lo_percent = ci.lo;
        cell.gap_ci95_hi_percent = ci.hi;
      }
    }
  }
  return cell;
}

std::vector<CellStats> Aggregator::cells() const {
  std::vector<CellStats> out;
  out.reserve(accums_.size());
  for (const auto& accum : accums_) out.push_back(finalize(accum));
  return out;
}

const CellStats* Aggregator::find(const std::vector<CellStats>& cells,
                                  std::size_t point_index, const std::string& scheme) {
  for (const auto& cell : cells) {
    if (cell.point_index == point_index && cell.scheme == scheme) return &cell;
  }
  return nullptr;
}

const CellStats* Aggregator::find(const std::vector<CellStats>& cells,
                                  const std::string& point_label,
                                  const std::string& scheme) {
  for (const auto& cell : cells) {
    if (cell.point_label == point_label && cell.scheme == scheme) return &cell;
  }
  return nullptr;
}

void Aggregator::write_jsonl(std::ostream& os) const {
  for (const auto& cell : cells()) {
    os << "{\"point\":" << cell.point_index
       << ",\"point_label\":\"" << json_escape(cell.point_label) << '"'
       << ",\"target_utilization\":" << json_number(cell.target_utilization)
       << ",\"scheme\":\"" << json_escape(cell.scheme) << '"'
       << ",\"total\":" << cell.total
       << ",\"accepted\":" << cell.accepted
       << ",\"skipped\":" << cell.skipped
       << ",\"errors\":" << cell.errors
       << ",\"no_instance\":" << cell.no_instance
       << ",\"acceptance_ratio\":" << json_number(cell.acceptance_ratio)
       << ",\"acceptance_ci95_lo\":" << json_number(cell.acceptance_ci95_lo)
       << ",\"acceptance_ci95_hi\":" << json_number(cell.acceptance_ci95_hi)
       << ",\"tightness\":";
    write_distribution(os, cell.tightness);
    if (cell.gap_samples > 0) {
      os << ",\"gap_samples\":" << cell.gap_samples
         << ",\"gap_mean_percent\":" << json_number(cell.gap_mean_percent)
         << ",\"gap_max_percent\":" << json_number(cell.gap_max_percent)
         << ",\"gap_ci95_lo_percent\":" << json_number(cell.gap_ci95_lo_percent)
         << ",\"gap_ci95_hi_percent\":" << json_number(cell.gap_ci95_hi_percent);
    }
    if (!cell.metrics.empty()) {
      os << ",\"metrics\":{";
      bool first = true;
      for (const auto& [name, dist] : cell.metrics) {
        if (!first) os << ',';
        os << '"' << json_escape(name) << "\":";
        write_distribution(os, dist);
        first = false;
      }
      os << '}';
    }
    os << "}\n";
  }
}

}  // namespace hydra::exp
