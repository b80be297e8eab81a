#include "io/bench_diff.h"

#include <fstream>
#include <iomanip>
#include <sstream>
#include <stdexcept>

namespace hydra::io {

namespace {

/// Value of `"key": <...>` on this line, or "" when the key is absent.
std::string field_on_line(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\"";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return "";
  std::size_t pos = line.find(':', at + needle.size());
  if (pos == std::string::npos) return "";
  ++pos;
  while (pos < line.size() && (line[pos] == ' ' || line[pos] == '\t')) ++pos;
  std::size_t end = line.size();
  while (end > pos && (line[end - 1] == ',' || line[end - 1] == ' ' ||
                       line[end - 1] == '\r')) {
    --end;
  }
  std::string value = line.substr(pos, end - pos);
  if (value.size() >= 2 && value.front() == '"' && value.back() == '"') {
    value = value.substr(1, value.size() - 2);
  }
  return value;
}

std::string format_time(double value, const std::string& unit) {
  std::ostringstream out;
  out << std::fixed << std::setprecision(value < 10 ? 3 : 1) << value << " " << unit;
  return out.str();
}

std::string format_delta(double pct) {
  std::ostringstream out;
  out << std::showpos << std::fixed << std::setprecision(1) << pct << "%";
  return out.str();
}

}  // namespace

std::map<std::string, BenchResult> parse_bench_results(std::istream& in,
                                                       const std::string& origin,
                                                       BenchContext* context) {
  std::map<std::string, BenchResult> rows;
  std::string line, current;
  bool in_benchmarks = false;
  while (std::getline(in, line)) {
    if (!in_benchmarks) {
      if (line.find("\"benchmarks\"") != std::string::npos) in_benchmarks = true;
      if (context != nullptr) {
        const std::string cpus = field_on_line(line, "num_cpus");
        if (!cpus.empty()) context->num_cpus = cpus;
        const std::string build = field_on_line(line, "library_build_type");
        if (!build.empty()) context->library_build_type = build;
      }
      continue;
    }
    const std::string name = field_on_line(line, "name");
    if (!name.empty()) {
      current = name;
      rows[current] = BenchResult{};
      continue;
    }
    if (current.empty()) continue;
    const std::string real_time = field_on_line(line, "real_time");
    if (!real_time.empty()) rows[current].real_time = std::stod(real_time);
    const std::string unit = field_on_line(line, "time_unit");
    if (!unit.empty()) rows[current].time_unit = unit;
    const std::string items = field_on_line(line, "items_per_second");
    if (!items.empty()) rows[current].items_per_second = std::stod(items);
  }
  if (rows.empty()) {
    throw std::runtime_error("no benchmarks found in " + origin +
                             " (expected google-benchmark JSON)");
  }
  return rows;
}

std::map<std::string, BenchResult> load_bench_results(const std::string& path,
                                                      BenchContext* context) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read benchmark file: " + path);
  return parse_bench_results(in, path, context);
}

std::string bench_context_mismatch(const BenchContext& baseline, const BenchContext& current) {
  std::string fields;
  const auto compare = [&fields](const char* name, const std::string& base,
                                 const std::string& now) {
    if (base == now) return;
    fields += std::string(fields.empty() ? "" : ", ") + name + " " +
              (base.empty() ? "?" : base) + " vs " + (now.empty() ? "?" : now);
  };
  compare("num_cpus", baseline.num_cpus, current.num_cpus);
  compare("library_build_type", baseline.library_build_type, current.library_build_type);
  if (fields.empty()) return "";
  return "context mismatch (baseline vs current): " + fields;
}

std::vector<BenchDelta> diff_bench_results(
    const std::map<std::string, BenchResult>& baseline,
    const std::map<std::string, BenchResult>& current) {
  std::vector<BenchDelta> deltas;
  deltas.reserve(baseline.size() + current.size());
  for (const auto& [name, now] : current) {
    BenchDelta delta;
    delta.name = name;
    delta.current = now;
    const auto base_it = baseline.find(name);
    if (base_it == baseline.end()) {
      delta.kind = BenchDelta::Kind::kNew;
    } else if (!(base_it->second.real_time > 0.0)) {
      // A zero/absent baseline time admits no percentage: reporting 0.0%
      // would silently pass the gate, so flag it instead of comparing.
      delta.kind = BenchDelta::Kind::kIncomparable;
      delta.baseline = base_it->second;
    } else {
      delta.kind = BenchDelta::Kind::kCompared;
      delta.baseline = base_it->second;
      delta.time_pct = (now.real_time - delta.baseline.real_time) /
                       delta.baseline.real_time * 100.0;
      if (delta.baseline.items_per_second > 0.0 && now.items_per_second > 0.0) {
        delta.has_items = true;
        delta.items_pct = (now.items_per_second - delta.baseline.items_per_second) /
                          delta.baseline.items_per_second * 100.0;
      }
    }
    deltas.push_back(std::move(delta));
  }
  for (const auto& [name, base] : baseline) {
    if (current.find(name) != current.end()) continue;
    BenchDelta delta;
    delta.name = name;
    delta.kind = BenchDelta::Kind::kMissing;
    delta.baseline = base;
    deltas.push_back(std::move(delta));
  }
  return deltas;
}

std::vector<std::string> bench_gate_violations(const std::vector<BenchDelta>& deltas,
                                               double fail_over_pct) {
  std::vector<std::string> violations;
  if (fail_over_pct < 0.0) return violations;
  for (const auto& delta : deltas) {
    if (delta.kind != BenchDelta::Kind::kCompared) continue;
    if (delta.time_pct > fail_over_pct) {
      violations.push_back(delta.name + " real_time " + format_delta(delta.time_pct));
    }
    // A throughput collapse is a regression even when wall time looks flat
    // (e.g. the batch shrank): gate drops symmetrically with time growth.
    if (delta.has_items && delta.items_pct < -fail_over_pct) {
      violations.push_back(delta.name + " items/s " + format_delta(delta.items_pct));
    }
  }
  return violations;
}

std::string render_bench_diff_markdown(const std::vector<BenchDelta>& deltas,
                                       const std::string& mismatch) {
  std::ostringstream out;
  if (!mismatch.empty()) out << "> " << mismatch << "\n\n";
  out << "| benchmark | baseline | current | real_time Δ | items/s Δ |\n"
      << "|---|---|---|---|---|\n";
  for (const auto& delta : deltas) {
    out << "| " << delta.name << " | ";
    switch (delta.kind) {
      case BenchDelta::Kind::kNew:
        out << "_new_ | " << format_time(delta.current.real_time, delta.current.time_unit)
            << " | — | — |\n";
        break;
      case BenchDelta::Kind::kMissing:
        out << format_time(delta.baseline.real_time, delta.baseline.time_unit)
            << " | _missing_ | — | — |\n";
        break;
      case BenchDelta::Kind::kIncomparable:
        out << "_incomparable_ | "
            << format_time(delta.current.real_time, delta.current.time_unit)
            << " | — | — |\n";
        break;
      case BenchDelta::Kind::kCompared:
        out << format_time(delta.baseline.real_time, delta.baseline.time_unit) << " | "
            << format_time(delta.current.real_time, delta.current.time_unit) << " | "
            << format_delta(delta.time_pct) << " | "
            << (delta.has_items ? format_delta(delta.items_pct) : std::string("—"))
            << " |\n";
        break;
    }
  }
  return out.str();
}

std::string render_bench_diff_text(const std::vector<BenchDelta>& deltas,
                                   const std::string& mismatch) {
  std::ostringstream out;
  if (!mismatch.empty()) out << mismatch << "\n";
  out << std::left << std::setw(44) << "benchmark" << std::setw(16) << "baseline"
      << std::setw(16) << "current" << std::setw(12) << "time Δ" << "items/s Δ\n";
  for (const auto& delta : deltas) {
    out << std::left << std::setw(44) << delta.name;
    switch (delta.kind) {
      case BenchDelta::Kind::kNew:
        out << std::setw(16) << "(new)"
            << format_time(delta.current.real_time, delta.current.time_unit) << "\n";
        break;
      case BenchDelta::Kind::kMissing:
        out << std::setw(16)
            << format_time(delta.baseline.real_time, delta.baseline.time_unit)
            << "(missing)\n";
        break;
      case BenchDelta::Kind::kIncomparable:
        out << std::setw(16) << "(incomparable)"
            << format_time(delta.current.real_time, delta.current.time_unit) << "\n";
        break;
      case BenchDelta::Kind::kCompared:
        out << std::setw(16)
            << format_time(delta.baseline.real_time, delta.baseline.time_unit)
            << std::setw(16)
            << format_time(delta.current.real_time, delta.current.time_unit)
            << std::setw(12) << format_delta(delta.time_pct)
            << (delta.has_items ? format_delta(delta.items_pct) : std::string("—"))
            << "\n";
        break;
    }
  }
  return out.str();
}

}  // namespace hydra::io
