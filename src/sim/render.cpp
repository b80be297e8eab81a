#include "sim/render.h"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "util/contracts.h"

namespace hydra::sim {

namespace {

char task_letter(std::size_t index) {
  return index < 26 ? static_cast<char>('a' + index) : '?';
}

}  // namespace

std::string render_gantt(const Trace& trace, const std::vector<SimTask>& tasks,
                         const GanttOptions& options) {
  HYDRA_REQUIRE(!trace.segments.empty(),
                "trace has no segments — simulate with record_segments = true");
  HYDRA_REQUIRE(options.width >= 10, "gantt needs at least 10 columns");
  const util::SimTime from = options.from;
  const util::SimTime to = options.to == 0 ? trace.horizon : options.to;
  HYDRA_REQUIRE(from < to, "empty gantt window");

  const std::size_t num_cores = trace.core_busy.size();
  const double bucket =
      static_cast<double>(to - from) / static_cast<double>(options.width);

  // busy[core][col][task] accumulation, tracked as "longest-running task".
  std::vector<std::vector<std::vector<double>>> busy(
      num_cores, std::vector<std::vector<double>>(options.width,
                                                  std::vector<double>(tasks.size(), 0.0)));
  for (const auto& seg : trace.segments) {
    if (seg.to <= from || seg.from >= to) continue;
    const util::SimTime lo = std::max(seg.from, from);
    const util::SimTime hi = std::min(seg.to, to);
    // Spread the segment across the buckets it overlaps.
    std::size_t first = static_cast<std::size_t>(static_cast<double>(lo - from) / bucket);
    std::size_t last = static_cast<std::size_t>(static_cast<double>(hi - from - 1) / bucket);
    first = std::min(first, options.width - 1);
    last = std::min(last, options.width - 1);
    for (std::size_t col = first; col <= last; ++col) {
      const double col_start = static_cast<double>(from) + bucket * static_cast<double>(col);
      const double col_end = col_start + bucket;
      const double overlap = std::min(static_cast<double>(hi), col_end) -
                             std::max(static_cast<double>(lo), col_start);
      if (overlap > 0.0) busy[seg.core][col][seg.task] += overlap;
    }
  }

  std::ostringstream os;
  os << "time " << util::to_millis(from) << "ms .. " << util::to_millis(to) << "ms, "
     << (bucket / static_cast<double>(util::kTicksPerMilli)) << "ms per column\n";
  for (std::size_t core = 0; core < num_cores; ++core) {
    os << "core " << core << " |";
    for (std::size_t col = 0; col < options.width; ++col) {
      std::size_t best_task = tasks.size();
      double best = 0.0;
      for (std::size_t t = 0; t < tasks.size(); ++t) {
        if (busy[core][col][t] > best) {
          best = busy[core][col][t];
          best_task = t;
        }
      }
      os << (best_task == tasks.size() ? '.' : task_letter(best_task));
    }
    os << "|\n";
  }
  os << "legend:";
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    os << " " << task_letter(t) << "=" << tasks[t].name;
  }
  os << "  .=idle\n";
  return os.str();
}

}  // namespace hydra::sim
