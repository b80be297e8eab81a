// Human-readable schedule inspection: ASCII Gantt charts of recorded
// execution segments.  Requires a trace captured with
// SimOptions::record_segments = true.
#pragma once

#include <string>
#include <vector>

#include "sim/task.h"

namespace hydra::sim {

struct GanttOptions {
  util::SimTime from = 0;   ///< window start
  util::SimTime to = 0;     ///< window end (0 = trace horizon)
  std::size_t width = 100;  ///< characters per core row
};

/// Renders one row per core over [from, to): each column is a time bucket
/// showing the letter of the task that ran longest within it ('.' = idle,
/// lowercase a.. for the first 26 tasks, '?' beyond).  A legend line maps
/// letters to task names.
std::string render_gantt(const Trace& trace, const std::vector<SimTask>& tasks,
                         const GanttOptions& options = {});

}  // namespace hydra::sim
