// Core-local busy history for the mode controller's sliding slack window.
//
// The controller measures a core's idle fraction over [t − window, t] at each
// decision instant t.  BusyWindow keeps the merged, chronological [from, to)
// execution intervals of one core with an advancing prune index, so a long
// horizon costs O(window) live entries instead of O(horizon).
//
// Pruning contract: a query reaches back at most `keep` ticks from an
// instant that trails the latest add() by less than `keep`.  Under that
// contract a pruned segment can never intersect a future query
// (property-tested against a naive oracle in test_busy_window).  The
// engines' decision instants never trail the latest add at all, so they
// pass keep = the slack window.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "util/units.h"

namespace hydra::sim {

class BusyWindow {
 public:
  explicit BusyWindow(util::SimTime keep) : keep_(keep) {}

  /// Records execution over [from, to).  Calls must be chronological
  /// (from >= the previous add's to); adjacent segments merge in place.
  void add(util::SimTime from, util::SimTime to) {
    if (to <= from) return;
    if (!segments_.empty() && segments_.back().second == from) {
      segments_.back().second = to;
    } else {
      segments_.emplace_back(from, to);
    }
    // Drop segments that can no longer intersect any future query window:
    // queries end at decision instants in (to - keep_, to] and reach back at
    // most keep_ ticks.
    const util::SimTime cutoff = to > 2 * keep_ ? to - 2 * keep_ : 0;
    while (head_ < segments_.size() && segments_[head_].second <= cutoff) ++head_;
    if (head_ > 1024 && head_ * 2 > segments_.size()) {
      segments_.erase(segments_.begin(),
                      segments_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
  }

  /// Busy ticks inside [from, to).
  util::SimTime busy_in(util::SimTime from, util::SimTime to) const {
    util::SimTime busy = 0;
    for (std::size_t i = segments_.size(); i > head_; --i) {
      const auto& seg = segments_[i - 1];
      if (seg.second <= from) break;  // chronological: everything earlier too
      const util::SimTime lo = std::max(seg.first, from);
      const util::SimTime hi = std::min(seg.second, to);
      if (hi > lo) busy += hi - lo;
    }
    return busy;
  }

 private:
  util::SimTime keep_;
  std::size_t head_ = 0;
  std::vector<std::pair<util::SimTime, util::SimTime>> segments_;
};

}  // namespace hydra::sim
