// Core-local busy history for the mode controller's sliding slack window.
//
// The controller measures a core's idle fraction over [t − window, t] at each
// decision instant t.  BusyWindow keeps the merged, chronological [from, to)
// execution intervals of one core with an advancing prune index, so a long
// horizon costs O(window) live entries instead of O(horizon).  Each interval
// carries the busy ticks before it, so a query is two binary searches however
// many intervals its window spans (a window as long as the horizon prunes
// nothing).
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
    if (!segments_.empty() && segments_.back().to == from) {
      segments_.back().to = to;
    } else {
      segments_.push_back(Segment{from, to, total()});
    }
    // Drop segments that can no longer intersect any future query window:
    // queries end at decision instants in (to - keep_, to] and reach back at
    // most keep_ ticks.
    const util::SimTime cutoff = to > 2 * keep_ ? to - 2 * keep_ : 0;
    while (head_ < segments_.size() && segments_[head_].to <= cutoff) ++head_;
    if (head_ > 1024 && head_ * 2 > segments_.size()) {
      segments_.erase(segments_.begin(),
                      segments_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
  }

  /// Busy ticks inside [from, to).
  util::SimTime busy_in(util::SimTime from, util::SimTime to) const {
    return to > from ? busy_before(to) - busy_before(from) : 0;
  }

 private:
  /// One merged segment [from, to) and the busy ticks of every segment
  /// before it, pruned ones included (queries only take differences).
  struct Segment {
    util::SimTime from;
    util::SimTime to;
    util::SimTime busy_before;
  };

  util::SimTime total() const {
    return segments_.empty() ? 0
                             : segments_.back().busy_before +
                                   (segments_.back().to - segments_.back().from);
  }

  /// The busy ticks before t, counted from the first segment ever added.
  /// Exact for every t a query may reach: no pruned segment ends after it.
  util::SimTime busy_before(util::SimTime t) const {
    // Every live segment before the first one ending after t lies wholly
    // before t.
    const auto it = std::upper_bound(
        segments_.begin() + static_cast<std::ptrdiff_t>(head_), segments_.end(), t,
        [](util::SimTime value, const Segment& seg) { return value < seg.to; });
    if (it == segments_.end()) return total();
    return it->busy_before + (it->from < t ? t - it->from : 0);
  }

  util::SimTime keep_;
  std::size_t head_ = 0;
  std::vector<Segment> segments_;
};

}  // namespace hydra::sim
