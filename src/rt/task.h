// Task models (paper §II).
//
// Real-time tasks are sporadic with implicit deadlines: τr = (Cr, Tr, Dr),
// Dr = Tr unless stated otherwise.  Security tasks follow the sporadic
// security-task model of [10]: τs = (Cs, Tdes_s, Tmax_s) — any period in
// [Tdes, Tmax] is acceptable, and quality is the tightness ηs = Tdes/Ts.
//
// All times are util::Millis (double milliseconds).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "util/contracts.h"
#include "util/units.h"

namespace hydra::rt {

/// A sporadic hard real-time task.
struct RtTask {
  std::string name;
  util::Millis wcet = 0.0;      ///< Cr: worst-case execution time
  util::Millis period = 0.0;    ///< Tr: minimum inter-arrival separation
  util::Millis deadline = 0.0;  ///< Dr: relative deadline (implicit ⇒ == period)

  double utilization() const { return wcet / period; }
};

/// Constructs an implicit-deadline RT task (Dr = Tr).
inline RtTask make_rt_task(std::string name, util::Millis wcet, util::Millis period) {
  return RtTask{std::move(name), wcet, period, period};
}

/// An RT task's timing without its name: everything the RM analysis and the
/// Eq. (5) sums read.  The analysis takes these records, so a core's task
/// list is a run of 24-byte values instead of copies of named tasks.
struct RtTiming {
  util::Millis wcet = 0.0;
  util::Millis period = 0.0;
  util::Millis deadline = 0.0;

  double utilization() const { return wcet / period; }
};

inline RtTiming timing_of(const RtTask& task) {
  return RtTiming{task.wcet, task.period, task.deadline};
}

/// The timings of `tasks`, in order.
std::vector<RtTiming> timings_of(const std::vector<RtTask>& tasks);

/// A read-only run of consecutive timings, such as one core's share of a
/// list grouped by core (std::span is C++20).  It does not own the records:
/// they must outlive it.
class TimingSpan {
 public:
  TimingSpan() = default;
  TimingSpan(const RtTiming* first, std::size_t size) : first_(first), size_(size) {}
  // Implicit, so a std::vector<RtTiming> passes where a span is expected.
  TimingSpan(const std::vector<RtTiming>& tasks)
      : first_(tasks.data()), size_(tasks.size()) {}

  const RtTiming* begin() const { return first_; }
  const RtTiming* end() const { return first_ + size_; }
  const RtTiming* data() const { return first_; }
  std::size_t size() const { return size_; }

 private:
  const RtTiming* first_ = nullptr;
  std::size_t size_ = 0;
};

/// A sporadic security monitoring task (paper §II-C).
struct SecurityTask {
  std::string name;
  util::Millis wcet = 0.0;        ///< Cs
  util::Millis period_des = 0.0;  ///< Tdes_s: desired (minimum) period
  util::Millis period_max = 0.0;  ///< Tmax_s: largest period still effective
  double weight = 1.0;            ///< ωs: importance weight in the objective

  /// Utilization if the task ran at its desired period (its maximum demand).
  double max_utilization() const { return wcet / period_des; }
  /// Utilization at the loosest acceptable period (its minimum demand).
  double min_utilization() const { return wcet / period_max; }
  /// Lower bound of the tightness range: Tdes/Tmax ≤ η ≤ 1.
  double min_tightness() const { return period_des / period_max; }
};

inline SecurityTask make_security_task(std::string name, util::Millis wcet,
                                       util::Millis period_des, util::Millis period_max,
                                       double weight = 1.0) {
  return SecurityTask{std::move(name), wcet, period_des, period_max, weight};
}

/// Throws std::invalid_argument unless the task is well-formed
/// (0 < C <= D <= T, all finite).
void validate(const RtTask& task);

/// Throws std::invalid_argument unless 0 < Cs <= Tdes <= Tmax and weight > 0.
void validate(const SecurityTask& task);

/// Validates every task in a set.
void validate(const std::vector<RtTask>& tasks);
void validate(const std::vector<SecurityTask>& tasks);

/// Sum of Cr/Tr.
double total_utilization(const std::vector<RtTask>& tasks);

/// Sum of Cs/Tdes (the demand if every monitor ran at its desired rate).
double total_max_utilization(const std::vector<SecurityTask>& tasks);

}  // namespace hydra::rt
