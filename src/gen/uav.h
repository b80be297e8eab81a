// The UAV control-system case study (paper §IV-A, after Atdelzater, Atkins &
// Shin [18]): Guidance, Slow/Fast navigation, Controller, Missile control and
// Reconnaissance tasks.
//
// SUBSTITUTION NOTE (docs/architecture.md, "Substitutions and modelling
// choices", S6): the paper references [18, Tab. 1] without
// reprinting the parameters.  The values here are representative of that
// flight-control workload: rate-monotonic-friendly harmonic-ish periods from
// 50 ms (inner control loop) to 1000 ms (reconnaissance), total utilization
// ≈ 0.6 — a realistic mid-load avionics profile.  Fig. 1's HYDRA-vs-
// SingleCore comparison depends on the RT load only through the slack it
// leaves, which this set preserves.
#pragma once

#include <vector>

#include "core/instance.h"
#include "rt/task.h"

namespace hydra::gen {

/// The six UAV real-time control tasks.
std::vector<rt::RtTask> uav_taskset();

/// Full Fig.-1 case-study instance: UAV RT tasks + the Table-I security
/// catalog on an M-core platform.
core::Instance uav_case_study(std::size_t num_cores);

}  // namespace hydra::gen
