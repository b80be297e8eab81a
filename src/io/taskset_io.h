// Plain-text serialization of problem instances, so workloads can be stored
// next to the code, diffed in review, and loaded by the examples.
//
// Format (one record per line, '#' starts a comment):
//
//     cores 4          (exactly once)
//     rt   <name> <wcet_ms> <period_ms> [deadline_ms]
//     sec  <name> <wcet_ms> <tdes_ms> <tmax_ms> [weight]
//
// Times are milliseconds; deadline defaults to the period (implicit), weight
// to 1.
#pragma once

#include <string>

#include "core/instance.h"

namespace hydra::io {

/// Renders the instance in the format above (round-trips with parse).
std::string to_text(const core::Instance& instance);

/// Parses the format above.  Throws std::invalid_argument with a line number
/// on malformed input; the result is validated.
core::Instance instance_from_text(const std::string& text);

/// File wrappers.  Throw std::runtime_error when the file cannot be opened.
void save_instance(const core::Instance& instance, const std::string& path);
core::Instance load_instance(const std::string& path);

}  // namespace hydra::io
