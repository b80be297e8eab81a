#include "io/taskset_io.h"

#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "util/contracts.h"

namespace hydra::io {

namespace {

[[noreturn]] void parse_error(std::size_t line_no, const std::string& why) {
  throw std::invalid_argument("taskset parse error at line " + std::to_string(line_no) + ": " +
                              why);
}

/// Parses one whitespace-separated field, which must be consumed whole:
/// "2.5" is not an integer and "10x" is not a number.
template <typename T>
bool parse_field(const std::string& token, T& out) {
  std::istringstream is(token);
  return static_cast<bool>(is >> out) && is.peek() == std::istringstream::traits_type::eof();
}

/// Emits a double without trailing-zero noise (round-trips exactly).
std::string num(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

}  // namespace

std::string to_text(const core::Instance& instance) {
  std::ostringstream os;
  os << "# hydra taskset (times in ms)\n";
  os << "cores " << instance.num_cores << "\n";
  for (const auto& t : instance.rt_tasks) {
    os << "rt " << t.name << " " << num(t.wcet) << " " << num(t.period);
    if (t.deadline != t.period) os << " " << num(t.deadline);
    os << "\n";
  }
  for (const auto& s : instance.security_tasks) {
    os << "sec " << s.name << " " << num(s.wcet) << " " << num(s.period_des) << " "
       << num(s.period_max);
    if (s.weight != 1.0) os << " " << num(s.weight);
    os << "\n";
  }
  return os.str();
}

core::Instance instance_from_text(const std::string& text) {
  core::Instance instance;
  bool saw_cores = false;

  std::istringstream lines(text);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(lines, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    std::istringstream fields(line);
    std::vector<std::string> tokens;
    for (std::string token; fields >> token;) tokens.push_back(std::move(token));
    if (tokens.empty()) continue;  // blank/comment line
    const std::string& kind = tokens[0];

    // The numeric fields after the kind and the name.  Every record must use
    // up its whole line: a field is a number only if the whole token is, and
    // no token may follow the last field.
    const auto numbers = [&](std::size_t required, std::size_t optional, const char* usage) {
      if (tokens.size() < 2 + required || tokens.size() > 2 + required + optional) {
        parse_error(line_no, usage);
      }
      std::vector<double> values;
      for (std::size_t k = 2; k < tokens.size(); ++k) {
        double v = 0.0;
        if (!parse_field(tokens[k], v)) {
          parse_error(line_no, std::string(usage) + ", got '" + tokens[k] + "'");
        }
        values.push_back(v);
      }
      return values;
    };

    if (kind == "cores") {
      if (saw_cores) parse_error(line_no, "second 'cores' record");
      long long m = 0;
      if (tokens.size() != 2 || !parse_field(tokens[1], m) || m < 1) {
        parse_error(line_no, "cores expects a positive integer");
      }
      instance.num_cores = static_cast<std::size_t>(m);
      saw_cores = true;
    } else if (kind == "rt") {
      const char* usage = "rt expects: name wcet period [deadline]";
      const auto v = numbers(2, 1, usage);
      const double deadline = v.size() == 3 ? v[2] : v[1];  // implicit by default
      instance.rt_tasks.push_back(rt::RtTask{tokens[1], v[0], v[1], deadline});
    } else if (kind == "sec") {
      const char* usage = "sec expects: name wcet tdes tmax [weight]";
      const auto v = numbers(3, 1, usage);
      const double weight = v.size() == 4 ? v[3] : 1.0;
      instance.security_tasks.push_back(rt::SecurityTask{tokens[1], v[0], v[1], v[2], weight});
    } else {
      parse_error(line_no, "unknown record '" + kind + "'");
    }
  }

  if (!saw_cores) throw std::invalid_argument("taskset parse error: missing 'cores' record");
  try {
    instance.validate();
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(std::string("taskset semantic error: ") + e.what());
  }
  return instance;
}

void save_instance(const core::Instance& instance, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open for writing: " + path);
  out << to_text(instance);
}

core::Instance load_instance(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open for reading: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return instance_from_text(buffer.str());
}

}  // namespace hydra::io
