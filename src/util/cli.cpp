#include "util/cli.h"

#include <algorithm>
#include <cmath>
#include <exception>
#include <iostream>
#include <stdexcept>
#include <utility>

#include "util/contracts.h"

namespace hydra::util {

CliParser::CliParser(int argc, const char* const* argv, bool allow_positionals,
                     std::vector<std::string> value_less_flags) {
  HYDRA_REQUIRE(argc >= 1 && argv != nullptr, "argv must contain at least the program name");
  program_ = argv[0];
  const auto is_value_less = [&value_less_flags](const std::string& name) {
    return std::find(value_less_flags.begin(), value_less_flags.end(), name) !=
           value_less_flags.end();
  };
  // A repeated option is an error, not a silent override: `--tasksets 1
  // --tasksets 3` used to run 3 tasksets.
  const auto set = [this](const std::string& name, std::string value) {
    if (!values_.emplace(name, std::move(value)).second) {
      throw std::invalid_argument("option --" + name + " given more than once");
    }
  };
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0 || arg.size() <= 2) {
      if (allow_positionals) {
        positionals_.push_back(std::move(arg));
        continue;
      }
      throw std::invalid_argument("unexpected positional argument: " + arg);
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      set(arg.substr(0, eq), arg.substr(eq + 1));
      continue;
    }
    // `--name value` form: consume the next token as value unless it is
    // itself an option, absent, or `name` never takes one — then it is a
    // boolean flag (and the token, if any, a positional in its own right).
    if (!is_value_less(arg) && i + 1 < argc &&
        std::string(argv[i + 1]).rfind("--", 0) != 0) {
      set(arg, argv[++i]);
    } else {
      set(arg, "true");
    }
  }
}

void CliParser::require_known(const std::vector<std::string>& known) const {
  for (const auto& [name, value] : values_) {
    if (std::find(known.begin(), known.end(), name) != known.end()) continue;
    std::string listing;
    for (const auto& option : known) listing += (listing.empty() ? "--" : ", --") + option;
    throw std::invalid_argument("unknown option --" + name + " (known: " +
                                (listing.empty() ? "none" : listing) + ")");
  }
}

bool CliParser::has(const std::string& name) const { return values_.count(name) > 0; }

std::string CliParser::get_string(const std::string& name, const std::string& fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

namespace {

// std::stoll/std::stod alone accept trailing garbage ("3x" parses as 3,
// "0.4x0.8" as 0.4); both parsers require the whole token to be consumed so
// typos fail loudly.
std::int64_t parse_int(const std::string& name, const std::string& token,
                       const char* expects) {
  try {
    std::size_t used = 0;
    const std::int64_t value = std::stoll(token, &used);
    if (used == token.size()) return value;
  } catch (const std::exception&) {
  }
  throw std::invalid_argument("option --" + name + " expects " + expects + ", got '" + token +
                              "'");
}

// std::stod also reads "nan" and "inf", which no option means: a NaN
// utilization ran a sweep point with zero samples.
double parse_double(const std::string& name, const std::string& token, const char* expects) {
  try {
    std::size_t used = 0;
    const double value = std::stod(token, &used);
    if (used == token.size() && std::isfinite(value)) return value;
  } catch (const std::exception&) {
  }
  throw std::invalid_argument("option --" + name + " expects " + expects + ", got '" + token +
                              "'");
}

// The comma-separated tokens of a list option.  An empty or whitespace-only
// token ("2,,4", a trailing comma, an empty value) is an error naming the
// flag, not a shorter list.
std::vector<std::string> split_list(const std::string& name, const std::string& value) {
  std::vector<std::string> tokens;
  std::size_t pos = 0;
  while (true) {
    const auto comma = value.find(',', pos);
    std::string token =
        comma == std::string::npos ? value.substr(pos) : value.substr(pos, comma - pos);
    if (token.find_first_not_of(" \t") == std::string::npos) {
      throw std::invalid_argument("option --" + name + " has an empty entry in '" + value +
                                  "'");
    }
    tokens.push_back(std::move(token));
    if (comma == std::string::npos) return tokens;
    pos = comma + 1;
  }
}

}  // namespace

std::int64_t CliParser::get_int(const std::string& name, std::int64_t fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : parse_int(name, it->second, "an integer");
}

std::size_t CliParser::get_count(const std::string& name, std::size_t fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::int64_t value = parse_int(name, it->second, "a non-negative integer");
  if (value < 0) {
    throw std::invalid_argument("option --" + name + " expects a non-negative integer, got '" +
                                it->second + "'");
  }
  return static_cast<std::size_t>(value);
}

double CliParser::get_double(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : parse_double(name, it->second, "a finite number");
}

bool CliParser::get_bool(const std::string& name, bool fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  throw std::invalid_argument("option --" + name + " expects a boolean, got '" + v + "'");
}

std::vector<std::int64_t> CliParser::get_int_list(const std::string& name,
                                                  std::vector<std::int64_t> fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  std::vector<std::int64_t> out;
  for (const auto& token : split_list(name, it->second)) {
    out.push_back(parse_int(name, token, "integers"));
  }
  return out;
}

std::vector<double> CliParser::get_double_list(const std::string& name,
                                               std::vector<double> fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  std::vector<double> out;
  for (const auto& token : split_list(name, it->second)) {
    out.push_back(parse_double(name, token, "finite numbers"));
  }
  return out;
}

std::vector<std::string> CliParser::get_string_list(const std::string& name,
                                                    std::vector<std::string> fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  std::vector<std::string> out;
  for (const auto& token : split_list(name, it->second)) {
    const auto begin = token.find_first_not_of(" \t");
    const auto end = token.find_last_not_of(" \t");
    out.push_back(token.substr(begin, end - begin + 1));
  }
  return out;
}

int run_cli(int argc, const char* const* argv, const std::vector<std::string>& known,
            const std::function<int(const CliParser&)>& body) {
  std::string program = argc >= 1 && argv != nullptr ? argv[0] : "hydra";
  program = program.substr(program.find_last_of('/') + 1);
  try {
    const CliParser cli(argc, argv);
    cli.require_known(known);
    return body(cli);
  } catch (const std::exception& error) {
    std::cerr << program << ": " << error.what() << "\n";
    return 1;
  }
}

}  // namespace hydra::util
