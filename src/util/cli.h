// Minimal command-line option parser shared by benches and examples.
//
// Supports `--name value` and `--name=value` long options plus `--flag`
// booleans, each given at most once.  Unknown options are an error
// (require_known, run_cli) so typos in experiment sweeps fail loudly instead
// of silently running defaults.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace hydra::util {

class CliParser {
 public:
  /// Parses argv.  Throws std::invalid_argument on malformed input and on an
  /// option given more than once, in any mix of forms, naming the option.
  /// Positional (non `--`) arguments are an error unless `allow_positionals`
  /// is set — benches stay typo-strict, while file-consuming tools
  /// (hydra_merge shard0.jsonl shard1.jsonl ...) opt in and read them back
  /// via positionals(), in order.
  ///
  /// Options named in `value_less_flags` never consume a following token as
  /// their value (`--flag=value` still works): without this, a bare boolean
  /// flag in front of a positional would eat it — `--allow-partial s0.jsonl`
  /// must mean "flag on, one positional", not "--allow-partial=s0.jsonl".
  CliParser(int argc, const char* const* argv, bool allow_positionals = false,
            std::vector<std::string> value_less_flags = {});

  /// Throws std::invalid_argument naming the first given option that is not
  /// in `known`.  `known` lists every option the binary reads on ANY branch
  /// (an option read only with --shard, say, is still known), so the check
  /// can run before any work starts.
  void require_known(const std::vector<std::string>& known) const;

  /// True if --name was given (with or without a value).
  bool has(const std::string& name) const;

  /// Numeric getters require the whole token to parse: `--tasksets 3x` and
  /// `--poll 0.5s` throw instead of silently reading 3 and 0.5.  Numbers
  /// must be finite: `nan` and `inf` throw too.
  std::string get_string(const std::string& name, const std::string& fallback) const;
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  double get_double(const std::string& name, double fallback) const;

  /// A count or size (--tasksets, --jobs, --shards, ...): an integer that
  /// must not be negative, so `--tasksets -1` names the flag instead of
  /// wrapping to SIZE_MAX.
  std::size_t get_count(const std::string& name, std::size_t fallback) const;
  bool get_bool(const std::string& name, bool fallback) const;

  /// Comma-separated list of integers, e.g. --cores 2,4,8.  In every list
  /// getter an empty or whitespace-only entry (`2,,4`, a trailing comma, an
  /// empty value) throws, naming the flag.
  std::vector<std::int64_t> get_int_list(const std::string& name,
                                         std::vector<std::int64_t> fallback) const;

  /// Comma-separated list of numbers, e.g. --utilizations 0.4,0.8,1.6 —
  /// custom sweep axes without touching code.
  std::vector<double> get_double_list(const std::string& name,
                                      std::vector<double> fallback) const;

  /// Comma-separated list of strings with surrounding whitespace trimmed,
  /// e.g. --schemes hydra,single-core,optimal.
  std::vector<std::string> get_string_list(const std::string& name,
                                           std::vector<std::string> fallback) const;

  /// Positional arguments in command-line order (empty unless the parser was
  /// constructed with allow_positionals).
  const std::vector<std::string>& positionals() const { return positionals_; }

  /// Name of the executable (argv[0]).
  const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positionals_;
};

/// The main() of a bench or example: parses argv (no positionals), rejects
/// every option not in `known`, then runs `body`.  An exception escaping the
/// parse or the body becomes one "program: message" line on stderr and exit
/// status 1, instead of std::terminate.
int run_cli(int argc, const char* const* argv, const std::vector<std::string>& known,
            const std::function<int(const CliParser&)>& body);

}  // namespace hydra::util
