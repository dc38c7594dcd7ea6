// Minimal command-line parsing for the CLI, tools and examples.
// Supports --key=value, --key value, and boolean --flag forms. Unknown
// keys, malformed values and positional arguments are reported so that
// experiment scripts fail loudly instead of silently running the wrong
// sweep.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace cachesched {

/// Process exit codes for the CLI tools — one vocabulary instead of the
/// ad-hoc 1/2 mix that grew over time. check_unused() returns
/// kExitUsage-compatible 2 for unknown flags and malformed values.
enum ExitCode : int {
  kExitOk = 0,
  /// Runtime failure: simulation error, I/O error, bad input data.
  kExitRuntime = 1,
  /// Usage error: unknown flag/subcommand, malformed spec string.
  kExitUsage = 2,
  /// The sweep finished but some jobs were quarantined — output exists
  /// but is incomplete; rerunning the sweep on its store fills it.
  kExitQuarantined = 3,
};

/// Typed getters never throw. A value that does not parse as the type
/// asked for yields the default and is recorded; check_unused() reports
/// it (with its value) and returns 2, so every binary rejects it before
/// doing work. No flag takes a negative number.
class CliArgs {
 public:
  /// A positional argument is recorded, not thrown: check_unused()
  /// reports it like a bad value.
  CliArgs(int argc, char** argv);

  bool has(const std::string& key) const;
  std::string get(const std::string& key, const std::string& def) const;

  /// A whole, non-negative number that fits T (4x, 4.5, -1 and 2^32 for
  /// an int are bad values).
  template <typename T>
  T get_int(const std::string& key, T def) const {
    static_assert(std::is_integral_v<T>);
    std::vector<uint64_t> v;
    const bool ok = parse_uints(key, std::numeric_limits<T>::max(), false, &v);
    return ok ? static_cast<T>(v[0]) : def;
  }

  /// A finite, non-negative number.
  double get_double(const std::string& key, double def) const {
    std::vector<double> v;
    return parse_doubles(key, false, &v) ? v[0] : def;
  }

  /// One of 1/0, true/false, yes/no, on/off; a bare --flag is true.
  bool get_bool(const std::string& key, bool def) const;

  /// Comma-separated integer list, e.g. --cores=1,2,4,8; every item
  /// follows get_int's rule.
  template <typename T = int64_t>
  std::vector<T> get_int_list(const std::string& key,
                              std::vector<T> def) const {
    std::vector<uint64_t> v;
    const bool ok = parse_uints(key, std::numeric_limits<T>::max(), true, &v);
    return ok ? std::vector<T>(v.begin(), v.end()) : def;
  }

  /// Comma-separated double list, e.g. --scales=0.125,0.25; every item
  /// follows get_double's rule.
  std::vector<double> get_double_list(const std::string& key,
                                      std::vector<double> def) const {
    std::vector<double> v;
    return parse_doubles(key, true, &v) ? v : def;
  }

  /// A file to write: a path whose directory does not exist is a bad
  /// value, so a run never ends in "cannot write". "" (no file) passes.
  std::string get_output(const std::string& key, const std::string& def) const;

  /// Comma-separated string list, e.g. --apps=lu,mergesort.
  std::vector<std::string> get_list(const std::string& key,
                                    const std::string& def) const;

  /// Keys that were provided but never queried.
  std::vector<std::string> unused() const;

  /// Every key the program has queried so far (via has/get*), whether or
  /// not it was provided — the program's flag vocabulary, used to
  /// suggest the nearest valid flag for a typo.
  std::vector<std::string> queried() const;

  /// Returns 0 if every provided key was queried and parsed and there is
  /// no positional argument. Otherwise reports each on stderr (an unknown
  /// flag with a "did you mean --X?" hint when one is close) and returns
  /// 2. Call it once every flag is queried, before any work.
  int check_unused() const;

 private:
  /// The value of `key` as whole numbers in [0, max]: exactly one, or a
  /// comma-separated list of one or more if `list`. False if `key` is
  /// absent, or if its value is bad (then recorded for check_unused).
  bool parse_uints(const std::string& key, uint64_t max, bool list,
                   std::vector<uint64_t>* out) const;
  /// The same for finite, non-negative numbers.
  bool parse_doubles(const std::string& key, bool list,
                     std::vector<double>* out) const;

  std::string program_;
  std::map<std::string, std::string> kv_;
  std::vector<std::string> positional_;
  mutable std::map<std::string, bool> used_;
  /// Flag -> (value given, what was expected); first bad parse wins.
  mutable std::map<std::string, std::pair<std::string, std::string>> bad_;
};

/// The candidate closest to `unknown` by Levenshtein distance, or "" if
/// none is close enough to be a plausible typo (distance must be <= 2,
/// or <= 3 for names of 6+ characters, and strictly less than the
/// unknown name's length). Exposed for check_unused and tests.
std::string nearest_flag(const std::string& unknown,
                         const std::vector<std::string>& candidates);

}  // namespace cachesched
