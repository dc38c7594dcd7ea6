// Spec strings: the one grammar that addresses schedulers and workloads.
//
//   name
//   name:key=val,key=val,...
//   e.g. "ws:victims=rand,steal=half,seed=7", "dnc:depth=8,ws=64K"
//
// Spec::parse splits the name from its parameters; the scheduler table
// (sched/registry.cc) and the workload resolver
// (harness/workload_registry.cc) look the name up, and the family reads
// its parameters through SpecParams. Parsing is strict: an unknown name
// or key, a malformed or out-of-range value, a duplicate key and an empty
// parameter are all rejected with a descriptive std::invalid_argument,
// never silently defaulted (a typo in a sweep spec must fail loudly, not
// quietly run the default).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace cachesched {

/// A parsed spec: the name plus its key=value parameters in spec order
/// (duplicates already rejected).
struct Spec {
  std::string text;       // the spec as given
  const char* kind = "";  // "scheduler" or "workload", for messages
  std::string name;
  std::vector<std::pair<std::string, std::string>> params;

  /// Splits "name" or "name:k=v,..." and rejects nothing after ':', an
  /// empty parameter (a stray comma), parameters without a key or '=',
  /// and duplicate keys. The name is not checked here: the table
  /// that looks it up rejects an unknown one.
  static Spec parse(const std::string& text, const char* kind);

  /// Throws std::invalid_argument("bad <kind> spec \"<text>\": what").
  [[noreturn]] void fail(const std::string& what) const;

  /// Throws std::invalid_argument for a name not among `known`, listing
  /// them plus the nearest one as a suggestion for typos.
  [[noreturn]] void fail_unknown(const std::vector<std::string>& known) const;
};

/// One accepted key of a spec family: its name, its default value (in
/// spec syntax) and a one-phrase description. `cachesched_cli list`
/// prints a scheduler family's rows.
struct SpecKey {
  const char* key;
  const char* def;
  const char* doc = "";
};

/// Typed, range-checked access to a spec's parameters. Construction
/// rejects any key that no row names; each getter reads the key's value
/// from the spec or, when absent, its row's default, and checks both the
/// same way. Asking for a key no row names is a programming error
/// (std::logic_error).
class SpecParams {
 public:
  SpecParams(const Spec& spec, std::span<const SpecKey> keys);

  /// True if the spec itself sets `key`.
  bool has(const char* key) const;

  /// Unsigned integer in [lo, hi]. With `size`, a K/M/G suffix
  /// multiplies by 2^10/2^20/2^30.
  uint64_t get_u64(const char* key, uint64_t lo, uint64_t hi,
                   bool size = false) const;

  /// Finite number in [lo, hi].
  double get_frac(const char* key, double lo, double hi) const;

  /// Index of the value among `choices`.
  size_t get_choice(const char* key,
                    std::initializer_list<const char*> choices) const;

 private:
  const std::string& value(const char* key) const;

  Spec spec_;  // for messages
  std::vector<std::pair<std::string, std::string>> values_;  // key, value
};

}  // namespace cachesched
