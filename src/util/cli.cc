#include "util/cli.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <sstream>

namespace cachesched {
namespace {

std::vector<std::string> split_commas(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

/// Converts `value` (comma-separated items if `list`) with `conv`. False,
/// with `out` cleared, if any item fails or there is none.
template <typename V, typename Conv>
bool convert_all(const std::string& value, bool list, Conv conv,
                 std::vector<V>* out) {
  out->clear();
  const std::vector<std::string> items =
      list ? split_commas(value) : std::vector<std::string>{value};
  for (const std::string& item : items) {
    V v{};
    if (!conv(item, &v)) {
      out->clear();
      return false;
    }
    out->push_back(v);
  }
  return !out->empty();
}

/// std::from_chars over the whole string: no sign for unsigned types, no
/// leading space, no base prefix, no trailing characters.
template <typename V>
bool from_whole(const std::string& s, V* v) {
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, *v);
  return ec == std::errc() && ptr == end;
}

}  // namespace

CliArgs::CliArgs(int argc, char** argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    arg = arg.substr(2);
    auto eq = arg.find('=');
    if (eq != std::string::npos) {
      kv_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      kv_[arg] = argv[++i];
    } else {
      kv_[arg] = "true";  // bare flag
    }
  }
}

bool CliArgs::has(const std::string& key) const {
  used_[key] = true;
  return kv_.count(key) > 0;
}

std::string CliArgs::get(const std::string& key, const std::string& def) const {
  used_[key] = true;
  auto it = kv_.find(key);
  return it == kv_.end() ? def : it->second;
}

bool CliArgs::parse_uints(const std::string& key, uint64_t max, bool list,
                          std::vector<uint64_t>* out) const {
  if (!has(key)) return false;
  const std::string& value = kv_.at(key);
  const auto conv = [max](const std::string& s, uint64_t* v) {
    return from_whole(s, v) && *v <= max;
  };
  if (convert_all(value, list, conv, out)) return true;
  const std::string what =
      list ? "comma-separated whole numbers" : "a whole number";
  bad_.try_emplace(key, value, what + " from 0 to " + std::to_string(max));
  return false;
}

bool CliArgs::parse_doubles(const std::string& key, bool list,
                            std::vector<double>* out) const {
  if (!has(key)) return false;
  const std::string& value = kv_.at(key);
  const auto conv = [](const std::string& s, double* v) {
    return from_whole(s, v) && std::isfinite(*v) && !std::signbit(*v);
  };
  if (convert_all(value, list, conv, out)) return true;
  const std::string what =
      list ? "comma-separated non-negative numbers" : "a non-negative number";
  bad_.try_emplace(key, value, what);
  return false;
}

bool CliArgs::get_bool(const std::string& key, bool def) const {
  if (!has(key)) return def;
  const std::string& s = kv_.at(key);
  if (s == "1" || s == "true" || s == "yes" || s == "on") return true;
  if (s == "0" || s == "false" || s == "no" || s == "off") return false;
  bad_.try_emplace(key, s, "1/0, true/false, yes/no or on/off");
  return def;
}

std::string CliArgs::get_output(const std::string& key,
                                const std::string& def) const {
  const std::string path = get(key, def);
  const std::filesystem::path dir = std::filesystem::path(path).parent_path();
  if (!dir.empty() && !std::filesystem::is_directory(dir)) {
    bad_.try_emplace(key, path, "a file in an existing directory");
  }
  return path;
}

std::vector<std::string> CliArgs::get_list(const std::string& key,
                                           const std::string& def) const {
  return split_commas(get(key, def));
}

std::vector<std::string> CliArgs::unused() const {
  std::vector<std::string> out;
  for (const auto& [k, v] : kv_) {
    (void)v;
    if (!used_.count(k)) out.push_back(k);
  }
  return out;
}

std::vector<std::string> CliArgs::queried() const {
  std::vector<std::string> out;
  out.reserve(used_.size());
  for (const auto& [k, v] : used_) {
    (void)v;
    out.push_back(k);
  }
  return out;
}

namespace {

size_t levenshtein(const std::string& a, const std::string& b) {
  // One-row DP; distances stay tiny (flag names), so no cutoffs needed.
  std::vector<size_t> row(b.size() + 1);
  for (size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (size_t i = 1; i <= a.size(); ++i) {
    size_t diag = row[0];  // D[i-1][j-1]
    row[0] = i;
    for (size_t j = 1; j <= b.size(); ++j) {
      const size_t up = row[j];  // D[i-1][j]
      const size_t cost = a[i - 1] == b[j - 1] ? 0 : 1;
      row[j] = std::min({up + 1, row[j - 1] + 1, diag + cost});
      diag = up;
    }
  }
  return row[b.size()];
}

}  // namespace

std::string nearest_flag(const std::string& unknown,
                         const std::vector<std::string>& candidates) {
  const size_t max_dist = unknown.size() >= 6 ? 3 : 2;
  std::string best;
  size_t best_dist = max_dist + 1;
  for (const std::string& c : candidates) {
    if (c == unknown) continue;
    const size_t d = levenshtein(unknown, c);
    // Strict < keeps ties at the first (alphabetical) candidate, so the
    // suggestion is deterministic.
    if (d < best_dist && d < unknown.size()) {
      best_dist = d;
      best = c;
    }
  }
  return best;
}

int CliArgs::check_unused() const {
  const char* prog = program_.empty() ? "cachesched" : program_.c_str();
  for (const std::string& arg : positional_) {
    std::fprintf(stderr, "%s: unexpected positional argument: %s\n", prog,
                 arg.c_str());
  }
  for (const auto& [key, bad] : bad_) {
    std::fprintf(stderr, "%s: bad value for --%s: \"%s\" (expected %s)\n",
                 prog, key.c_str(), bad.first.c_str(), bad.second.c_str());
  }
  const std::vector<std::string> unknown = unused();
  const std::vector<std::string> known = queried();
  for (const auto& k : unknown) {
    const std::string suggestion = nearest_flag(k, known);
    if (suggestion.empty()) {
      std::fprintf(stderr, "%s: unknown argument --%s\n", prog, k.c_str());
    } else {
      std::fprintf(stderr, "%s: unknown argument --%s (did you mean --%s?)\n",
                   prog, k.c_str(), suggestion.c_str());
    }
  }
  return positional_.empty() && bad_.empty() && unknown.empty() ? 0 : 2;
}

}  // namespace cachesched
