#include "util/spec.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <set>
#include <sstream>
#include <stdexcept>

#include "util/cli.h"

namespace cachesched {

Spec Spec::parse(const std::string& text, const char* kind) {
  Spec out;
  out.text = text;
  out.kind = kind;
  const size_t colon = text.find(':');
  out.name = text.substr(0, colon);
  if (colon == std::string::npos) return out;

  const std::string params = text.substr(colon + 1);
  if (params.empty()) out.fail("no parameters after ':'");
  std::set<std::string> seen;
  std::stringstream ss(params);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) out.fail("empty parameter (stray comma)");
    const size_t eq = item.find('=');
    if (eq == std::string::npos || eq == 0) {
      out.fail("parameter \"" + item + "\" is not key=value");
    }
    const std::string key = item.substr(0, eq);
    if (!seen.insert(key).second) out.fail("duplicate key " + key);
    out.params.emplace_back(key, item.substr(eq + 1));
  }
  if (params.back() == ',') out.fail("empty parameter (stray comma)");
  return out;
}

void Spec::fail(const std::string& what) const {
  throw std::invalid_argument(std::string("bad ") + kind + " spec \"" + text +
                              "\": " + what);
}

void Spec::fail_unknown(const std::vector<std::string>& known) const {
  std::ostringstream os;
  os << "unknown " << kind << ": " << name << " (known:";
  for (const auto& n : known) os << " " << n;
  os << ")";
  const std::string near = nearest_flag(name, known);
  if (!near.empty()) os << " — did you mean " << near << "?";
  throw std::invalid_argument(os.str());
}

SpecParams::SpecParams(const Spec& spec, std::span<const SpecKey> keys)
    : spec_(spec) {
  for (const auto& [key, _] : spec.params) {
    bool ok = false;
    for (const SpecKey& k : keys) ok = ok || key == k.key;
    if (!ok) {
      std::ostringstream os;
      os << "unknown key \"" << key << "\" for " << spec.kind << " "
         << spec.name;
      if (keys.empty()) {
        os << " (it takes no parameters)";
      } else {
        os << " (accepted:";
        for (const SpecKey& k : keys) os << " " << k.key;
        os << ")";
      }
      spec.fail(os.str());
    }
  }
  for (const SpecKey& k : keys) {
    std::string v = k.def;
    for (const auto& [key, val] : spec.params) {
      if (key == k.key) v = val;
    }
    values_.emplace_back(k.key, std::move(v));
  }
}

bool SpecParams::has(const char* key) const {
  for (const auto& [k, _] : spec_.params) {
    if (k == key) return true;
  }
  return false;
}

const std::string& SpecParams::value(const char* key) const {
  for (const auto& [k, v] : values_) {
    if (k == key) return v;
  }
  throw std::logic_error(std::string("spec key ") + key + " has no row");
}

uint64_t SpecParams::get_u64(const char* key, uint64_t lo, uint64_t hi,
                             bool size) const {
  const std::string& val = value(key);
  const std::string kv = std::string(key) + "=" + val;
  if (val.empty()) spec_.fail(std::string(key) + " has no value");
  if (val[0] == '-' || val[0] == '+') {
    // strtoull would silently wrap negatives to huge values.
    spec_.fail(kv + " is not a valid unsigned integer");
  }
  const std::string invalid =
      kv + " is not a valid " +
      (size ? "size (integer, optional K/M/G suffix)" : "integer");
  // strtoull also skips leading blanks (and then accepts a sign).
  if (val[0] < '0' || val[0] > '9') spec_.fail(invalid);
  errno = 0;
  char* end = nullptr;
  uint64_t v = std::strtoull(val.c_str(), &end, 10);
  if (errno == ERANGE) spec_.fail(kv + " overflows");
  if (size && *end) {
    uint64_t mult = 0;
    if (*end == 'K' || *end == 'k') mult = 1ull << 10;
    if (*end == 'M' || *end == 'm') mult = 1ull << 20;
    if (*end == 'G' || *end == 'g') mult = 1ull << 30;
    if (mult) {
      if (v > UINT64_MAX / mult) spec_.fail(kv + " overflows");
      v *= mult;
      ++end;
    }
  }
  if (*end != '\0') spec_.fail(invalid);
  if (v < lo || v > hi) {
    spec_.fail(kv + " out of range [" + std::to_string(lo) + ", " +
               std::to_string(hi) + "]");
  }
  return v;
}

double SpecParams::get_frac(const char* key, double lo, double hi) const {
  const std::string& val = value(key);
  if (val.empty()) spec_.fail(std::string(key) + " has no value");
  char* end = nullptr;
  const double v = std::strtod(val.c_str(), &end);
  if (*end != '\0' || end == val.c_str() || !std::isfinite(v)) {
    spec_.fail(std::string(key) + "=" + val + " is not a valid number");
  }
  if (v < lo || v > hi) {
    std::ostringstream os;
    os << key << "=" << val << " out of range [" << lo << ", " << hi << "]";
    spec_.fail(os.str());
  }
  return v;
}

size_t SpecParams::get_choice(
    const char* key, std::initializer_list<const char*> choices) const {
  const std::string& val = value(key);
  size_t i = 0;
  for (const char* c : choices) {
    if (val == c) return i;
    ++i;
  }
  std::ostringstream os;
  os << key << "=" << val << " (known:";
  for (const char* c : choices) os << " " << c;
  os << ")";
  spec_.fail(os.str());
}

}  // namespace cachesched
