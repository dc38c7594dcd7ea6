#include "harness/workload_registry.h"

#include <algorithm>
#include <optional>
#include <sstream>

#include "gen/generator.h"
#include "util/spec.h"

namespace cachesched {
namespace {

/// The generator spec `text` names, or nullopt for a seed app.
std::optional<GenSpec> parse_workload(const std::string& text) {
  const Spec spec = Spec::parse(text, "workload");
  const std::vector<std::string> apps = known_apps();
  if (std::find(apps.begin(), apps.end(), spec.name) != apps.end()) {
    SpecParams(spec, {});  // seed apps take no params
    return std::nullopt;
  }
  if (GenSpec::is_family(spec.name)) return GenSpec::parse(text);
  spec.fail_unknown(known_workloads());
}

}  // namespace

Workload make_workload(const std::string& spec, const CmpConfig& cfg,
                       const AppOptions& opt) {
  const std::optional<GenSpec> gen = parse_workload(spec);
  return gen ? build_generated(*gen, cfg.line_bytes)
             : make_app(spec, cfg, opt);
}

void check_workload(const std::string& spec) { (void)parse_workload(spec); }

std::vector<std::string> known_workloads() {
  std::vector<std::string> out = known_apps();
  for (const std::string& fam : GenSpec::family_names()) out.push_back(fam);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::string> split_workload_list(const std::string& list) {
  std::vector<std::string> out;
  std::stringstream ss(list);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    // "key=val" without ':' is a generator parameter split off by the
    // comma — glue it back onto the spec it belongs to.
    if (!out.empty() && item.find('=') != std::string::npos &&
        item.find(':') == std::string::npos) {
      out.back() += "," + item;
    } else {
      out.push_back(item);
    }
  }
  return out;
}

}  // namespace cachesched
