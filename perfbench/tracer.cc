#include "tracer.h"

#include <cstdio>
#include <fstream>
#include <unordered_map>

#include "util/json.h"

namespace perfbench {

std::map<std::string, Tracer::LayerTotals> Tracer::layer_totals() const {
  std::unordered_map<uint64_t, const Event*> by_id;
  std::unordered_map<uint64_t, double> child_us;
  for (const Event& e : events_) {
    if (e.instant) continue;
    by_id.emplace(e.id, &e);
    child_us[e.parent] += e.dur_us;
  }
  std::map<std::string, LayerTotals> out;
  for (const Event& e : events_) {
    if (e.instant) continue;
    LayerTotals& t = out[e.layer];
    ++t.spans;
    t.self_s += (e.dur_us - child_us[e.id]) * 1e-6;
    const auto p = by_id.find(e.parent);
    if (p == by_id.end() || p->second->layer != e.layer) {
      t.busy_s += e.dur_us * 1e-6;
    }
  }
  return out;
}

bool Tracer::write_chrome_json(
    const std::string& path,
    const std::vector<std::pair<std::string, std::string>>& meta) const {
  using cachesched::json_escape;
  std::ofstream f(path);
  if (!f) return false;
  f << "{\"displayTimeUnit\": \"ms\",\n\"otherData\": {";
  for (size_t i = 0; i < meta.size(); ++i) {
    f << (i ? ", " : "") << '"' << json_escape(meta[i].first) << "\": \""
      << json_escape(meta[i].second) << '"';
  }
  f << "},\n\"traceEvents\": [\n";
  char num[64];
  for (size_t i = 0; i < events_.size(); ++i) {
    const Event& e = events_[i];
    f << "{\"name\": \"" << json_escape(e.name) << "\", \"cat\": \""
      << json_escape(e.layer) << "\", \"pid\": 1, \"tid\": " << e.tid;
    std::snprintf(num, sizeof(num), "%.3f", e.start_us);
    f << ", \"ts\": " << num;
    if (e.instant) {
      f << ", \"ph\": \"i\", \"s\": \"t\"";
    } else {
      std::snprintf(num, sizeof(num), "%.3f", e.dur_us);
      f << ", \"ph\": \"X\", \"dur\": " << num;
    }
    f << ", \"args\": {\"span_id\": " << e.id << ", \"parent\": " << e.parent
      << ", \"run_id\": \"" << json_escape(run_id_) << "\"}}"
      << (i + 1 < events_.size() ? ",\n" : "\n");
  }
  f << "]}\n";
  return static_cast<bool>(f);
}

}  // namespace perfbench
