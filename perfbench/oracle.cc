#include "oracle.h"

#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

uint64_t digest_of(const cachesched::SimResult& r) {
  Digest d;
  d.add(r.scheduler).add(r.config).add(static_cast<uint64_t>(r.cores));
  d.add(r.cycles).add(r.instructions).add(r.tasks_executed);
  d.add(r.l1_hits).add(r.l2_hits).add(r.l2_misses).add(r.writebacks);
  d.add(r.invalidations).add(r.mem_stall_cycles).add(r.mem_queue_cycles);
  d.add(r.mem_busy_cycles).add(r.steals);
  d.add(r.core_busy_cycles.size());
  for (uint64_t v : r.core_busy_cycles) d.add(v);
  d.add(r.task_l2_misses.size());
  for (uint32_t v : r.task_l2_misses) d.add(v);
  d.add(r.task_refs.size());
  for (uint32_t v : r.task_refs) d.add(v);
  return d.value();
}

std::string hex64(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

bool Oracle::load_expectations(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot read " + path);
  const std::string seed = std::to_string(seed_);
  std::string line;
  int lineno = 0;
  while (std::getline(f, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream is(line);
    std::string w, s, op, hex;
    if (!std::getline(is, w, '\t') || !std::getline(is, s, '\t') ||
        !std::getline(is, op, '\t') || !std::getline(is, hex) ||
        hex.size() != 16) {
      throw std::runtime_error(path + ":" + std::to_string(lineno) +
                               ": expected workload, seed, op, digest");
    }
    if (w != workload_ || s != seed) continue;
    expected_[op] = std::stoull(hex, nullptr, 16);
  }
  checked_ = !expected_.empty();
  return checked_;
}

void Oracle::fail(const std::string& name, const std::string& why) {
  failures_.push_back(name + ": " + why);
}

void Oracle::op(const std::string& name, uint64_t digest,
                const std::string& problem) {
  ++attempted_;
  ops_.emplace_back(name, digest);
  combined_.add(name).add(digest);
  seen_[name] = true;
  if (!problem.empty()) {
    fail(name, problem);
    return;
  }
  if (!checked_) return;
  const auto it = expected_.find(name);
  if (it == expected_.end()) {
    fail(name, "no recorded digest for this op");
  } else if (it->second != digest) {
    fail(name, "digest " + hex64(digest) + " != recorded " + hex64(it->second));
  }
}

void Oracle::sim(const std::string& name, uint64_t num_tasks,
                 uint64_t total_refs, const cachesched::SimResult& r) {
  std::string problem;
  if (r.tasks_executed != num_tasks) {
    problem = "tasks_executed " + std::to_string(r.tasks_executed) +
              " != num_tasks " + std::to_string(num_tasks);
  } else if (r.total_refs() != total_refs) {
    problem = "l1_hits + l2_hits + l2_misses = " +
              std::to_string(r.total_refs()) + " != dag refs " +
              std::to_string(total_refs);
  }
  op(name, digest_of(r), problem);
}

void Oracle::check(const std::string& name, const std::string& problem) {
  ++attempted_;
  if (!problem.empty()) fail(name, problem);
}

void Oracle::threw(const std::string& name, const std::string& what) {
  ++attempted_;
  seen_[name] = true;
  fail(name, "threw: " + what);
}

void Oracle::finish() {
  if (!checked_) return;
  for (const auto& [name, digest] : expected_) {
    if (seen_.count(name)) continue;
    ++attempted_;
    fail(name, "recorded op was not performed");
  }
}

void Oracle::print_digests(std::FILE* out) const {
  for (const auto& [name, digest] : ops_) {
    std::fprintf(out, "%s\t%llu\t%s\t%s\n", workload_.c_str(),
                 static_cast<unsigned long long>(seed_), name.c_str(),
                 hex64(digest).c_str());
  }
}

}  // namespace perfbench
