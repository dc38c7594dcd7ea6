// Spans around the calls the benchmark driver makes into each library
// layer. Every span is timed, traced or not, so the untraced run can
// report its end-to-end numbers from the same code path; only a traced
// run keeps the spans in memory, and it writes them at exit as Chrome
// trace-event JSON (opens in Perfetto and chrome://tracing).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

class Tracer {
 public:
  /// A finished span, or an instant event when `instant` is set.
  struct Event {
    std::string layer;
    std::string name;
    double start_us = 0;
    double dur_us = 0;
    uint64_t id = 0;
    uint64_t parent = 0;  // 0 = top level
    int tid = 0;
    bool instant = false;
  };

  /// Per-layer totals. `busy_s` counts the outermost span of each nested
  /// run of same-layer spans once; `self_s` excludes time covered by the
  /// span's direct children.
  struct LayerTotals {
    double busy_s = 0;
    double self_s = 0;
    uint64_t spans = 0;
  };

  Tracer(bool enabled, std::string run_id)
      : enabled_(enabled), run_id_(std::move(run_id)), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  /// RAII span; close() ends it early and returns its duration.
  class Span {
   public:
    Span(Tracer& t, std::string layer, std::string name)
        : t_(t), start_(Clock::now()) {
      if (t_.enabled_) id_ = t_.open(std::move(layer), std::move(name));
    }
    ~Span() { close(); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    /// Ends the span (idempotent) and returns its duration in seconds.
    double close() {
      if (!closed_) {
        closed_ = true;
        end_ = Clock::now();
        if (t_.enabled_) t_.finish(id_, start_, end_);
      }
      return seconds_between(start_, end_);
    }
    Clock::time_point start() const { return start_; }

   private:
    Tracer& t_;
    Clock::time_point start_;
    Clock::time_point end_{};
    uint64_t id_ = 0;
    bool closed_ = false;
  };

  /// Records an instant event under the innermost open span; safe to call
  /// from worker threads (sweep callbacks).
  void instant(const std::string& layer, const std::string& name) {
    if (!enabled_) return;
    const double ts = us_since_origin(Clock::now());
    std::lock_guard<std::mutex> lock(mu_);
    Event e;
    e.layer = layer;
    e.name = name;
    e.start_us = ts;
    e.id = ++next_id_;
    e.parent = stack_.empty() ? 0 : stack_.back();
    e.tid = thread_index_locked();
    e.instant = true;
    events_.push_back(std::move(e));
  }

  // The two readers below run after every span has closed and every
  // worker thread has joined, so they take no lock.

  std::map<std::string, LayerTotals> layer_totals() const;

  /// Writes every event as Chrome trace-event JSON; `meta` pairs become
  /// the file's otherData. Returns false if the file cannot be written.
  bool write_chrome_json(
      const std::string& path,
      const std::vector<std::pair<std::string, std::string>>& meta) const;

  const std::string& run_id() const { return run_id_; }

 private:
  uint64_t open(std::string layer, std::string name) {
    std::lock_guard<std::mutex> lock(mu_);
    Event e;
    e.layer = std::move(layer);
    e.name = std::move(name);
    e.id = ++next_id_;
    e.parent = stack_.empty() ? 0 : stack_.back();
    e.tid = thread_index_locked();
    const uint64_t id = e.id;
    stack_.push_back(id);
    open_.emplace(id, std::move(e));
    return id;
  }

  void finish(uint64_t id, Clock::time_point start, Clock::time_point end) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = open_.find(id);
    if (it == open_.end()) return;
    Event e = std::move(it->second);
    open_.erase(it);
    e.start_us = us_since_origin(start);
    e.dur_us = std::chrono::duration<double, std::micro>(end - start).count();
    if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
    events_.push_back(std::move(e));
  }

  double us_since_origin(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }

  int thread_index_locked() {
    const auto [it, inserted] = threads_.emplace(
        std::this_thread::get_id(), static_cast<int>(threads_.size()) + 1);
    return it->second;
  }

  const bool enabled_;
  const std::string run_id_;
  const Clock::time_point origin_;
  std::mutex mu_;  // guards everything below
  uint64_t next_id_ = 0;
  std::vector<uint64_t> stack_;  // open span ids, innermost last
  std::map<uint64_t, Event> open_;
  std::vector<Event> events_;
  std::map<std::thread::id, int> threads_;
};

}  // namespace perfbench
