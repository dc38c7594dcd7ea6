// Bandwidth-limited main-memory channel (Table 1: latency 300 cycles,
// service rate 30 cycles). A new request may begin service every
// `service_cycles`; a demand miss sees its data `latency_cycles` after its
// service slot starts. Queueing delay therefore emerges when cores miss
// faster than one per service interval — this is exactly what makes Hash
// Join bandwidth-bound at 16-32 cores in the paper (§5.1).
#pragma once

#include <algorithm>
#include <cstdint>

namespace cachesched {

class MemChannel {
 public:
  MemChannel(int latency_cycles, int service_cycles)
      : latency_(latency_cycles), service_(service_cycles) {}

  /// Demand miss issued at `now`; returns the cycle the data is available.
  uint64_t request(uint64_t now) {
    const uint64_t start = std::max(now, next_free_);
    next_free_ = start + service_;
    busy_cycles_ += service_;
    queue_delay_cycles_ += start - now;
    return start + latency_;
  }

  /// Dirty-eviction writeback issued at `now`; consumes a service slot but
  /// nobody waits on it.
  void post_writeback(uint64_t now) {
    const uint64_t start = std::max(now, next_free_);
    next_free_ = start + service_;
    busy_cycles_ += service_;
    ++writebacks_;
  }

  uint64_t writebacks() const { return writebacks_; }
  uint64_t busy_cycles() const { return busy_cycles_; }
  uint64_t queue_delay_cycles() const { return queue_delay_cycles_; }

 private:
  int latency_;
  int service_;
  uint64_t next_free_ = 0;
  uint64_t busy_cycles_ = 0;
  uint64_t queue_delay_cycles_ = 0;
  uint64_t writebacks_ = 0;
};

}  // namespace cachesched
