#include <gtest/gtest.h>

#include "simarch/memchannel.h"

namespace cachesched {
namespace {

TEST(MemChannel, UncontendedLatency) {
  MemChannel m(300, 30);
  EXPECT_EQ(m.request(1000), 1300u);
  EXPECT_EQ(m.queue_delay_cycles(), 0u);
}

TEST(MemChannel, BackToBackRequestsQueue) {
  MemChannel m(300, 30);
  EXPECT_EQ(m.request(0), 300u);    // service slot [0, 30)
  EXPECT_EQ(m.request(0), 330u);    // waits for slot [30, 60)
  EXPECT_EQ(m.request(0), 360u);
  EXPECT_EQ(m.queue_delay_cycles(), 30u + 60u);
}

TEST(MemChannel, IdleGapsResetQueueing) {
  MemChannel m(300, 30);
  m.request(0);
  EXPECT_EQ(m.request(1000), 1300u);  // channel long free again
  EXPECT_EQ(m.queue_delay_cycles(), 0u);
}

TEST(MemChannel, WritebacksOccupyBandwidthOnly) {
  MemChannel m(300, 30);
  m.post_writeback(0);                // occupies [0, 30)
  EXPECT_EQ(m.request(0), 330u);      // demand waits behind the writeback
  EXPECT_EQ(m.writebacks(), 1u);
}

TEST(MemChannel, BusyCyclesAccumulate) {
  MemChannel m(300, 30);
  m.request(0);
  m.post_writeback(0);
  m.request(0);
  EXPECT_EQ(m.busy_cycles(), 90u);
}

TEST(MemChannel, SaturationThroughputIsServiceRate) {
  MemChannel m(300, 30);
  uint64_t last = 0;
  for (int i = 0; i < 100; ++i) last = m.request(0);
  // 100 requests serialized at one per 30 cycles, plus latency.
  EXPECT_EQ(last, 99u * 30u + 300u);
}

}  // namespace
}  // namespace cachesched
