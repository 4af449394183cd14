// Conservation invariants of the packet simulator: no frame is created or
// destroyed except by explicit drops, and byte accounting balances.  Run
// across every registered mechanism: the invariants are properties of the
// switch/source plumbing, not of any one feedback policy.
#include <ostream>
#include <string>

#include <gtest/gtest.h>

#include "sim/network.h"

namespace bcn::sim {
namespace {

NetworkConfig busy_config(const std::string& mechanism, double init_rate) {
  NetworkConfig cfg;
  core::BcnParams p;
  p.num_sources = 6;
  p.capacity = 10e9;
  p.q0 = 1e6;
  p.buffer = 3e6;  // small enough to force drops under overload
  p.qsc = 2.5e6;
  p.pm = 0.1;
  cfg.params = p;
  cfg.mechanism = mechanism;
  cfg.initial_rate = init_rate;
  return cfg;
}

struct Load {
  const char* mechanism;
  double rate;  // initial per-source rate [bit/s]
};

// Without a PrintTo gtest prints the name's pointer, and ctest names each
// case by that text.
void PrintTo(const Load& load, std::ostream* os) {
  *os << load.mechanism << "_rate" << load.rate;
}

class ConservationTest : public ::testing::TestWithParam<Load> {};

TEST_P(ConservationTest, FramesBalance) {
  const auto [mechanism, rate] = GetParam();
  Network net(busy_config(mechanism, rate));
  net.run(30 * kMillisecond);
  const auto& c = net.stats().counters;

  // Every sent frame is enqueued or dropped once it arrives; frames still
  // in flight (propagation) or queued account for the difference.
  EXPECT_GE(c.frames_sent, c.frames_enqueued + c.frames_dropped);
  const std::uint64_t in_flight =
      c.frames_sent - c.frames_enqueued - c.frames_dropped;
  EXPECT_LE(in_flight, 64u);  // at most a propagation-delay's worth

  // Enqueued = delivered + still queued.
  const double queued_frames = net.queue_bits() / 12000.0;
  EXPECT_NEAR(static_cast<double>(c.frames_enqueued),
              static_cast<double>(c.frames_delivered) + queued_frames, 1.5);

  // Byte accounting matches frame accounting.
  EXPECT_DOUBLE_EQ(c.bits_delivered, 12000.0 * c.frames_delivered);

  // Per-source accounting sums to the aggregate.
  double per_source_total = 0.0;
  for (const auto& [id, bits] : net.stats().per_source_bits_sorted()) {
    per_source_total += bits;
  }
  EXPECT_DOUBLE_EQ(per_source_total, c.bits_delivered);
}

TEST_P(ConservationTest, ThroughputNeverExceedsCapacity) {
  const auto [mechanism, rate] = GetParam();
  Network net(busy_config(mechanism, rate));
  net.run(30 * kMillisecond);
  EXPECT_LE(net.stats().throughput(30 * kMillisecond),
            busy_config(mechanism, rate).params.capacity * 1.001);
}

INSTANTIATE_TEST_SUITE_P(
    MechanismsAndLoads, ConservationTest,
    ::testing::Values(Load{"bcn", 3e9}, Load{"bcn-draft", 3e9},
                      Load{"qcn", 3e9}, Load{"fera", 3e9}, Load{"rcp", 3e9},
                      Load{"bcn", 0.5e9}, Load{"qcn", 9e9},
                      Load{"rcp", 0.5e9}));

}  // namespace
}  // namespace bcn::sim
