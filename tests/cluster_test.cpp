#include <gtest/gtest.h>

#include <vector>

#include "cluster/topology.h"
#include "util/rng.h"

namespace corral {
namespace {

TEST(ClusterConfig, PaperTestbedMatchesSection61) {
  const ClusterConfig config = ClusterConfig::paper_testbed();
  EXPECT_EQ(config.total_machines(), 210);
  EXPECT_EQ(config.racks, 7);
  EXPECT_EQ(config.machines_per_rack, 30);
  // "each rack has a 60Gbps connection to the core" (5:1 oversubscription
  // of 30 x 10 Gbps).
  EXPECT_NEAR(config.rack_uplink_bandwidth(), 60 * kGbps, 1e-6);
}

TEST(ClusterConfig, PaperSimulationMatchesSection66) {
  const ClusterConfig config = ClusterConfig::paper_simulation();
  EXPECT_EQ(config.total_machines(), 2000);
  EXPECT_EQ(config.racks, 50);
  EXPECT_EQ(config.slots_per_machine, 20);
  EXPECT_NEAR(config.nic_bandwidth, 1 * kGbps, 1e-9);
}

TEST(ClusterConfig, BackgroundTrafficReducesUplink) {
  ClusterConfig config = ClusterConfig::paper_testbed();
  config.background_core_fraction = 0.5;
  EXPECT_NEAR(config.effective_rack_uplink(), 30 * kGbps, 1e-6);
}

TEST(ClusterTopology, RackOfMapsMachinesToRacks) {
  ClusterTopology topology(ClusterConfig::paper_testbed());
  EXPECT_EQ(topology.rack_of(0), 0);
  EXPECT_EQ(topology.rack_of(29), 0);
  EXPECT_EQ(topology.rack_of(30), 1);
  EXPECT_EQ(topology.rack_of(209), 6);
  EXPECT_THROW(topology.rack_of(210), std::invalid_argument);
  EXPECT_THROW(topology.rack_of(-1), std::invalid_argument);
}

TEST(ClusterTopology, MachinesInRackAreContiguous) {
  ClusterTopology topology(ClusterConfig::paper_testbed());
  EXPECT_EQ(topology.first_machine_of_rack(2), 60);
  for (int m = 60; m < 90; ++m) EXPECT_EQ(topology.rack_of(m), 2);
  EXPECT_EQ(topology.rack_of(59), 1);
  EXPECT_EQ(topology.rack_of(90), 3);
}

TEST(ClusterTopology, FailureTracking) {
  ClusterTopology topology(ClusterConfig::paper_testbed());
  EXPECT_TRUE(topology.is_up(5));
  EXPECT_EQ(topology.healthy_in_rack(0), 30);

  topology.fail_machine(5);
  EXPECT_FALSE(topology.is_up(5));
  EXPECT_EQ(topology.healthy_in_rack(0), 29);

  // Idempotent failure.
  topology.fail_machine(5);
  EXPECT_EQ(topology.healthy_in_rack(0), 29);

  topology.restore_machine(5);
  EXPECT_TRUE(topology.is_up(5));
  EXPECT_EQ(topology.healthy_in_rack(0), 30);
}

TEST(ClusterTopology, RackUsableThreshold) {
  ClusterTopology topology(ClusterConfig::paper_testbed());
  for (int m = 0; m < 15; ++m) topology.fail_machine(m);
  EXPECT_TRUE(topology.rack_usable(0, 0.5));   // exactly at the threshold
  topology.fail_machine(15);
  EXPECT_FALSE(topology.rack_usable(0, 0.5));  // below it
  EXPECT_TRUE(topology.rack_usable(1, 0.5));
}

TEST(ClusterTopology, RejectsInvalidConfig) {
  ClusterConfig config = ClusterConfig::paper_testbed();
  config.racks = 0;
  EXPECT_THROW(ClusterTopology{config}, std::invalid_argument);
  config = ClusterConfig::paper_testbed();
  config.oversubscription = 0.5;
  EXPECT_THROW(ClusterTopology{config}, std::invalid_argument);
  config = ClusterConfig::paper_testbed();
  config.background_core_fraction = 1.0;
  EXPECT_THROW(ClusterTopology{config}, std::invalid_argument);
}

// The vector-building draws the topology helpers replaced: collect the
// eligible ids in increasing order, then index them with one draw.
int reference_in_rack(const ClusterTopology& topology, int rack, int exclude,
                      Rng& rng) {
  std::vector<int> eligible;
  const int first = rack < 0 ? 0 : topology.first_machine_of_rack(rack);
  const int size =
      rack < 0 ? topology.machines() : topology.config().machines_per_rack;
  for (int m = first; m < first + size; ++m) {
    if (m != exclude && topology.is_up(m)) eligible.push_back(m);
  }
  if (eligible.empty()) return -1;
  return eligible[rng.index(eligible.size())];
}

int reference_outside(const ClusterTopology& topology, int rack, Rng& rng) {
  std::vector<int> candidates;
  for (int r = 0; r < topology.racks(); ++r) {
    if (r != rack && topology.healthy_in_rack(r) > 0) candidates.push_back(r);
  }
  if (candidates.empty()) return -1;
  const int target = candidates[rng.index(candidates.size())];
  return reference_in_rack(topology, target, /*exclude=*/-1, rng);
}

// Over seeded random health masks, from fully healthy to almost all down,
// each helper returns the reference's machine and leaves the Rng in the
// reference's state, for every rack (and the whole cluster) and for an
// excluded machine that is up, down, in another rack or absent.
TEST(ClusterTopology, HealthyMachineDrawsMatchVectorReference) {
  ClusterConfig config;
  config.racks = 5;
  config.machines_per_rack = 6;
  Rng masks(3);
  for (int trial = 0; trial < 400; ++trial) {
    ClusterTopology topology(config);
    const double down = trial % 4 == 0 ? 0.0 : 0.3 * (trial % 4);
    for (int m = 0; m < topology.machines(); ++m) {
      if (masks.chance(down)) topology.fail_machine(m);
    }
    if (trial % 5 == 1) {
      for (int m = 6; m < 12; ++m) topology.fail_machine(m);  // rack 1 dead
    }
    for (int rack = -1; rack < topology.racks(); ++rack) {
      const int first = rack < 0 ? 0 : topology.first_machine_of_rack(rack);
      for (int exclude :
           {-1, first, first + 2, first + 5, (first + 8) % 30}) {
        Rng rng(static_cast<std::uint64_t>(trial * 100 + rack * 10 + 1));
        Rng ref = rng;
        for (int draw = 0; draw < 4; ++draw) {
          ASSERT_EQ(topology.random_healthy_machine(rack, exclude, rng),
                    reference_in_rack(topology, rack, exclude, ref))
              << "trial " << trial << " rack " << rack << " exclude "
              << exclude;
        }
        ASSERT_EQ(rng.engine()(), ref.engine()());
      }
      Rng rng(static_cast<std::uint64_t>(trial * 100 + rack * 10 + 2));
      Rng ref = rng;
      for (int draw = 0; draw < 4; ++draw) {
        ASSERT_EQ(topology.random_healthy_machine_outside(rack, rng),
                  reference_outside(topology, rack, ref))
            << "trial " << trial << " rack " << rack;
      }
      ASSERT_EQ(rng.engine()(), ref.engine()());
    }
  }
}

TEST(ClusterTopology, HealthyMachineDrawsOnDeadClusters) {
  ClusterConfig config;
  config.racks = 2;
  config.machines_per_rack = 2;
  ClusterTopology topology(config);
  Rng rng(1);
  EXPECT_EQ(topology.random_healthy_machine(0, 0, rng), 1);
  EXPECT_EQ(topology.random_healthy_machine_outside(0, rng) / 2, 1);
  for (int m = 0; m < 4; ++m) topology.fail_machine(m);
  EXPECT_EQ(topology.random_healthy_machine(-1, -1, rng), -1);
  EXPECT_EQ(topology.random_healthy_machine_outside(-1, rng), -1);
  topology.restore_machine(3);
  EXPECT_EQ(topology.random_healthy_machine(-1, -1, rng), 3);
  EXPECT_EQ(topology.random_healthy_machine_outside(0, rng), 3);
  EXPECT_EQ(topology.random_healthy_machine_outside(1, rng), -1);
  EXPECT_THROW(topology.random_healthy_machine(2, -1, rng),
               std::invalid_argument);
}

}  // namespace
}  // namespace corral
