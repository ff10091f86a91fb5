#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <set>
#include <string>

#include "dfs/dfs.h"
#include "dfs/placement.h"
#include "util/hash.h"

namespace corral {
namespace {

class DfsTest : public ::testing::Test {
 protected:
  DfsTest()
      : topology_(ClusterConfig::paper_testbed()), dfs_(&topology_, {}) {}

  ClusterTopology topology_;
  Dfs dfs_;
  Rng rng_{17};
};

TEST_F(DfsTest, WriteFileSplitsIntoChunks) {
  DefaultPlacement policy;
  const FileLayout& layout =
      dfs_.write_file("f", 10 * kGB, 40, policy, rng_);
  ASSERT_EQ(layout.chunks.size(), 40u);
  for (const auto& chunk : layout.chunks) {
    EXPECT_DOUBLE_EQ(chunk.bytes, 0.25 * kGB);
    EXPECT_EQ(chunk.machines.size(), 3u);
  }
  EXPECT_TRUE(dfs_.has_file("f"));
  EXPECT_THROW(dfs_.file("missing"), std::invalid_argument);
}

TEST_F(DfsTest, DefaultPlacementFollowsHdfsRackRule) {
  DefaultPlacement policy;
  const FileLayout& layout =
      dfs_.write_file("f", 100 * kGB, 400, policy, rng_);
  for (const auto& chunk : layout.chunks) {
    const int r0 = topology_.rack_of(chunk.machines[0]);
    const int r1 = topology_.rack_of(chunk.machines[1]);
    const int r2 = topology_.rack_of(chunk.machines[2]);
    // Two replicas in one rack on distinct machines, the third elsewhere.
    EXPECT_EQ(r0, r1);
    EXPECT_NE(chunk.machines[0], chunk.machines[1]);
    EXPECT_NE(r2, r0);
  }
}

TEST_F(DfsTest, DefaultPlacementSpreadsAcrossRacks) {
  DefaultPlacement policy;
  const FileLayout& layout =
      dfs_.write_file("f", 100 * kGB, 1000, policy, rng_);
  std::set<int> primary_racks;
  for (const auto& chunk : layout.chunks) {
    primary_racks.insert(topology_.rack_of(chunk.machines[0]));
  }
  EXPECT_EQ(primary_racks.size(), 7u);  // every rack gets primaries
}

TEST_F(DfsTest, CorralPlacementPinsPrimaryInsideTargetRacks) {
  CorralPlacement policy({2, 5});
  const FileLayout& layout =
      dfs_.write_file("f", 50 * kGB, 200, policy, rng_);
  std::set<int> primary_racks;
  for (const auto& chunk : layout.chunks) {
    const int rack = topology_.rack_of(chunk.machines[0]);
    primary_racks.insert(rack);
    EXPECT_TRUE(rack == 2 || rack == 5);
    // Fault tolerance: replicas span at least two racks.
    std::set<int> racks;
    for (int m : chunk.machines) racks.insert(topology_.rack_of(m));
    EXPECT_GE(racks.size(), 2u);
  }
  EXPECT_EQ(primary_racks.size(), 2u);  // both target racks used
}

TEST_F(DfsTest, CorralPlacementFallsBackWhenTargetsDead) {
  for (int m = 90; m < 120; ++m) topology_.fail_machine(m);  // rack 3
  CorralPlacement policy({3});
  const FileLayout& layout = dfs_.write_file("f", 1 * kGB, 10, policy, rng_);
  for (const auto& chunk : layout.chunks) {
    for (int m : chunk.machines) EXPECT_TRUE(topology_.is_up(m));
  }
}

TEST_F(DfsTest, CorralPlacementRejectsBadRack) {
  CorralPlacement policy({99});
  EXPECT_THROW(dfs_.write_file("f", 1 * kGB, 1, policy, rng_),
               std::invalid_argument);
  EXPECT_THROW(CorralPlacement{std::vector<int>{}}, std::invalid_argument);
}

TEST_F(DfsTest, LoadAccountingAndRemove) {
  DefaultPlacement policy;
  dfs_.write_file("f", 30 * kGB, 30, policy, rng_);
  double machine_total = 0;
  for (int m = 0; m < topology_.machines(); ++m) {
    machine_total += dfs_.machine_bytes(m);
  }
  EXPECT_NEAR(machine_total, 90 * kGB, 1);  // 3 replicas of 30 GB
  double rack_total = 0;
  for (int r = 0; r < topology_.racks(); ++r) rack_total += dfs_.rack_bytes(r);
  EXPECT_NEAR(rack_total, 90 * kGB, 1);

  // Dropping every machine's replicas removes every byte; the file stays,
  // with no replica left.
  for (int m = 0; m < topology_.machines(); ++m) dfs_.drop_replicas_on(m);
  for (int m = 0; m < topology_.machines(); ++m) {
    EXPECT_DOUBLE_EQ(dfs_.machine_bytes(m), 0.0);
  }
  EXPECT_TRUE(dfs_.file("f").chunks[0].machines.empty());
  EXPECT_THROW(dfs_.drop_replicas_on(-1), std::invalid_argument);
}

// One healthy machine among 210: the rejection draws for the first replica
// usually all miss, and the placement then draws over the healthy machines
// instead of giving up.
TEST_F(DfsTest, DefaultPlacementFindsTheOnlyHealthyMachine) {
  for (int m = 0; m < topology_.machines(); ++m) {
    if (m != 123) topology_.fail_machine(m);
  }
  Dfs dfs(&topology_, DfsConfig{1});
  DefaultPlacement policy;
  for (int seed = 0; seed < 100; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed));
    const FileLayout& layout = dfs.write_file("f" + std::to_string(seed),
                                              1 * kGB, 1, policy, rng);
    EXPECT_EQ(layout.chunks[0].machines, std::vector<int>{123})
        << "seed " << seed;
  }
  topology_.fail_machine(123);
  Rng rng(0);
  EXPECT_THROW(dfs.write_file("none", 1 * kGB, 1, policy, rng),
               std::invalid_argument);
}

TEST_F(DfsTest, DuplicateFileNameRejected) {
  DefaultPlacement policy;
  dfs_.write_file("f", 1 * kGB, 4, policy, rng_);
  EXPECT_THROW(dfs_.write_file("f", 1 * kGB, 4, policy, rng_),
               std::invalid_argument);
}

TEST_F(DfsTest, CorralBalancesBetterThanRandom) {
  // The §6.2 data-balance claim in miniature: planner-guided placement with
  // least-loaded spare racks yields lower CoV than random HDFS placement.
  Dfs random_dfs(&topology_, {});
  Dfs corral_dfs(&topology_, {});
  Rng rng_a(42), rng_b(42);
  DefaultPlacement random_policy;
  for (int f = 0; f < 70; ++f) {
    random_dfs.write_file("r" + std::to_string(f), 10 * kGB, 40,
                          random_policy, rng_a);
    CorralPlacement corral_policy({f % 7});
    corral_dfs.write_file("c" + std::to_string(f), 10 * kGB, 40,
                          corral_policy, rng_b);
  }
  EXPECT_LT(corral_dfs.rack_balance_cov(), random_dfs.rack_balance_cov());
}

TEST_F(DfsTest, ClosestReplicaPrefersMachineThenRack) {
  DefaultPlacement policy;
  const FileLayout& layout = dfs_.write_file("f", 1 * kGB, 1, policy, rng_);
  const auto& machines = layout.chunks[0].machines;
  // Exact machine.
  EXPECT_EQ(layout.closest_replica(0, machines[0], topology_), machines[0]);
  // Same rack as replica 0/1 but a different machine: rack-local replica.
  const int rack = topology_.rack_of(machines[0]);
  int other = -1;
  const int first = topology_.first_machine_of_rack(rack);
  for (int m = first; m < first + 30; ++m) {
    if (m != machines[0] && m != machines[1]) {
      other = m;
      break;
    }
  }
  ASSERT_GE(other, 0);
  const int chosen = layout.closest_replica(0, other, topology_);
  EXPECT_EQ(topology_.rack_of(chosen), rack);
}

TEST_F(DfsTest, ClosestReplicaSkipsMachinesThatAreDown) {
  DefaultPlacement policy;
  const FileLayout& layout = dfs_.write_file("f", 1 * kGB, 1, policy, rng_);
  const std::vector<int> replicas = layout.chunks[0].machines;
  const int rack = topology_.rack_of(replicas[0]);
  ASSERT_EQ(topology_.rack_of(replicas[1]), rack);
  ASSERT_NE(topology_.rack_of(replicas[2]), rack);
  int reader = topology_.first_machine_of_rack(rack);
  while (reader == replicas[0] || reader == replicas[1]) ++reader;
  topology_.fail_machine(replicas[0]);
  EXPECT_EQ(layout.closest_replica(0, replicas[0], topology_), replicas[1]);
  EXPECT_EQ(layout.closest_replica(0, reader, topology_), replicas[1]);
  topology_.fail_machine(replicas[1]);
  EXPECT_EQ(layout.closest_replica(0, reader, topology_), replicas[2]);
  topology_.fail_machine(replicas[2]);
  EXPECT_EQ(layout.closest_replica(0, reader, topology_), -1);
}

TEST_F(DfsTest, ChunkQueriesWork) {
  DefaultPlacement policy;
  const FileLayout& layout = dfs_.write_file("f", 1 * kGB, 2, policy, rng_);
  const int m = layout.chunks[0].machines[0];
  EXPECT_TRUE(layout.chunk_on_machine(0, m));
}

// ---------------------------------------------------------------- pins

using PolicyFor = std::function<std::unique_ptr<BlockPlacementPolicy>(int)>;

// FNV-1a digest of every replica list that `policy_for(f)` places for files
// f = 0..11 (40 chunks each, written in order into one Dfs so Corral's
// least-loaded choices see the load grow), followed by one further draw of
// the shared Rng: a change in the number of draws changes the digest even
// when the replica lists happen to agree.
std::string placement_digest(const ClusterTopology& topology, int replicas,
                             const PolicyFor& policy_for) {
  Dfs dfs(&topology, DfsConfig{replicas});
  Rng rng(7);
  std::uint64_t state = kFnvOffsetBasis;
  for (int f = 0; f < 12; ++f) {
    const std::unique_ptr<BlockPlacementPolicy> policy = policy_for(f);
    const FileLayout& layout = dfs.write_file("f" + std::to_string(f),
                                              10 * kGB, 40, *policy, rng);
    for (const ChunkLocation& chunk : layout.chunks) {
      for (int m : chunk.machines) {
        state = fnv1a(std::to_string(m) + ",", state);
      }
      state = fnv1a(";", state);
    }
  }
  return hex16(fnv1a(std::to_string(rng.engine()()), state));
}

PolicyFor default_policy() {
  return [](int) { return std::make_unique<DefaultPlacement>(); };
}

PolicyFor corral_policy(std::function<std::vector<int>(int)> racks_for) {
  return [racks_for](int f) {
    return std::make_unique<CorralPlacement>(racks_for(f));
  };
}

ClusterTopology small_cluster(int racks, int machines_per_rack) {
  ClusterConfig config;
  config.racks = racks;
  config.machines_per_rack = machines_per_rack;
  return ClusterTopology(config);
}

TEST(PlacementDigest, HealthyClusters) {
  const ClusterTopology testbed(ClusterConfig::paper_testbed());
  EXPECT_EQ(placement_digest(testbed, 3, default_policy()), "48ec83d219db727e");
  EXPECT_EQ(placement_digest(testbed, 3, corral_policy([](int f) {
              return std::vector<int>{f % 7, (f + 3) % 7};
            })),
            "9a5adc7dda717b8c");
  const ClusterTopology tiny = small_cluster(2, 2);
  EXPECT_EQ(placement_digest(tiny, 3, default_policy()), "b4c12e6133c57ed3");
  EXPECT_EQ(placement_digest(tiny, 3, corral_policy([](int f) {
              return std::vector<int>{f % 2};
            })),
            "861af7e3b15692fd");
  // One rack: DefaultPlacement's off-rack replica falls back into the rack.
  EXPECT_EQ(placement_digest(small_cluster(1, 5), 3, default_policy()),
            "aae26330be2b98f7");
}

TEST(PlacementDigest, PartlyDeadRacks) {
  ClusterTopology testbed(ClusterConfig::paper_testbed());
  // Rack 2 keeps every other machine; rack 5 keeps only machine 171, so a
  // Corral spare pick on rack 5 runs out after one replica and the next
  // comes from the primary rack, and a fourth replica's excluded machine
  // then lies outside the rack it is drawn from.
  for (int m = 60; m < 90; m += 2) testbed.fail_machine(m);
  for (int m = 150; m < 180; ++m) {
    if (m != 171) testbed.fail_machine(m);
  }
  EXPECT_EQ(placement_digest(testbed, 3, default_policy()), "c279560bbe5320a5");
  const PolicyFor corral = corral_policy([](int f) {
    return f % 2 == 0 ? std::vector<int>{2, 5} : std::vector<int>{5};
  });
  EXPECT_EQ(placement_digest(testbed, 3, corral), "401bb5a17cbc0764");
  EXPECT_EQ(placement_digest(testbed, 4, corral), "08cbfd5dc61355ec");
}

TEST(PlacementDigest, FullyDeadRacks) {
  ClusterTopology testbed(ClusterConfig::paper_testbed());
  for (int m = 90; m < 120; ++m) testbed.fail_machine(m);  // rack 3
  EXPECT_EQ(placement_digest(testbed, 3, default_policy()), "216dfe9da7bc252c");
  EXPECT_EQ(placement_digest(testbed, 3, corral_policy([](int f) {
              return std::vector<int>{3, f % 7};
            })),
            "08511ee2a8e7d5cf");
  // All of R_j dead: every chunk takes the default-placement fallback.
  EXPECT_EQ(placement_digest(testbed, 3, corral_policy([](int) {
              return std::vector<int>{3};
            })),
            "216dfe9da7bc252c");
  // No rack besides the primary's is up: Corral's spare replicas fall back
  // into the primary rack.
  ClusterTopology tiny = small_cluster(2, 2);
  tiny.fail_machine(2);
  tiny.fail_machine(3);
  EXPECT_EQ(placement_digest(tiny, 3, corral_policy([](int) {
              return std::vector<int>{0};
            })),
            "bc062f51ddacf71d");
}

}  // namespace
}  // namespace corral
