// LocalityIndex (sim/locality_index.h): the simulator's CSR locality index.
//
// Differential-tests it against the hash map of per-key task vectors it
// replaced, whose pop is kept here as the reference. Replica lists are
// seeded random draws that may name one machine twice; pops by machine and
// by rack interleave with maps being taken and requeued.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <unordered_map>
#include <vector>

#include "sim/locality_index.h"

namespace corral {
namespace {

using ReferenceIndex = std::unordered_map<int, std::vector<int>>;

// The reference pop: the last untaken task under `key`, dropping taken
// entries on the way; -1 when the key has none.
int reference_pop(ReferenceIndex& index, int key,
                  const std::vector<bool>& taken) {
  const auto it = index.find(key);
  if (it == index.end()) return -1;
  auto& tasks = it->second;
  while (!tasks.empty()) {
    const int task = tasks.back();
    tasks.pop_back();
    if (!taken[static_cast<std::size_t>(task)]) return task;
  }
  return -1;
}

void run_random_pops(int racks, int per_rack, int tasks, std::uint32_t seed) {
  std::mt19937 rng(seed);
  const auto draw = [&](int n) {  // uniform in [0, n)
    return static_cast<int>(rng() % static_cast<unsigned>(n));
  };
  const int machines = racks * per_rack;
  const auto rack_of = [&](int m) { return m / per_rack; };
  std::vector<std::vector<int>> replicas(static_cast<std::size_t>(tasks));
  for (auto& list : replicas) {
    // 0-4 replicas drawn with repetition: duplicates are kept.
    const int count = draw(5);
    for (int i = 0; i < count; ++i) {
      list.push_back(draw(machines));
    }
  }
  const auto replicas_of = [&](int t) -> const std::vector<int>& {
    return replicas[static_cast<std::size_t>(t)];
  };

  LocalityIndex by_machine;
  LocalityIndex by_rack;
  by_machine.build(machines, tasks, replicas_of, [](int m) { return m; });
  by_rack.build(racks, tasks, replicas_of, rack_of);
  ReferenceIndex ref_machine;
  ReferenceIndex ref_rack;
  for (int t = 0; t < tasks; ++t) {
    for (int m : replicas_of(t)) {
      ref_machine[m].push_back(t);
      ref_rack[rack_of(m)].push_back(t);
    }
  }

  std::vector<bool> taken(static_cast<std::size_t>(tasks), false);
  for (int op = 0; op < 20 * tasks; ++op) {
    switch (draw(4)) {
      case 0: {  // node-local pop
        const int m = draw(machines);
        const int task = by_machine.pop(m, taken);
        ASSERT_EQ(task, reference_pop(ref_machine, m, taken))
            << "seed " << seed << " op " << op << " machine " << m;
        if (task >= 0) taken[static_cast<std::size_t>(task)] = true;
        break;
      }
      case 1: {  // rack-local pop
        const int r = draw(racks);
        const int task = by_rack.pop(r, taken);
        ASSERT_EQ(task, reference_pop(ref_rack, r, taken))
            << "seed " << seed << " op " << op << " rack " << r;
        if (task >= 0) taken[static_cast<std::size_t>(task)] = true;
        break;
      }
      case 2:  // taken elsewhere (an off-index launch)
        taken[static_cast<std::size_t>(draw(tasks))] = true;
        break;
      default:  // requeued after a kill
        taken[static_cast<std::size_t>(draw(tasks))] = false;
        break;
    }
  }
}

TEST(LocalityIndex, MatchesHashMapReferenceOnRandomReplicas) {
  for (std::uint32_t seed = 1; seed <= 20; ++seed) {
    run_random_pops(/*racks=*/4, /*per_rack=*/5, /*tasks=*/60, seed);
  }
}

TEST(LocalityIndex, MatchesHashMapReferenceWithFewMachines) {
  // Two machines and many tasks: long runs with many duplicate entries.
  for (std::uint32_t seed = 100; seed <= 110; ++seed) {
    run_random_pops(/*racks=*/1, /*per_rack=*/2, /*tasks=*/40, seed);
  }
}

TEST(LocalityIndex, PopsFromTheBackInTaskReplicaOrder) {
  // Task 0 on machines {1, 1}, task 1 on {0, 1}, task 2 on none.
  const std::vector<std::vector<int>> replicas = {{1, 1}, {0, 1}, {}};
  LocalityIndex index;
  index.build(
      3, 3,
      [&](int t) -> const std::vector<int>& {
        return replicas[static_cast<std::size_t>(t)];
      },
      [](int m) { return m; });
  std::vector<bool> taken(3, false);
  EXPECT_EQ(index.pop(2, taken), -1);
  EXPECT_EQ(index.pop(1, taken), 1);  // machine 1's run is {0, 0, 1}
  taken[1] = true;
  EXPECT_EQ(index.pop(0, taken), -1);  // its only entry, task 1, is taken
  EXPECT_EQ(index.pop(1, taken), 0);
  EXPECT_EQ(index.pop(1, taken), 0);   // the duplicate entry
  EXPECT_EQ(index.pop(1, taken), -1);  // consumed for good
  taken[1] = false;
  EXPECT_EQ(index.pop(0, taken), -1);  // a requeue does not restore entries
}

}  // namespace
}  // namespace corral
