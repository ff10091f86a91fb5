// FlatMap (util/flat_map.h): the flow table's open-addressing coflow index.
//
// Differential-tests FlatMap against std::unordered_map over randomized
// insert/find/erase workloads, including a collision-heavy small key space
// (long probe chains, so backward-shift deletion relocates entries), the
// grow path, and erase-via-iterator right after find.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <unordered_map>

#include "util/flat_map.h"

namespace corral {
namespace {

void check_matches(FlatMap<int>& map,
                   const std::unordered_map<std::uint64_t, int>& ref) {
  ASSERT_EQ(map.size(), ref.size());
  for (const auto& [key, value] : ref) {
    auto it = map.find(key);
    ASSERT_NE(it, map.end()) << "missing key " << key;
    EXPECT_EQ(it->second, value) << "key " << key;
  }
}

void run_random_ops(std::uint64_t key_space, int ops, std::uint32_t seed) {
  std::mt19937_64 rng(seed);
  FlatMap<int> map;
  std::unordered_map<std::uint64_t, int> ref;
  for (int op = 0; op < ops; ++op) {
    const std::uint64_t key = 1 + rng() % key_space;  // 0 is reserved
    switch (rng() % 4) {
      case 0: {  // insert or overwrite
        const int value = static_cast<int>(rng() % 1000);
        map[key] = value;
        ref[key] = value;
        break;
      }
      case 1: {  // find
        auto it = map.find(key);
        const auto rit = ref.find(key);
        if (rit == ref.end()) {
          EXPECT_EQ(it, map.end());
        } else {
          ASSERT_NE(it, map.end());
          EXPECT_EQ(it->second, rit->second);
        }
        break;
      }
      case 2:  // erase by key (may be absent)
        map.erase(key);
        ref.erase(key);
        break;
      default: {  // find-then-erase(iterator), the simulator's hot idiom
        auto it = map.find(key);
        if (it != map.end()) {
          map.erase(it);
          ref.erase(key);
        }
        break;
      }
    }
    EXPECT_EQ(map.size(), ref.size());
  }
  check_matches(map, ref);
}

TEST(FlatMap, RandomOpsSmallKeySpaceCollisionHeavy) {
  // 64 keys, thousands of ops: slots churn constantly and probe chains
  // overlap, exercising backward-shift deletion across chain boundaries.
  run_random_ops(/*key_space=*/64, /*ops=*/20000, /*seed=*/1);
}

TEST(FlatMap, RandomOpsLargeKeySpaceWithGrowth) {
  // Wide keys force repeated grow() rehashes while ops are in flight.
  run_random_ops(/*key_space=*/std::uint64_t{1} << 40, /*ops=*/20000,
                 /*seed=*/2);
}

TEST(FlatMap, GrowPreservesAllEntries) {
  FlatMap<int> map;
  std::unordered_map<std::uint64_t, int> ref;
  for (std::uint64_t k = 1; k <= 5000; ++k) {
    map[k * 0x9e3779b97f4a7c15ULL] = static_cast<int>(k);
    ref[k * 0x9e3779b97f4a7c15ULL] = static_cast<int>(k);
  }
  check_matches(map, ref);
}

TEST(FlatMap, OperatorBracketDefaultInitializes) {
  FlatMap<double> map;
  EXPECT_EQ(map.find(7), map.end());
  EXPECT_EQ(map[7], 0.0);
  map[7] += 1.5;
  auto it = map.find(7);
  ASSERT_NE(it, map.end());
  EXPECT_EQ(it->second, 1.5);
}

TEST(FlatMap, KeyZeroIsRejected) {
  FlatMap<int> map;
  EXPECT_THROW(map[0], std::invalid_argument);
  EXPECT_EQ(map.find(0), map.end());  // lookups are safe, inserts are not
}

TEST(FlatMap, EraseAbsentKeyIsNoOp) {
  FlatMap<int> map;
  map.erase(42);  // empty map
  map[1] = 10;
  map.erase(42);  // non-empty map, absent key
  EXPECT_EQ(map.size(), 1u);
  EXPECT_EQ(map.find(1)->second, 10);
}

}  // namespace
}  // namespace corral
