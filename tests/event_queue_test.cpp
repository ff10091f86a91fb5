// EventQueue against an independent oracle: the live events kept in an
// ordered std::set. Every pop must return the smallest live (time, seq) —
// on randomized schedules with tied timestamps, interleaved pushes and pops,
// pushes behind already-popped times, and drain-to-empty refills.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "sim/event_queue.h"

namespace corral {
namespace {

struct Ev {
  double time = 0;
  long seq = 0;
};

// Applies an op script (push event / pop one) to an EventQueue, then drains
// it, checking each pop and the size against the set of live events.
void expect_pops_in_order(const std::vector<std::pair<bool, Ev>>& ops) {
  EventQueue<Ev> queue;
  std::set<std::pair<double, long>> live;
  const auto pop_one = [&] {
    ASSERT_FALSE(live.empty());
    const Ev& top = queue.top();
    EXPECT_EQ(std::make_pair(top.time, top.seq), *live.begin());
    live.erase(live.begin());
    queue.pop();
  };
  for (const auto& [is_push, ev] : ops) {
    if (is_push) {
      queue.push(ev);
      live.emplace(ev.time, ev.seq);
    } else {
      pop_one();
    }
    ASSERT_EQ(queue.size(), live.size());
  }
  while (!queue.empty()) pop_one();
  EXPECT_TRUE(live.empty());
}

// Random interleaving of pushes and pops (pops only when non-empty), with
// times drawn by `next_time` and seq values assigned ascending, as the
// simulator does.
template <typename TimeGen>
std::vector<std::pair<bool, Ev>> make_script(int num_events,
                                             std::uint32_t seed,
                                             TimeGen next_time) {
  std::mt19937 rng(seed);
  std::vector<std::pair<bool, Ev>> ops;
  long seq = 0;
  std::size_t live = 0;
  while (seq < num_events) {
    if (live > 0 && rng() % 3 == 0) {
      ops.emplace_back(false, Ev{});
      --live;
    } else {
      ops.emplace_back(true, Ev{next_time(rng), seq++});
      ++live;
    }
  }
  return ops;
}

TEST(EventQueueDiff, QuantumAlignedTiedTimestamps) {
  // The simulator's regime: times are multiples of the batching quantum,
  // pile up in dense ties, and creep forward.
  double now = 0;
  const auto gen = [&now](std::mt19937& rng) {
    if (rng() % 4 == 0) now += 0.25;  // advance the clock occasionally
    return now + 0.25 * static_cast<double>(rng() % 16);
  };
  expect_pops_in_order(make_script(10000, 1234, gen));
}

TEST(EventQueueDiff, ScatteredTimes) {
  // Uniform times over 5000 s: pops move forward while pushes stay uniform,
  // so later pushes often land before times already popped.
  const auto gen = [](std::mt19937& rng) {
    return std::uniform_real_distribution<double>(0.0, 5000.0)(rng);
  };
  expect_pops_in_order(make_script(10000, 99, gen));
}

TEST(EventQueueDiff, MassiveTiesAtOneTimestamp) {
  const auto gen = [](std::mt19937& rng) {
    // Three distinct timestamps only: almost every event ties.
    return 1.0 + static_cast<double>(rng() % 3);
  };
  expect_pops_in_order(make_script(5000, 7, gen));
}

TEST(EventQueueDiff, DrainToEmptyAndRefill) {
  // Full drains between batches whose base times are not monotone.
  std::mt19937 rng(42);
  std::vector<std::pair<bool, Ev>> ops;
  long seq = 0;
  for (int cycle = 0; cycle < 50; ++cycle) {
    const double base = static_cast<double>((cycle * 7919) % 100) * 13.0;
    const int batch = 1 + static_cast<int>(rng() % 40);
    for (int i = 0; i < batch; ++i) {
      const double t = base + 0.5 * static_cast<double>(rng() % 8);
      ops.emplace_back(true, Ev{t, seq++});
    }
    for (int i = 0; i < batch; ++i) ops.emplace_back(false, Ev{});
  }
  expect_pops_in_order(ops);
}

TEST(EventQueue, RejectsNonFiniteTime) {
  EventQueue<Ev> queue;
  EXPECT_THROW(
      queue.push(Ev{std::numeric_limits<double>::infinity(), 0}),
      std::invalid_argument);
}

}  // namespace
}  // namespace corral
