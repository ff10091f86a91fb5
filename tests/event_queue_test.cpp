// Differential test: CalendarEventQueue vs a binary heap on (time, seq).
//
// The simulator's determinism contract requires the calendar queue to pop
// the exact (time, seq) order of a plain binary heap. This test drives both
// queues through identical randomized schedules — tied timestamps,
// interleaved pushes and pops, times far beyond the calendar window
// (overflow), pushes behind the scan cursor (retreat), and drain-to-empty
// refills — and asserts the popped sequences match event for event.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <queue>
#include <random>
#include <utility>
#include <vector>

#include "sim/event_queue.h"

namespace corral {
namespace {

struct Ev {
  double time = 0;
  long seq = 0;
};

// The oracle: a std::priority_queue popping ascending (time, seq).
class HeapQueue {
 public:
  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }
  void push(const Ev& event) { heap_.push(event); }
  const Ev& top() const { return heap_.top(); }
  void pop() { heap_.pop(); }

 private:
  struct Later {
    bool operator()(const Ev& a, const Ev& b) const {
      return a.time != b.time ? a.time > b.time : a.seq > b.seq;
    }
  };
  std::priority_queue<Ev, std::vector<Ev>, Later> heap_;
};

// Applies the same op script (push event / pop one) to a queue and records
// everything popped. Each pop also cross-checks top() against the recorded
// value and that size() tracks the op balance.
template <typename Queue>
std::vector<std::pair<double, long>> run_script(
    Queue& queue, const std::vector<std::pair<bool, Ev>>& ops) {
  std::vector<std::pair<double, long>> popped;
  std::size_t expected_size = 0;
  for (const auto& [is_push, ev] : ops) {
    if (is_push) {
      queue.push(ev);
      ++expected_size;
    } else {
      const Ev& top = queue.top();
      popped.emplace_back(top.time, top.seq);
      queue.pop();
      --expected_size;
    }
    EXPECT_EQ(queue.size(), expected_size);
  }
  // Drain the remainder so every pushed event is compared.
  while (!queue.empty()) {
    const Ev& top = queue.top();
    popped.emplace_back(top.time, top.seq);
    queue.pop();
  }
  return popped;
}

void expect_identical(const std::vector<std::pair<bool, Ev>>& ops,
                      double bucket_width) {
  CalendarEventQueue<Ev> calendar(bucket_width);
  HeapQueue heap;
  const auto from_calendar = run_script(calendar, ops);
  const auto from_heap = run_script(heap, ops);
  ASSERT_EQ(from_calendar.size(), from_heap.size());
  for (std::size_t i = 0; i < from_heap.size(); ++i) {
    EXPECT_EQ(from_calendar[i].first, from_heap[i].first) << "pop " << i;
    EXPECT_EQ(from_calendar[i].second, from_heap[i].second) << "pop " << i;
  }
}

// Random interleaving of pushes and pops (pops only when non-empty), with
// times drawn by `next_time`. Seq values are assigned ascending, as the
// simulator does, but with occasional shuffles within a timestamp via the
// tie generator below.
template <typename TimeGen>
std::vector<std::pair<bool, Ev>> make_script(int num_events,
                                             std::uint32_t seed,
                                             TimeGen next_time) {
  std::mt19937 rng(seed);
  std::vector<std::pair<bool, Ev>> ops;
  ops.reserve(static_cast<std::size_t>(num_events) * 2);
  long seq = 0;
  int pushed = 0;
  std::size_t live = 0;
  while (pushed < num_events) {
    if (live > 0 && rng() % 3 == 0) {
      ops.emplace_back(false, Ev{});
      --live;
    } else {
      ops.emplace_back(true, Ev{next_time(rng), seq++});
      ++pushed;
      ++live;
    }
  }
  return ops;
}

TEST(EventQueueDiff, QuantumAlignedTiedTimestamps) {
  // The simulator's regime: times are multiples of the batching quantum,
  // pile up in dense ties, and creep forward. One timestamp per bucket.
  double now = 0;
  const auto gen = [&now](std::mt19937& rng) {
    if (rng() % 4 == 0) now += 0.25;  // advance the clock occasionally
    return now + 0.25 * static_cast<double>(rng() % 16);
  };
  expect_identical(make_script(10000, 1234, gen), 0.25);
}

TEST(EventQueueDiff, ScatteredTimesWithOverflowAndRetreat) {
  // Times span far beyond the 4096-bucket window (1024 s at width 0.25), so
  // events land in overflow and drain back as the cursor advances; and
  // because pops move the cursor forward while pushes stay uniform, later
  // pushes frequently land behind the cursor and trigger retreat_to.
  const auto gen = [](std::mt19937& rng) {
    return std::uniform_real_distribution<double>(0.0, 5000.0)(rng);
  };
  expect_identical(make_script(10000, 99, gen), 0.25);
}

TEST(EventQueueDiff, MassiveTiesAtOneTimestamp) {
  const auto gen = [](std::mt19937& rng) {
    // Three distinct timestamps only: almost every event ties.
    return 1.0 + static_cast<double>(rng() % 3);
  };
  expect_identical(make_script(5000, 7, gen), 0.25);
}

TEST(EventQueueDiff, DrainToEmptyAndRefill) {
  // Alternating full drains re-anchor the calendar's cursor each cycle,
  // including backwards (cycle times are not monotone).
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
  expect_identical(ops, 0.25);
}

TEST(EventQueueDiff, UnalignedWidthStillCorrect) {
  // Ordering must not depend on the bucket width matching the timestamps:
  // run the aligned-regime script with a width that splits ties across
  // tick boundaries arbitrarily.
  double now = 0;
  const auto gen = [&now](std::mt19937& rng) {
    if (rng() % 4 == 0) now += 0.25;
    return now + 0.25 * static_cast<double>(rng() % 16);
  };
  expect_identical(make_script(4000, 1234, gen), 0.37);
  now = 0;
  expect_identical(make_script(4000, 1234, gen), 100.0);
}

TEST(EventQueue, RejectsNonFiniteTime) {
  CalendarEventQueue<Ev> queue(0.25);
  EXPECT_THROW(
      queue.push(Ev{std::numeric_limits<double>::infinity(), 0}),
      std::invalid_argument);
}

}  // namespace
}  // namespace corral
