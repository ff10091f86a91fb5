// The discrete-event simulator's event queue.
//
// CalendarEventQueue pops events in ascending (time, seq) order — exactly
// the order a binary heap on (time, seq) produces.
// `tests/event_queue_test.cpp` pits it against such a heap on randomized
// schedules with tied timestamps to keep that contract honest.
//
//  * CalendarEventQueue: a calendar/ladder queue. Virtual time is divided
//    into fixed-width ticks (one per batching quantum by default); a ring of
//    2^12 pooled buckets covers a sliding window of ticks starting at the
//    scan cursor, and events beyond the window land in an overflow list with
//    a tracked minimum. Buckets are recycled vectors (cleared, never freed),
//    so the steady state allocates nothing. With the simulator's quantum
//    alignment every event in a bucket shares one timestamp and arrives in
//    seq order, making push an O(1) append and pop an O(1) head advance; the
//    ordered-insert fallback keeps arbitrary (unaligned) times correct too.
//
// EventT must expose `double time` and `long seq`. Ordering is total because
// the simulator assigns distinct seq values; the queues themselves do not
// require seq monotonicity.
#ifndef CORRAL_SIM_EVENT_QUEUE_H_
#define CORRAL_SIM_EVENT_QUEUE_H_

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/check.h"

namespace corral {

template <typename EventT>
class CalendarEventQueue {
 public:
  // `bucket_width` is the tick size in virtual seconds. Pass the simulator's
  // batching quantum so aligned events map one-timestamp-per-bucket; any
  // positive width is correct (ordering never depends on tick granularity).
  explicit CalendarEventQueue(double bucket_width = 0.25)
      : width_(bucket_width > 0 ? bucket_width : 0.25),
        buckets_(kNumBuckets),
        heads_(kNumBuckets, 0),
        bucket_tick_(kNumBuckets, kNoTick) {
    occupied_.fill(0);
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  void push(const EventT& event) {
    require(std::isfinite(event.time), "event queue: non-finite event time");
    const std::int64_t tick = tick_of(event.time);
    if (size_ == 0) cur_tick_ = tick;  // re-anchor an empty queue
    ++size_;
    top_valid_ = false;
    if (tick < cur_tick_) retreat_to(tick);
    if (tick >= cur_tick_ + kNumBuckets) {
      overflow_.push_back(event);
      overflow_min_tick_ = std::min(overflow_min_tick_, tick);
      return;
    }
    bucket_insert(tick, event);
  }

  const EventT& top() {
    find_min();
    const Bucket& bucket = buckets_[static_cast<std::size_t>(top_bucket_)];
    return bucket[heads_[static_cast<std::size_t>(top_bucket_)]];
  }

  void pop() {
    find_min();
    const auto b = static_cast<std::size_t>(top_bucket_);
    if (++heads_[b] == buckets_[b].size()) {
      buckets_[b].clear();  // keeps capacity: the bucket pool never shrinks
      heads_[b] = 0;
      bucket_tick_[b] = kNoTick;
      clear_bit(top_bucket_);
    }
    --window_count_;
    --size_;
    top_valid_ = false;
  }

 private:
  using Bucket = std::vector<EventT>;
  static constexpr int kBucketBits = 12;
  static constexpr std::int64_t kNumBuckets = std::int64_t{1} << kBucketBits;
  static constexpr std::int64_t kBucketMask = kNumBuckets - 1;
  static constexpr std::int64_t kNoTick =
      std::numeric_limits<std::int64_t>::min();

  static bool event_less(const EventT& a, const EventT& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  std::int64_t tick_of(double time) const {
    return static_cast<std::int64_t>(std::floor(time / width_));
  }

  void set_bit(std::int64_t b) {
    occupied_[static_cast<std::size_t>(b >> 6)] |=
        std::uint64_t{1} << (b & 63);
  }
  void clear_bit(std::int64_t b) {
    occupied_[static_cast<std::size_t>(b >> 6)] &=
        ~(std::uint64_t{1} << (b & 63));
  }

  void bucket_insert(std::int64_t tick, const EventT& event) {
    const auto b = static_cast<std::size_t>(tick & kBucketMask);
    Bucket& bucket = buckets_[b];
    if (bucket.empty()) {
      bucket_tick_[b] = tick;
      set_bit(static_cast<std::int64_t>(b));
    } else {
      // One tick per bucket: the sliding window spans kNumBuckets ticks, so
      // two live ticks can never share a bucket index.
      ensure(bucket_tick_[b] == tick, "calendar queue: bucket tick collision");
    }
    if (bucket.empty() || event_less(bucket.back(), event)) {
      bucket.push_back(event);
    } else {
      const auto pos = std::upper_bound(
          bucket.begin() +
              static_cast<std::ptrdiff_t>(heads_[b]),
          bucket.end(), event, event_less);
      bucket.insert(pos, event);
    }
    ++window_count_;
  }

  // Move any overflow event whose tick entered the window into its bucket.
  // Must run every time the window's end advances, before the next push, so
  // a direct push and a drained event at the same tick keep (time, seq)
  // order (bucket_insert's ordered insert handles the interleaving).
  void drain_overflow() {
    if (overflow_min_tick_ >= cur_tick_ + kNumBuckets) return;
    std::size_t kept = 0;
    std::int64_t new_min = std::numeric_limits<std::int64_t>::max();
    for (EventT& event : overflow_) {
      const std::int64_t tick = tick_of(event.time);
      if (tick < cur_tick_ + kNumBuckets) {
        bucket_insert(tick, event);
      } else {
        new_min = std::min(new_min, tick);
        overflow_[kept++] = std::move(event);
      }
    }
    overflow_.resize(kept);
    overflow_min_tick_ = new_min;
  }

  // A push landed before the cursor: slide the window start back. Events
  // whose tick falls off the new window end are evicted to overflow (rare —
  // requires the cursor to have scanned ahead and a later push near "now").
  void retreat_to(std::int64_t tick) {
    const std::int64_t new_end = tick + kNumBuckets;
    if (window_count_ > 0) {
      for (std::size_t word = 0; word < occupied_.size(); ++word) {
        std::uint64_t bits = occupied_[word];
        while (bits != 0) {
          const int bit = std::countr_zero(bits);
          bits &= bits - 1;
          const auto b = (word << 6) | static_cast<std::size_t>(bit);
          if (bucket_tick_[b] < new_end) continue;
          Bucket& bucket = buckets_[b];
          for (std::size_t i = heads_[b]; i < bucket.size(); ++i) {
            overflow_.push_back(std::move(bucket[i]));
            --window_count_;
          }
          overflow_min_tick_ = std::min(overflow_min_tick_, bucket_tick_[b]);
          bucket.clear();
          heads_[b] = 0;
          bucket_tick_[b] = kNoTick;
          clear_bit(static_cast<std::int64_t>(b));
        }
      }
    }
    cur_tick_ = tick;
  }

  // Locate the minimum event: advance the cursor to the first occupied
  // bucket at or after it (bit-scanning the occupancy map in tick order),
  // rebasing onto the overflow list when the window is empty.
  void find_min() {
    ensure(size_ > 0, "event queue: top/pop on empty queue");
    if (top_valid_) return;
    while (true) {
      if (window_count_ == 0) {
        // Everything pending lives in overflow: jump the window onto it.
        cur_tick_ = overflow_min_tick_;
        drain_overflow();
        continue;
      }
      drain_overflow();
      const std::int64_t start = cur_tick_ & kBucketMask;
      std::int64_t step = 0;
      while (step < kNumBuckets) {
        const std::int64_t b = (start + step) & kBucketMask;
        const auto word = static_cast<std::size_t>(b >> 6);
        const auto offset = static_cast<unsigned>(b & 63);
        const std::uint64_t bits = occupied_[word] >> offset;
        if (bits == 0) {
          step += 64 - static_cast<std::int64_t>(offset);
          continue;
        }
        step += std::countr_zero(bits);
        if (step >= kNumBuckets) break;
        const auto idx = static_cast<std::size_t>((start + step) & kBucketMask);
        ensure(bucket_tick_[idx] == cur_tick_ + step,
               "calendar queue: occupancy/tick mismatch");
        cur_tick_ += step;
        top_bucket_ = static_cast<std::int64_t>(idx);
        top_valid_ = true;
        // The window end just advanced: pull in any overflow it now covers
        // (always at later ticks than the minimum found here).
        drain_overflow();
        return;
      }
      ensure(false, "calendar queue: occupied window but no bucket found");
    }
  }

  double width_;
  std::vector<Bucket> buckets_;
  std::vector<std::size_t> heads_;       // popped prefix per bucket
  std::vector<std::int64_t> bucket_tick_;
  std::array<std::uint64_t, kNumBuckets / 64> occupied_;
  std::vector<EventT> overflow_;
  std::int64_t overflow_min_tick_ = std::numeric_limits<std::int64_t>::max();
  std::int64_t cur_tick_ = 0;
  std::size_t window_count_ = 0;  // events in buckets (excludes overflow)
  std::size_t size_ = 0;
  std::int64_t top_bucket_ = 0;
  bool top_valid_ = false;
};

}  // namespace corral

#endif  // CORRAL_SIM_EVENT_QUEUE_H_
