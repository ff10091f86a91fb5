#pragma once

#include <cstddef>
#include <vector>

namespace corral {

// Chunk-level locality index of one source stage, for one kind of key (a
// machine or a rack): the map tasks with an input replica under each key,
// in (task, replica) order, as one CSR table. Deletion is lazy: pop() takes
// entries off the back of the key's run and discards those whose map is
// already taken, so a map requeued after its entry was popped is reachable
// only through the stage's plain queue again.
class LocalityIndex {
 public:
  // Indexes tasks 0..tasks-1 under `keys` keys: `replicas(t)` is task t's
  // replica machine list and `key_of(m)` the key of machine m. Two counting
  // passes: sizes, then entries.
  template <class Replicas, class KeyOf>
  void build(int keys, int tasks, Replicas replicas, KeyOf key_of) {
    begin_.assign(static_cast<std::size_t>(keys) + 1, 0);
    for (int t = 0; t < tasks; ++t) {
      for (int m : replicas(t)) {
        ++begin_[static_cast<std::size_t>(key_of(m)) + 1];
      }
    }
    for (std::size_t k = 1; k < begin_.size(); ++k) begin_[k] += begin_[k - 1];
    // end_ doubles as the fill cursor; each key's run ends up full.
    end_.assign(begin_.begin(), begin_.end() - 1);
    tasks_.resize(static_cast<std::size_t>(begin_.back()));
    for (int t = 0; t < tasks; ++t) {
      for (int m : replicas(t)) {
        int& next = end_[static_cast<std::size_t>(key_of(m))];
        tasks_[static_cast<std::size_t>(next++)] = t;
      }
    }
  }

  // The last untaken task left under `key`, or -1. Taken entries on the
  // way are dropped for good.
  int pop(int key, const std::vector<bool>& taken) {
    const auto k = static_cast<std::size_t>(key);
    int& end = end_[k];
    while (end > begin_[k]) {
      const int task = tasks_[static_cast<std::size_t>(--end)];
      if (!taken[static_cast<std::size_t>(task)]) return task;
    }
    return -1;
  }

 private:
  std::vector<int> begin_;  // per key, its first entry; then the total
  std::vector<int> end_;    // per key, one past its last unpopped entry
  std::vector<int> tasks_;
};

}  // namespace corral
