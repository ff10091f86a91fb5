// The discrete-event simulator's event queue: a binary heap that pops events
// in ascending (time, seq) order. EventT must expose `double time` and
// `long seq`; the order is total because the simulator assigns distinct seq
// values. tests/event_queue_test.cpp checks each pop against an ordered set.
#ifndef CORRAL_SIM_EVENT_QUEUE_H_
#define CORRAL_SIM_EVENT_QUEUE_H_

#include <cmath>
#include <queue>
#include <vector>

#include "util/check.h"

namespace corral {

template <typename EventT>
class EventQueue {
 public:
  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  void push(const EventT& event) {
    require(std::isfinite(event.time), "event queue: non-finite event time");
    heap_.push(event);
  }

  const EventT& top() const {
    ensure(!heap_.empty(), "event queue: top/pop on empty queue");
    return heap_.top();
  }

  void pop() {
    ensure(!heap_.empty(), "event queue: top/pop on empty queue");
    heap_.pop();
  }

 private:
  // std::priority_queue is a max-heap: "less" here means "pops later".
  struct Later {
    bool operator()(const EventT& a, const EventT& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };
  std::priority_queue<EventT, std::vector<EventT>, Later> heap_;
};

}  // namespace corral

#endif  // CORRAL_SIM_EVENT_QUEUE_H_
