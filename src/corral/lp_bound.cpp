#include "corral/lp_bound.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <compare>
#include <limits>
#include <vector>

#include "exec/exec.h"
#include "util/check.h"

namespace corral {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Lower convex envelope of the points {(L_j(r), W_j(r) = r * L_j(r))}: the
// minimum rack-seconds of work a job can be "fractionally" completed with,
// as a function of its latency budget T. envelope(T) is non-increasing and
// convex; +inf below the minimum achievable latency. Each vertex keeps the
// rack count r it came from, so the envelope also yields the job's optimal
// fractional width choice at any budget.
class WorkEnvelope {
 public:
  WorkEnvelope(const ResponseFunction& job, int num_racks) {
    std::vector<Vertex> points;
    points.reserve(static_cast<std::size_t>(num_racks));
    for (int r = 1; r <= num_racks; ++r) {
      points.push_back({job.at(r), static_cast<double>(r) * job.at(r), r});
    }
    std::sort(points.begin(), points.end());
    // Keep only points on the lower-left convex boundary: strictly
    // decreasing work as latency increases, and convex turns.
    for (const Vertex& p : points) {
      if (!hull_.empty() && p.work >= hull_.back().work) continue;
      while (hull_.size() >= 2 && !convex_turn(hull_[hull_.size() - 2],
                                               hull_.back(), p)) {
        hull_.pop_back();
      }
      hull_.push_back(p);
    }
    ensure(!hull_.empty(), "WorkEnvelope: no points");
  }

  double min_latency() const { return hull_.front().latency; }

  // Minimum work achievable with expected latency <= budget.
  double work(double budget) const {
    if (budget < hull_.front().latency) return kInf;
    if (budget >= hull_.back().latency) return hull_.back().work;
    const auto [lo, hi, t] = segment(budget);
    return lo.work + t * (hi.work - lo.work);
  }

  // The optimal basic solution of the job's two-row LP at `budget` (which
  // must be >= min_latency()): the two vertices that bracket it, weighted
  // so the expected latency is exactly the budget, or the minimum-work
  // vertex alone when the budget does not bind.
  std::array<LpBatchSolution::Width, 2> widths(double budget) const {
    if (budget >= hull_.back().latency) {
      return {{{hull_.back().racks, 1.0}, {hull_.back().racks, 0.0}}};
    }
    const auto [lo, hi, t] = segment(budget);
    return {{{lo.racks, 1.0 - t}, {hi.racks, t}}};
  }

 private:
  struct Vertex {
    double latency;
    double work;
    int racks;
    // By (latency, work); two points never tie on both, as work = r * L.
    friend auto operator<=>(const Vertex&, const Vertex&) = default;
  };
  struct Segment {
    const Vertex& lo;
    const Vertex& hi;
    double t;  // where the budget lies between lo and hi, in [0, 1)
  };

  // The segment [i, i+1] with L_i <= budget < L_{i+1}; requires
  // min_latency() <= budget < the last vertex's latency.
  Segment segment(double budget) const {
    const auto it = std::upper_bound(
        hull_.begin(), hull_.end(), budget,
        [](double b, const Vertex& p) { return b < p.latency; });
    const Vertex& hi = *it;
    const Vertex& lo = *(it - 1);
    return {lo, hi, (budget - lo.latency) / (hi.latency - lo.latency)};
  }

  // True when b lies strictly below the segment a->c, i.e. keeping b
  // preserves the lower (convex) envelope. With cross = (b-a) x (c-a) in
  // the (L, W) plane, b below the chord corresponds to a positive cross
  // product; b on or above it must be popped.
  static bool convex_turn(const Vertex& a, const Vertex& b, const Vertex& c) {
    const double cross = (b.latency - a.latency) * (c.work - a.work) -
                         (b.work - a.work) * (c.latency - a.latency);
    return cross > 0;
  }

  std::vector<Vertex> hull_;
};

}  // namespace

LpBatchSolution solve_lp_batch(std::span<const ResponseFunction> jobs,
                               int num_racks, exec::ThreadPool* pool) {
  require(num_racks >= 1, "solve_lp_batch: num_racks must be >= 1");
  LpBatchSolution solution;
  if (jobs.empty()) return solution;
  for (const ResponseFunction& job : jobs) {
    require(job.max_racks() >= num_racks,
            "solve_lp_batch: response function too narrow");
  }

  // Each job's convex work envelope is an independent subproblem; build
  // them in parallel, then reduce lo / total work serially in job order.
  exec::ThreadPool& exec_pool =
      pool != nullptr ? *pool : exec::ThreadPool::shared();
  std::vector<WorkEnvelope> envelopes = exec::parallel_map(
      exec_pool, jobs.size(),
      [&](int, std::size_t j) { return WorkEnvelope(jobs[j], num_racks); });
  double lo = 0;  // max over jobs of minimum latency: T below is infeasible
  double total_min_work = 0;
  for (const WorkEnvelope& envelope : envelopes) {
    lo = std::max(lo, envelope.min_latency());
    total_min_work += envelope.work(kInf);
  }
  // Aggregate capacity alone forces T >= total work / R.
  lo = std::max(lo, total_min_work / num_racks);

  const auto feasible = [&](double T) {
    double work = 0;
    for (const WorkEnvelope& env : envelopes) {
      const double w = env.work(T);
      if (w == kInf) return false;
      work += w;
      if (work > T * num_racks * (1 + 1e-12)) return false;
    }
    return work <= T * num_racks * (1 + 1e-12);
  };

  double hi = lo;
  if (!feasible(lo)) {
    while (!feasible(hi)) hi *= 2;
    for (int iter = 0; iter < 100 && (hi - lo) > 1e-9 * hi; ++iter) {
      const double mid = 0.5 * (lo + hi);
      (feasible(mid) ? hi : lo) = mid;
    }
  }
  solution.bound = hi;
  solution.widths.reserve(envelopes.size());
  for (const WorkEnvelope& envelope : envelopes) {
    solution.widths.push_back(envelope.widths(hi));
  }
  return solution;
}

Seconds lp_batch_makespan_bound(std::span<const ResponseFunction> jobs,
                                int num_racks, exec::ThreadPool* pool) {
  return solve_lp_batch(jobs, num_racks, pool).bound;
}

Seconds online_avg_completion_bound(std::span<const ResponseFunction> jobs,
                                    int num_racks) {
  require(num_racks >= 1,
          "online_avg_completion_bound: num_racks must be >= 1");
  const std::size_t J = jobs.size();
  if (J == 0) return 0;

  // Bound 1: every job needs at least its minimum latency.
  double sum_min_latency = 0;
  for (const ResponseFunction& job : jobs) {
    sum_min_latency += job.min_latency();
  }

  // Bound 2: preemptive SRPT on one machine of speed `num_racks`, with
  // processing volume min_r r * L_j(r) rack-seconds per job. SRPT minimizes
  // the total completion time of this relaxation, so its value bounds any
  // rack-granular schedule from below.
  struct Item {
    double arrival;
    double remaining;
  };
  std::vector<Item> items;
  items.reserve(J);
  for (const ResponseFunction& job : jobs) {
    double volume = kInf;
    for (int r = 1; r <= num_racks; ++r) {
      volume = std::min(volume, static_cast<double>(r) * job.at(r));
    }
    items.push_back({job.arrival(), volume});
  }
  std::vector<std::size_t> by_arrival(J);
  for (std::size_t i = 0; i < J; ++i) by_arrival[i] = i;
  std::sort(by_arrival.begin(), by_arrival.end(), [&](auto a, auto b) {
    return items[a].arrival < items[b].arrival;
  });

  const double speed = num_racks;
  double now = 0;
  double srpt_flow_total = 0;
  std::size_t next_arrival = 0;
  std::vector<std::size_t> active;
  std::size_t finished = 0;
  while (finished < J) {
    if (active.empty()) {
      ensure(next_arrival < J, "SRPT bound: no active or pending job");
      now = std::max(now, items[by_arrival[next_arrival]].arrival);
    }
    while (next_arrival < J &&
           items[by_arrival[next_arrival]].arrival <= now + 1e-12) {
      active.push_back(by_arrival[next_arrival]);
      ++next_arrival;
    }
    // Shortest remaining processing time first.
    const auto it = std::min_element(
        active.begin(), active.end(), [&](auto a, auto b) {
          return items[a].remaining < items[b].remaining;
        });
    const std::size_t job = *it;
    const double finish_at = now + items[job].remaining / speed;
    const double next_at = next_arrival < J
                               ? items[by_arrival[next_arrival]].arrival
                               : kInf;
    if (finish_at <= next_at) {
      now = finish_at;
      srpt_flow_total += now - items[job].arrival;
      active.erase(it);
      ++finished;
    } else {
      items[job].remaining -= (next_at - now) * speed;
      now = next_at;
    }
  }

  return std::max(sum_min_latency, srpt_flow_total) /
         static_cast<double>(J);
}

}  // namespace corral
