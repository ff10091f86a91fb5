#include "corral/planner.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <string>

#include "exec/exec.h"
#include "obs/trace.h"
#include "util/check.h"

namespace corral {
namespace {

// Reusable buffers for one prioritization pass, so the provisioning loop's
// J*R evaluations do not allocate.
struct Scratch {
  std::vector<int> order;        // job indices in scheduling order
  std::vector<Seconds> key;      // L_j(r_j) per job, precomputed for sorting
  std::vector<Seconds> finish;   // F_i per rack
  std::vector<Seconds> sorted_finish;  // F values ascending (evaluation path)
  std::vector<int> open;         // racks open to the current job
  RackClaims claims;             // the pass's placement ledger
};

// Sorts `order` into scheduling order under `less`, a strict total order
// on job indices. An order of the wrong size is rebuilt and sorted from
// scratch. One of the right size is what the previous pass on this scratch
// left, and a provisioning search hands each worker's scratch from
// candidate to candidate, which differ in a few jobs' rack counts: that
// order is nearly sorted already, and an insertion sort finishes it in
// O(J + displacement). Either way the result is the unique sorted
// permutation, so it cannot depend on what the scratch held before.
template <typename Less>
void sort_order(std::vector<int>& order, std::size_t J, Less less) {
  if (order.size() != J) {
    order.resize(J);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), less);
    return;
  }
  for (std::size_t i = 1; i < J; ++i) {
    const int job = order[i];
    std::size_t k = i;
    for (; k > 0 && less(job, order[k - 1]); --k) order[k] = order[k - 1];
    order[k] = job;
  }
}

// Figure 4: schedules jobs in priority order onto racks, filling `plan`
// rack sets, start times and priorities. `initial_finish` (when non-null)
// seeds the per-rack availability F_i, which lets rolling-horizon planning
// chain windows. Returns {makespan, avg completion}; `final_finish` (when
// non-null) receives the resulting F_i.
//
// When config.placements carries a real constraint, every job picks among
// the racks the pass's RackClaims ledger leaves open to it
// (corral/placement.h). A pass that cannot seat a job returns infinity in
// evaluation mode (so the provisioning search rejects the candidate) and
// throws a deterministic error in plan-building mode. Cross-job state (set
// membership, exclusivity) binds per pass — for plan_rolling that means
// per window.
std::pair<Seconds, Seconds> run_prioritization(
    std::span<const ResponseFunction> jobs, std::span<const int> racks_per_job,
    int num_racks, const PlannerConfig& config, Scratch& scratch, Plan* plan,
    const std::vector<Seconds>* initial_finish = nullptr,
    std::vector<Seconds>* final_finish = nullptr, int priority_base = 0,
    const obs::TraceRecorder* trace = nullptr) {
  const std::size_t J = jobs.size();
  const std::vector<JobPlacement>* placements = config.placements;
  const bool constrained =
      placements != nullptr && any_constrained(*placements);

  // Precompute L_j(r_j) once per job: the sort comparators would otherwise
  // walk ResponseFunction::at's piecewise table O(J log J) times, which
  // dominates the provisioning search's J*R evaluations.
  scratch.key.resize(J);
  for (std::size_t s = 0; s < J; ++s) {
    scratch.key[s] = jobs[s].at(racks_per_job[s]);
  }
  const auto batch_less = [&](int a, int b) {
    const auto sa = static_cast<std::size_t>(a);
    const auto sb = static_cast<std::size_t>(b);
    // Widest-job first avoids "holes" in the schedule; ties by LPT.
    if (config.widest_job_first && racks_per_job[sa] != racks_per_job[sb]) {
      return racks_per_job[sa] > racks_per_job[sb];
    }
    const Seconds la = scratch.key[sa];
    const Seconds lb = scratch.key[sb];
    if (la != lb) return la > lb;
    return a < b;
  };
  const auto online_less = [&](int a, int b) {
    const Seconds aa = jobs[static_cast<std::size_t>(a)].arrival();
    const Seconds ab = jobs[static_cast<std::size_t>(b)].arrival();
    if (aa != ab) return aa < ab;
    return batch_less(a, b);
  };
  if (config.objective == Objective::kMakespan) {
    sort_order(scratch.order, J, batch_less);
  } else {
    sort_order(scratch.order, J, online_less);
  }

  // Evaluation-only path: the provisioning search runs this per candidate
  // and only reads the returned (makespan, avg). The objective depends on the
  // *multiset* of per-rack finish times, never on which physical rack holds
  // which value, so we keep the finish values as one sorted array instead of
  // partial-sorting rack ids per job: the r_j racks that free up earliest
  // are simply the first r_j entries, start = max(arrival, sorted[r_j - 1]),
  // and the update shifts the survivors down and writes r_j copies of the
  // completion at their sorted position. Value-identical to the plan-building
  // path below (max over the same operand set, same add per job, same job
  // order), just O(log R + shift) instead of a rack-id partial sort.
  if (!constrained && plan == nullptr && final_finish == nullptr &&
      trace == nullptr) {
    auto& sorted = scratch.sorted_finish;
    if (initial_finish != nullptr) {
      require(initial_finish->size() == static_cast<std::size_t>(num_racks),
              "run_prioritization: initial finish size mismatch");
      sorted = *initial_finish;
      std::sort(sorted.begin(), sorted.end());
    } else {
      sorted.assign(static_cast<std::size_t>(num_racks), 0.0);
    }
    Seconds makespan = 0;
    Seconds total_flow = 0;
    for (int j : scratch.order) {
      const auto sj = static_cast<std::size_t>(j);
      const int rj = racks_per_job[sj];
      const Seconds start = std::max(
          jobs[sj].arrival(), sorted[static_cast<std::size_t>(rj) - 1]);
      const Seconds completion = start + scratch.key[sj];
      const auto pos =
          std::upper_bound(sorted.begin() + rj, sorted.end(), completion);
      std::move(sorted.begin() + rj, pos, sorted.begin());
      std::fill(pos - rj, pos, completion);
      makespan = std::max(makespan, completion);
      total_flow += completion - jobs[sj].arrival();
    }
    const Seconds avg =
        J == 0 ? 0.0 : total_flow / static_cast<double>(J);
    return {makespan, avg};
  }

  if (initial_finish != nullptr) {
    require(initial_finish->size() == static_cast<std::size_t>(num_racks),
            "run_prioritization: initial finish size mismatch");
    scratch.finish = *initial_finish;
  } else {
    scratch.finish.assign(static_cast<std::size_t>(num_racks), 0.0);
  }
  scratch.claims.reset(
      constrained ? *placements : std::span<const JobPlacement>(), num_racks);

  const auto rack_less = [&](int a, int b) {
    const Seconds fa = scratch.finish[static_cast<std::size_t>(a)];
    const Seconds fb = scratch.finish[static_cast<std::size_t>(b)];
    if (fa != fb) return fa < fb;
    return a < b;
  };

  Seconds makespan = 0;
  Seconds total_flow = 0;
  int priority = priority_base;
  for (int j : scratch.order) {
    const auto sj = static_cast<std::size_t>(j);
    const int rj = racks_per_job[sj];
    const Seconds latency = scratch.key[sj];

    // Pick the r_j racks that free up earliest among the racks the job's
    // placement constraints leave open (every rack, in an unconstrained
    // pass).
    std::vector<int>& open = scratch.open;
    scratch.claims.open_racks(j, open);
    if (static_cast<int>(open.size()) < rj) {
      // Evaluation mode: the provisioning search treats an unseatable
      // candidate as infinitely bad. Plan-building mode: the request is
      // genuinely infeasible — fail with the offending job.
      if (plan == nullptr) {
        const Seconds inf = std::numeric_limits<Seconds>::infinity();
        return {inf, inf};
      }
      throw_unseatable(j, rj, open.size());
    }
    std::partial_sort(open.begin(), open.begin() + rj, open.end(), rack_less);
    const std::span<const int> picked(open.data(),
                                      static_cast<std::size_t>(rj));

    Seconds start = jobs[sj].arrival();
    for (int r : picked) {
      start = std::max(start, scratch.finish[static_cast<std::size_t>(r)]);
    }
    const Seconds completion = start + latency;
    for (int r : picked) {
      scratch.finish[static_cast<std::size_t>(r)] = completion;
    }
    scratch.claims.claim(j, picked);
    makespan = std::max(makespan, completion);
    total_flow += completion - jobs[sj].arrival();

    if (plan != nullptr) {
      PlannedJob& planned = plan->jobs[sj];
      planned.job_index = j;
      planned.num_racks = rj;
      planned.racks.assign(picked.begin(), picked.end());
      std::sort(planned.racks.begin(), planned.racks.end());
      planned.start_time = start;
      planned.predicted_latency = latency;
      planned.priority = priority;
      // The "why did job j get racks R_j" decision log: one event per
      // scheduling decision, in priority order, from the calling thread.
      if (trace != nullptr && trace->at(obs::TraceLevel::kJobs)) {
        std::vector<obs::TraceArg> args = {
            obs::arg("job", static_cast<double>(j)),
            obs::arg("num_racks", static_cast<double>(rj)),
            obs::arg("racks", rack_list_string(planned.racks)),
            obs::arg("start_s", start),
            obs::arg("latency_s", latency),
            obs::arg("priority", static_cast<double>(priority))};
        // Constrained jobs log why the pick was narrowed; unconstrained
        // assign events stay byte-identical to the pre-placement format.
        if (constrained && (*placements)[sj].constrained) {
          const JobPlacement& pl = (*placements)[sj];
          args.push_back(obs::arg("eligible_racks",
                                  static_cast<double>(pl.eligible_count)));
          args.push_back(obs::arg("anti_affinity",
                                  static_cast<double>(pl.anti_affinity)));
          args.push_back(
              obs::arg("exclusive", pl.rack_exclusive ? 1.0 : 0.0));
        }
        trace->instant(
            obs::TraceTrack::kPlanner, "assign", "planner", j,
            static_cast<double>(priority),
            std::move(args));
      }
    }
    ++priority;
  }
  if (final_finish != nullptr) *final_finish = scratch.finish;
  const Seconds avg_flow = J == 0 ? 0.0 : total_flow / static_cast<double>(J);
  return {makespan, avg_flow};
}

// Per-worker scratch slots for one provisioning search: slot w belongs to
// pool worker w exclusively (the exec:: scratch-ownership rule), so the
// candidate evaluations never share mutable state.
using ScratchSlots = std::vector<Scratch>;

// The widen-longest chain of the provisioning phase (§4.2), generated one
// step at a time: next() widens the longest job that can still grow and
// returns its index, or -1 once the chain ends. The choice depends only on
// the racks vector — never on evaluation results — so the whole candidate
// sequence is fixed before any prioritization pass runs, and candidates are
// embarrassingly parallel.
//
// The longest job sits at the root of a max-heap ordered by (latency desc,
// index asc), which is exactly the first maximum of a linear scan, found in
// O(log J) instead of O(J) per step. A job whose latency is NaN or <= -1
// never wins that scan and never enters the heap, so the chain is the same
// in that case too. A step sifts once: the widened job's new entry replaces
// the root, or the last entry does when the job cannot widen further. The
// order is a strict total order on the entries, so the root is the same
// whatever layout the heap has.
class WideningChain {
 public:
  WideningChain(std::span<const ResponseFunction> jobs, int num_racks,
                const PlannerConfig& config)
      : jobs_(jobs),
        num_racks_(num_racks),
        stop_at_full_cluster_(!config.explore_full_range),
        racks_(jobs.size(), 1),
        latency_(jobs.size()),
        width_cap_(jobs.size(), num_racks) {
    // A job can never grow past the racks its placement leaves eligible —
    // widening beyond that only produces candidates the prioritization pass
    // would reject anyway. Every job holds at least one rack.
    if (config.placements != nullptr) {
      for (std::size_t j = 0; j < jobs.size(); ++j) {
        width_cap_[j] = std::max(
            1, std::min(num_racks, (*config.placements)[j].eligible_count));
      }
    }
    heap_.reserve(jobs.size());
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      latency_[j] = jobs[j].at(1);
      if (can_widen(j)) heap_.push_back({latency_[j], static_cast<int>(j)});
    }
    for (std::size_t i = heap_.size() / 2; i-- > 0;) sift_down(i);
  }

  int next() {
    if (done_ || heap_.empty()) return -1;
    const int longest = heap_.front().job;
    const auto sj = static_cast<std::size_t>(longest);
    // Total allocated racks among widened jobs, for the [19]-style stop rule.
    widened_total_ += racks_[sj] == 1 ? 2 : 1;  // 1 -> 2 racks counts both
    ++racks_[sj];
    latency_[sj] = jobs_[sj].at(racks_[sj]);
    if (can_widen(sj)) {
      heap_.front() = {latency_[sj], longest};
    } else {
      heap_.front() = heap_.back();
      heap_.pop_back();
    }
    if (!heap_.empty()) sift_down(0);
    if (stop_at_full_cluster_ && widened_total_ >= num_racks_) done_ = true;
    return longest;
  }

  const std::vector<int>& racks() const { return racks_; }
  // L_j(r_j) at the current allocation.
  Seconds latency(std::size_t j) const { return latency_[j]; }
  // The widest job j can grow: next() widens it no further, nor past a
  // latency that is NaN or <= -1.
  int width_cap(std::size_t j) const { return width_cap_[j]; }

 private:
  struct Entry {
    Seconds latency;
    int job;
  };

  // Heap order: the longer latency first, then the lower index. Written
  // without short-circuits so the sift picks a child without a branch.
  static bool before(const Entry& a, const Entry& b) {
    return (a.latency > b.latency) |
           ((a.latency == b.latency) & (a.job < b.job));
  }

  // Moves heap_[hole] down until neither child comes before it.
  void sift_down(std::size_t hole) {
    const std::size_t n = heap_.size();
    const Entry moving = heap_[hole];
    for (std::size_t child = 2 * hole + 1; child < n; child = 2 * hole + 1) {
      if (child + 1 < n) child += before(heap_[child + 1], heap_[child]);
      if (!before(heap_[child], moving)) break;
      heap_[hole] = heap_[child];
      hole = child;
    }
    heap_[hole] = moving;
  }

  bool can_widen(std::size_t j) const {
    return racks_[j] < width_cap_[j] && latency_[j] > -1;
  }

  std::span<const ResponseFunction> jobs_;
  int num_racks_;
  bool stop_at_full_cluster_;
  bool done_ = false;
  long widened_total_ = 0;
  std::vector<int> racks_;
  std::vector<Seconds> latency_;
  std::vector<int> width_cap_;
  std::vector<Entry> heap_;
};

// Rack-time volume bound on the makespan of a candidate allocation:
// whatever order the prioritization pass picks, job j holds r_j racks for
// L_j(r_j) seconds, and every rack's busy intervals are disjoint and start
// no earlier than time 0, so makespan >= sum_j r_j * L_j(r_j) / R. Widening
// one job changes one term, so the sum follows the chain in O(1) per step.
//
// Pruning must never drop a candidate whose computed makespan is strictly
// below the incumbent, so the bound is shrunk by a relative margin kMargin
// that covers the two ways floating point can break the real-number
// argument (u = DBL_EPSILON / 2, the unit roundoff):
//  * the pass computes completion = fl(start + L_j), which can fall short
//    of start + L_j by u * completion <= u * makespan. A rack runs at most
//    J jobs, so the computed makespan is >= (true volume / R) * (1 - J u);
//    slack_per_sum_ * sum_ = DBL_EPSILON * J * sum_ covers that twice over;
//  * the running sum itself drifts from the true volume: every product and
//    addition rounds. error_ accumulates a rigorous bound on that drift
//    (DBL_EPSILON, i.e. 2u, times each rounded result's magnitude).
// kMargin = 1e-9 leaves half of itself for these two terms and the other
// half for the final division and multiply. If the two terms ever exceed
// kMargin / 2 of the sum — more than ~2 million jobs, or a chain long
// enough to drift that far — the bound stops pruning rather than guess.
// Negative or non-finite initial rack finish times void the argument, and
// so does a negative or non-finite latency: pruning is then off for the
// whole search, or from the step that first meets such a latency on.
//
// The same argument bounds every later candidate, which lets the search
// stop early. With explore_full_range the chain ends only once every job
// has reached its width cap (can_widen fails exactly there while every
// latency on the way is finite and non-negative), so from the current step
// to the end of the chain job j takes only widths r_j..cap_j, and each of
// those candidates has a volume of at least the floor
//   sum_j min over r_j <= r <= cap_j of fl(r * L_j(r)).
// Each job's term is a suffix minimum, not its current term: r * L_j(r)
// can dip at a later width. low_at_[j] is the last width attaining it, so
// the suffix is scanned again only once r_j passes it. floor_ and
// floor_error_ follow the rules of sum_ and error_. The early stop is off
// wherever pruning is, and also without explore_full_range (the chain's
// length then depends on the stop rule) or when any latency on the chain is
// negative or not finite.
class RackTimeBound {
 public:
  static constexpr double kMargin = 1e-9;

  RackTimeBound(std::span<const ResponseFunction> jobs,
                const WideningChain& chain, int num_racks,
                const std::vector<Seconds>* initial_finish, bool enabled,
                bool full_chain)
      : jobs_(jobs),
        chain_(chain),
        num_racks_(static_cast<double>(num_racks)),
        slack_per_sum_(kEpsilon * static_cast<double>(jobs.size())),
        enabled_(enabled),
        term_(jobs.size()) {
    const std::size_t J = jobs.size();
    if (initial_finish != nullptr) {
      for (Seconds f : *initial_finish) {
        if (!usable(f)) enabled_ = false;
      }
    }
    for (std::size_t j = 0; j < J; ++j) {
      term_[j] = chain.latency(j);  // r_j = 1
      check(term_[j]);
      sum_ += term_[j];
    }
    error_ = kEpsilon * static_cast<double>(J) * sum_;

    stop_enabled_ = enabled_ && full_chain;
    if (!stop_enabled_) return;
    low_.resize(J);
    low_at_.resize(J);
    for (std::size_t j = 0; j < J; ++j) {
      scan_rest(j, 1);
      floor_ += low_[j];
    }
    floor_error_ = kEpsilon * static_cast<double>(J) * floor_;
  }

  // Job j was just widened to r racks with latency L_j(r).
  void widen(std::size_t j, int r, Seconds latency) {
    if (!enabled_) return;
    check(latency);
    const double term = static_cast<double>(r) * latency;
    const double partial = sum_ - term_[j];
    sum_ = partial + term;
    term_[j] = term;
    error_ += kEpsilon * (term + std::abs(partial) + std::abs(sum_));

    if (!stop_enabled_ || r <= low_at_[j]) return;
    const double floor_partial = floor_ - low_[j];
    scan_rest(j, r);
    floor_ = floor_partial + low_[j];
    floor_error_ +=
        kEpsilon * (low_[j] + std::abs(floor_partial) + std::abs(floor_));
  }

  // False only when the current candidate's makespan provably cannot be
  // strictly below `incumbent`.
  bool may_beat(double incumbent) const {
    return !enabled_ || below(sum_, error_, incumbent);
  }

  // False only when no candidate from the current step to the end of the
  // chain can have a makespan strictly below `incumbent`.
  bool rest_may_beat(double incumbent) const {
    return !stop_enabled_ || below(floor_, floor_error_, incumbent);
  }

  // Chain steps after the current one: sum_j (cap_j - r_j).
  std::size_t remaining() const {
    std::size_t steps = 0;
    for (std::size_t j = 0; j < jobs_.size(); ++j) {
      steps +=
          static_cast<std::size_t>(chain_.width_cap(j) - chain_.racks()[j]);
    }
    return steps;
  }

 private:
  static constexpr double kEpsilon = std::numeric_limits<double>::epsilon();

  // True unless volume / R, shrunk by the margin, is provably >= incumbent.
  bool below(double volume, double error, double incumbent) const {
    if (slack_per_sum_ * volume + error > 0.5 * kMargin * volume) return true;
    return volume / num_racks_ * (1.0 - kMargin) < incumbent;
  }

  static bool usable(Seconds value) {
    return std::isfinite(value) && value >= 0;
  }

  void check(Seconds latency) {
    if (!usable(latency)) enabled_ = false;
  }

  // Sets low_[j] and low_at_[j] over widths from..cap_j, and turns the
  // early stop off at a negative or non-finite latency.
  void scan_rest(std::size_t j, int from) {
    low_[j] = std::numeric_limits<double>::infinity();
    for (int r = from; r <= chain_.width_cap(j); ++r) {
      const Seconds latency = jobs_[j].at(r);
      if (!usable(latency)) stop_enabled_ = false;
      const double term = static_cast<double>(r) * latency;
      if (term <= low_[j]) {
        low_[j] = term;
        low_at_[j] = r;
      }
    }
  }

  std::span<const ResponseFunction> jobs_;
  const WideningChain& chain_;
  double num_racks_;
  double slack_per_sum_;
  bool enabled_;
  bool stop_enabled_ = false;
  std::vector<double> term_;  // r_j * L_j(r_j) as added to sum_
  double sum_ = 0;
  double error_ = 0;
  std::vector<double> low_;   // the suffix minimum as added to floor_
  std::vector<int> low_at_;   // the last width attaining it
  double floor_ = 0;
  double floor_error_ = 0;
};

// The provisioning phase (§4.2) over one window of jobs: starts every job
// at one rack and repeatedly widens the currently-longest job, evaluating
// candidate allocations with the prioritization phase against the given
// initial rack availability. Candidates are evaluated in parallel in
// chain-order blocks and the argmin is reduced in step order (first minimum
// wins), so the winner is byte-identical to the serial search at any pool
// width.
//
// Under the makespan objective the search is an exact branch-and-bound:
// a candidate whose rack-time bound (RackTimeBound) cannot beat the best
// value found before its block is skipped without a prioritization pass,
// and the chain stops once the bound's floor shows that no candidate from
// there to its end can. Which candidates get skipped, and where the chain
// stops, depends on the block sizes, hence on the pool width, but a skipped
// candidate's value is never strictly below an earlier one, so it can never
// be the first minimum: the winner is the same as an exhaustive search.
// `evaluated_candidates` grows by the full chain length plus one, the steps
// after the stop included. At trace level tasks every candidate is
// evaluated so the decision log keeps one event per candidate. Returns the
// winning rack-count vector.
std::vector<int> provision(std::span<const ResponseFunction> jobs,
                           int num_racks, const PlannerConfig& config,
                           const std::vector<Seconds>* initial_finish,
                           exec::ThreadPool& pool, ScratchSlots& slots,
                           std::size_t* evaluated_candidates = nullptr) {
  const std::size_t J = jobs.size();
  const obs::TraceRecorder trace(config.tracer, config.trace_sink, "planner");
  const bool trace_candidates = trace.at(obs::TraceLevel::kTasks);

  const auto evaluate = [&](std::span<const int> allocation,
                            Scratch& scratch) {
    const auto [makespan, avg_flow] =
        run_prioritization(jobs, allocation, num_racks, config, scratch,
                           nullptr, initial_finish);
    return config.objective == Objective::kMakespan ? makespan : avg_flow;
  };

  // Each worker's job order starts afresh: the one left by another window
  // of jobs would only slow the first insertion sort down.
  for (Scratch& scratch : slots) scratch.order.clear();
  WideningChain chain(jobs, num_racks, config);
  std::vector<int> best_racks = chain.racks();
  double best_value = evaluate(best_racks, slots[0]);
  std::size_t best_step = 0;  // 0 = the all-ones starting allocation
  if (trace_candidates) {
    trace.instant(obs::TraceTrack::kPlanner, "candidate", "planner", -1, 0.0,
                  {obs::arg("step", 0.0), obs::arg("value", best_value)});
  }
  RackTimeBound bound(jobs, chain, num_racks, initial_finish,
                      config.objective == Objective::kMakespan &&
                          !trace_candidates,
                      config.explore_full_range);

  // Blocked evaluation bounds the materialized candidate allocations to
  // `max_block * J` ints while keeping every worker busy within a block.
  // They sit in one reused buffer, candidate i at [i * J, (i + 1) * J). The
  // first block holds one candidate per worker and each later block twice
  // as many, up to max_block: the first candidates are judged against the
  // weak all-ones incumbent, and the better one they find prunes the later,
  // larger blocks.
  const auto workers = static_cast<std::size_t>(pool.threads());
  const std::size_t max_block = std::max<std::size_t>(64, workers * 16);
  std::size_t block = workers;
  std::vector<int> candidates;
  const auto candidate = [&](std::size_t i) {
    return std::span<const int>(candidates).subspan(i * J, J);
  };
  std::vector<std::size_t> steps;   // chain step of each candidate
  std::vector<int> widened;         // job widened at that step
  std::vector<double> values;
  std::size_t chain_length = 0;
  bool chain_done = false;
  while (!chain_done) {
    candidates.clear();
    steps.clear();
    widened.clear();
    while (steps.size() < block) {
      const int j = chain.next();
      if (j < 0) {
        chain_done = true;
        break;
      }
      ++chain_length;
      const auto sj = static_cast<std::size_t>(j);
      bound.widen(sj, chain.racks()[sj], chain.latency(sj));
      if (!bound.rest_may_beat(best_value)) {
        chain_length += bound.remaining();
        chain_done = true;
        break;
      }
      if (!bound.may_beat(best_value)) continue;
      candidates.insert(candidates.end(), chain.racks().begin(),
                        chain.racks().end());
      steps.push_back(chain_length);
      widened.push_back(j);
    }
    values.assign(steps.size(), 0.0);
    exec::parallel_for_workers(
        pool, steps.size(), [&](int worker, std::size_t i) {
          values[i] =
              evaluate(candidate(i), slots[static_cast<std::size_t>(worker)]);
        });
    for (std::size_t i = 0; i < steps.size(); ++i) {
      // Per-candidate log entries are recorded here — after the parallel
      // block, on the calling thread, in step order — never from the
      // workers, so the log is byte-identical at any pool width.
      if (trace_candidates) {
        const auto sj = static_cast<std::size_t>(widened[i]);
        trace.instant(obs::TraceTrack::kPlanner, "candidate", "planner",
                      widened[i], static_cast<double>(steps[i]),
                      {obs::arg("step", static_cast<double>(steps[i])),
                       obs::arg("widened_job", static_cast<double>(sj)),
                       obs::arg("widened_to",
                                static_cast<double>(candidate(i)[sj])),
                       obs::arg("value", values[i])});
      }
      if (values[i] < best_value) {
        best_value = values[i];
        best_step = steps[i];
        best_racks.assign(candidate(i).begin(), candidate(i).end());
      }
    }
    block = std::min(2 * block, max_block);
  }
  if (evaluated_candidates != nullptr) {
    *evaluated_candidates += chain_length + 1;
  }
  if (trace.at(obs::TraceLevel::kJobs)) {
    trace.span(
        obs::TraceTrack::kPlanner, "provision", "planner", 0, 0.0,
        static_cast<double>(chain_length + 1),
        {obs::arg("jobs", static_cast<double>(J)),
         obs::arg("candidates", static_cast<double>(chain_length + 1)),
         obs::arg("best_step", static_cast<double>(best_step)),
         obs::arg("best_value", best_value),
         obs::arg("objective", config.objective == Objective::kMakespan
                                   ? std::string("makespan")
                                   : std::string("avg_completion"))});
  }
  return best_racks;
}

// Pool + scratch slots for one planning call: the configured pool (shared
// by default) and one Scratch per worker.
exec::ThreadPool& pool_of(const PlannerConfig& config) {
  return config.pool != nullptr ? *config.pool : exec::ThreadPool::shared();
}

}  // namespace

void validate_inputs(std::span<const ResponseFunction> jobs, int num_racks,
                     const PlannerConfig& config) {
  require(num_racks >= 1, "plan: num_racks must be >= 1");
  for (const ResponseFunction& f : jobs) {
    require(f.max_racks() >= num_racks,
            "plan: response function does not cover the cluster's racks");
  }
  if (config.placements != nullptr) {
    require(config.placements->size() == jobs.size(),
            "plan: placements must cover every job");
    for (const JobPlacement& p : *config.placements) {
      require(p.eligible.size() == static_cast<std::size_t>(num_racks),
              "plan: placement eligibility does not cover the racks");
    }
  }
}

std::string rack_list_string(std::span<const int> racks) {
  std::string out;
  for (std::size_t i = 0; i < racks.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(racks[i]);
  }
  return out;
}

Plan prioritize(std::span<const ResponseFunction> jobs,
                std::span<const int> racks_per_job, int num_racks,
                const PlannerConfig& config) {
  validate_inputs(jobs, num_racks, config);
  require(racks_per_job.size() == jobs.size(),
          "prioritize: racks_per_job size mismatch");
  for (int r : racks_per_job) {
    require(r >= 1 && r <= num_racks, "prioritize: rack count out of range");
  }
  Plan plan;
  plan.jobs.resize(jobs.size());
  Scratch scratch;
  const obs::TraceRecorder trace(config.tracer, config.trace_sink, "planner");
  const auto [makespan, avg_flow] = run_prioritization(
      jobs, racks_per_job, num_racks, config, scratch, &plan, nullptr,
      nullptr, 0, &trace);
  plan.predicted_makespan = makespan;
  plan.predicted_avg_completion = avg_flow;
  if (trace.at(obs::TraceLevel::kJobs)) {
    trace.span(obs::TraceTrack::kPlanner, "prioritize", "planner", 0,
               0.0, static_cast<double>(jobs.size()),
               {obs::arg("jobs", static_cast<double>(jobs.size())),
                obs::arg("predicted_makespan_s", makespan),
                obs::arg("predicted_avg_completion_s", avg_flow)});
  }
  return plan;
}

Plan plan_offline(std::span<const ResponseFunction> jobs, int num_racks,
                  const PlannerConfig& config) {
  validate_inputs(jobs, num_racks, config);
  if (jobs.empty()) return Plan{};
  exec::ThreadPool& pool = pool_of(config);
  ScratchSlots slots(static_cast<std::size_t>(pool.threads()));
  std::size_t evaluated = 0;
  const std::vector<int> best_racks =
      provision(jobs, num_racks, config, nullptr, pool, slots, &evaluated);
  Plan plan = prioritize(jobs, best_racks, num_racks, config);
  plan.evaluated_candidates = evaluated;
  return plan;
}

Plan plan_offline(std::span<const JobSpec> jobs, const ClusterConfig& cluster,
                  const PlannerConfig& config) {
  const LatencyModelParams params = LatencyModelParams::from_cluster(cluster);
  const std::vector<ResponseFunction> functions =
      build_response_functions(jobs, cluster.racks, params);
  if (config.placements == nullptr && any_constrained(jobs)) {
    const std::vector<JobPlacement> placements =
        resolve_placements(jobs, cluster);
    PlannerConfig resolved = config;
    resolved.placements = &placements;
    return plan_offline(functions, cluster.racks, resolved);
  }
  return plan_offline(functions, cluster.racks, config);
}

Plan plan_offline(std::span<const JobSpec> jobs, const ClusterConfig& cluster,
                  const PlannerConfig& config,
                  std::span<const int> usable_racks) {
  require(!usable_racks.empty(),
          "plan_offline: need at least one usable rack");
  std::vector<bool> seen(static_cast<std::size_t>(cluster.racks), false);
  for (int r : usable_racks) {
    require(r >= 0 && r < cluster.racks,
            "plan_offline: usable rack id out of range");
    require(!seen[static_cast<std::size_t>(r)],
            "plan_offline: duplicate usable rack id");
    seen[static_cast<std::size_t>(r)] = true;
  }
  // Plan on a virtual cluster of usable_racks.size() racks, then map the
  // virtual rack ids back onto the surviving physical racks. The latency
  // model's per-rack parameters are unchanged: a degraded cluster is a
  // smaller cluster of whole racks.
  const int virtual_racks = static_cast<int>(usable_racks.size());
  const LatencyModelParams params = LatencyModelParams::from_cluster(cluster);
  const std::vector<ResponseFunction> functions =
      build_response_functions(jobs, virtual_racks, params);
  // Placement constraints resolve against physical racks, then project onto
  // the planning view so eligibility follows a rack into its virtual id.
  std::vector<JobPlacement> view_placements;
  PlannerConfig view_config = config;
  if (config.placements != nullptr) {
    view_placements = remap_placements(*config.placements, jobs, usable_racks);
    view_config.placements = &view_placements;
  } else if (any_constrained(jobs)) {
    const std::vector<JobPlacement> physical =
        resolve_placements(jobs, cluster);
    view_placements = remap_placements(physical, jobs, usable_racks);
    view_config.placements = &view_placements;
  }
  Plan plan = plan_offline(functions, virtual_racks, view_config);
  for (PlannedJob& job : plan.jobs) {
    for (int& r : job.racks) r = usable_racks[static_cast<std::size_t>(r)];
  }
  return plan;
}

Plan plan_rolling(std::span<const ResponseFunction> jobs, int num_racks,
                  const PlannerConfig& config, Seconds period) {
  validate_inputs(jobs, num_racks, config);
  require(period > 0, "plan_rolling: period must be positive");
  Plan plan;
  plan.jobs.resize(jobs.size());
  if (jobs.empty()) return plan;

  // Group job indices by arrival window.
  Seconds last_arrival = 0;
  for (const ResponseFunction& job : jobs) {
    last_arrival = std::max(last_arrival, job.arrival());
  }
  const int windows = static_cast<int>(last_arrival / period) + 1;
  std::vector<std::vector<int>> window_jobs(
      static_cast<std::size_t>(windows));
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const auto w = static_cast<std::size_t>(jobs[j].arrival() / period);
    window_jobs[w].push_back(static_cast<int>(j));
  }

  exec::ThreadPool& pool = pool_of(config);
  ScratchSlots slots(static_cast<std::size_t>(pool.threads()));
  const obs::TraceRecorder trace(config.tracer, config.trace_sink, "planner");
  std::vector<Seconds> finish(static_cast<std::size_t>(num_racks), 0.0);
  Seconds makespan = 0;
  Seconds total_flow = 0;
  int priority_base = 0;
  for (std::size_t w = 0; w < window_jobs.size(); ++w) {
    const std::vector<int>& indices = window_jobs[w];
    if (indices.empty()) continue;
    std::vector<ResponseFunction> window;
    window.reserve(indices.size());
    for (int j : indices) window.push_back(jobs[static_cast<std::size_t>(j)]);

    // Placements are sliced to the window's jobs; anti-affinity and
    // exclusivity therefore bind within a window, matching the rolling
    // model's view that each window plans against fresh rack availability.
    PlannerConfig window_config = config;
    std::vector<JobPlacement> window_placements;
    if (config.placements != nullptr) {
      window_placements.reserve(indices.size());
      for (int j : indices) {
        window_placements.push_back(
            (*config.placements)[static_cast<std::size_t>(j)]);
      }
      window_config.placements = &window_placements;
    }

    const std::vector<int> racks =
        provision(window, num_racks, window_config, &finish, pool, slots,
                  &plan.evaluated_candidates);
    Plan window_plan;
    window_plan.jobs.resize(window.size());
    const auto [window_makespan, window_avg] = run_prioritization(
        window, racks, num_racks, window_config, slots[0], &window_plan,
        &finish, &finish, priority_base, &trace);
    // Window-local assign events above use window-local job ids; the span's
    // "job_indices" arg maps them back to the planner's input order.
    if (trace.at(obs::TraceLevel::kJobs)) {
      trace.span(
          obs::TraceTrack::kPlanner, "window", "planner",
          static_cast<long>(w), static_cast<double>(priority_base),
          static_cast<double>(priority_base + static_cast<int>(window.size())),
          {obs::arg("window", static_cast<double>(w)),
           obs::arg("window_start_s", static_cast<double>(w) * period),
           obs::arg("jobs", static_cast<double>(window.size())),
           obs::arg("job_indices", rack_list_string(indices)),
           obs::arg("window_makespan_s", window_makespan)});
    }
    makespan = std::max(makespan, window_makespan);
    total_flow += window_avg * static_cast<double>(window.size());
    priority_base += static_cast<int>(window.size());

    for (std::size_t i = 0; i < indices.size(); ++i) {
      PlannedJob planned = window_plan.jobs[i];
      planned.job_index = indices[i];
      plan.jobs[static_cast<std::size_t>(indices[i])] = std::move(planned);
    }
  }
  plan.predicted_makespan = makespan;
  plan.predicted_avg_completion =
      total_flow / static_cast<double>(jobs.size());
  return plan;
}

}  // namespace corral
