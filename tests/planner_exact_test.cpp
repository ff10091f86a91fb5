// Differential tests for the provisioning search's bound-and-prune
// (src/corral/planner.cpp): plan_offline and plan_rolling must return the
// plan an exhaustive widen-longest search returns, field for field, at any
// pool width. The references below rebuild the chain from
// ResponseFunction::at with a plain linear scan and evaluate every
// candidate, keeping the first strict minimum.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "corral/planner.h"
#include "exec/exec.h"
#include "obs/trace.h"
#include "util/rng.h"

namespace corral {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct Instance {
  std::vector<ResponseFunction> jobs;
  int racks = 1;
  PlannerConfig config;
  std::vector<JobPlacement> placements;
};

// Latency curves of several shapes: smooth scaling with overhead, integer
// valued (many exact ties, in the chain and among candidate values),
// rack-local, unstructured noise, and exact perfect speedup (27720 is
// divisible by every r <= 12), where the best plans meet the rack-time
// bound with equality.
ResponseFunction random_job(Rng& rng, int shape, int racks, Seconds arrival) {
  const double a = rng.uniform(10, 1000);
  const double b = rng.uniform(0, 20);
  const double c = rng.uniform(1, 50);
  std::vector<Seconds> latency;
  for (int r = 1; r <= racks; ++r) {
    switch (shape) {
      case 0:
        latency.push_back(a / r + b * (r - 1) + c);
        break;
      case 1:
        latency.push_back(static_cast<double>(
            rng.uniform_int(1, 8) * (1 + (rng.uniform_int(1, 40) / r))));
        break;
      case 2:
        latency.push_back(c * (1 + 0.5 * (r - 1)));
        break;
      case 3:
        latency.push_back(rng.uniform(1, 100));
        break;
      default:
        latency.push_back(static_cast<double>(27720 * (1 + shape - 4) / r));
        break;
    }
  }
  return ResponseFunction(std::move(latency), arrival);
}

// Random eligibility masks, so widening stops at each job's width cap; with
// `cross_job` set, some jobs also share anti-affinity sets or claim racks
// exclusively, which makes some candidates (or the whole instance)
// infeasible.
std::vector<JobPlacement> random_placements(Rng& rng, int jobs, int racks,
                                            bool cross_job) {
  std::vector<JobPlacement> placements(static_cast<std::size_t>(jobs));
  for (JobPlacement& p : placements) {
    p.eligible.assign(static_cast<std::size_t>(racks), 1);
    p.eligible_count = racks;
    if (rng.chance(0.5)) {
      p.constrained = true;
      p.eligible_count = 0;
      for (int r = 0; r < racks; ++r) {
        const bool ok = rng.chance(0.6);
        p.eligible[static_cast<std::size_t>(r)] = ok ? 1 : 0;
        p.eligible_count += ok ? 1 : 0;
      }
      if (p.eligible_count == 0) {
        p.eligible[static_cast<std::size_t>(rng.index(
            static_cast<std::size_t>(racks)))] = 1;
        p.eligible_count = 1;
      }
    }
    if (cross_job && rng.chance(0.3)) {
      p.constrained = true;
      p.anti_affinity = rng.uniform_int(0, 1);
    }
    if (cross_job && rng.chance(0.05)) {
      p.constrained = true;
      p.rack_exclusive = true;
    }
  }
  return placements;
}

Instance random_instance(Rng& rng, int trial) {
  Instance in;
  in.racks = rng.uniform_int(1, 12);
  const int jobs = rng.uniform_int(1, 30);
  const bool online = trial % 7 == 6;
  const int shape = trial % 5 == 4 ? 4 + rng.uniform_int(0, 2) : trial % 5;
  for (int j = 0; j < jobs; ++j) {
    const Seconds arrival = online ? rng.uniform(0, 200) : 0.0;
    in.jobs.push_back(random_job(rng, shape, in.racks, arrival));
  }
  in.config.objective =
      online ? Objective::kAverageCompletionTime : Objective::kMakespan;
  in.config.widest_job_first = rng.chance(0.5);
  in.config.explore_full_range = rng.chance(0.7);
  if (trial % 3 == 0) {
    in.placements = random_placements(rng, jobs, in.racks, trial % 6 == 0);
  }
  return in;
}

PlannerConfig config_of(const Instance& in) {
  PlannerConfig config = in.config;
  if (!in.placements.empty()) config.placements = &in.placements;
  return config;
}

// Objective value of one candidate through the public prioritize(); an
// allocation the placement filters cannot seat is infinitely bad, as in the
// provisioning search.
double value_of(std::span<const ResponseFunction> jobs,
                const std::vector<int>& racks, int num_racks,
                const PlannerConfig& config) {
  try {
    return prioritize(jobs, racks, num_racks, config)
        .objective_value(config.objective);
  } catch (const std::invalid_argument&) {
    return kInf;
  }
}

// The widen-longest chain (§4.2) by linear scan: the first job of maximum
// L_j(r_j) among those below their width cap, until every job is capped or
// (without explore_full_range) the widened jobs hold R racks. `visit`
// receives the rack vector of every candidate, the all-ones start first.
template <typename Visit>
void walk_chain(std::span<const ResponseFunction> jobs, int num_racks,
                const PlannerConfig& config, Visit visit) {
  const std::size_t J = jobs.size();
  std::vector<int> racks(J, 1);
  std::vector<int> cap(J, num_racks);
  if (config.placements != nullptr) {
    for (std::size_t j = 0; j < J; ++j) {
      cap[j] = std::min(num_racks, (*config.placements)[j].eligible_count);
    }
  }
  visit(racks);
  long widened_total = 0;
  while (true) {
    int longest = -1;
    Seconds longest_latency = -1;
    for (std::size_t j = 0; j < J; ++j) {
      if (racks[j] >= cap[j]) continue;
      const Seconds latency = jobs[j].at(racks[j]);
      if (latency > longest_latency) {
        longest_latency = latency;
        longest = static_cast<int>(j);
      }
    }
    if (longest < 0) break;
    const auto sj = static_cast<std::size_t>(longest);
    widened_total += racks[sj] == 1 ? 2 : 1;
    ++racks[sj];
    visit(racks);
    if (!config.explore_full_range && widened_total >= num_racks) break;
  }
}

// Exhaustive plan_offline: every candidate evaluated, first strict minimum
// kept. `values` (when non-null) receives every candidate's value in step
// order.
Plan reference_offline(std::span<const ResponseFunction> jobs, int num_racks,
                       const PlannerConfig& config,
                       std::vector<double>* values = nullptr) {
  std::vector<int> best_racks;
  double best = kInf;
  std::size_t count = 0;
  walk_chain(jobs, num_racks, config, [&](const std::vector<int>& racks) {
    const double value = value_of(jobs, racks, num_racks, config);
    if (values != nullptr) values->push_back(value);
    if (count == 0 || value < best) {
      best = value;
      best_racks = racks;
    }
    ++count;
  });
  Plan plan = prioritize(jobs, best_racks, num_racks, config);
  plan.evaluated_candidates = count;
  return plan;
}

// Figure 4 for unconstrained jobs against carried-over rack finish times:
// widest first (if configured), then longest, then lowest index (arrival
// first under the online objective); each job takes the r_j racks that free
// up earliest. Returns {makespan, avg completion} and, when `plan` is
// non-null, fills its jobs with global priorities from `priority_base`.
std::pair<double, double> reference_pass(
    std::span<const ResponseFunction> jobs, const std::vector<int>& racks,
    const PlannerConfig& config, std::vector<Seconds>& finish,
    int priority_base, std::vector<PlannedJob>* plan) {
  const std::size_t J = jobs.size();
  std::vector<int> order(J);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const auto sa = static_cast<std::size_t>(a);
    const auto sb = static_cast<std::size_t>(b);
    if (config.objective == Objective::kAverageCompletionTime &&
        jobs[sa].arrival() != jobs[sb].arrival()) {
      return jobs[sa].arrival() < jobs[sb].arrival();
    }
    if (config.widest_job_first && racks[sa] != racks[sb]) {
      return racks[sa] > racks[sb];
    }
    const Seconds la = jobs[sa].at(racks[sa]);
    const Seconds lb = jobs[sb].at(racks[sb]);
    if (la != lb) return la > lb;
    return a < b;
  });
  std::vector<int> ids(finish.size());
  double makespan = 0;
  double total_flow = 0;
  int priority = priority_base;
  for (int j : order) {
    const auto sj = static_cast<std::size_t>(j);
    std::iota(ids.begin(), ids.end(), 0);
    std::sort(ids.begin(), ids.end(), [&](int a, int b) {
      const Seconds fa = finish[static_cast<std::size_t>(a)];
      const Seconds fb = finish[static_cast<std::size_t>(b)];
      return fa != fb ? fa < fb : a < b;
    });
    ids.resize(static_cast<std::size_t>(racks[sj]));
    Seconds start = jobs[sj].arrival();
    for (int r : ids) {
      start = std::max(start, finish[static_cast<std::size_t>(r)]);
    }
    const Seconds latency = jobs[sj].at(racks[sj]);
    const Seconds completion = start + latency;
    for (int r : ids) finish[static_cast<std::size_t>(r)] = completion;
    makespan = std::max(makespan, completion);
    total_flow += completion - jobs[sj].arrival();
    if (plan != nullptr) {
      PlannedJob& planned = (*plan)[sj];
      planned.job_index = j;
      planned.num_racks = racks[sj];
      planned.racks = ids;
      std::sort(planned.racks.begin(), planned.racks.end());
      planned.start_time = start;
      planned.predicted_latency = latency;
      planned.priority = priority;
    }
    ++priority;
    ids.resize(finish.size());
  }
  return {makespan, J == 0 ? 0.0 : total_flow / static_cast<double>(J)};
}

// Exhaustive plan_rolling for unconstrained jobs: windows of `period`
// seconds by arrival, each provisioned exhaustively against the finish
// times the previous windows left behind.
Plan reference_rolling(std::span<const ResponseFunction> jobs, int num_racks,
                       const PlannerConfig& config, Seconds period) {
  Plan plan;
  plan.jobs.resize(jobs.size());
  Seconds last_arrival = 0;
  for (const ResponseFunction& job : jobs) {
    last_arrival = std::max(last_arrival, job.arrival());
  }
  const int windows = static_cast<int>(last_arrival / period) + 1;
  std::vector<std::vector<int>> window_jobs(static_cast<std::size_t>(windows));
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    window_jobs[static_cast<std::size_t>(jobs[j].arrival() / period)]
        .push_back(static_cast<int>(j));
  }
  std::vector<Seconds> finish(static_cast<std::size_t>(num_racks), 0.0);
  double makespan = 0;
  double total_flow = 0;
  int priority_base = 0;
  for (const std::vector<int>& indices : window_jobs) {
    if (indices.empty()) continue;
    std::vector<ResponseFunction> window;
    for (int j : indices) window.push_back(jobs[static_cast<std::size_t>(j)]);
    const auto objective = [&](const std::pair<double, double>& v) {
      return config.objective == Objective::kMakespan ? v.first : v.second;
    };
    std::vector<int> best_racks;
    double best = kInf;
    bool first = true;
    walk_chain(window, num_racks, config, [&](const std::vector<int>& racks) {
      std::vector<Seconds> scratch = finish;
      const double value = objective(
          reference_pass(window, racks, config, scratch, 0, nullptr));
      if (first || value < best) {
        best = value;
        best_racks = racks;
      }
      first = false;
      ++plan.evaluated_candidates;
    });
    std::vector<PlannedJob> planned(window.size());
    const auto [window_makespan, window_avg] = reference_pass(
        window, best_racks, config, finish, priority_base, &planned);
    makespan = std::max(makespan, window_makespan);
    total_flow += window_avg * static_cast<double>(window.size());
    priority_base += static_cast<int>(window.size());
    for (std::size_t i = 0; i < indices.size(); ++i) {
      planned[i].job_index = indices[i];
      plan.jobs[static_cast<std::size_t>(indices[i])] = planned[i];
    }
  }
  plan.predicted_makespan = makespan;
  plan.predicted_avg_completion =
      total_flow / static_cast<double>(jobs.size());
  return plan;
}

void expect_same_plan(const Plan& want, const Plan& got,
                      const std::string& label) {
  ASSERT_EQ(want.jobs.size(), got.jobs.size()) << label;
  for (std::size_t j = 0; j < want.jobs.size(); ++j) {
    const PlannedJob& a = want.jobs[j];
    const PlannedJob& b = got.jobs[j];
    EXPECT_EQ(a.job_index, b.job_index) << label << " job " << j;
    EXPECT_EQ(a.num_racks, b.num_racks) << label << " job " << j;
    EXPECT_EQ(a.racks, b.racks) << label << " job " << j;
    EXPECT_EQ(a.start_time, b.start_time) << label << " job " << j;
    EXPECT_EQ(a.predicted_latency, b.predicted_latency)
        << label << " job " << j;
    EXPECT_EQ(a.priority, b.priority) << label << " job " << j;
  }
  EXPECT_EQ(want.predicted_makespan, got.predicted_makespan) << label;
  EXPECT_EQ(want.predicted_avg_completion, got.predicted_avg_completion)
      << label;
  EXPECT_EQ(want.evaluated_candidates, got.evaluated_candidates) << label;
}

// Pools of width 1, 2 and 8: the search's first block holds one candidate
// per worker and each later block twice as many, up to 64 candidates at
// widths 1 and 2 and 128 at width 8. The incumbent each block is judged
// against, hence the set of pruned candidates and the step at which the
// chain stops, differs between them while the plan must not.
std::vector<std::unique_ptr<exec::ThreadPool>> make_pools() {
  std::vector<std::unique_ptr<exec::ThreadPool>> pools;
  for (int width : {1, 2, 8}) {
    pools.push_back(std::make_unique<exec::ThreadPool>(width));
  }
  return pools;
}

TEST(PlanOfflineExact, MatchesExhaustiveSearchOnRandomInstances) {
  const auto pools = make_pools();
  Rng rng(20260417);
  int infeasible = 0;
  for (int trial = 0; trial < 240; ++trial) {
    const Instance in = random_instance(rng, trial);
    const PlannerConfig config = config_of(in);
    const std::string label = "trial " + std::to_string(trial);
    Plan want;
    bool want_throws = false;
    std::string want_error;
    try {
      want = reference_offline(in.jobs, in.racks, config);
    } catch (const std::invalid_argument& e) {
      want_throws = true;
      want_error = e.what();
      ++infeasible;
    }
    for (const auto& pool : pools) {
      PlannerConfig pooled = config;
      pooled.pool = pool.get();
      const std::string at =
          label + " width " + std::to_string(pool->threads());
      if (want_throws) {
        try {
          (void)plan_offline(in.jobs, in.racks, pooled);
          ADD_FAILURE() << at << ": expected the reference's error "
                        << want_error;
        } catch (const std::invalid_argument& e) {
          EXPECT_EQ(want_error, e.what()) << at;
        }
        continue;
      }
      expect_same_plan(want, plan_offline(in.jobs, in.racks, pooled), at);
    }
  }
  // Most instances must be plannable for the comparison to mean much.
  EXPECT_LT(infeasible, 24);
}

// Instances sized like a small Fig 5 point, where the bound prunes almost
// every candidate once a good incumbent is found.
TEST(PlanOfflineExact, MatchesExhaustiveSearchOnLargerInstances) {
  const auto pools = make_pools();
  Rng rng(77);
  for (int trial = 0; trial < 6; ++trial) {
    Instance in;
    in.racks = 16;
    for (int j = 0; j < 60; ++j) {
      in.jobs.push_back(random_job(rng, trial % 2, in.racks, 0.0));
    }
    in.config.widest_job_first = trial % 3 != 2;
    const Plan want = reference_offline(in.jobs, in.racks, in.config);
    for (const auto& pool : pools) {
      PlannerConfig pooled = in.config;
      pooled.pool = pool.get();
      expect_same_plan(want, plan_offline(in.jobs, in.racks, pooled),
                       "trial " + std::to_string(trial) + " width " +
                           std::to_string(pool->threads()));
    }
  }
}

TEST(PlanOfflineExact, RollingMatchesExhaustiveSearchWithCarriedOverRacks) {
  const auto pools = make_pools();
  Rng rng(4242);
  bool carried_over = false;
  for (int trial = 0; trial < 40; ++trial) {
    const int racks = rng.uniform_int(2, 10);
    const int jobs = rng.uniform_int(4, 24);
    std::vector<ResponseFunction> functions;
    for (int j = 0; j < jobs; ++j) {
      functions.push_back(
          random_job(rng, trial % 4, racks, rng.uniform(0, 300)));
    }
    PlannerConfig config;
    config.objective = trial % 4 == 3 ? Objective::kAverageCompletionTime
                                      : Objective::kMakespan;
    config.widest_job_first = rng.chance(0.5);
    config.explore_full_range = rng.chance(0.7);
    const Seconds period = 100;
    const Plan want = reference_rolling(functions, racks, config, period);
    for (const PlannedJob& job : want.jobs) {
      const Seconds arrival =
          functions[static_cast<std::size_t>(job.job_index)].arrival();
      const auto window = static_cast<int>(arrival / period);
      if (window > 0 && job.start_time > arrival) carried_over = true;
    }
    for (const auto& pool : pools) {
      PlannerConfig pooled = config;
      pooled.pool = pool.get();
      expect_same_plan(want, plan_rolling(functions, racks, pooled, period),
                       "trial " + std::to_string(trial) + " width " +
                           std::to_string(pool->threads()));
    }
  }
  // Later windows must really start behind racks the earlier ones hold.
  EXPECT_TRUE(carried_over);
}

// The winner meets the rack-time bound with equality and beats the
// incumbent by a single unit in the last place of 2^k: job A = b + 1 and
// job B = b = 2^k on two racks with perfect speedup. The all-ones start
// has makespan b + 1, widening both jobs gives (2b + 1) / 2, exactly the
// bound. A bound any tighter than the true volume would prune the winner.
TEST(PlanOfflineExact, KeepsAWinnerThatMeetsTheBoundExactly) {
  const auto pools = make_pools();
  for (int k : {10, 30, 50}) {
    const double b = std::ldexp(1.0, k);
    const std::vector<ResponseFunction> jobs = {
        ResponseFunction({b + 1, (b + 1) / 2}, 0),
        ResponseFunction({b, b / 2}, 0)};
    const PlannerConfig config;
    const Plan want = reference_offline(jobs, 2, config);
    ASSERT_EQ(want.predicted_makespan, (2 * b + 1) / 2) << "k " << k;
    for (const auto& pool : pools) {
      PlannerConfig pooled = config;
      pooled.pool = pool.get();
      expect_same_plan(want, plan_offline(jobs, 2, pooled),
                       "k " + std::to_string(k) + " width " +
                           std::to_string(pool->threads()));
    }
  }
}

// Infinite latencies void the volume bound; the search must fall back to
// evaluating candidates and still match the exhaustive plan.
TEST(PlanOfflineExact, NonFiniteLatenciesMatchExhaustiveSearch) {
  const auto pools = make_pools();
  const int racks = 4;
  const std::vector<std::vector<ResponseFunction>> cases = {
      {ResponseFunction({kInf, 200, 120, 100}, 0),
       ResponseFunction({80, 45, 30, 25}, 0),
       ResponseFunction({60, 70, 80, 90}, 0),
       ResponseFunction({90, 50, 40, 35}, 0)},
      {ResponseFunction({kInf, kInf, kInf, kInf}, 0),
       ResponseFunction({80, 45, 30, 25}, 0),
       ResponseFunction({60, 70, 80, 90}, 0)},
      {ResponseFunction({50, 30, kInf, 20}, 0),
       ResponseFunction({70, 40, 30, 25}, 0)},
  };
  for (std::size_t c = 0; c < cases.size(); ++c) {
    for (bool full_range : {true, false}) {
      PlannerConfig config;
      config.explore_full_range = full_range;
      const Plan want = reference_offline(cases[c], racks, config);
      for (const auto& pool : pools) {
        PlannerConfig pooled = config;
        pooled.pool = pool.get();
        expect_same_plan(want, plan_offline(cases[c], racks, pooled),
                         "case " + std::to_string(c) + " width " +
                             std::to_string(pool->threads()));
      }
    }
  }
}

// The volume r * L(r) of a job that scales poorly until its last width,
// where it falls below its one-rack volume.
ResponseFunction late_dip_job(Rng& rng, int racks) {
  const double a = rng.uniform(50, 100);
  std::vector<Seconds> latency;
  for (int r = 1; r < racks; ++r) {
    latency.push_back(a * (1 + 0.3 * (r - 1)) / r);
  }
  latency.push_back(a * rng.uniform(0.2, 0.8) / racks);
  return ResponseFunction(std::move(latency), 0.0);
}

// Sum over jobs of r_j * L_j(r_j) / R, the rack-time volume bound of one
// candidate.
double volume_bound(std::span<const ResponseFunction> jobs,
                    const std::vector<int>& racks, int num_racks) {
  double volume = 0;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    volume += racks[j] * jobs[j].at(racks[j]);
  }
  return volume / num_racks;
}

// The early stop must bound each job by the least volume left on the rest
// of its range, not by its current one. In these instances some candidate's
// own volume bound already reaches the all-ones start's makespan, the
// weakest incumbent any block is judged against, before a later candidate
// wins through a job whose volume dips at its last width: a floor built
// from current terms would stop before the winner.
TEST(PlanOfflineExact, StopsOnlyWhenNoLaterVolumeDipCanWin) {
  const auto pools = make_pools();
  Rng rng(31);
  int dips_after_a_full_bound = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const int racks = rng.uniform_int(2, 6);
    const int jobs = rng.uniform_int(racks, 3 * racks);
    std::vector<ResponseFunction> functions;
    for (int j = 0; j < jobs; ++j) {
      functions.push_back(late_dip_job(rng, racks));
    }
    const PlannerConfig config;
    std::vector<double> values;
    std::vector<double> bounds;
    const Plan want = reference_offline(functions, racks, config, &values);
    walk_chain(functions, racks, config, [&](const std::vector<int>& r) {
      bounds.push_back(volume_bound(functions, r, racks));
    });
    const auto winner = static_cast<std::size_t>(
        std::min_element(values.begin(), values.end()) - values.begin());
    for (std::size_t step = 1; step < winner; ++step) {
      if (bounds[step] * (1 - 1e-9) >= values[0]) {
        ++dips_after_a_full_bound;
        break;
      }
    }
    for (const auto& pool : pools) {
      PlannerConfig pooled = config;
      pooled.pool = pool.get();
      expect_same_plan(want, plan_offline(functions, racks, pooled),
                       "trial " + std::to_string(trial) + " width " +
                           std::to_string(pool->threads()));
    }
  }
  EXPECT_GE(dips_after_a_full_bound, 20);
}

// R jobs of the same one-rack latency keep every rack busy until the
// all-ones makespan, which therefore meets the volume bound; every job's
// volume grows with its width, so the floor passes that incumbent at the
// first step and the chain stops inside the first block at every pool
// width. The candidate count must still cover the whole chain.
TEST(PlanOfflineExact, StopsInsideTheFirstBlock) {
  const auto pools = make_pools();
  Rng rng(5);
  for (int trial = 0; trial < 12; ++trial) {
    const int racks = rng.uniform_int(2, 12);
    const double one_rack = rng.uniform(10, 1000);
    std::vector<ResponseFunction> functions;
    for (int j = 0; j < racks; ++j) {
      const double overhead = rng.uniform(0.01, 0.5);
      std::vector<Seconds> latency;
      for (int r = 1; r <= racks; ++r) {
        latency.push_back(one_rack * (1 + overhead * (r - 1)) / r);
      }
      functions.emplace_back(std::move(latency), 0.0);
    }
    PlannerConfig config;
    config.widest_job_first = trial % 2 == 0;
    std::vector<double> values;
    const Plan want = reference_offline(functions, racks, config, &values);
    ASSERT_EQ(values[0], one_rack) << "trial " << trial;
    ASSERT_EQ(want.evaluated_candidates,
              static_cast<std::size_t>(racks * (racks - 1) + 1));
    std::vector<int> first_step(static_cast<std::size_t>(racks), 1);
    first_step[0] = 2;
    EXPECT_GT(volume_bound(functions, first_step, racks) * (1 - 1e-9),
              values[0])
        << "trial " << trial;
    for (const auto& pool : pools) {
      PlannerConfig pooled = config;
      pooled.pool = pool.get();
      expect_same_plan(want, plan_offline(functions, racks, pooled),
                       "trial " + std::to_string(trial) + " width " +
                           std::to_string(pool->threads()));
    }
  }
}

// At trace level tasks the search evaluates every candidate, so the
// decision log has one "candidate" event per chain step plus the start,
// each carrying the exhaustive search's value.
TEST(PlanOfflineExact, TasksTraceRecordsEveryCandidate) {
  Rng rng(9);
  std::vector<ResponseFunction> jobs;
  const int racks = 10;
  for (int j = 0; j < 30; ++j) jobs.push_back(random_job(rng, 0, racks, 0.0));
  const auto pools = make_pools();
  for (const auto& pool : pools) {
    PlannerConfig config;
    config.pool = pool.get();
    std::vector<double> values;
    const Plan want = reference_offline(jobs, racks, config, &values);

    obs::TracerOptions options;
    options.level = obs::TraceLevel::kTasks;
    obs::Tracer tracer(options);
    PlannerConfig traced = config;
    traced.tracer = &tracer;
    const Plan plan = plan_offline(jobs, racks, traced);
    expect_same_plan(want, plan, "traced");
    expect_same_plan(want, plan_offline(jobs, racks, config), "untraced");

    std::vector<double> logged;
    for (const obs::TraceEvent& event : tracer.sink(0).events()) {
      if (event.name != "candidate") continue;
      for (const obs::TraceArg& a : event.args) {
        if (a.key == "value") logged.push_back(a.num);
      }
    }
    EXPECT_EQ(logged.size(), plan.evaluated_candidates);
    EXPECT_EQ(logged, values);
  }
}

}  // namespace
}  // namespace corral
