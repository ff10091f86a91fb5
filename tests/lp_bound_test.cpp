#include <gtest/gtest.h>

#include "corral/lp_bound.h"
#include "corral/planner.h"
#include "lp/simplex.h"
#include "util/rng.h"

namespace corral {
namespace {

ResponseFunction speedup(double base, int max_racks, double parallel = 1.0,
                         Seconds arrival = 0) {
  std::vector<Seconds> latency;
  for (int r = 1; r <= max_racks; ++r) {
    latency.push_back(base * ((1 - parallel) + parallel / r));
  }
  return ResponseFunction(std::move(latency), arrival);
}

std::vector<ResponseFunction> random_instance(Rng& rng, int jobs,
                                              int max_racks,
                                              bool online = false) {
  std::vector<ResponseFunction> out;
  for (int i = 0; i < jobs; ++i) {
    out.push_back(speedup(rng.uniform(10, 400), max_racks,
                          rng.uniform(0.2, 1.0),
                          online ? rng.uniform(0, 200) : 0));
  }
  return out;
}

TEST(LpBatchBound, SingleJobBoundIsBestLatency) {
  const std::vector<ResponseFunction> jobs = {speedup(100, 4)};
  // One perfectly parallel job: L(4) = 25 and work/capacity = 100/4 = 25.
  EXPECT_NEAR(lp_batch_makespan_bound(jobs, 4), 25.0, 1e-6);
}

TEST(LpBatchBound, CapacityBindsWithManyJobs) {
  // 8 identical sequential jobs of length 10 on 4 racks: T >= 80/4 = 20.
  std::vector<ResponseFunction> jobs;
  for (int i = 0; i < 8; ++i) {
    jobs.push_back(ResponseFunction({10.0, 10.0, 10.0, 10.0}, 0));
  }
  // Work on r racks is 10r, so minimum per-job work is 10 at r=1.
  EXPECT_NEAR(lp_batch_makespan_bound(jobs, 4), 20.0, 1e-6);
}

// Reference: LP-Batch as the appendix writes it, solved with the dense
// simplex solver. Variables x_{jr} (job j's share of width r) for j in
// [0, J), r in [1, R], then the makespan T.
double lp_batch_bound_by_simplex(std::span<const ResponseFunction> jobs,
                                 int num_racks) {
  const int J = static_cast<int>(jobs.size());
  const int t_var = J * num_racks;
  const auto x_index = [&](int j, int r) { return j * num_racks + (r - 1); };

  LpProblem lp(t_var + 1);
  std::vector<double> objective(static_cast<std::size_t>(t_var) + 1, 0.0);
  objective[static_cast<std::size_t>(t_var)] = 1.0;
  lp.minimize(std::move(objective));

  std::vector<std::pair<int, double>> capacity;
  for (int j = 0; j < J; ++j) {
    const ResponseFunction& job = jobs[static_cast<std::size_t>(j)];
    // (2) sum_r x_jr = 1 and (3) sum_r x_jr L_j(r) - T <= 0.
    std::vector<std::pair<int, double>> one;
    std::vector<std::pair<int, double>> latency;
    for (int r = 1; r <= num_racks; ++r) {
      one.emplace_back(x_index(j, r), 1.0);
      latency.emplace_back(x_index(j, r), job.at(r));
      capacity.emplace_back(x_index(j, r), job.at(r) * r);
    }
    latency.emplace_back(t_var, -1.0);
    lp.add_constraint_sparse(one, Relation::kEqual, 1.0);
    lp.add_constraint_sparse(latency, Relation::kLessEqual, 0.0);
  }
  // (4) sum_{j,r} x_jr L_j(r) r - T R <= 0.
  capacity.emplace_back(t_var, -static_cast<double>(num_racks));
  lp.add_constraint_sparse(capacity, Relation::kLessEqual, 0.0);

  const LpSolution solution = lp.solve();
  EXPECT_TRUE(solution.optimal());
  return solution.objective;
}

TEST(LpBatchBound, MatchesSimplexOnRandomInstances) {
  Rng rng(2024);
  for (int trial = 0; trial < 10; ++trial) {
    const int J = rng.uniform_int(2, 12);
    const int R = rng.uniform_int(2, 6);
    const auto jobs = random_instance(rng, J, R);
    const double fast = lp_batch_makespan_bound(jobs, R);
    const double simplex = lp_batch_bound_by_simplex(jobs, R);
    EXPECT_NEAR(fast, simplex, 1e-4 * std::max(1.0, simplex))
        << "trial " << trial << " J=" << J << " R=" << R;
  }
}

// solve_lp_batch's per-job widths are a feasible LP-Batch solution at its
// bound: shares are non-negative and sum to 1, each job's expected latency
// fits the bound, and the summed work fits the capacity bound * R.
TEST(LpBatchBound, SolutionIsFeasibleAtItsBound) {
  Rng rng(31);
  for (int trial = 0; trial < 20; ++trial) {
    const int J = rng.uniform_int(1, 30);
    const int R = rng.uniform_int(1, 12);
    const auto jobs = random_instance(rng, J, R);
    const LpBatchSolution solution = solve_lp_batch(jobs, R);
    EXPECT_EQ(solution.bound, lp_batch_makespan_bound(jobs, R));
    ASSERT_EQ(solution.widths.size(), jobs.size());
    double total_work = 0;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      double shares = 0;
      double latency = 0;
      for (const LpBatchSolution::Width& w : solution.widths[j]) {
        ASSERT_GE(w.racks, 1);
        ASSERT_LE(w.racks, R);
        EXPECT_GE(w.share, 0.0);
        shares += w.share;
        latency += w.share * jobs[j].at(w.racks);
        total_work += w.share * w.racks * jobs[j].at(w.racks);
      }
      EXPECT_NEAR(shares, 1.0, 1e-12) << "trial " << trial << " job " << j;
      EXPECT_LE(latency, solution.bound * (1 + 1e-9)) << "trial " << trial;
    }
    EXPECT_LE(total_work, solution.bound * R * (1 + 1e-9))
        << "trial " << trial;
  }
}

TEST(LpBatchBound, SolutionWidthsAtTheEnvelopeVertices) {
  // One perfectly parallel job: every width does 100 rack-seconds of work,
  // so the bound 25 is met only by running on all 4 racks.
  const std::vector<ResponseFunction> parallel = {speedup(100, 4)};
  const LpBatchSolution one = solve_lp_batch(parallel, 4);
  EXPECT_EQ(one.widths[0][0].racks, 4);
  EXPECT_DOUBLE_EQ(one.widths[0][0].share, 1.0);
  // Sequential jobs: widening only adds work, so the latency constraint
  // never binds and each job takes its minimum-work width alone.
  std::vector<ResponseFunction> sequential(
      8, ResponseFunction({10.0, 10.0, 10.0, 10.0}, 0));
  const LpBatchSolution flat = solve_lp_batch(sequential, 4);
  for (const auto& widths : flat.widths) {
    EXPECT_EQ(widths[0].racks, 1);
    EXPECT_EQ(widths[0].share, 1.0);
    EXPECT_EQ(widths[1].share, 0.0);
  }
}

TEST(LpBatchBound, LowerBoundsTheHeuristic) {
  Rng rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    const int J = rng.uniform_int(3, 25);
    const int R = rng.uniform_int(2, 8);
    const auto jobs = random_instance(rng, J, R);
    PlannerConfig config;
    const Plan plan = plan_offline(jobs, R, config);
    const double bound = lp_batch_makespan_bound(jobs, R);
    EXPECT_LE(bound, plan.predicted_makespan + 1e-6)
        << "trial " << trial;
  }
}

TEST(LpBatchBound, HeuristicWithinPaperGapOnBatch) {
  // §4.2: "within 3% of the solution of an LP-relaxation" for makespan on
  // realistic instances. Random malleable instances land close to the
  // bound; we assert a modest 25% envelope to keep the test robust and
  // leave the precise study to bench_lp_gap.
  Rng rng(99);
  double worst = 0;
  for (int trial = 0; trial < 5; ++trial) {
    const auto jobs = random_instance(rng, 30, 7);
    PlannerConfig config;
    const Plan plan = plan_offline(jobs, 7, config);
    const double bound = lp_batch_makespan_bound(jobs, 7);
    worst = std::max(worst, plan.predicted_makespan / bound - 1);
  }
  EXPECT_LT(worst, 0.25);
}

TEST(OnlineBound, SingleJobIsItsMinLatency) {
  const std::vector<ResponseFunction> jobs = {speedup(100, 4)};
  EXPECT_NEAR(online_avg_completion_bound(jobs, 4), 25.0, 1e-6);
}

TEST(OnlineBound, SrptBoundKicksInUnderLoad) {
  // Two sequential length-10 jobs arriving together on one rack: SRPT gives
  // completions 10 and 20 -> average flow 15 > per-job min latency 10.
  const std::vector<ResponseFunction> jobs = {
      ResponseFunction({10.0}, 0.0), ResponseFunction({10.0}, 0.0)};
  EXPECT_NEAR(online_avg_completion_bound(jobs, 1), 15.0, 1e-6);
}

TEST(OnlineBound, RespectsArrivals) {
  // Second job arrives after the first finishes: no queueing in the bound.
  const std::vector<ResponseFunction> jobs = {
      ResponseFunction({10.0}, 0.0), ResponseFunction({10.0}, 50.0)};
  EXPECT_NEAR(online_avg_completion_bound(jobs, 1), 10.0, 1e-6);
}

TEST(OnlineBound, LowerBoundsTheOnlineHeuristic) {
  Rng rng(13);
  for (int trial = 0; trial < 10; ++trial) {
    const int J = rng.uniform_int(3, 20);
    const int R = rng.uniform_int(2, 6);
    const auto jobs = random_instance(rng, J, R, /*online=*/true);
    PlannerConfig config;
    config.objective = Objective::kAverageCompletionTime;
    const Plan plan = plan_offline(jobs, R, config);
    EXPECT_LE(online_avg_completion_bound(jobs, R),
              plan.predicted_avg_completion + 1e-6)
        << "trial " << trial;
  }
}

TEST(Bounds, EmptyAndValidation) {
  const std::vector<ResponseFunction> none;
  EXPECT_DOUBLE_EQ(lp_batch_makespan_bound(none, 3), 0.0);
  EXPECT_DOUBLE_EQ(online_avg_completion_bound(none, 3), 0.0);
  const std::vector<ResponseFunction> narrow = {speedup(10, 2)};
  EXPECT_THROW(lp_batch_makespan_bound(narrow, 5), std::invalid_argument);
}

}  // namespace
}  // namespace corral
