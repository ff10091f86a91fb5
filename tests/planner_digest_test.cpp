// Pinned digests of whole plans from the Corral planner
// (src/corral/planner.cpp). Each digest hashes every PlannedJob field for
// field — the index, the rack count, the rack ids, the bit images of the
// start time and the predicted latency, the priority — plus the bit images
// of the predicted makespan and average completion and the candidate
// count. A change to the provisioning search, the prioritization pass or
// the latency model that moves any plan by one bit fails here, at pool
// widths 1 and 4.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "corral/planner.h"
#include "exec/exec.h"
#include "util/hash.h"
#include "util/rng.h"
#include "workload/workloads.h"

namespace corral {
namespace {

std::uint64_t mix(std::uint64_t state, std::uint64_t value) {
  return fnv1a(std::to_string(value) + ",", state);
}

std::uint64_t mix(std::uint64_t state, double value) {
  return mix(state, std::bit_cast<std::uint64_t>(value));
}

std::string plan_digest(const Plan& plan) {
  std::uint64_t state = kFnvOffsetBasis;
  for (const PlannedJob& job : plan.jobs) {
    state = mix(state, static_cast<std::uint64_t>(job.job_index));
    state = mix(state, static_cast<std::uint64_t>(job.num_racks));
    for (int r : job.racks) state = mix(state, static_cast<std::uint64_t>(r));
    state = mix(state, job.start_time);
    state = mix(state, job.predicted_latency);
    state = mix(state, static_cast<std::uint64_t>(job.priority));
    state = fnv1a(";", state);
  }
  state = mix(state, plan.predicted_makespan);
  state = mix(state, plan.predicted_avg_completion);
  state = mix(state, static_cast<std::uint64_t>(plan.evaluated_candidates));
  return hex16(state);
}

// The digest of `make_plan(config)` at pool widths 1 and 4.
void expect_digest(const std::string& want,
                   const std::function<Plan(const PlannerConfig&)>& make_plan,
                   PlannerConfig config = {}) {
  for (int width : {1, 4}) {
    exec::ThreadPool pool(width);
    config.pool = &pool;
    EXPECT_EQ(want, plan_digest(make_plan(config))) << "width " << width;
  }
}

// A 40-machine-per-rack cluster with the testbed's slots and links.
ClusterConfig cluster_of(int racks) {
  ClusterConfig cluster;
  cluster.racks = racks;
  cluster.machines_per_rack = 40;
  cluster.slots_per_machine = 8;
  cluster.nic_bandwidth = 2.5 * kGbps;
  cluster.oversubscription = 5.0;
  return cluster;
}

std::vector<JobSpec> w3_jobs(int count, std::uint64_t seed) {
  Rng rng(seed);
  W3Config config;
  config.num_jobs = count;
  return make_w3(config, rng);
}

std::vector<JobSpec> with_arrivals(std::vector<JobSpec> jobs,
                                   std::uint64_t seed) {
  Rng rng(seed);
  assign_uniform_arrivals(jobs, 60 * kMinute, rng);
  return jobs;
}

// The planner benchmark's batches: three days of a 200-job W3 trace with
// sizes perturbed by up to 20%, planned for 50 racks (seed 1).
TEST(PlannerDigest, BenchmarkW3Batches) {
  const ClusterConfig cluster = cluster_of(50);
  const std::vector<JobSpec> trace = w3_jobs(200, 5);
  Rng rng(1);
  const std::vector<std::string> want = {
      "3b91bfb987a6431a", "13b6b024c399f3d7", "cb6ac6aa34cf73e9"};
  for (std::size_t day = 0; day < want.size(); ++day) {
    const std::vector<ResponseFunction> functions = build_response_functions(
        perturb_sizes(trace, 0.2, rng), cluster.racks,
        LatencyModelParams::from_cluster(cluster));
    expect_digest(want[day], [&](const PlannerConfig& config) {
      return plan_offline(functions, cluster.racks, config);
    });
  }
}

// Figure 5's largest point: 500 W3 jobs on 100 racks.
TEST(PlannerDigest, Fig5LargestPoint) {
  const ClusterConfig cluster = cluster_of(100);
  const std::vector<JobSpec> jobs = w3_jobs(500, 5);
  expect_digest("8bb87762b8c9e992", [&](const PlannerConfig& config) {
    return plan_offline(jobs, cluster, config);
  });
}

// Average completion time: no pruning, every candidate gets a pass, and
// the job order sorts by arrival first.
TEST(PlannerDigest, AverageCompletionBatch) {
  const ClusterConfig cluster = cluster_of(30);
  const std::vector<JobSpec> jobs = with_arrivals(w3_jobs(150, 11), 12);
  PlannerConfig config;
  config.objective = Objective::kAverageCompletionTime;
  expect_digest(
      "7a5ed8797f564e75",
      [&](const PlannerConfig& c) { return plan_offline(jobs, cluster, c); },
      config);
}

// Plain LPT order and the earlier stop rule of [19].
TEST(PlannerDigest, AblatedMakespanBatch) {
  const ClusterConfig cluster = cluster_of(30);
  const std::vector<JobSpec> jobs = w3_jobs(150, 13);
  PlannerConfig config;
  config.widest_job_first = false;
  config.explore_full_range = false;
  expect_digest(
      "4ca32f37b33f56e7",
      [&](const PlannerConfig& c) { return plan_offline(jobs, cluster, c); },
      config);
}

// Rolling-horizon planning: 10-minute windows planned against the racks
// the earlier windows leave busy, under both objectives.
TEST(PlannerDigest, RollingWindows) {
  const ClusterConfig cluster = cluster_of(30);
  const std::vector<ResponseFunction> functions = build_response_functions(
      with_arrivals(w3_jobs(120, 21), 22), cluster.racks,
      LatencyModelParams::from_cluster(cluster));
  const auto rolling = [&](const PlannerConfig& config) {
    return plan_rolling(functions, cluster.racks, config, 10 * kMinute);
  };
  expect_digest("ea442cd95d3d39f6", rolling);
  PlannerConfig config;
  config.objective = Objective::kAverageCompletionTime;
  expect_digest("77b54beeb556e8a6", rolling, config);
}

// Placement constraints: the heaviest jobs are pinned to 8 equipped racks,
// split into anti-affinity sets, and the heaviest claims its racks.
TEST(PlannerDigest, PlacementConstrainedBatch) {
  ClusterConfig cluster = cluster_of(20);
  cluster.resource_classes = {{"accel", 4, 8}};
  const std::vector<JobSpec> jobs =
      with_placement_mix(w3_jobs(80, 31), PlacementMixConfig{});
  ASSERT_TRUE(any_constrained(std::span<const JobSpec>(jobs)));
  expect_digest("7296954d880ad00a", [&](const PlannerConfig& config) {
    return plan_offline(jobs, cluster, config);
  });
}

}  // namespace
}  // namespace corral
