#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "exec/exec.h"
#include "sim/batch.h"
#include "sim/simulator.h"
#include "workload/workloads.h"

namespace corral {
namespace {

SimConfig small_sim() {
  SimConfig sim;
  sim.cluster.racks = 4;
  sim.cluster.machines_per_rack = 8;
  sim.cluster.slots_per_machine = 4;
  sim.cluster.nic_bandwidth = 1 * kGbps;
  sim.cluster.oversubscription = 4.0;
  return sim;
}

std::vector<JobSpec> small_jobs(std::uint64_t seed, int count = 10) {
  Rng rng(seed);
  W1Config config;
  config.num_jobs = count;
  config.task_scale = 0.25;
  return make_w1(config, rng);
}

// Every SimResult field that summarizes the run, compared exactly (==, not
// near): the batch runner promises byte-identical results.
void expect_identical(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.policy_name, b.policy_name);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.total_cross_rack_bytes, b.total_cross_rack_bytes);
  EXPECT_EQ(a.total_compute_hours, b.total_compute_hours);
  EXPECT_EQ(a.input_balance_cov, b.input_balance_cov);
  const auto jct_a = a.completion_times();
  const auto jct_b = b.completion_times();
  ASSERT_EQ(jct_a.size(), jct_b.size());
  for (std::size_t i = 0; i < jct_a.size(); ++i) {
    EXPECT_EQ(jct_a[i], jct_b[i]) << "job " << i;
  }
}

TEST(Batch, MatchesSerialRunsInSubmissionOrder) {
  const SimConfig sim = small_sim();
  const auto jobs_a = small_jobs(11);
  const auto jobs_b = small_jobs(22, 6);

  // Serial reference, one policy at a time.
  SimResult serial_a, serial_b;
  {
    YarnCapacityPolicy policy;
    serial_a = run_simulation(jobs_a, policy, sim);
  }
  {
    YarnCapacityPolicy policy;
    serial_b = run_simulation(jobs_b, policy, sim);
  }

  std::vector<BatchCase> cases(2);
  cases[0].label = "a";
  cases[0].jobs = jobs_a;
  cases[0].config = sim;
  cases[0].make_policy = []() -> std::unique_ptr<SchedulingPolicy> {
    return std::make_unique<YarnCapacityPolicy>();
  };
  cases[1].label = "b";
  cases[1].jobs = jobs_b;
  cases[1].config = sim;
  cases[1].make_policy = cases[0].make_policy;

  exec::ThreadPool pool(4);
  const auto batch = BatchRunner(&pool).run(cases);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].label, "a");
  EXPECT_EQ(batch[1].label, "b");
  expect_identical(batch[0].result, serial_a);
  expect_identical(batch[1].result, serial_b);
}

TEST(Batch, RunsEachCaseUnderItsOwnPolicy) {
  const SimConfig sim = small_sim();
  const auto jobs = small_jobs(33, 6);
  std::vector<BatchCase> cases(2);
  for (BatchCase& batch_case : cases) {
    batch_case.jobs = jobs;
    batch_case.config = sim;
  }
  cases[0].make_policy = []() -> std::unique_ptr<SchedulingPolicy> {
    return std::make_unique<YarnCapacityPolicy>();
  };
  const int slots_per_rack = sim.cluster.slots_per_rack();
  cases[1].make_policy =
      [slots_per_rack]() -> std::unique_ptr<SchedulingPolicy> {
    return std::make_unique<ShuffleWatcherPolicy>(slots_per_rack);
  };

  exec::ThreadPool pool(2);
  const auto batch = BatchRunner(&pool).run(cases);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].result.policy_name, "yarn-cs");
  EXPECT_EQ(batch[1].result.policy_name, "shufflewatcher");
  EXPECT_TRUE(batch[0].label.empty());
  EXPECT_TRUE(batch[1].label.empty());
}

TEST(Batch, MissingFactoryIsRejected) {
  std::vector<BatchCase> cases(1);
  cases[0].jobs = small_jobs(44, 3);
  cases[0].config = small_sim();
  // make_policy left empty.
  exec::ThreadPool pool(2);
  EXPECT_THROW(BatchRunner(&pool).run(cases), std::invalid_argument);
}

TEST(Batch, TimeoutPropagatesFromTheSmallestFailingCase) {
  const auto jobs = small_jobs(55, 6);
  SimConfig healthy = small_sim();
  SimConfig doomed = small_sim();
  doomed.max_time = 1.0;  // guaranteed SimulationTimeout

  std::vector<BatchCase> cases(3);
  for (auto& batch_case : cases) {
    batch_case.jobs = jobs;
    batch_case.make_policy = []() -> std::unique_ptr<SchedulingPolicy> {
      return std::make_unique<YarnCapacityPolicy>();
    };
  }
  cases[0].config = healthy;
  cases[1].config = doomed;
  cases[2].config = doomed;
  cases[2].config.max_time = 2.0;

  exec::ThreadPool pool(4);
  try {
    BatchRunner(&pool).run(cases);
    FAIL() << "expected SimulationTimeout";
  } catch (const SimulationTimeout& timeout) {
    // Deterministic: the smallest failing index (case 1, limit 1.0) wins
    // regardless of which case finished throwing first.
    EXPECT_EQ(timeout.limit(), 1.0);
  }
}

}  // namespace
}  // namespace corral
