#include <gtest/gtest.h>

#include <numeric>

#include "sim/simulator.h"

namespace corral {
namespace {

// A small, fast cluster for unit scenarios: 4 racks x 8 machines x 2 slots,
// 1 Gbps NICs, 4:1 oversubscription (uplink 2 Gbps).
ClusterConfig small_cluster() {
  ClusterConfig config;
  config.racks = 4;
  config.machines_per_rack = 8;
  config.slots_per_machine = 2;
  config.nic_bandwidth = 1 * kGbps;
  config.oversubscription = 4.0;
  return config;
}

SimConfig small_sim() {
  SimConfig config;
  config.cluster = small_cluster();
  config.seed = 7;
  return config;
}

MapReduceSpec basic_stage() {
  MapReduceSpec stage;
  stage.input_bytes = 8 * kGB;
  stage.shuffle_bytes = 8 * kGB;
  stage.output_bytes = 2 * kGB;
  stage.num_maps = 16;
  stage.num_reduces = 8;
  stage.map_rate = 50 * kMB;
  stage.reduce_rate = 50 * kMB;
  return stage;
}

Plan make_plan(std::span<const JobSpec> jobs, const ClusterConfig& cluster,
               Objective objective = Objective::kMakespan) {
  PlannerConfig config;
  config.objective = objective;
  return plan_offline(jobs, cluster, config);
}

// A plan that pins every job to exactly `racks` racks (bypassing the
// provisioning heuristic, for tests that need a known allocation).
Plan make_pinned_plan(std::span<const JobSpec> jobs,
                      const ClusterConfig& cluster, int racks) {
  const LatencyModelParams params = LatencyModelParams::from_cluster(cluster);
  const auto functions =
      build_response_functions(jobs, cluster.racks, params);
  const std::vector<int> allocation(jobs.size(), racks);
  return prioritize(functions, allocation, cluster.racks, PlannerConfig{});
}

TEST(Sim, MapOnlyJobMatchesHandComputedLatency) {
  // 64 map tasks on 64 slots -> one wave, all node-local after placement +
  // delay scheduling... conservatively, finish time is bounded below by one
  // task's compute time and above by a few waves.
  MapReduceSpec stage;
  stage.input_bytes = 6.4 * kGB;
  stage.num_maps = 64;
  stage.num_reduces = 0;
  stage.shuffle_bytes = 0;
  stage.output_bytes = 0;
  stage.map_rate = 50 * kMB;
  const std::vector<JobSpec> jobs = {JobSpec::map_reduce(0, "maponly", stage)};

  YarnCapacityPolicy policy;
  const SimResult result = run_simulation(jobs, policy, small_sim());
  ASSERT_EQ(result.jobs.size(), 1u);
  const double per_task = (6.4 * kGB / 64) / (50 * kMB);  // 2 s
  EXPECT_GE(result.makespan, per_task - 1e-6);
  EXPECT_LE(result.makespan, 6 * per_task);
  EXPECT_GT(result.jobs[0].compute_seconds, 0);
  EXPECT_TRUE(result.jobs[0].reduce_durations.empty());
}

TEST(Sim, MapReduceJobCompletesWithAllMetrics) {
  const std::vector<JobSpec> jobs = {
      JobSpec::map_reduce(0, "mr", basic_stage())};
  YarnCapacityPolicy policy;
  const SimResult result = run_simulation(jobs, policy, small_sim());
  const JobResult& job = result.jobs[0];
  EXPECT_GT(job.finish, 0);
  EXPECT_EQ(job.reduce_durations.size(), 8u);
  EXPECT_GT(job.compute_seconds, 0);
  EXPECT_GE(job.first_task_start, 0);
  EXPECT_EQ(result.policy_name, "yarn-cs");
  // A multi-rack shuffle under random placement must cross racks.
  EXPECT_GT(job.cross_rack_bytes, 0);
}

TEST(Sim, CorralSingleRackJobAvoidsCrossRackTraffic) {
  const std::vector<JobSpec> jobs = {
      JobSpec::map_reduce(0, "mr", basic_stage())};
  const Plan plan = make_pinned_plan(jobs, small_cluster(), 1);
  ASSERT_EQ(plan.jobs[0].num_racks, 1);
  const PlanLookup lookup(jobs, plan);
  CorralPolicy policy(&lookup);
  const SimResult result = run_simulation(jobs, policy, small_sim());
  // Input is pinned into the job's rack and tasks are constrained there;
  // nothing needs to cross the core.
  EXPECT_DOUBLE_EQ(result.jobs[0].cross_rack_bytes, 0.0);
  EXPECT_EQ(result.policy_name, "corral");
}

TEST(Sim, CorralBeatsYarnOnShuffleHeavyBatch) {
  // Four single-rack-friendly shuffle-heavy jobs on four racks: Corral
  // isolates them; Yarn-CS spreads tasks and pays the oversubscribed core.
  std::vector<JobSpec> jobs;
  for (int i = 0; i < 4; ++i) {
    jobs.push_back(JobSpec::map_reduce(i, "mr" + std::to_string(i),
                                       basic_stage()));
  }
  YarnCapacityPolicy yarn;
  const SimResult yarn_result = run_simulation(jobs, yarn, small_sim());

  const Plan plan = make_plan(jobs, small_cluster());
  const PlanLookup lookup(jobs, plan);
  CorralPolicy corral(&lookup);
  const SimResult corral_result = run_simulation(jobs, corral, small_sim());

  EXPECT_LT(corral_result.total_cross_rack_bytes,
            0.5 * yarn_result.total_cross_rack_bytes);
  EXPECT_LT(corral_result.makespan, yarn_result.makespan);
}

TEST(Sim, ConstraintsDroppedWhenRackFails) {
  const std::vector<JobSpec> jobs = {
      JobSpec::map_reduce(0, "mr", basic_stage())};
  const Plan plan = make_plan(jobs, small_cluster());
  const int target = plan.jobs[0].racks[0];
  const PlanLookup lookup(jobs, plan);
  CorralPolicy policy(&lookup);

  SimConfig config = small_sim();
  // Kill 5 of the 8 machines of the assigned rack (> 50% threshold).
  for (int i = 0; i < 5; ++i) {
    config.failed_machines.push_back(target * 8 + i);
  }
  const SimResult result = run_simulation(jobs, policy, config);
  EXPECT_GT(result.jobs[0].finish, 0);  // completed despite the failures
}

TEST(Sim, SurvivesHeavyFailuresUnderYarn) {
  const std::vector<JobSpec> jobs = {
      JobSpec::map_reduce(0, "mr", basic_stage())};
  YarnCapacityPolicy policy;
  SimConfig config = small_sim();
  // One whole rack plus scattered machines down.
  for (int m = 0; m < 8; ++m) config.failed_machines.push_back(m);
  config.failed_machines.push_back(9);
  config.failed_machines.push_back(17);
  const SimResult result = run_simulation(jobs, policy, config);
  EXPECT_GT(result.jobs[0].finish, 0);
}

TEST(Sim, WriteReplicasAddCrossRackBytes) {
  const std::vector<JobSpec> jobs = {
      JobSpec::map_reduce(0, "mr", basic_stage())};
  const Plan plan = make_plan(jobs, small_cluster());
  const PlanLookup lookup(jobs, plan);

  SimConfig without = small_sim();
  SimConfig with = small_sim();
  with.write_output_replicas = true;

  CorralPolicy corral_a(&lookup);
  const SimResult a = run_simulation(jobs, corral_a, without);
  CorralPolicy corral_b(&lookup);
  const SimResult b = run_simulation(jobs, corral_b, with);
  // Off-rack replica writes are the only cross-rack traffic of this job.
  EXPECT_NEAR(b.total_cross_rack_bytes - a.total_cross_rack_bytes, 2 * kGB,
              0.2 * kGB);
  EXPECT_GE(b.makespan, a.makespan);
}

TEST(Sim, DagJobRunsStagesInDependencyOrder) {
  JobSpec dag;
  dag.id = 0;
  dag.name = "two-stage";
  MapReduceSpec first = basic_stage();
  MapReduceSpec second = basic_stage();
  second.input_bytes = first.output_bytes;
  second.num_maps = 4;
  second.num_reduces = 2;
  second.shuffle_bytes = 1 * kGB;
  second.output_bytes = 0.5 * kGB;
  dag.stages = {first, second};
  dag.edges = {{0, 1}};

  const std::vector<JobSpec> jobs = {dag};
  YarnCapacityPolicy policy;
  const SimResult result = run_simulation(jobs, policy, small_sim());
  EXPECT_GT(result.jobs[0].finish, 0);
  // Both stages' reduces ran.
  EXPECT_EQ(result.jobs[0].reduce_durations.size(), 10u);
}

TEST(Sim, VarysAndTcpMoveTheSameBytes) {
  std::vector<JobSpec> jobs;
  for (int i = 0; i < 3; ++i) {
    jobs.push_back(JobSpec::map_reduce(i, "mr" + std::to_string(i),
                                       basic_stage()));
  }
  YarnCapacityPolicy policy_tcp;
  SimConfig tcp_config = small_sim();
  const SimResult tcp = run_simulation(jobs, policy_tcp, tcp_config);

  YarnCapacityPolicy policy_varys;
  SimConfig varys_config = small_sim();
  varys_config.net_policy = NetPolicy::kVarys;
  const SimResult varys = run_simulation(jobs, policy_varys, varys_config);

  EXPECT_NEAR(varys.total_cross_rack_bytes, tcp.total_cross_rack_bytes,
              0.05 * tcp.total_cross_rack_bytes + 1);
  EXPECT_GT(varys.makespan, 0);
}

TEST(Sim, BackgroundTrafficSlowsJobsDown) {
  std::vector<JobSpec> jobs = {JobSpec::map_reduce(0, "mr", basic_stage())};
  YarnCapacityPolicy policy_a;
  SimConfig quiet = small_sim();
  const SimResult a = run_simulation(jobs, policy_a, quiet);

  YarnCapacityPolicy policy_b;
  SimConfig busy = small_sim();
  busy.cluster.background_core_fraction = 0.6;
  const SimResult b = run_simulation(jobs, policy_b, busy);
  EXPECT_GE(b.makespan, a.makespan);
}

TEST(Sim, OnlineArrivalsAreRespected) {
  std::vector<JobSpec> jobs;
  for (int i = 0; i < 3; ++i) {
    JobSpec job = JobSpec::map_reduce(i, "mr" + std::to_string(i),
                                      basic_stage());
    job.arrival = i * 100.0;
    jobs.push_back(job);
  }
  YarnCapacityPolicy policy;
  const SimResult result = run_simulation(jobs, policy, small_sim());
  for (int i = 0; i < 3; ++i) {
    EXPECT_GE(result.jobs[static_cast<std::size_t>(i)].first_task_start,
              i * 100.0 - 1e-6);
  }
}

TEST(Sim, AdHocJobsRunUnderCorral) {
  std::vector<JobSpec> recurring = {
      JobSpec::map_reduce(0, "planned", basic_stage())};
  JobSpec adhoc = JobSpec::map_reduce(1, "adhoc", basic_stage());
  adhoc.recurring = false;

  const Plan plan = make_plan(recurring, small_cluster());
  const PlanLookup lookup(recurring, plan);
  CorralPolicy policy(&lookup);

  std::vector<JobSpec> all = recurring;
  all.push_back(adhoc);
  const SimResult result = run_simulation(all, policy, small_sim());
  ASSERT_EQ(result.jobs.size(), 2u);
  EXPECT_GT(result.jobs[1].finish, 0);
  EXPECT_FALSE(result.jobs[1].recurring);
}

TEST(Sim, ShuffleWatcherConstrainsButReadsRemote) {
  const std::vector<JobSpec> jobs = {
      JobSpec::map_reduce(0, "mr", basic_stage())};
  ShuffleWatcherPolicy sw(small_cluster().slots_per_rack());
  const SimResult sw_result = run_simulation(jobs, sw, small_sim());

  const Plan plan = make_pinned_plan(jobs, small_cluster(), 1);
  const PlanLookup lookup(jobs, plan);
  CorralPolicy corral(&lookup);
  const SimResult corral_result = run_simulation(jobs, corral, small_sim());

  // ShuffleWatcher localizes the shuffle but pays cross-rack input reads;
  // Corral pays neither.
  EXPECT_GT(sw_result.total_cross_rack_bytes,
            corral_result.total_cross_rack_bytes);
}

TEST(Sim, LocalShuffleSitsBetweenYarnAndCorral) {
  std::vector<JobSpec> jobs;
  for (int i = 0; i < 4; ++i) {
    jobs.push_back(JobSpec::map_reduce(i, "mr" + std::to_string(i),
                                       basic_stage()));
  }
  const Plan plan = make_plan(jobs, small_cluster());
  const PlanLookup lookup(jobs, plan);

  LocalShufflePolicy local(&lookup);
  const SimResult local_result = run_simulation(jobs, local, small_sim());
  CorralPolicy corral(&lookup);
  const SimResult corral_result = run_simulation(jobs, corral, small_sim());

  // Without input placement, LocalShuffle pays cross-rack input reads.
  EXPECT_GT(local_result.total_cross_rack_bytes,
            corral_result.total_cross_rack_bytes);
}

TEST(Sim, RejectsDuplicateJobIds) {
  std::vector<JobSpec> jobs = {JobSpec::map_reduce(1, "a", basic_stage()),
                               JobSpec::map_reduce(1, "b", basic_stage())};
  YarnCapacityPolicy policy;
  EXPECT_THROW(run_simulation(jobs, policy, small_sim()),
               std::invalid_argument);
}

TEST(Sim, DeterministicForSameSeed) {
  std::vector<JobSpec> jobs;
  for (int i = 0; i < 3; ++i) {
    jobs.push_back(JobSpec::map_reduce(i, "mr" + std::to_string(i),
                                       basic_stage()));
  }
  YarnCapacityPolicy policy_a, policy_b;
  const SimResult a = run_simulation(jobs, policy_a, small_sim());
  const SimResult b = run_simulation(jobs, policy_b, small_sim());
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_DOUBLE_EQ(a.total_cross_rack_bytes, b.total_cross_rack_bytes);
}

TEST(Sim, InputBalanceCovIsReported) {
  std::vector<JobSpec> jobs;
  for (int i = 0; i < 8; ++i) {
    jobs.push_back(JobSpec::map_reduce(i, "mr" + std::to_string(i),
                                       basic_stage()));
  }
  const Plan plan = make_plan(jobs, small_cluster());
  const PlanLookup lookup(jobs, plan);
  CorralPolicy corral(&lookup);
  const SimResult result = run_simulation(jobs, corral, small_sim());
  EXPECT_GE(result.input_balance_cov, 0.0);
  EXPECT_LT(result.input_balance_cov, 1.0);
}


TEST(Sim, RemoteStorageModeRunsWithoutDfsPlacement) {
  const std::vector<JobSpec> jobs = {
      JobSpec::map_reduce(0, "mr", basic_stage())};
  SimConfig config = small_sim();
  config.remote_input_storage = true;
  YarnCapacityPolicy policy;
  const SimResult result = run_simulation(jobs, policy, config);
  EXPECT_GT(result.jobs[0].finish, 0);
  // No input files were placed, so the DFS holds nothing.
  EXPECT_DOUBLE_EQ(result.input_balance_cov, 0.0);
  // All 8 GB of input streamed over the core.
  EXPECT_GE(result.jobs[0].cross_rack_bytes, 8 * kGB * 0.99);
}

TEST(Sim, ConstrainedStorageInterconnectSlowsJobs) {
  const std::vector<JobSpec> jobs = {
      JobSpec::map_reduce(0, "mr", basic_stage())};
  SimConfig fast = small_sim();
  fast.remote_input_storage = true;
  SimConfig slow = small_sim();
  slow.remote_input_storage = true;
  slow.storage_bandwidth = 100 * kMB;  // 8 GB at 100 MB/s = 80s floor
  YarnCapacityPolicy policy_a, policy_b;
  const SimResult a = run_simulation(jobs, policy_a, fast);
  const SimResult b = run_simulation(jobs, policy_b, slow);
  EXPECT_GT(b.makespan, a.makespan + 30.0);
  EXPECT_GE(b.makespan, 80.0);
}

TEST(Sim, CorralStillHelpsWithRemoteStorage) {
  // §7: with remote input there is no input locality to win, but shuffle
  // isolation still pays.
  std::vector<JobSpec> jobs;
  for (int i = 0; i < 4; ++i) {
    MapReduceSpec stage = basic_stage();
    stage.shuffle_bytes = 24 * kGB;  // strongly shuffle-bound
    jobs.push_back(JobSpec::map_reduce(i, "mr" + std::to_string(i), stage));
  }
  SimConfig config = small_sim();
  config.remote_input_storage = true;

  YarnCapacityPolicy yarn;
  const SimResult yarn_result = run_simulation(jobs, yarn, config);

  const Plan plan = make_pinned_plan(jobs, small_cluster(), 1);
  const PlanLookup lookup(jobs, plan);
  CorralPolicy corral(&lookup);
  const SimResult corral_result = run_simulation(jobs, corral, config);

  // Input download is identical; the shuffle no longer crosses racks.
  EXPECT_LT(corral_result.total_cross_rack_bytes,
            yarn_result.total_cross_rack_bytes);
  EXPECT_LT(corral_result.makespan, yarn_result.makespan);
}

TEST(Sim, RejectsNonPositiveStorageBandwidth) {
  const std::vector<JobSpec> jobs = {
      JobSpec::map_reduce(0, "mr", basic_stage())};
  SimConfig config = small_sim();
  config.storage_bandwidth = 0;
  YarnCapacityPolicy policy;
  EXPECT_THROW(run_simulation(jobs, policy, config), std::invalid_argument);
}

TEST(Sim, ZeroQuantumExactModeStillWorks) {
  const std::vector<JobSpec> jobs = {
      JobSpec::map_reduce(0, "mr", basic_stage())};
  SimConfig exact = small_sim();
  exact.time_quantum = 0.0;
  SimConfig batched = small_sim();
  YarnCapacityPolicy policy_a, policy_b;
  const SimResult a = run_simulation(jobs, policy_a, exact);
  const SimResult b = run_simulation(jobs, policy_b, batched);
  // The batching quantum may only delay things, and only slightly.
  EXPECT_LE(a.makespan, b.makespan + 1e-9);
  EXPECT_NEAR(a.makespan, b.makespan, 0.05 * a.makespan + 2.0);
}

}  // namespace
}  // namespace corral
