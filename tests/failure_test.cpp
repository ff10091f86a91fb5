// Mid-run machine failure handling (§3.1, §7 "Dealing with failures"):
// killed tasks reschedule, lost map outputs rerun, in-flight transfers tear
// down, and Corral's rack constraints drop when a rack degrades.
#include <gtest/gtest.h>

#include "sim/simulator.h"

namespace corral {
namespace {

ClusterConfig cluster_4x8() {
  ClusterConfig config;
  config.racks = 4;
  config.machines_per_rack = 8;
  config.slots_per_machine = 2;
  config.nic_bandwidth = 1 * kGbps;
  config.oversubscription = 4.0;
  return config;
}

MapReduceSpec long_stage() {
  MapReduceSpec stage;
  stage.input_bytes = 16 * kGB;
  stage.shuffle_bytes = 16 * kGB;
  stage.output_bytes = 4 * kGB;
  stage.num_maps = 32;
  stage.num_reduces = 16;
  stage.map_rate = 25 * kMB;  // 20 s per map: failures land mid-stage
  stage.reduce_rate = 25 * kMB;
  return stage;
}

// A permanent crash of machine `m` at time `t`.
FaultEvent crash(Seconds t, int m) { return {t, FaultType::kCrash, m}; }

SimConfig base_sim() {
  SimConfig config;
  config.cluster = cluster_4x8();
  config.seed = 9;
  return config;
}

Seconds baseline_makespan() {
  const std::vector<JobSpec> jobs = {
      JobSpec::map_reduce(0, "mr", long_stage())};
  YarnCapacityPolicy policy;
  return run_simulation(jobs, policy, base_sim()).makespan;
}

TEST(Failure, MidRunFailureDelaysButCompletes) {
  const std::vector<JobSpec> jobs = {
      JobSpec::map_reduce(0, "mr", long_stage())};
  const Seconds healthy = baseline_makespan();

  SimConfig config = base_sim();
  // Kill three machines while maps are running.
  config.faults.events = {crash(5.0, 0), crash(5.0, 1), crash(7.0, 9)};
  YarnCapacityPolicy policy;
  const SimResult result = run_simulation(jobs, policy, config);
  EXPECT_GT(result.jobs[0].finish, 0);
  // Lost work means a later finish than the healthy run.
  EXPECT_GE(result.makespan, healthy - 1e-6);
}

TEST(Failure, LostMapOutputsDemoteReducePhase) {
  // Fail a machine *after* all maps finished (reduce phase): its map
  // outputs are lost, so those maps rerun and the job still completes with
  // every reduce task accounted for.
  const std::vector<JobSpec> jobs = {
      JobSpec::map_reduce(0, "mr", long_stage())};
  const Seconds healthy = baseline_makespan();

  // Maps: 32 tasks on 64 slots -> one wave of ~20 s. Fail at 25 s, firmly
  // inside the shuffle/reduce phase.
  SimConfig config = base_sim();
  config.faults.events = {crash(25.0, 3)};
  YarnCapacityPolicy policy;
  const SimResult result = run_simulation(jobs, policy, config);
  EXPECT_EQ(result.jobs[0].reduce_durations.size(), 16u);
  EXPECT_GT(result.makespan, healthy);  // reran maps cost extra time
}

TEST(Failure, RackDegradationDropsCorralConstraintsMidRun) {
  // Pin the job to one rack, then kill most of that rack mid-run: the
  // constraint must be dropped and the job must finish on other racks.
  const std::vector<JobSpec> jobs = {
      JobSpec::map_reduce(0, "mr", long_stage())};
  const LatencyModelParams params =
      LatencyModelParams::from_cluster(cluster_4x8());
  const auto functions = build_response_functions(jobs, 4, params);
  const std::vector<int> ones(jobs.size(), 1);
  const Plan plan = prioritize(functions, ones, 4, PlannerConfig{});
  const int target = plan.jobs[0].racks[0];
  const PlanLookup lookup(jobs, plan);

  SimConfig config = base_sim();
  for (int i = 0; i < 7; ++i) {  // 7 of 8 machines die at t=10s
    config.faults.events.push_back(crash(10.0, target * 8 + i));
  }
  CorralPolicy policy(&lookup);
  const SimResult result = run_simulation(jobs, policy, config);
  EXPECT_GT(result.jobs[0].finish, 0);
  // Finishing on foreign racks forces cross-rack traffic.
  EXPECT_GT(result.jobs[0].cross_rack_bytes, 0);
}

TEST(Failure, ReplicaSourceDeathRestartsRemoteReads) {
  // Force remote reads by constraining tasks to a rack that holds no data,
  // then kill replica holders mid-transfer.
  MapReduceSpec stage = long_stage();
  stage.shuffle_bytes = 0;
  stage.num_reduces = 0;
  stage.output_bytes = 0;
  const std::vector<JobSpec> jobs = {JobSpec::map_reduce(0, "scan", stage)};

  Plan plan;
  PlannedJob planned;
  planned.job_index = 0;
  planned.racks = {2};
  planned.num_racks = 1;
  plan.jobs.push_back(planned);
  const PlanLookup lookup(jobs, plan);

  SimConfig config = base_sim();
  // LocalShuffle = plan constraints with *random* data placement: most
  // chunks live outside rack 2 and must stream in.
  for (int m = 0; m < 8; ++m) {  // kill all of rack 0 early
    config.faults.events.push_back(crash(2.0, m));
  }
  LocalShufflePolicy policy(&lookup);
  const SimResult result = run_simulation(jobs, policy, config);
  EXPECT_GT(result.jobs[0].finish, 0);
}

TEST(Failure, WriteTargetDeathReissuesReplica) {
  const std::vector<JobSpec> jobs = {
      JobSpec::map_reduce(0, "mr", long_stage())};
  SimConfig config = base_sim();
  config.write_output_replicas = true;
  // Failures sprinkled through the write-heavy tail of the job.
  config.faults.events = {crash(40.0, 12), crash(45.0, 20), crash(50.0, 28)};
  YarnCapacityPolicy policy;
  const SimResult result = run_simulation(jobs, policy, config);
  EXPECT_EQ(result.jobs[0].reduce_durations.size(), 16u);
  EXPECT_GT(result.jobs[0].finish, 0);
}

TEST(Failure, IdleMachineFailureIsHarmless) {
  const std::vector<JobSpec> jobs = {
      JobSpec::map_reduce(0, "mr", long_stage())};
  SimConfig config = base_sim();
  // A machine in a rack the (single-wave) job barely uses, failing late.
  config.faults.events = {crash(1e6, 31)};
  YarnCapacityPolicy policy;
  const SimResult result = run_simulation(jobs, policy, config);
  EXPECT_NEAR(result.makespan, baseline_makespan(), 1.0);
}

TEST(Failure, DoubleFailureOfSameMachineIsIdempotent) {
  const std::vector<JobSpec> jobs = {
      JobSpec::map_reduce(0, "mr", long_stage())};
  SimConfig config = base_sim();
  config.faults.events = {crash(5.0, 4), crash(6.0, 4), crash(8.0, 4)};
  YarnCapacityPolicy policy;
  const SimResult result = run_simulation(jobs, policy, config);
  EXPECT_GT(result.jobs[0].finish, 0);
}

TEST(Failure, ManyFailuresUnderVarys) {
  std::vector<JobSpec> jobs;
  for (int i = 0; i < 3; ++i) {
    jobs.push_back(JobSpec::map_reduce(i, "mr" + std::to_string(i),
                                       long_stage()));
  }
  SimConfig config = base_sim();
  config.net_policy = NetPolicy::kVarys;
  config.write_output_replicas = true;
  for (int i = 0; i < 6; ++i) {
    config.faults.events.push_back(crash(10.0 + 10.0 * i, 5 * i % 32));
  }
  YarnCapacityPolicy policy;
  const SimResult result = run_simulation(jobs, policy, config);
  for (const JobResult& job : result.jobs) EXPECT_GT(job.finish, 0);
}

TEST(Failure, RejectsBadFailureEvents) {
  const std::vector<JobSpec> jobs = {
      JobSpec::map_reduce(0, "mr", long_stage())};
  YarnCapacityPolicy policy;
  SimConfig config = base_sim();
  config.faults.events = {crash(-1.0, 0)};
  EXPECT_THROW(run_simulation(jobs, policy, config), std::invalid_argument);
  config.faults.events = {crash(1.0, 999)};
  EXPECT_THROW(run_simulation(jobs, policy, config), std::invalid_argument);
}

TEST(Failure, DeterministicWithFailures) {
  const std::vector<JobSpec> jobs = {
      JobSpec::map_reduce(0, "mr", long_stage())};
  SimConfig config = base_sim();
  config.faults.events = {crash(5.0, 0), crash(25.0, 9)};
  YarnCapacityPolicy policy_a, policy_b;
  const SimResult a = run_simulation(jobs, policy_a, config);
  const SimResult b = run_simulation(jobs, policy_b, config);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_DOUBLE_EQ(a.total_cross_rack_bytes, b.total_cross_rack_bytes);
}

}  // namespace
}  // namespace corral
