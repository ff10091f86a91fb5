// Straggler injection and Hadoop-style speculative execution (§7).
//
// Speculation fires at dispatch points, so these tests use two map waves
// (24 maps on 16 slots): when the second wave finishes, slots free up while
// first-wave stragglers are still grinding, and the scheduler launches
// backups for them.
#include <gtest/gtest.h>

#include <vector>

#include "obs/trace.h"
#include "sim/simulator.h"

namespace corral {
namespace {

ClusterConfig small_cluster() {
  ClusterConfig config;
  config.racks = 2;
  config.machines_per_rack = 4;
  config.slots_per_machine = 2;  // 16 slots
  config.nic_bandwidth = 1 * kGbps;
  config.oversubscription = 2.0;
  return config;
}

MapReduceSpec two_wave_stage() {
  MapReduceSpec stage;
  stage.input_bytes = 12 * kGB;  // 500 MB per map
  stage.shuffle_bytes = 4 * kGB;
  stage.output_bytes = 0;
  stage.num_maps = 24;  // two waves on 16 slots
  stage.num_reduces = 8;
  stage.map_rate = 25 * kMB;  // 20 s per healthy map
  stage.reduce_rate = 25 * kMB;
  return stage;
}

SimConfig straggler_sim(double frac, double slowdown) {
  SimConfig config;
  config.cluster = small_cluster();
  config.seed = 5;
  config.faults.straggler_frac = frac;
  config.faults.straggler_slowdown = slowdown;
  return config;
}

Seconds healthy_makespan() {
  const std::vector<JobSpec> jobs = {
      JobSpec::map_reduce(0, "mr", two_wave_stage())};
  YarnCapacityPolicy policy;
  return run_simulation(jobs, policy, straggler_sim(0, 4.0)).makespan;
}

TEST(Speculation, StragglersSlowTheRunDeterministically) {
  const std::vector<JobSpec> jobs = {
      JobSpec::map_reduce(0, "mr", two_wave_stage())};
  const SimConfig config = straggler_sim(0.25, 8.0);
  YarnCapacityPolicy policy_a, policy_b;
  const SimResult a = run_simulation(jobs, policy_a, config);
  EXPECT_GT(a.stragglers_injected, 0);
  EXPECT_GT(a.makespan, healthy_makespan());
  // Same seed => same straggler draws => identical timeline.
  const SimResult b = run_simulation(jobs, policy_b, config);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.stragglers_injected, b.stragglers_injected);
}

TEST(Speculation, BackupsCutTheStragglerTail) {
  const std::vector<JobSpec> jobs = {
      JobSpec::map_reduce(0, "mr", two_wave_stage())};
  SimConfig config = straggler_sim(0.25, 8.0);

  YarnCapacityPolicy policy_plain;
  const SimResult without = run_simulation(jobs, policy_plain, config);

  config.enable_speculation = true;
  config.speculation_cap = 1.0;  // budget for every straggler
  YarnCapacityPolicy policy_spec;
  const SimResult with = run_simulation(jobs, policy_spec, config);

  EXPECT_GT(with.speculative_launched, 0);
  // First-finisher-wins: the losing copies' slot time is booked as waste.
  EXPECT_GT(with.speculative_wasted_seconds, 0);
  EXPECT_LT(with.makespan, without.makespan);
  EXPECT_EQ(with.jobs_failed, 0);
}

TEST(Speculation, BudgetCapIsRespected) {
  const std::vector<JobSpec> jobs = {
      JobSpec::map_reduce(0, "mr", two_wave_stage())};
  SimConfig config = straggler_sim(0.25, 8.0);
  config.enable_speculation = true;
  config.speculation_cap = 0.01;  // floors at one backup for 32 tasks
  YarnCapacityPolicy policy;
  const SimResult result = run_simulation(jobs, policy, config);
  EXPECT_LE(result.speculative_launched, 1);
}

TEST(Speculation, OffByDefault) {
  const std::vector<JobSpec> jobs = {
      JobSpec::map_reduce(0, "mr", two_wave_stage())};
  const SimConfig config = straggler_sim(0.25, 8.0);
  ASSERT_FALSE(config.enable_speculation);
  YarnCapacityPolicy policy;
  const SimResult result = run_simulation(jobs, policy, config);
  EXPECT_EQ(result.speculative_launched, 0);
  EXPECT_EQ(result.speculative_wasted_seconds, 0);
}

TEST(Speculation, NoStragglersMeansNoRngPerturbation) {
  // straggler_frac = 0 must not consume rng draws: the run is identical to
  // one with the straggler machinery never configured.
  const std::vector<JobSpec> jobs = {
      JobSpec::map_reduce(0, "mr", two_wave_stage())};
  YarnCapacityPolicy policy_a, policy_b;
  const SimResult plain =
      run_simulation(jobs, policy_a, straggler_sim(0, 4.0));
  SimConfig off = straggler_sim(0, 9.0);
  const SimResult zeroed = run_simulation(jobs, policy_b, off);
  EXPECT_DOUBLE_EQ(plain.makespan, zeroed.makespan);
  EXPECT_EQ(plain.stragglers_injected, 0);
  EXPECT_EQ(zeroed.stragglers_injected, 0);
}

TEST(Speculation, EveryReduceFinishesExactlyOnceUnderReplicaWrites) {
  // With replica writes on, a reduce holds its slot after computing while
  // its off-rack copy streams out. The winner of a speculated reduce is
  // decided when it computes, and a reduce that has computed gets no
  // backup: otherwise a late backup "wins" after the primary's write has
  // already finished the task, the reduce is counted twice, and the stage
  // completes while other reduces are still unfinished.
  MapReduceSpec stage = two_wave_stage();
  stage.output_bytes = 4 * kGB;
  stage.num_reduces = 24;
  const std::vector<JobSpec> jobs = {JobSpec::map_reduce(0, "mr", stage)};
  SimConfig config = straggler_sim(0.3, 8.0);
  config.seed = 3;
  config.write_output_replicas = true;
  config.enable_speculation = true;
  config.speculation_cap = 1.0;
  obs::TracerOptions options;
  options.level = obs::TraceLevel::kTasks;
  obs::Tracer tracer(options);
  config.tracer = &tracer;
  YarnCapacityPolicy policy;
  const SimResult result = run_simulation(jobs, policy, config);
  EXPECT_GT(result.speculative_launched, 0);
  EXPECT_EQ(result.jobs_failed, 0);

  std::vector<int> reduce_spans(static_cast<std::size_t>(stage.num_reduces));
  for (const obs::TraceSink* sink : tracer.sinks()) {
    for (const obs::TraceEvent& event : sink->events()) {
      if (event.phase != obs::TracePhase::kSpan || event.name != "reduce") {
        continue;
      }
      for (const obs::TraceArg& arg : event.args) {
        if (arg.key == "task") {
          ++reduce_spans[static_cast<std::size_t>(arg.num)];
        }
      }
    }
  }
  for (std::size_t t = 0; t < reduce_spans.size(); ++t) {
    EXPECT_EQ(reduce_spans[t], 1) << "reduce " << t;
  }
}

}  // namespace
}  // namespace corral
