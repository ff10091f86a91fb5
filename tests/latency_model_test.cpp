#include <gtest/gtest.h>

#include <cmath>

#include "corral/latency_model.h"
#include "util/rng.h"
#include "workload/tpch.h"
#include "workload/workloads.h"

namespace corral {
namespace {

LatencyModelParams testbed_params() {
  LatencyModelParams params =
      LatencyModelParams::from_cluster(ClusterConfig::paper_testbed());
  params.alpha = 0;  // most tests exercise the raw L_j(r)
  return params;
}

MapReduceSpec shuffle_heavy_job() {
  MapReduceSpec stage;
  stage.input_bytes = 100 * kGB;
  stage.shuffle_bytes = 200 * kGB;
  stage.output_bytes = 50 * kGB;
  stage.num_maps = 400;
  stage.num_reduces = 200;
  stage.map_rate = 40 * kMB;
  stage.reduce_rate = 30 * kMB;
  return stage;
}

TEST(LatencyModel, MapLatencyFollowsWaveFormula) {
  const LatencyModelParams params = testbed_params();
  MapReduceSpec stage = shuffle_heavy_job();
  stage.shuffle_bytes = 0;
  stage.num_reduces = 0;
  stage.output_bytes = 0;

  // 1 rack = 30 machines x 8 slots = 240 task slots; 400 maps -> 2 waves.
  const StageLatency l1 = stage_latency(stage, 1, params);
  const double per_task = (100 * kGB / 400) / (40 * kMB);
  EXPECT_NEAR(l1.map, 2 * per_task, 1e-9);
  EXPECT_DOUBLE_EQ(l1.shuffle, 0);
  EXPECT_DOUBLE_EQ(l1.reduce, 0);

  // 2 racks = 480 slots -> single wave.
  const StageLatency l2 = stage_latency(stage, 2, params);
  EXPECT_NEAR(l2.map, per_task, 1e-9);
}

TEST(LatencyModel, SingleRackShuffleAvoidsCore) {
  const LatencyModelParams params = testbed_params();
  const MapReduceSpec stage = shuffle_heavy_job();
  const StageLatency l1 = stage_latency(stage, 1, params);
  // Per-machine shuffle data moves at full NIC speed inside the rack:
  // D_S / k * (k-1)/k / B.
  const double k = 30, B = 10 * kGbps;
  const double expected = (200 * kGB / k) * ((k - 1) / k) / B;
  EXPECT_NEAR(l1.shuffle, expected, 1e-6);
}

TEST(LatencyModel, MultiRackShuffleUsesOversubscribedCore) {
  const LatencyModelParams params = testbed_params();
  const MapReduceSpec stage = shuffle_heavy_job();
  const int r = 4;
  const StageLatency l = stage_latency(stage, r, params);
  const double k = 30, B = 10 * kGbps, V = 5;
  const double core_per_machine = 200 * kGB / (r * k) * (r - 1.0) / r;
  const double core_time = core_per_machine / (B / V);
  const double local_per_machine = 200 * kGB / (r * k) / r;
  const double local_time = local_per_machine * ((k - 1) / k) / (B - B / V);
  EXPECT_NEAR(l.shuffle, std::max(core_time, local_time), 1e-6);
}

TEST(LatencyModel, ShuffleLatencyShrinksWithMoreRacks) {
  // The §3.3 intuition: (r-1)SV/(r^2 B) falls with r for large r.
  const LatencyModelParams params = testbed_params();
  const MapReduceSpec stage = shuffle_heavy_job();
  const double s2 = stage_latency(stage, 2, params).shuffle;
  const double s7 = stage_latency(stage, 7, params).shuffle;
  EXPECT_GT(s2, s7);
}

TEST(LatencyModel, OneRackBeatsTwoForShuffleHeavySmallJobs) {
  // The core of Corral's argument: a small shuffle-heavy job is faster on
  // one rack (full bisection) than spread over two (oversubscribed core).
  const LatencyModelParams params = testbed_params();
  MapReduceSpec stage = shuffle_heavy_job();
  stage.num_maps = 200;   // fits in one rack's 240 slots
  stage.num_reduces = 100;
  EXPECT_LT(stage_latency(stage, 1, params).total(),
            stage_latency(stage, 2, params).total());
}

TEST(LatencyModel, ReduceLatencyUsesOutputBytes) {
  const LatencyModelParams params = testbed_params();
  const MapReduceSpec stage = shuffle_heavy_job();
  const StageLatency l = stage_latency(stage, 1, params);
  // 200 reduces in 240 slots: one wave; per task D_O/N_R at B_R.
  EXPECT_NEAR(l.reduce, (50 * kGB / 200) / (30 * kMB), 1e-9);
}

TEST(LatencyModel, MapOnlyStageHasNoShuffleOrReduce) {
  const LatencyModelParams params = testbed_params();
  MapReduceSpec stage = shuffle_heavy_job();
  stage.num_reduces = 0;
  stage.shuffle_bytes = 0;
  const StageLatency l = stage_latency(stage, 3, params);
  EXPECT_DOUBLE_EQ(l.shuffle, 0);
  EXPECT_DOUBLE_EQ(l.reduce, 0);
  EXPECT_GT(l.map, 0);
}

TEST(LatencyModel, DagLatencyIsCriticalPath) {
  const LatencyModelParams params = testbed_params();
  JobSpec dag;
  dag.id = 1;
  dag.name = "diamond";
  dag.stages = {shuffle_heavy_job(), shuffle_heavy_job(),
                shuffle_heavy_job(), shuffle_heavy_job()};
  dag.stages[2].input_bytes *= 4;  // heavier branch
  dag.edges = {{0, 1}, {0, 2}, {1, 3}, {2, 3}};

  const double l0 = stage_latency(dag.stages[0], 3, params).total();
  const double l2 = stage_latency(dag.stages[2], 3, params).total();
  const double l3 = stage_latency(dag.stages[3], 3, params).total();
  EXPECT_NEAR(job_latency(dag, 3, params), l0 + l2 + l3, 1e-9);
}

TEST(LatencyModel, PenaltyAddsAlphaTimesInputOverRacks) {
  LatencyModelParams params = testbed_params();
  params.alpha = params.default_alpha();
  const JobSpec job = JobSpec::map_reduce(1, "j", shuffle_heavy_job());
  const double base = job_latency(job, 2, params);
  const double with_penalty = job_latency_with_penalty(job, 2, params);
  EXPECT_NEAR(with_penalty - base, params.alpha * 100 * kGB / 2, 1e-6);
}

TEST(LatencyModel, DefaultAlphaIsInverseUplink) {
  const LatencyModelParams params =
      LatencyModelParams::from_cluster(ClusterConfig::paper_testbed());
  EXPECT_NEAR(params.default_alpha(), 1.0 / (60 * kGbps), 1e-18);
  EXPECT_DOUBLE_EQ(params.alpha, params.default_alpha());
}

TEST(ResponseFunction, PrecomputesAllRackCounts) {
  const LatencyModelParams params = testbed_params();
  const JobSpec job = JobSpec::map_reduce(1, "j", shuffle_heavy_job());
  const ResponseFunction f(job, 7, params);
  EXPECT_EQ(f.max_racks(), 7);
  for (int r = 1; r <= 7; ++r) {
    EXPECT_EQ(f.at(r), job_latency_with_penalty(job, r, params));
  }
  EXPECT_THROW(f.at(0), std::invalid_argument);
  EXPECT_THROW(f.at(8), std::invalid_argument);
}

// The table is the per-r function bit for bit, imbalance penalty included:
// for W3's map-reduce jobs, the TPC-H query DAGs, a diamond, and a DAG with
// three sources whose edges are listed out of topological order.
TEST(ResponseFunction, EqualsThePerRackLatencyExactly) {
  LatencyModelParams params = testbed_params();
  params.alpha = params.default_alpha();
  Rng rng(3);
  W3Config w3;
  w3.num_jobs = 40;
  std::vector<JobSpec> jobs = make_w3(w3, rng);
  for (JobSpec& job : make_tpch(TpchConfig{}, rng)) jobs.push_back(job);
  jobs.push_back(JobSpec::map_reduce(1, "mr", shuffle_heavy_job()));

  JobSpec diamond;
  diamond.stages.assign(4, shuffle_heavy_job());
  diamond.stages[2].input_bytes *= 4;
  diamond.edges = {{0, 1}, {0, 2}, {1, 3}, {2, 3}};
  jobs.push_back(diamond);

  JobSpec sources;
  sources.stages.assign(6, shuffle_heavy_job());
  for (std::size_t s = 0; s < sources.stages.size(); ++s) {
    sources.stages[s].input_bytes *= static_cast<double>(s + 1);
    sources.stages[s].num_maps = 100 * static_cast<int>(s + 1);
  }
  sources.edges = {{4, 5}, {2, 4}, {0, 3}, {3, 5}, {1, 3}, {0, 4}};
  jobs.push_back(sources);

  for (const JobSpec& job : jobs) {
    const ResponseFunction f(job, 60, params);
    for (int r = 1; r <= 60; ++r) {
      EXPECT_EQ(f.at(r), job_latency_with_penalty(job, r, params))
          << job.name << " r=" << r;
    }
  }
}

TEST(ResponseFunction, BestRacksMinimizesLatency) {
  const ResponseFunction f({10.0, 6.0, 8.0}, 0.0);
  EXPECT_EQ(f.best_racks(), 2);
  EXPECT_DOUBLE_EQ(f.min_latency(), 6.0);
  EXPECT_DOUBLE_EQ(f.arrival(), 0.0);
}

TEST(ResponseFunction, RejectsNegativeLatency) {
  EXPECT_THROW(ResponseFunction({1.0, -2.0}, 0.0), std::invalid_argument);
  EXPECT_THROW(ResponseFunction(std::vector<Seconds>{}, 0.0),
               std::invalid_argument);
}

TEST(LatencyModel, MoreSlotsPerMachineReducesWaves) {
  LatencyModelParams params = testbed_params();
  MapReduceSpec stage = shuffle_heavy_job();
  stage.shuffle_bytes = 0;
  stage.num_reduces = 0;
  const double l8 = stage_latency(stage, 1, params).map;
  params.slots_per_machine = 16;  // 480 slots: single wave
  const double l16 = stage_latency(stage, 1, params).map;
  EXPECT_NEAR(l8, 2 * l16, 1e-9);
}

TEST(LatencyModel, StageLatencyValidatesArguments) {
  const LatencyModelParams params = testbed_params();
  EXPECT_THROW(stage_latency(shuffle_heavy_job(), 0, params),
               std::invalid_argument);
  MapReduceSpec bad = shuffle_heavy_job();
  bad.map_rate = 0;
  EXPECT_THROW(stage_latency(bad, 1, params), std::invalid_argument);
}

}  // namespace
}  // namespace corral
