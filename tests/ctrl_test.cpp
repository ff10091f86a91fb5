// The control plane (src/ctrl): plan-cache semantics, fingerprints,
// config validation, and the closed-loop acceptance scenario — a 10-epoch
// run over a recurring W1-like fleet must reuse cached plans on a stable
// topology (hit rate >= 0.5 after epoch 2), miss-and-replan on an injected
// rack outage, and fold realized observations back into the histories.
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <vector>

#include "corral/fingerprint.h"
#include "ctrl/control_loop.h"
#include "exec/exec.h"
#include "ctrl/plan_cache.h"
#include "obs/metrics.h"
#include "workload/recurring.h"

namespace corral {
namespace {

ClusterConfig small_cluster(int racks = 5) {
  ClusterConfig config;
  config.racks = racks;
  config.machines_per_rack = 10;
  config.slots_per_machine = 8;
  config.nic_bandwidth = 2.5 * kGbps;
  config.oversubscription = 5.0;
  return config;
}

Plan tagged_plan(Seconds makespan) {
  Plan plan;
  plan.predicted_makespan = makespan;
  return plan;
}

W1Config small_fleet_config() {
  W1Config config;
  config.num_jobs = 6;
  config.task_scale = 0.2;
  return config;
}

ControlLoopConfig loop_config(int epochs) {
  ControlLoopConfig config;
  config.cluster = small_cluster();
  config.epochs = epochs;
  config.warmup_days = 14;
  return config;
}

// --- PlanCache -----------------------------------------------------------

TEST(CtrlPlanCache, MissThenHit) {
  PlanCache cache(4);
  const PlanCacheKey key{1, 2, 3};
  EXPECT_EQ(cache.find(key), nullptr);
  cache.insert(key, tagged_plan(10));
  const Plan* hit = cache.find(key);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->predicted_makespan, 10);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(CtrlPlanCache, DifferentKeyComponentsMiss) {
  PlanCache cache(8);
  cache.insert(PlanCacheKey{1, 2, 3}, tagged_plan(1));
  EXPECT_EQ(cache.find(PlanCacheKey{9, 2, 3}), nullptr);
  EXPECT_EQ(cache.find(PlanCacheKey{1, 9, 3}), nullptr);
  EXPECT_EQ(cache.find(PlanCacheKey{1, 2, 9}), nullptr);
  EXPECT_NE(cache.find(PlanCacheKey{1, 2, 3}), nullptr);
}

TEST(CtrlPlanCache, TopologyInvalidationDropsStaleEntriesOnly) {
  PlanCache cache(8);
  cache.insert(PlanCacheKey{1, /*topology=*/100, 3}, tagged_plan(1));
  cache.insert(PlanCacheKey{2, /*topology=*/100, 3}, tagged_plan(2));
  cache.insert(PlanCacheKey{3, /*topology=*/200, 3}, tagged_plan(3));
  EXPECT_EQ(cache.invalidate_topology_changed(200), 2u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_NE(cache.find(PlanCacheKey{3, 200, 3}), nullptr);
  EXPECT_EQ(cache.stats().invalidations, 2u);
}

TEST(CtrlPlanCache, SingleKeyInvalidation) {
  PlanCache cache(8);
  const PlanCacheKey key{1, 2, 3};
  EXPECT_FALSE(cache.invalidate(key));
  cache.insert(key, tagged_plan(1));
  EXPECT_TRUE(cache.invalidate(key));
  EXPECT_EQ(cache.find(key), nullptr);
}

TEST(CtrlPlanCache, FifoEvictionPastCapacity) {
  PlanCache cache(2);
  cache.insert(PlanCacheKey{1, 0, 0}, tagged_plan(1));
  cache.insert(PlanCacheKey{2, 0, 0}, tagged_plan(2));
  cache.insert(PlanCacheKey{3, 0, 0}, tagged_plan(3));  // evicts key 1
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.find(PlanCacheKey{1, 0, 0}), nullptr);
  EXPECT_NE(cache.find(PlanCacheKey{2, 0, 0}), nullptr);
  EXPECT_NE(cache.find(PlanCacheKey{3, 0, 0}), nullptr);
}

TEST(CtrlPlanCache, ReplaceDoesNotEvict) {
  PlanCache cache(2);
  const PlanCacheKey key{1, 0, 0};
  cache.insert(key, tagged_plan(1));
  cache.insert(key, tagged_plan(2));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_EQ(cache.find(key)->predicted_makespan, 2);
}

TEST(CtrlPlanCache, RejectsZeroCapacity) {
  EXPECT_THROW(PlanCache(0), std::invalid_argument);
}

// --- fingerprints --------------------------------------------------------

TEST(CtrlFingerprint, JobKeyIgnoresIdAndArrival) {
  JobSpec job = JobSpec::map_reduce(1, "daily", MapReduceSpec{});
  JobSpec other = job;
  other.id = 99;
  other.arrival = 3600;
  EXPECT_EQ(job_fingerprint(job, 0.15), job_fingerprint(other, 0.15));
}

TEST(CtrlFingerprint, SmallSizeWiggleSharesBucketLargeChangeDoesNot) {
  MapReduceSpec stage;
  stage.input_bytes = 100 * kGB;
  JobSpec job = JobSpec::map_reduce(1, "daily", stage);
  JobSpec wiggle = job;
  wiggle.stages[0].input_bytes = 100.5 * kGB;  // ~0.5% — same bucket
  JobSpec doubled = job;
  doubled.stages[0].input_bytes = 200 * kGB;
  EXPECT_EQ(job_fingerprint(job, 0.15), job_fingerprint(wiggle, 0.15));
  EXPECT_NE(job_fingerprint(job, 0.15), job_fingerprint(doubled, 0.15));
}

TEST(CtrlFingerprint, TopologyChangesWithUsableRacks) {
  const ClusterConfig cluster = small_cluster();
  const std::uint64_t healthy = topology_fingerprint(cluster);
  const std::vector<int> all{0, 1, 2, 3, 4};
  const std::vector<int> degraded{0, 1, 3, 4};
  // An explicit all-racks span is canonicalized to the healthy fingerprint.
  EXPECT_EQ(topology_fingerprint(cluster, all), healthy);
  EXPECT_NE(topology_fingerprint(cluster, degraded), healthy);
}

TEST(CtrlFingerprint, PlannerConfigIgnoresExecutionDetail) {
  PlannerConfig a;
  PlannerConfig b;
  exec::ThreadPool pool(2);
  b.pool = &pool;
  b.trace_sink = 7;
  const auto kind = PlannerBackendKind::kCorral;
  EXPECT_EQ(planner_fingerprint(a, kind), planner_fingerprint(b, kind));
  b.objective = Objective::kAverageCompletionTime;
  EXPECT_NE(planner_fingerprint(a, kind), planner_fingerprint(b, kind));
}

// --- config validation (parity with the what-if deadline checks) ---------

TEST(CtrlConfig, RejectsNonPositiveEpochs) {
  ControlLoopConfig config = loop_config(0);
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.epochs = -3;
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

TEST(CtrlConfig, RejectsNonPositiveDriftThreshold) {
  ControlLoopConfig config = loop_config(5);
  config.drift_threshold = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.drift_threshold = -0.5;
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

TEST(CtrlConfig, RejectsNonPositiveSizeQuantum) {
  ControlLoopConfig config = loop_config(5);
  config.size_quantum = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

TEST(CtrlConfig, RejectsNonFiniteThresholds) {
  const double bad[] = {std::numeric_limits<double>::quiet_NaN(),
                        std::numeric_limits<double>::infinity()};
  for (double value : bad) {
    ControlLoopConfig config = loop_config(5);
    config.drift_threshold = value;
    EXPECT_THROW(config.validate(), std::invalid_argument);
    config = loop_config(5);
    config.size_quantum = value;
    EXPECT_THROW(config.validate(), std::invalid_argument);
  }
}

TEST(CtrlConfig, PredictorEntryPointsRejectNonFiniteInputs) {
  // scale_job_spec treats NaN/Inf targets like "no prediction": the
  // reference spec comes back unscaled instead of poisoning task counts.
  MapReduceSpec stage;
  stage.input_bytes = 100 * kGB;
  stage.num_maps = 10;
  const JobSpec reference = JobSpec::map_reduce(1, "daily", stage);
  for (double target : {std::numeric_limits<double>::quiet_NaN(),
                        std::numeric_limits<double>::infinity(),
                        -std::numeric_limits<double>::infinity()}) {
    const JobSpec scaled = scale_job_spec(reference, target, 9, 0.0);
    EXPECT_EQ(scaled.stages[0].input_bytes, stage.input_bytes);
    EXPECT_EQ(scaled.stages[0].num_maps, stage.num_maps);
  }
  // The feedback edge refuses to record a non-finite observation.
  std::vector<JobInstance> history;
  EXPECT_THROW(
      record_instance(history,
                      JobInstance{0, 0,
                                  std::numeric_limits<double>::quiet_NaN()}),
      std::invalid_argument);
  EXPECT_THROW(
      record_instance(history,
                      JobInstance{0, 0,
                                  std::numeric_limits<double>::infinity()}),
      std::invalid_argument);
  EXPECT_TRUE(history.empty());
}

TEST(CtrlConfig, RejectsBadOutage) {
  ControlLoopConfig config = loop_config(5);
  config.outages = {{5, 0}};  // epoch must be < epochs
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.outages = {{2, config.cluster.racks}};  // rack out of range
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.outages = {{2, -1}};
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.outages = {{2, 1}, {2, 1}};  // duplicate
  EXPECT_THROW(config.validate(), std::invalid_argument);
  // Taking down every rack in one epoch leaves nothing to plan on.
  config.outages.clear();
  for (int r = 0; r < config.cluster.racks; ++r) {
    config.outages.push_back({2, r});
  }
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.outages = {{2, 1}, {4, 0}};  // distinct epochs are fine
  EXPECT_NO_THROW(config.validate());
}

TEST(CtrlConfig, AcceptsDefaults) {
  EXPECT_NO_THROW(loop_config(10).validate());
}

// --- the closed loop -----------------------------------------------------

TEST(CtrlLoop, StableTopologyReusesPlans) {
  const ControlLoopConfig config = loop_config(10);
  auto fleet = make_recurring_fleet(small_fleet_config(), config.warmup_days,
                                    config.epochs, config.seed);
  const ControlLoopResult result =
      run_control_loop(std::move(fleet), config);

  ASSERT_EQ(result.epochs.size(), 10u);
  // Acceptance gate: >= 50% hit rate after epoch 2 on a stable topology.
  EXPECT_GE(result.hit_rate_after(2), 0.5);
  EXPECT_EQ(result.epochs[0].cache_hit, false);  // cold cache
  EXPECT_EQ(result.cache.invalidations, 0u);
  for (const EpochReport& epoch : result.epochs) {
    // Hits skip the provisioning search entirely; misses pay for it.
    if (epoch.cache_hit) {
      EXPECT_EQ(epoch.replan_cost_evals, 0u) << "epoch " << epoch.epoch;
    } else {
      EXPECT_GT(epoch.replan_cost_evals, 0u) << "epoch " << epoch.epoch;
    }
    EXPECT_GT(epoch.realized_makespan, 0);
    EXPECT_EQ(epoch.jobs_failed, 0);
  }
  // The fleet's noise is the paper's 6.5%; the predictor should land near
  // it (wide band — this run is 6 jobs x 10 epochs, not Fig 1's scale).
  EXPECT_GT(result.mean_prediction_error, 0.0);
  EXPECT_LT(result.mean_prediction_error, 0.20);
}

TEST(CtrlLoop, RackOutageInvalidatesAndReplans) {
  ControlLoopConfig config = loop_config(6);
  config.outages = {{3, 1}};
  auto fleet = make_recurring_fleet(small_fleet_config(), config.warmup_days,
                                    config.epochs, config.seed);
  const ControlLoopResult result =
      run_control_loop(std::move(fleet), config);

  const EpochReport& outage = result.epochs[3];
  EXPECT_TRUE(outage.outage);
  EXPECT_FALSE(outage.cache_hit);  // no plan exists for the degraded world
  EXPECT_GT(outage.invalidations, 0u);  // full-topology plans were dropped
  EXPECT_EQ(outage.planning_racks, config.cluster.racks - 1);
  // Recovery epoch: the degraded-world plan is stale in turn.
  const EpochReport& recovered = result.epochs[4];
  EXPECT_FALSE(recovered.cache_hit);
  EXPECT_GT(recovered.invalidations, 0u);
  EXPECT_EQ(recovered.planning_racks, config.cluster.racks);
  EXPECT_GT(result.cache.invalidations, 0u);
}

TEST(CtrlLoop, FeedbackHistoryContract) {
  // The loop owns its pipelines, so the feedback edge is pinned through the
  // history API it uses: append-in-order, reject bad observations, rolling
  // window.
  std::vector<JobInstance> history{{0, 0, 100.0}, {1, 0, 110.0}};
  EXPECT_EQ(record_instance(history, JobInstance{2, 0, 120.0}), 3u);
  EXPECT_THROW(record_instance(history, JobInstance{1, 0, 100.0}),
               std::invalid_argument);  // out of order
  EXPECT_THROW(record_instance(history, JobInstance{3, 0, 0.0}),
               std::invalid_argument);  // non-positive input
  EXPECT_EQ(prune_history(history, 2), 1u);  // keeps days {1, 2}
  EXPECT_EQ(history.size(), 2u);
  EXPECT_EQ(history.front().day, 1);
}

TEST(CtrlLoop, DriftDetectorForcesReplan) {
  // A fleet whose realized sizes jump far from the history makes the
  // predictor miss by more than the threshold; the next epoch must replan
  // even though the topology and planner config are unchanged.
  ControlLoopConfig config = loop_config(3);
  config.drift_threshold = 0.10;
  auto fleet = make_recurring_fleet(small_fleet_config(), config.warmup_days,
                                    config.epochs, config.seed);
  // Double every post-warmup realized size: predictions (anchored on the
  // warmup history) are ~50% off, far beyond the 10% threshold.
  for (RecurringPipeline& pipeline : fleet) {
    for (JobInstance& instance : pipeline.timeline) {
      if (instance.day >= config.warmup_days) instance.input_bytes *= 2.0;
    }
  }
  const ControlLoopResult result =
      run_control_loop(std::move(fleet), config);
  EXPECT_GT(result.drift_trips, 0);
  // While the history still mixes pre- and post-jump sizes the error stays
  // far above the threshold, so every epoch replans — either because the
  // drift detector invalidated the entry or because the re-anchored sticky
  // sizes changed the key.
  for (const EpochReport& epoch : result.epochs) {
    EXPECT_FALSE(epoch.cache_hit) << "epoch " << epoch.epoch;
  }
}

TEST(CtrlLoop, MetricsRegistryGetsCtrlSeries) {
  obs::MetricsRegistry metrics;
  ControlLoopConfig config = loop_config(4);
  config.metrics = &metrics;
  auto fleet = make_recurring_fleet(small_fleet_config(), config.warmup_days,
                                    config.epochs, config.seed);
  const ControlLoopResult result =
      run_control_loop(std::move(fleet), config);
  EXPECT_EQ(metrics.counter("ctrl.epochs").value(), 4.0);
  EXPECT_EQ(metrics.counter("ctrl.cache.hits").value(),
            static_cast<double>(result.cache.hits));
  EXPECT_EQ(metrics.counter("ctrl.cache.misses").value(),
            static_cast<double>(result.cache.misses));
  EXPECT_EQ(metrics.gauge("ctrl.mean_prediction_error").value(),
            result.mean_prediction_error);
}

}  // namespace
}  // namespace corral
