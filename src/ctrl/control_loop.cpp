#include "ctrl/control_loop.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "ctrl/service.h"
#include "ctrl/tenant.h"
#include "obs/metrics.h"
#include "util/check.h"
#include "util/rng.h"

namespace corral {

void ControlLoopConfig::validate() const {
  require(epochs > 0, "ControlLoopConfig: epochs must be positive");
  require(warmup_days >= 1, "ControlLoopConfig: warmup_days must be >= 1");
  require(std::isfinite(drift_threshold) && drift_threshold > 0,
          "ControlLoopConfig: drift_threshold must be positive and finite");
  require(std::isfinite(size_quantum) && size_quantum > 0,
          "ControlLoopConfig: size_quantum must be positive and finite");
  require(history_window_days >= 0,
          "ControlLoopConfig: history_window_days must be >= 0");
  require(cache_capacity >= 1,
          "ControlLoopConfig: cache_capacity must be >= 1");
  require(cluster.racks >= 1 && cluster.machines_per_rack >= 1 &&
              cluster.slots_per_machine >= 1,
          "ControlLoopConfig: cluster must have racks, machines and slots");
  for (std::size_t i = 0; i < outages.size(); ++i) {
    const RackOutage& outage = outages[i];
    require(outage.epoch >= 0 && outage.epoch < epochs,
            "ControlLoopConfig: outage epoch out of range");
    require(outage.rack >= 0 && outage.rack < cluster.racks,
            "ControlLoopConfig: outage rack out of range");
    require(cluster.racks >= 2,
            "ControlLoopConfig: an outage needs at least 2 racks");
    for (std::size_t j = 0; j < i; ++j) {
      require(!(outages[j] == outage),
              "ControlLoopConfig: duplicate outage entry");
    }
  }
  // Every rack down in one epoch would leave nothing to plan or run on.
  for (int epoch = 0; epoch < epochs; ++epoch) {
    int down = 0;
    for (const RackOutage& outage : outages) {
      if (outage.epoch == epoch) ++down;
    }
    require(down < cluster.racks,
            "ControlLoopConfig: epoch " + std::to_string(epoch) +
                " would lose every rack");
  }
  chaos.validate();
  resilience.validate();
  if (resilience.enabled) {
    require(resilience.outlier_factor > 1.0 + size_quantum,
            "ControlLoopConfig: outlier_factor must exceed 1 + size_quantum "
            "or every re-anchor would quarantine");
  }
}

double ControlLoopResult::hit_rate_after(int after_epoch) const {
  std::uint64_t hits = 0;
  std::uint64_t total = 0;
  for (const EpochReport& report : epochs) {
    // Aborted epochs published nothing — their cache outcome is not a
    // miss, it is absent — so they stay out of the denominator. A run
    // where *every* counted epoch aborted therefore divides by nothing;
    // return 0 instead of NaN.
    if (report.epoch <= after_epoch || report.aborted) continue;
    ++total;
    if (report.cache_hit) ++hits;
  }
  return total == 0 ? 0.0 : static_cast<double>(hits) / total;
}

std::vector<RecurringPipeline> make_recurring_fleet(const W1Config& config,
                                                    int warmup_days,
                                                    int epochs,
                                                    std::uint64_t seed) {
  require(warmup_days >= 1, "make_recurring_fleet: warmup_days must be >= 1");
  require(epochs > 0, "make_recurring_fleet: epochs must be positive");
  Rng rng(seed);
  const std::vector<JobSpec> jobs = make_w1(config, rng);
  std::vector<RecurringPipeline> fleet;
  fleet.reserve(jobs.size());
  const int days = warmup_days + epochs;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    RecurringPipeline pipeline;
    pipeline.reference = jobs[j];
    pipeline.reference.recurring = true;
    RecurringJobTemplate& shape = pipeline.shape;
    shape.name = jobs[j].name;
    shape.base_input = jobs[j].total_input();
    shape.weekday_factor = 1.0;
    // Per-pipeline seasonality: distinct weekend dips and growth rates so
    // the fleet's day-to-day shifts are not perfectly correlated.
    shape.weekend_factor = 0.5 + 0.04 * static_cast<double>(j % 8);
    shape.noise = 0.065;  // the paper's 6.5% prediction error (§2, Fig 1)
    shape.drift_per_day = 0.001 + 0.0005 * static_cast<double>(j % 3);
    shape.runs_per_day = 1;
    Rng job_rng(substream(seed, j));
    pipeline.timeline = generate_history(shape, days, job_rng);
    pipeline.history.assign(
        pipeline.timeline.begin(),
        pipeline.timeline.begin() +
            std::min<std::size_t>(pipeline.timeline.size(),
                                  static_cast<std::size_t>(warmup_days)));
    fleet.push_back(std::move(pipeline));
  }
  return fleet;
}

void record_ctrl_metrics(obs::MetricsRegistry* metrics,
                         const ControlLoopResult& result) {
  if (metrics == nullptr) return;
  obs::MetricsRegistry& m = *metrics;
  m.counter("ctrl.epochs")
      .add(static_cast<double>(result.epochs.size()));
  m.counter("ctrl.cache.hits").add(static_cast<double>(result.cache.hits));
  m.counter("ctrl.cache.misses")
      .add(static_cast<double>(result.cache.misses));
  m.counter("ctrl.cache.invalidations")
      .add(static_cast<double>(result.cache.invalidations));
  m.counter("ctrl.cache.evictions")
      .add(static_cast<double>(result.cache.evictions));
  m.counter("ctrl.cache.corruptions")
      .add(static_cast<double>(result.cache.corruptions));
  m.counter("ctrl.drift_trips").add(static_cast<double>(result.drift_trips));
  m.counter("ctrl.rf.hits").add(static_cast<double>(result.rf_hits));
  m.counter("ctrl.rf.misses").add(static_cast<double>(result.rf_misses));
  double replan_evals = 0;
  for (const EpochReport& report : result.epochs) {
    replan_evals += static_cast<double>(report.replan_cost_evals);
  }
  m.counter("ctrl.replan_evals").add(replan_evals);
  m.gauge("ctrl.mean_prediction_error").set(result.mean_prediction_error);
  m.gauge("ctrl.hit_rate_after_2").set(result.hit_rate_after(2));
  m.counter("ctrl.resilience.chaos_events")
      .add(static_cast<double>(result.chaos_events));
  m.counter("ctrl.resilience.quarantined")
      .add(static_cast<double>(result.quarantined));
  m.counter("ctrl.resilience.exec_retries")
      .add(static_cast<double>(result.exec_retries));
  m.counter("ctrl.resilience.fallbacks")
      .add(static_cast<double>(result.fallbacks));
  m.counter("ctrl.resilience.overruns")
      .add(static_cast<double>(result.overruns));
  m.counter("ctrl.resilience.stale_views")
      .add(static_cast<double>(result.stale_views));
  m.counter("ctrl.resilience.demotions")
      .add(static_cast<double>(result.demotions));
  m.counter("ctrl.resilience.promotions")
      .add(static_cast<double>(result.promotions));
  m.counter("ctrl.resilience.epochs_aborted")
      .add(static_cast<double>(result.epochs_aborted));
  m.counter("ctrl.resilience.epochs_completed")
      .add(static_cast<double>(result.epochs_completed));
}

ControlLoopResult run_control_loop(std::vector<RecurringPipeline> pipelines,
                                   const ControlLoopConfig& config) {
  std::vector<ServiceTenant> tenants(1);
  tenants[0].name = "t0";
  tenants[0].pipelines = std::move(pipelines);
  ServiceConfig service;
  service.loop = config;
  return run_control_service(std::move(tenants), service).combined;
}

}  // namespace corral
