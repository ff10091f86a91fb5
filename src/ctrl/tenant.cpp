#include "ctrl/tenant.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <utility>

#include "corral/fingerprint.h"
#include "plan/backend.h"
#include "util/check.h"
#include "util/hash.h"
#include "util/rng.h"

namespace corral {
namespace ctrl_detail {

std::vector<int> outage_racks_for_epoch(const ControlLoopConfig& config,
                                        int epoch) {
  std::vector<int> racks;
  for (const RackOutage& outage : config.outages) {
    if (outage.epoch == epoch) racks.push_back(outage.rack);
  }
  std::sort(racks.begin(), racks.end());
  racks.erase(std::unique(racks.begin(), racks.end()), racks.end());
  return racks;
}

void validate_pipelines(std::span<const RecurringPipeline> pipelines,
                        const std::string& who) {
  require(!pipelines.empty(), who + ": need at least one pipeline");
  for (const RecurringPipeline& pipeline : pipelines) {
    pipeline.reference.validate();
    require(!pipeline.timeline.empty(),
            who + ": pipeline timeline is empty");
    for (const JobInstance& instance : pipeline.timeline) {
      require(std::isfinite(instance.input_bytes) && instance.input_bytes > 0,
              who + ": pipeline '" + pipeline.reference.name +
                  "' timeline has a non-finite or non-positive input");
    }
  }
}

}  // namespace ctrl_detail

namespace {

bool is_weekend(int day) { return day % 7 == 5 || day % 7 == 6; }

// The realized instance for (day, run 0) of a pipeline's exogenous
// timeline; throws when the timeline does not cover the day.
const JobInstance& timeline_instance(const RecurringPipeline& pipeline,
                                     int day) {
  for (const JobInstance& instance : pipeline.timeline) {
    if (instance.day == day && instance.run_of_day == 0) return instance;
  }
  require(false, "TenantLoop: pipeline '" + pipeline.reference.name +
                     "' timeline does not cover day " + std::to_string(day));
  return pipeline.timeline.front();  // unreachable
}

}  // namespace

TenantLoop::TenantLoop(std::vector<RecurringPipeline> pipelines,
                       const ControlLoopConfig& config, std::uint64_t seed,
                       std::uint64_t chaos_seed, int sink_base,
                       std::string label_prefix,
                       std::optional<PlannerBackendKind> backend,
                       std::optional<NetPolicy> net_policy)
    : config_(config),
      pipelines_(std::move(pipelines)),
      seed_(seed),
      sink_base_(sink_base),
      label_prefix_(std::move(label_prefix)),
      backend_(backend.value_or(config.planner_backend)),
      net_policy_(net_policy.value_or(config.net_policy)),
      planner_sig_(0),
      params_(LatencyModelParams::from_cluster(config.cluster)),
      budget_(config.resilience.enabled ? config.resilience.demote_after : 0,
              config.resilience.promote_after),
      cache_(config.cache_capacity),
      rf_cache_(config.size_quantum),
      planning_inputs_(pipelines_.size(), std::array<Bytes, 2>{0.0, 0.0}) {
  planner_config_.objective = config_.objective;
  planner_config_.pool = config_.pool;
  planner_config_.tracer = config_.tracer;
  // The net policy shapes the realized measurements every plan is judged
  // by, so it joins the plan-cache signature exactly like the backend id.
  {
    Fingerprint sig;
    sig.mix(planner_fingerprint(planner_config_, backend_));
    sig.mix(static_cast<std::uint64_t>(net_policy_));
    planner_sig_ = sig.value();
  }
  if (!config_.chaos.empty()) {
    const std::uint64_t schedule_seed =
        chaos_seed != 0 ? chaos_seed : substream(seed_, 0xC4A05u);
    chaos_schedule_ =
        ChaosSchedule(config_.chaos, config_.epochs,
                      static_cast<int>(pipelines_.size()), schedule_seed);
  }
  result_.epochs.reserve(static_cast<std::size_t>(config_.epochs));
}

void TenantLoop::restore_state(const CheckpointState& saved) {
  require(saved.pipelines.size() == pipelines_.size(),
          "TenantLoop: checkpoint pipeline count mismatch");
  prev_topology_ = saved.prev_topology;
  force_replan_ = saved.force_replan;
  budget_.restore(saved.budget_mode, saved.budget_bad, saved.budget_good,
                  saved.budget_demotions, saved.budget_promotions);
  for (std::size_t i = 0; i < pipelines_.size(); ++i) {
    planning_inputs_[i] = saved.pipelines[i].planning_inputs;
    pipelines_[i].history = saved.pipelines[i].history;
  }
  result_.epochs = saved.reports;
  result_.drift_trips = saved.drift_trips;
  has_last_good_ = saved.has_last_good;
  last_good_plan_ = saved.last_good_plan;
  last_good_topology_ = saved.last_good_topology;
  cache_.restore(saved.plan_cache);
  rf_cache_.restore(saved.rf_entries, saved.rf_hits, saved.rf_misses);
}

void TenantLoop::save_state(CheckpointState& state) const {
  state.prev_topology = prev_topology_;
  state.force_replan = force_replan_;
  state.budget_mode = budget_.mode();
  state.budget_bad = budget_.consecutive_bad();
  state.budget_good = budget_.consecutive_good();
  state.budget_demotions = budget_.demotions();
  state.budget_promotions = budget_.promotions();
  state.pipelines.resize(pipelines_.size());
  for (std::size_t i = 0; i < pipelines_.size(); ++i) {
    state.pipelines[i].planning_inputs = planning_inputs_[i];
    state.pipelines[i].history = pipelines_[i].history;
  }
  state.reports = result_.epochs;
  state.drift_trips = result_.drift_trips;
  state.has_last_good = has_last_good_;
  state.last_good_topology = last_good_topology_;
  if (has_last_good_) state.last_good_plan = last_good_plan_;
  state.plan_cache = cache_.snapshot();
  state.rf_entries = rf_cache_.snapshot();
  state.rf_hits = rf_cache_.hits();
  state.rf_misses = rf_cache_.misses();
}

void TenantLoop::bind_trace() {
  trace_ = obs::TraceRecorder(config_.tracer, sink_base_,
                              label_prefix_ + "ctrl");
}

EpochReport TenantLoop::run_epoch(int epoch,
                                  std::span<const int> granted_racks,
                                  bool outage, const BatchRunner& runner) {
  const ResilienceConfig& guard = config_.resilience;
  EpochReport report;
  report.epoch = epoch;
  report.day = config_.warmup_days + epoch;
  report.weekend = is_weekend(report.day);
  report.mode = budget_.mode();

  const std::vector<ChaosEvent> chaos_events =
      chaos_schedule_.for_epoch(epoch);
  report.chaos_injected = static_cast<int>(chaos_events.size());
  const auto chaos_count = [&](ChaosFault fault) {
    int n = 0;
    for (const ChaosEvent& event : chaos_events) {
      if (event.fault == fault) ++n;
    }
    return n;
  };

  // --- topology for this epoch (step 0: what world are we planning in) --
  report.outage = outage;
  const std::vector<int> usable_racks(granted_racks.begin(),
                                      granted_racks.end());
  // The planner's *view* of the topology. Stale-topology chaos hands the
  // planner a view with one healthy rack spuriously missing; the guardrail
  // revalidates the view against the authoritative rack set and plans on
  // the refreshed truth, while the unguarded loop plans on the stale view.
  std::vector<int> planner_view = usable_racks;
  if (chaos_count(ChaosFault::kStaleTopology) > 0) {
    report.stale_topology = true;
    if (!guard.enabled && planner_view.size() > 1) {
      int drop = 0;
      for (const ChaosEvent& event : chaos_events) {
        if (event.fault == ChaosFault::kStaleTopology) drop = event.target;
      }
      planner_view.erase(planner_view.begin() +
                         (drop % static_cast<int>(planner_view.size())));
    } else if (guard.enabled) {
      trace_.instant(obs::TraceTrack::kCtrl, "stale_view_refreshed", "ctrl",
                     /*tid=*/0, /*ts=*/epoch);
    }
  }
  report.planning_racks = static_cast<int>(planner_view.size());
  // A whole-cluster grant hashes to the canonical healthy fingerprint, so
  // a single tenant granted every rack keys exactly like the pre-service
  // loop; any narrower grant (outage *or* arbitration) keys differently
  // and invalidates plans built against another topology.
  const std::uint64_t topology_sig =
      topology_fingerprint(config_.cluster, usable_racks);
  const std::uint64_t view_sig =
      planner_view == usable_racks
          ? topology_sig
          : topology_fingerprint(config_.cluster, planner_view);
  if (epoch > 0 && topology_sig != prev_topology_) {
    report.invalidations = cache_.invalidate_topology_changed(topology_sig);
  }
  prev_topology_ = topology_sig;

  bool aborted = false;
  std::string abort_reason;

  // --- 1. predict -----------------------------------------------------
  std::vector<JobSpec> planning;  // what the planner (and cache key) see
  std::vector<JobSpec> realized;  // what actually runs
  planning.reserve(pipelines_.size());
  realized.reserve(pipelines_.size());
  const std::size_t kind = report.weekend ? 1 : 0;
  double error_sum = 0;
  for (std::size_t i = 0; i < pipelines_.size() && !aborted; ++i) {
    const RecurringPipeline& pipeline = pipelines_[i];
    const JobSpecEstimate estimate = estimate_job_spec(
        pipeline.reference, pipeline.history, report.day, /*run_of_day=*/0,
        /*new_id=*/static_cast<int>(i), /*arrival=*/0.0);
    double forecast = estimate.predicted_input;
    for (const ChaosEvent& event : chaos_events) {
      if (event.target != static_cast<int>(i)) continue;
      if (event.fault == ChaosFault::kPredictorSpike) {
        forecast *= event.magnitude;
      } else if (event.fault == ChaosFault::kPredictorNonFinite) {
        forecast = std::numeric_limits<double>::quiet_NaN();
      }
    }
    Bytes& sticky = planning_inputs_[i][kind];
    if (guard.enabled) {
      // Input validation: quarantine non-finite, non-positive and outlier
      // forecasts; the planner sees the last anchored size instead.
      const Bytes reference =
          sticky > 0 ? sticky
                     : (pipeline.shape.base_input > 0
                            ? pipeline.shape.base_input
                            : pipeline.reference.total_input());
      if (!std::isfinite(forecast) || forecast <= 0 ||
          forecast > reference * guard.outlier_factor ||
          forecast < reference / guard.outlier_factor) {
        forecast = reference;
        ++report.quarantined;
        trace_.instant(obs::TraceTrack::kCtrl, "quarantine", "ctrl",
                       /*tid=*/static_cast<long>(i), /*ts=*/epoch);
      }
    } else if (!std::isfinite(forecast) || forecast <= 0) {
      // Unguarded: a garbage forecast kills the epoch — nothing sane can
      // be planned or published.
      aborted = true;
      abort_reason = "nonfinite_forecast";
      break;
    }
    const JobInstance& truth = timeline_instance(pipeline, report.day);
    realized.push_back(scale_job_spec(pipeline.reference, truth.input_bytes,
                                      static_cast<int>(i),
                                      /*arrival=*/0.0));
    error_sum += std::abs(forecast -
                          static_cast<double>(truth.input_bytes)) /
                 static_cast<double>(truth.input_bytes);
    // Quantization dead-band: re-anchor the sticky planning size only
    // when the forecast moved more than size_quantum away from it.
    if (forecast > 0 &&
        (sticky <= 0 ||
         std::abs(forecast - sticky) / sticky > config_.size_quantum)) {
      sticky = forecast;
      ++report.planning_updates;
    }
    planning.push_back(scale_job_spec(pipeline.reference, sticky,
                                      static_cast<int>(i),
                                      /*arrival=*/0.0));
  }
  if (!aborted) {
    report.mean_prediction_error =
        error_sum / static_cast<double>(pipelines_.size());
  }

  // --- 2. plan (through the cache; skipped when demoted) ---------------
  Plan plan;
  bool have_plan = false;
  if (!aborted && report.mode == ControlMode::kPlanned) {
    // Cache-store chaos lands before the lookup.
    if (chaos_count(ChaosFault::kCacheCorrupt) > 0) cache_.corrupt_oldest();
    if (chaos_count(ChaosFault::kCacheLoss) > 0) {
      report.invalidations += cache_.invalidate_all();
    }
    const PlanCacheKey key{
        workload_fingerprint(planning, config_.size_quantum), view_sig,
        planner_sig_};
    report.cache_key = key.combined();
    if (force_replan_) {
      report.drift_replan = cache_.invalidate(key);
      if (report.drift_replan) ++report.invalidations;
      force_replan_ = false;
    }
    const std::uint64_t rf_hits_before = rf_cache_.hits();
    const std::uint64_t rf_misses_before = rf_cache_.misses();
    if (const Plan* cached = cache_.find(key); cached != nullptr) {
      report.cache_hit = true;
      plan = *cached;
      report.replan_cost_evals = 0;  // the whole point of the cache
      have_plan = true;
    } else {
      planner_config_.trace_sink = sink_base_ + 1 + 2 * epoch;
      // Plan on a virtual cluster of |planner_view| racks (response
      // functions memoized across epochs), then map virtual rack ids back
      // onto the surviving physical racks — the §7 subcluster trick
      // plan_offline's usable_racks overload uses, routed through the
      // memo.
      const std::vector<ResponseFunction> functions =
          rf_cache_.get_all(planning, report.planning_racks, params_);
      // Backend dispatch (src/plan): kCorral runs the §4.2 search exactly
      // as before; the planning specs ride along so DAG-aware backends can
      // inspect stage structure.
      // Placement constraints (corral/placement.h): resolved against the
      // physical cluster, projected onto the planning view, and handed to
      // the backend for this plan only.
      std::vector<JobPlacement> placements;
      if (any_constrained(std::span<const JobSpec>(planning))) {
        placements = remap_placements(
            resolve_placements(planning, config_.cluster), planning,
            planner_view);
        planner_config_.placements = &placements;
      }
      plan::PlannerRequest plan_request;
      plan_request.jobs = functions;
      plan_request.specs = planning;
      plan_request.num_racks = report.planning_racks;
      plan_request.config = &planner_config_;
      plan = plan::planner_backend(backend_)
                 .plan(plan_request)
                 .plan;
      planner_config_.placements = nullptr;
      for (PlannedJob& job : plan.jobs) {
        for (int& r : job.racks) {
          r = planner_view[static_cast<std::size_t>(r)];
        }
      }
      report.replan_cost_evals = plan.evaluated_candidates;
      // Planner deadline: a chaos overrun, or a real provisioning search
      // that blew its evaluation budget.
      report.planner_overrun =
          chaos_count(ChaosFault::kPlannerOverrun) > 0 ||
          (guard.enabled && guard.planner_budget_evals > 0 &&
           plan.evaluated_candidates > guard.planner_budget_evals);
      if (report.planner_overrun) {
        trace_.instant(obs::TraceTrack::kCtrl, "planner_overrun", "ctrl",
                       /*tid=*/0, /*ts=*/epoch);
      }
      if (report.planner_overrun && !guard.enabled) {
        // Unguarded: the deadline passed with nothing published.
        aborted = true;
        abort_reason = "planner_overrun";
      } else {
        cache_.insert(key, plan);
        have_plan = true;
        if (report.planner_overrun && has_last_good_ &&
            last_good_topology_ == view_sig) {
          // Guarded: publish the last good plan instead of publishing
          // late. The fresh plan stays cached for the next epoch.
          plan = last_good_plan_;
          report.fallback_plan = true;
          trace_.instant(obs::TraceTrack::kCtrl, "fallback_plan", "ctrl",
                         /*tid=*/0, /*ts=*/epoch);
        }
      }
    }
    report.rf_hits = rf_cache_.hits() - rf_hits_before;
    report.rf_misses = rf_cache_.misses() - rf_misses_before;
    if (have_plan) report.predicted_makespan = plan.predicted_makespan;
  }

  // --- 3. execute (the realized instances, not the predictions) -------
  std::optional<PlanLookup> lookup;
  if (have_plan) lookup.emplace(planning, plan);
  const SimResult* sim = nullptr;
  std::vector<BatchResult> batch;
  if (!aborted) {
    const int failing_attempts = chaos_count(ChaosFault::kExecFailure);
    double abort_fraction = 0;
    for (const ChaosEvent& event : chaos_events) {
      if (event.fault == ChaosFault::kExecFailure) {
        abort_fraction = event.magnitude;
      }
    }
    const int max_attempts = guard.enabled ? 1 + guard.max_retries : 1;
    Seconds backoff = guard.retry_backoff;
    for (int attempt = 0; attempt < max_attempts; ++attempt) {
      BatchCase batch_case;
      batch_case.label = label_prefix_ + "epoch" + std::to_string(epoch);
      batch_case.jobs = realized;
      batch_case.config.cluster = config_.cluster;
      batch_case.config.seed = substream(seed_, epoch);
      batch_case.config.tracer = config_.tracer;
      batch_case.config.trace_sink = sink_base_ + 2 + 2 * epoch;
      batch_case.config.trace_label = batch_case.label + "/sim";
      batch_case.config.net_policy = net_policy_;
      if (attempt < failing_attempts) {
        // Injected execution failure: this attempt dies partway through
        // the epoch's predicted span.
        const Seconds horizon = report.predicted_makespan > 0
                                    ? report.predicted_makespan
                                    : 3600.0;
        batch_case.config.abort_at_time =
            std::max(1.0, abort_fraction * horizon);
      }
      // Every machine outside this tenant's grant — racks down for the
      // epoch and racks arbitrated away to other tenants alike — is failed
      // hardware as far as this tenant's simulation is concerned.
      for (int rack = 0; rack < config_.cluster.racks; ++rack) {
        if (std::binary_search(granted_racks.begin(), granted_racks.end(),
                               rack)) {
          continue;
        }
        for (int m = 0; m < config_.cluster.machines_per_rack; ++m) {
          batch_case.config.failed_machines.push_back(
              rack * config_.cluster.machines_per_rack + m);
        }
      }
      batch_case.make_policy =
          [&lookup]() -> std::unique_ptr<SchedulingPolicy> {
        if (lookup.has_value()) {
          return std::make_unique<CorralPolicy>(&*lookup);
        }
        return std::make_unique<YarnCapacityPolicy>();
      };
      try {
        batch = runner.run(std::span<const BatchCase>(&batch_case, 1));
        sim = &batch.front().result;
        break;
      } catch (const SimulationAborted&) {
        if (attempt + 1 >= max_attempts) {
          aborted = true;
          abort_reason = "exec_failure";
          break;
        }
        ++report.exec_retries;
        trace_.instant(obs::TraceTrack::kCtrl, "exec_retry", "ctrl",
                       /*tid=*/0, /*ts=*/epoch,
                       {obs::arg("backoff_s", backoff)});
        backoff *= 2;  // virtual-time backoff before the next attempt
      }
    }
  }

  // --- 4. measure -----------------------------------------------------
  if (sim != nullptr) {
    report.realized_makespan = sim->makespan;
    report.makespan_error =
        report.predicted_makespan > 0
            ? std::abs(sim->makespan - report.predicted_makespan) /
                  report.predicted_makespan
            : 0.0;
    report.jobs_failed = sim->jobs_failed;
    double completion_error_sum = 0;
    int completion_samples = 0;
    if (lookup.has_value()) {
      for (std::size_t i = 0; i < pipelines_.size(); ++i) {
        const JobResult* job = sim->find_job(static_cast<int>(i));
        const PlannedJob* planned = lookup->find(static_cast<int>(i));
        if (job == nullptr || job->failed || planned == nullptr) continue;
        const Seconds expected = planned->predicted_completion();
        if (expected <= 0) continue;
        completion_error_sum += std::abs(job->finish - expected) / expected;
        ++completion_samples;
      }
    }
    report.mean_completion_error =
        completion_samples > 0 ? completion_error_sum / completion_samples
                               : 0.0;

    // --- 5. replan: feedback + drift ----------------------------------
    for (std::size_t i = 0; i < pipelines_.size(); ++i) {
      const JobResult* job = sim->find_job(static_cast<int>(i));
      if (job == nullptr || job->failed) continue;  // nothing observed
      record_instance(pipelines_[i].history,
                      timeline_instance(pipelines_[i], report.day));
      prune_history(pipelines_[i].history, config_.history_window_days);
    }
  }

  report.aborted = aborted;
  if (aborted) {
    report.mean_prediction_error = 0;
    trace_.instant(obs::TraceTrack::kCtrl, "epoch_aborted", "ctrl",
                   /*tid=*/0, /*ts=*/epoch,
                   {obs::arg("reason", abort_reason)});
  }

  const bool over_threshold =
      aborted || report.mean_prediction_error > config_.drift_threshold;
  if (!aborted && report.mean_prediction_error > config_.drift_threshold) {
    ++result_.drift_trips;
    force_replan_ = true;
  }
  if (!aborted && report.mode == ControlMode::kPlanned && have_plan) {
    has_last_good_ = true;
    last_good_plan_ = plan;
    last_good_topology_ = view_sig;
  }
  // Error budget: aborted and over-drift epochs burn it; clean epochs
  // restore it. Transitions fire *after* the epoch that spent the budget.
  if (budget_.record(over_threshold)) {
    if (budget_.mode() == ControlMode::kReactive) {
      report.demoted = true;
      trace_.instant(obs::TraceTrack::kCtrl, "demote", "ctrl", /*tid=*/0,
                     /*ts=*/epoch);
    } else {
      report.promoted = true;
      trace_.instant(obs::TraceTrack::kCtrl, "promote", "ctrl", /*tid=*/0,
                     /*ts=*/epoch);
    }
  }

  trace_.span(obs::TraceTrack::kCtrl, "epoch", "ctrl", /*tid=*/0,
              /*start=*/epoch, /*end=*/epoch + 1,
              {obs::arg("day", static_cast<double>(report.day)),
               obs::arg("key", hex16(report.cache_key)),
               obs::arg("hit", static_cast<double>(report.cache_hit)),
               obs::arg("prediction_error", report.mean_prediction_error),
               obs::arg("replan_evals",
                        static_cast<double>(report.replan_cost_evals)),
               obs::arg("mode", std::string(to_string(report.mode))),
               obs::arg("chaos", static_cast<double>(report.chaos_injected)),
               obs::arg("aborted", static_cast<double>(report.aborted))});

  result_.epochs.push_back(report);
  return report;
}

bool TenantLoop::crash_after(int epoch) const {
  return chaos_schedule_.crash_after(epoch);
}

void TenantLoop::note_crash(int epoch) {
  // Whole-process crash: the run ends here; a later run resumes from the
  // checkpoint just written and replays nothing.
  result_.crashed_after = epoch;
  trace_.instant(obs::TraceTrack::kCtrl, "crash", "ctrl", /*tid=*/0,
                 /*ts=*/epoch + 1);
}

ControlLoopResult TenantLoop::finish() {
  result_.cache = cache_.stats();
  result_.rf_hits = rf_cache_.hits();
  result_.rf_misses = rf_cache_.misses();
  double error_sum = 0;
  int completed = 0;
  for (const EpochReport& report : result_.epochs) {
    if (report.aborted) {
      ++result_.epochs_aborted;
      continue;
    }
    ++completed;
    error_sum += report.mean_prediction_error;
  }
  result_.epochs_completed = completed;
  result_.mean_prediction_error =
      completed > 0 ? error_sum / static_cast<double>(completed) : 0.0;
  for (const EpochReport& report : result_.epochs) {
    result_.chaos_events += report.chaos_injected;
    result_.quarantined += report.quarantined;
    result_.exec_retries += report.exec_retries;
    if (report.fallback_plan) ++result_.fallbacks;
    if (report.planner_overrun) ++result_.overruns;
    if (report.stale_topology) ++result_.stale_views;
  }
  result_.demotions = budget_.demotions();
  result_.promotions = budget_.promotions();
  return std::move(result_);
}

}  // namespace corral
