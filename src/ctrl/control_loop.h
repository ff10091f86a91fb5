// Closed-loop control plane: predict -> plan-cache -> execute -> measure ->
// replan (docs/control_plane.md).
//
// The paper's whole premise (§2, Fig 3) is a *recurring* workflow: predict
// the next instance of each recurring job from history, plan offline,
// execute the plan on the cluster, and feed measurements back into the
// history. This module drives N virtual "days" (epochs) of that loop over
// the simulator:
//
//   1. predict  — the §2 averaging predictor forecasts tonight's input size
//                 for every recurring job from its (weekday/weekend-split)
//                 history, and estimate_job_spec scales the reference run.
//                 Each pipeline keeps a *sticky planning size* per day kind
//                 that re-anchors to the forecast only when the two diverge
//                 by more than size_quantum — the loop replans when the
//                 forecast materially moves, not on every ±1% wiggle (the
//                 quantization dead-band that makes cache keys repeat).
//   2. plan     — a signature-keyed PlanCache is consulted with the key of
//                 the sticky planning specs; a hit reuses the cached
//                 {R_j, T_j, p_j} outright, a miss runs the full §4.2
//                 provisioning search (with per-job L_j(r) envelopes
//                 memoized across epochs by ResponseFunctionCache) and
//                 caches the result.
//   3. execute  — the plan is published to the simulator via CorralPolicy
//                 and the epoch's *realized* instances (predictions are
//                 never exact) run to completion.
//   4. measure  — per-epoch prediction error, realized-vs-predicted
//                 makespan and completion times, cache hits/misses/
//                 invalidations and the deterministic replan cost are
//                 recorded (obs counters + spans on the kCtrl track).
//   5. replan   — realized input sizes are appended to the histories; a
//                 drift detector invalidates the cached plan when the
//                 epoch's mean prediction error exceeds a threshold (§5
//                 fallback: stop trusting a plan the world has outgrown),
//                 and topology changes (rack outages) invalidate every
//                 plan built against a different topology.
//
// Everything is virtual-time and seed-driven: the loop's outputs (reports,
// traces, metrics) are byte-identical at any exec:: pool width.
#ifndef CORRAL_CTRL_CONTROL_LOOP_H_
#define CORRAL_CTRL_CONTROL_LOOP_H_

#include <cstdint>
#include <string>
#include <vector>

#include "corral/latency_model.h"
#include "corral/planner.h"
#include "ctrl/chaos.h"
#include "ctrl/plan_cache.h"
#include "ctrl/resilience.h"
#include "sim/simulator.h"
#include "workload/recurring.h"
#include "workload/workloads.h"

namespace corral {

namespace exec {
class ThreadPool;
}  // namespace exec

// One recurring pipeline under control: a reference run (task structure,
// rates, selectivities), the seasonal shape its input follows, the realized
// input timeline (exogenous ground truth, one entry per day), and the
// history the predictor is allowed to see — initially the warmup prefix,
// grown by the loop's feedback step one observed instance per epoch.
struct RecurringPipeline {
  JobSpec reference;
  RecurringJobTemplate shape;
  std::vector<JobInstance> timeline;  // day 0 .. warmup+epochs-1
  std::vector<JobInstance> history;   // what the predictor may read
};

// One injected whole-rack outage: rack `rack` is down for the duration of
// epoch `epoch`.
struct RackOutage {
  int epoch = 0;
  int rack = 0;

  bool operator==(const RackOutage& other) const = default;
};

struct ControlLoopConfig {
  ClusterConfig cluster;
  Objective objective = Objective::kMakespan;

  // Planning algorithm for every replan (src/plan/backend.h). Folded into
  // the plan-cache planner fingerprint, so runs keyed under one backend
  // never reuse plans produced by another; also mixed into the checkpoint
  // config fingerprint, so a resume with a different backend is rejected.
  // The multi-tenant service can override it per tenant (ServiceTenant).
  PlannerBackendKind planner_backend = PlannerBackendKind::kCorral;

  // Network rate-allocation policy each epoch's simulation runs under
  // (src/coflow, docs/coflow.md). Mixed into the per-tenant planner
  // signature and the checkpoint config fingerprint exactly like
  // planner_backend, so runs keyed under one policy never resume or reuse
  // state from another. The multi-tenant service can override it per tenant
  // (ServiceTenant::net_policy).
  NetPolicy net_policy = NetPolicy::kTcp;

  // Virtual days to drive. Day d of the loop is calendar day
  // warmup_days + d, so weekday/weekend seasonality advances epoch by epoch.
  int epochs = 10;
  // Days of history each pipeline starts with (the predictor's §2 warmup).
  int warmup_days = 14;

  // Drift detector (§5 fallback): when an epoch's mean relative prediction
  // error exceeds this, the cached plan for the *next* epoch's key is
  // invalidated and the loop replans. Must be positive.
  double drift_threshold = 0.25;

  // Relative tolerance of the planning dead-band (and of the plan-cache /
  // response-function-memo signatures): a pipeline's sticky planning size
  // re-anchors to the forecast only when they diverge by more than this, so
  // predictions within the tolerance reuse the cached plan. Must be
  // positive.
  double size_quantum = 0.15;

  // Rolling history window fed to prune_history after each feedback step;
  // 0 keeps unbounded history.
  int history_window_days = 0;

  // Injected whole-rack outages: during epoch `epoch` rack `rack` is down
  // (its machines failed in the simulator, the rack excluded from the
  // planning universe, and every cached plan built against a different
  // topology invalidated). Multiple entries may share an epoch (several
  // racks down at once) or a rack (the same rack flapping across epochs);
  // exact duplicates are rejected by validate().
  std::vector<RackOutage> outages;

  // Control-plane chaos (ctrl/chaos.h): faults injected into the loop
  // itself. Empty = no chaos. chaos_seed 0 derives the schedule seed from
  // `seed`, so chaos runs stay reproducible from one flag.
  ChaosSpec chaos;
  std::uint64_t chaos_seed = 0;

  // Guardrail policy (ctrl/resilience.h). Disabled by default: the loop
  // behaves exactly as before this module existed, and chaos faults land
  // unmitigated.
  ResilienceConfig resilience;

  // When non-empty, a versioned, checksummed checkpoint (ctrl/checkpoint.h)
  // is (re)written after every completed epoch, and — crash chaos or not —
  // a later run can continue from it.
  std::string checkpoint_path;
  // When non-empty, the loop restores this checkpoint before its first
  // epoch and continues from the epoch after the checkpoint's. The config
  // and fleet must fingerprint-match the checkpointing run; throws
  // std::invalid_argument otherwise.
  std::string resume_path;

  // Max cached plans (FIFO eviction past it).
  std::size_t cache_capacity = 64;

  // Base seed; each epoch's simulation derives its own seed from it.
  std::uint64_t seed = 2015;

  // Pool for planning and simulation (nullptr = exec::ThreadPool::shared());
  // results are byte-identical at any width.
  exec::ThreadPool* pool = nullptr;

  // Observability (both optional). Sink layout, fixed so merged traces are
  // deterministic: sink 0 = the control loop (kCtrl track, timestamped by
  // epoch index), sink 1+2e = epoch e's planner, sink 2+2e = epoch e's
  // simulation.
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;

  // Throws std::invalid_argument when a field is out of range (non-positive
  // epochs/warmup/drift_threshold/size_quantum, bad outage rack, ...).
  void validate() const;
};

// What one turn of the loop did and saw.
struct EpochReport {
  int epoch = 0;
  int day = 0;           // calendar day (warmup_days + epoch)
  bool weekend = false;

  // Plan-cache outcome for this epoch's key.
  std::uint64_t cache_key = 0;
  bool cache_hit = false;
  bool outage = false;        // the injected rack outage epoch
  bool drift_replan = false;  // miss forced by the drift detector
  std::uint64_t invalidations = 0;  // entries dropped entering this epoch
  int planning_racks = 0;           // usable racks the planner saw
  // Pipelines whose sticky planning size re-anchored this epoch (forecast
  // moved more than size_quantum from what the current plan assumed).
  int planning_updates = 0;

  // Replan cost in provisioning-candidate evaluations (deterministic; 0 on
  // a cache hit — that is the point of the cache).
  std::size_t replan_cost_evals = 0;
  // Memoized-envelope hits/misses while (re)building response functions.
  std::uint64_t rf_hits = 0;
  std::uint64_t rf_misses = 0;

  // Prediction quality: mean over pipelines of |predicted - realized| /
  // realized input.
  double mean_prediction_error = 0;

  // Plan quality: predicted vs realized.
  Seconds predicted_makespan = 0;
  Seconds realized_makespan = 0;
  double makespan_error = 0;  // |realized - predicted| / predicted
  // Mean over jobs of |realized completion - predicted completion| /
  // predicted completion (successful jobs only).
  double mean_completion_error = 0;

  int jobs_failed = 0;

  // --- resilience (ctrl/resilience.h, ctrl/chaos.h) ---------------------
  ControlMode mode = ControlMode::kPlanned;  // policy driving this epoch
  int chaos_injected = 0;   // non-crash chaos events landed this epoch
  int quarantined = 0;      // forecasts rejected by input validation
  int exec_retries = 0;     // execution attempts beyond the first
  bool planner_overrun = false;  // replan exceeded its deadline budget
  bool fallback_plan = false;    // last-good plan substituted for a replan
  bool stale_topology = false;   // stale planner view injected this epoch
  // The epoch gave up: no plan could be published or every execution
  // attempt aborted. Nothing ran, nothing was measured or fed back.
  bool aborted = false;
  bool demoted = false;   // error budget demoted the loop after this epoch
  bool promoted = false;  // error budget re-promoted after this epoch
};

struct ControlLoopResult {
  std::vector<EpochReport> epochs;
  PlanCacheStats cache;       // totals over the run
  std::uint64_t rf_hits = 0;  // response-function memo totals
  std::uint64_t rf_misses = 0;
  int drift_trips = 0;        // epochs whose error exceeded the threshold
  double mean_prediction_error = 0;  // over completed (non-aborted) epochs

  // Resilience totals over the run.
  int epochs_completed = 0;  // epochs that executed and fed back
  int epochs_aborted = 0;    // epochs that gave up (resilience off)
  int chaos_events = 0;      // non-crash chaos events injected
  int quarantined = 0;
  int exec_retries = 0;
  int fallbacks = 0;   // epochs served by the last-good plan
  int overruns = 0;    // planner deadline overruns observed
  int stale_views = 0; // stale-topology injections observed
  int demotions = 0;   // error-budget planned -> reactive transitions
  int promotions = 0;  // error-budget reactive -> planned transitions
  // Crash chaos ended the run after this epoch (-1: ran to completion).
  // A later run resumes from the checkpoint; result.epochs then spans the
  // whole run and crashed_after is -1 again.
  int crashed_after = -1;

  // Cache hit rate over non-aborted epochs with index > `after_epoch` (the
  // acceptance gate: >= 0.5 after epoch 2 on a stable topology). Aborted
  // epochs published nothing and stay out of the denominator; when every
  // counted epoch aborted this is 0, never NaN.
  double hit_rate_after(int after_epoch) const;
};

// Builds a W1-like recurring fleet: one pipeline per make_w1 job, each with
// its own seasonal shape (weekend factor, drift, noise) and a realized
// timeline covering warmup_days + epochs days. Deterministic in `seed`.
std::vector<RecurringPipeline> make_recurring_fleet(
    const W1Config& config, int warmup_days, int epochs, std::uint64_t seed);

// Drives the loop. Pipelines are taken by value: the loop owns and mutates
// their histories (the feedback edge). This is the control service
// (ctrl/service.h) with one tenant ("t0", priority 1, one shard lane), so
// checkpoint_path/resume_path read and write the service's v2 format and
// the result is the service's combined result.
ControlLoopResult run_control_loop(std::vector<RecurringPipeline> pipelines,
                                   const ControlLoopConfig& config);

// Writes the run's ctrl.* counters and gauges into `metrics` (no-op when
// null). The control service records them over its combined result.
void record_ctrl_metrics(obs::MetricsRegistry* metrics,
                         const ControlLoopResult& result);

}  // namespace corral

#endif  // CORRAL_CTRL_CONTROL_LOOP_H_
