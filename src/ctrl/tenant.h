// One tenant of the control plane: the single-fleet epoch body, run T
// times behind the control service (ctrl/service.h). run_control_loop is
// the service with exactly one TenantLoop.
//
// A TenantLoop owns every piece of per-tenant mutable state — predictor
// histories, sticky planning sizes, the signature-keyed PlanCache, the
// memoized ResponseFunctionCache, the error-budget machine, the last-good
// fallback plan and the per-tenant chaos schedule — and advances it one
// epoch at a time via run_epoch(). Its caller, run_control_service, owns
// everything cross-cutting: which racks the tenant is granted this epoch,
// checkpointing, and crash handling.
//
// Determinism contract: a TenantLoop's outputs are a pure function of its
// (pipelines, config, seed, granted racks per epoch). Trace sinks are laid
// out per tenant at a fixed base — sink_base = ctrl track, sink_base+1+2e =
// epoch e's planner, sink_base+2+2e = epoch e's simulation — so merged
// traces are byte-identical regardless of which shard or thread ran the
// tenant. With sink_base 0 and an empty label prefix the layout is the
// single-tenant loop's (sink 0 = ctrl, 1+2e planner, 2+2e simulation).
#ifndef CORRAL_CTRL_TENANT_H_
#define CORRAL_CTRL_TENANT_H_

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "corral/latency_model.h"
#include "corral/planner.h"
#include "ctrl/chaos.h"
#include "ctrl/checkpoint.h"
#include "ctrl/control_loop.h"
#include "ctrl/plan_cache.h"
#include "ctrl/resilience.h"
#include "obs/trace.h"
#include "sim/batch.h"

namespace corral {

namespace ctrl_detail {

// Racks down during this epoch, sorted, deduplicated.
std::vector<int> outage_racks_for_epoch(const ControlLoopConfig& config,
                                        int epoch);

// The non-config half of the service's input validation: at least one
// pipeline, valid references, finite positive timelines. `who` prefixes the
// thrown message (e.g. "run_control_service('t0')").
void validate_pipelines(std::span<const RecurringPipeline> pipelines,
                        const std::string& who);

}  // namespace ctrl_detail

class TenantLoop {
 public:
  // `config` is borrowed and must outlive the loop. `seed` is this tenant's
  // base seed (epoch simulations derive substreams of it); `chaos_seed` 0
  // derives the chaos-schedule seed from `seed`. `sink_base` and
  // `label_prefix` place the tenant's trace sinks and labels; (0, "") is
  // the single-tenant layout. `backend` overrides config.planner_backend
  // for this tenant (the multi-tenant service's per-tenant planner choice);
  // nullopt inherits the config's.
  // `net_policy` likewise overrides config.net_policy — the rate-allocation
  // policy this tenant's epoch simulations run under.
  TenantLoop(std::vector<RecurringPipeline> pipelines,
             const ControlLoopConfig& config, std::uint64_t seed,
             std::uint64_t chaos_seed, int sink_base,
             std::string label_prefix,
             std::optional<PlannerBackendKind> backend = std::nullopt,
             std::optional<NetPolicy> net_policy = std::nullopt);

  // Restores per-tenant state from a checkpoint section. Must run before
  // bind_trace and any run_epoch. Throws std::invalid_argument when the
  // section's pipeline count does not match this tenant's fleet.
  void restore_state(const CheckpointState& saved);

  // Fills a checkpoint section with the tenant's state.
  void save_state(CheckpointState& state) const;

  // Creates the tenant's kCtrl trace recorder. Must run *after* a possible
  // restore_state + tracer restore replays old sinks into the tracer.
  void bind_trace();

  // Advances the tenant one epoch: predict -> plan (through the cache) ->
  // execute on `granted_racks` -> measure -> feedback. Machines of racks
  // outside the grant are failed in the simulation; the planner plans on
  // the granted subcluster. `outage` marks the epoch as an injected-outage
  // epoch in the report. Appends to (and returns a copy of) the report.
  EpochReport run_epoch(int epoch, std::span<const int> granted_racks,
                        bool outage, const BatchRunner& runner);

  // True when the tenant's chaos schedule crashes the process after
  // `epoch`. The driver decides what a crash means for the whole run.
  bool crash_after(int epoch) const;
  // Records the crash in the tenant's result and trace. Call after the
  // epoch's checkpoint was written, so a resumed run replays nothing.
  void note_crash(int epoch);

  // Totals over every recorded epoch. Call once, after the last epoch.
  ControlLoopResult finish();

 private:
  const ControlLoopConfig& config_;
  std::vector<RecurringPipeline> pipelines_;
  std::uint64_t seed_;
  int sink_base_;
  std::string label_prefix_;

  PlannerConfig planner_config_;
  PlannerBackendKind backend_;
  NetPolicy net_policy_;
  std::uint64_t planner_sig_;
  LatencyModelParams params_;
  ChaosSchedule chaos_schedule_;
  ErrorBudget budget_;
  PlanCache cache_;
  ResponseFunctionCache rf_cache_;

  ControlLoopResult result_;
  std::uint64_t prev_topology_ = 0;
  bool force_replan_ = false;  // set by a past epoch's drift detector
  // Sticky planning size per (pipeline, day kind): what the current plan
  // assumes the job's input is. Re-anchored to the forecast only when the
  // two diverge by more than size_quantum, so the workload signature — and
  // with it the cache key — repeats across epochs whose forecasts agree
  // within the tolerance. 0 = not yet anchored.
  std::vector<std::array<Bytes, 2>> planning_inputs_;
  // Last plan that drove a successful epoch, for deadline-overrun fallback.
  bool has_last_good_ = false;
  Plan last_good_plan_;
  std::uint64_t last_good_topology_ = 0;

  obs::TraceRecorder trace_;
};

}  // namespace corral

#endif  // CORRAL_CTRL_TENANT_H_
