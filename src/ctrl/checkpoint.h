// Control-plane checkpoint/restore (docs/control_plane.md "Checkpoint
// format and `--resume`").
//
// After every completed epoch the control service can persist its entire
// mutable state — per tenant the plan cache, response-function memo,
// predictor histories, sticky planning sizes, error-budget machine and
// per-epoch reports, plus the trace events recorded so far — to a single
// versioned, checksummed text file. A later `corral_loop --resume <ckpt>`
// (after a real kill or a chaos kCrash) reconstructs that state and
// continues from the next epoch; because the loop is virtual-time and
// seed-driven, the resumed run's reports, traces and metrics are
// byte-identical to an uninterrupted run at any pool width and shard count.
//
// Format (`corral-checkpoint v2`, the only one): line-oriented text. Every
// floating-point value is stored as the hex image of its IEEE-754 bits
// (exact round-trip — obs::format_double's shortest-decimal form is for
// human-facing JSON, not for state); strings are length-prefixed raw bytes;
// the last line is an FNV-1a checksum of everything before it. The single
// tenant of run_control_loop writes the same format with one tenant
// section. Reading rejects a bad magic (including the retired v1
// single-fleet files), a truncated body, a malformed or out-of-range field
// or a checksum mismatch with std::invalid_argument — a torn write surfaces
// as a clean error, never as silently wrong state.
#ifndef CORRAL_CTRL_CHECKPOINT_H_
#define CORRAL_CTRL_CHECKPOINT_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "corral/latency_model.h"
#include "ctrl/control_loop.h"
#include "ctrl/plan_cache.h"
#include "ctrl/resilience.h"
#include "obs/trace.h"

namespace corral {

// One tenant's section: everything a TenantLoop mutates across epochs
// (TenantLoop::save_state fills it, restore_state consumes it).
struct CheckpointState {
  std::uint64_t prev_topology = 0;
  bool force_replan = false;  // pending drift-triggered invalidation

  // ErrorBudget machine state.
  ControlMode budget_mode = ControlMode::kPlanned;
  int budget_bad = 0;
  int budget_good = 0;
  int budget_demotions = 0;
  int budget_promotions = 0;

  // Per pipeline: the sticky planning sizes [weekday, weekend] and the
  // predictor history (the feedback edge's accumulated observations).
  struct Pipeline {
    std::array<Bytes, 2> planning_inputs{};
    std::vector<JobInstance> history;
  };
  std::vector<Pipeline> pipelines;

  // Completed epochs' reports and the running drift-trip count.
  std::vector<EpochReport> reports;
  int drift_trips = 0;

  // Last-good plan for deadline-overrun fallback, with the topology it was
  // planned against (a fallback across a topology change would reference
  // dead racks).
  bool has_last_good = false;
  std::uint64_t last_good_topology = 0;
  Plan last_good_plan;

  PlanCache::Snapshot plan_cache;

  ResponseFunctionCache::Snapshot rf_entries;
  std::uint64_t rf_hits = 0;
  std::uint64_t rf_misses = 0;
};

// Fingerprint over everything one tenant's state depends on: the loop
// config (cluster, objective, thresholds, outage list, chaos spec + seed,
// resilience knobs) and the fleet (references, shapes and the full
// exogenous timelines). Pool/tracer/metrics pointers and the checkpoint
// paths themselves are excluded — resuming under a different thread count
// or output wiring is exactly the supported case. The service checkpoint
// gate (control_service_fingerprint) mixes one of these per tenant.
std::uint64_t control_loop_fingerprint(
    const ControlLoopConfig& config,
    const std::vector<RecurringPipeline>& pipelines);

// The whole file: a service-level fingerprint gate, the resume epoch, one
// section per tenant and one shared trace snapshot spanning every tenant's
// sinks. Shard count and pool width are excluded from the gate.
struct ServiceCheckpointState {
  // control_service_fingerprint of the run that wrote the checkpoint.
  std::uint64_t config_fingerprint = 0;
  int next_epoch = 0;  // first epoch the resumed service should run
  std::vector<CheckpointState> tenants;  // in tenant-id order
  // Trace events recorded so far across every tenant's sinks.
  obs::TraceSnapshot trace;
};

std::string serialize_service_checkpoint(const ServiceCheckpointState& state);
// Throws std::invalid_argument on bad magic/version, truncation, malformed
// or out-of-range fields or checksum mismatch.
ServiceCheckpointState deserialize_service_checkpoint(
    const std::string& text);

// File wrappers; write is atomic-enough for the single-writer service
// (write to path + ".tmp", then rename). Throw std::runtime_error on I/O
// failure.
void write_service_checkpoint(const std::string& path,
                              const ServiceCheckpointState& state);
ServiceCheckpointState read_service_checkpoint(const std::string& path);

}  // namespace corral

#endif  // CORRAL_CTRL_CHECKPOINT_H_
