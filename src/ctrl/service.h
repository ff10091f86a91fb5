// Multi-tenant control-plane service (docs/control_plane.md "Multi-tenant
// service").
//
// T tenants — each a full recurring fleet with its own predictor state,
// sticky planning sizes, PlanCache, ResponseFunctionCache and resilience
// machine (ctrl/tenant.h) — share one cluster and one epoch clock. Each
// epoch the service:
//
//   1. arbitrates — the cross-tenant capacity arbiter (ctrl/arbiter.h)
//      resolves competing rack claims into disjoint per-tenant grants
//      (weighted fair share by priority, sticky to last epoch's grant).
//      Grant changes flow through each tenant's topology fingerprint, so
//      losers spill over onto their residual subcluster via the existing
//      plan-cache invalidation path.
//   2. admits — one work item per tenant enters the shared admission queue
//      in tenant-id order and is dealt round-robin onto S shard lanes;
//      each lane drains its items in admission order on the shared
//      exec::ThreadPool (nested planner/simulator parallelism inlines on
//      the lane's worker). A single lane runs on the calling thread, so
//      its nested regions use the whole pool.
//   3. merges — per-tenant EpochReports, obs sinks and metrics are merged
//      in (tenant id, epoch, sink seq) order after the parallel region.
//
// Determinism contract: every tenant's work is a pure function of its
// (pipelines, per-tenant seed, granted racks), the arbitration schedule is
// a pure function of the config, and trace sinks live at per-tenant bases
// (tenant t owns sinks [t*(1+2E), (t+1)*(1+2E))), so reports, traces and
// metrics are byte-identical for ANY (shards, threads) combination.
// run_control_loop is this service with one tenant.
//
// Checkpoint/resume: ControlLoopConfig::checkpoint_path/resume_path apply
// to the whole service with the v2 checkpoint format (ctrl/checkpoint.h):
// per-tenant sections behind a service-level fingerprint gate, one shared
// trace snapshot.
#ifndef CORRAL_CTRL_SERVICE_H_
#define CORRAL_CTRL_SERVICE_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "ctrl/control_loop.h"

namespace corral {

// One tenant of the service: a named, weighted recurring fleet.
struct ServiceTenant {
  std::string name;
  int priority = 1;  // fair-share weight for the arbiter, >= 1
  // Planner backend for this tenant's replans (src/plan/backend.h);
  // defaults to the shared config's loop.planner_backend. Mixed into the
  // service checkpoint fingerprint, so a resume with reassigned backends
  // is rejected.
  std::optional<PlannerBackendKind> backend;
  // Network rate-allocation policy for this tenant's epoch simulations
  // (src/coflow); defaults to the shared config's loop.net_policy. Mixed
  // into the service checkpoint fingerprint like `backend`.
  std::optional<NetPolicy> net_policy;
  std::vector<RecurringPipeline> pipelines;
};

struct ServiceConfig {
  // Shared per-tenant knobs (cluster, objective, epochs, thresholds,
  // chaos, resilience, cache capacity, seed, pool, tracer, metrics) plus
  // the service-owned checkpoint_path/resume_path (v2 format) and the
  // global outage schedule. Per-tenant seeds and chaos schedules derive
  // from loop.seed / loop.chaos_seed via tenant_seed().
  ControlLoopConfig loop;

  // Shard lanes the admission queue deals tenants across. Purely an
  // execution-width knob: results are byte-identical at any value.
  int shards = 1;

  // Throws std::invalid_argument when a field is out of range or the
  // cluster cannot give `tenants` tenants one rack each in every epoch.
  void validate(std::size_t tenants) const;
};

// Which racks each tenant held in one epoch (the arbitration log entry).
struct ServiceEpochArbitration {
  int epoch = 0;
  int usable_racks = 0;            // racks not down this epoch
  std::vector<int> granted_racks;  // per tenant: |grant|
  std::vector<bool> grant_changed; // per tenant: grant != previous epoch's
};

struct TenantResult {
  std::string name;
  int priority = 1;
  int grant_changes = 0;  // epochs whose grant differed from the previous
  ControlLoopResult loop;
};

struct ServiceResult {
  std::vector<TenantResult> tenants;  // in tenant-id order
  // The full-run arbitration schedule (a pure function of the config, so
  // it always spans every epoch, crash or not).
  std::vector<ServiceEpochArbitration> arbitration;
  // Concatenated epochs (tenant-id order) + summed totals over all
  // tenants; for T == 1 this equals tenants[0].loop exactly. ctrl.*
  // metrics are recorded from this combined result.
  ControlLoopResult combined;
  // Crash chaos ended the run after this epoch for at least one tenant
  // (-1: ran to completion). Resume continues every tenant from the
  // service checkpoint.
  int crashed_after = -1;
};

// Per-tenant seed derivation: tenant 0 gets the base seed verbatim (the
// single-tenant bit-compatibility anchor), tenant t > 0 an independent
// substream far from the per-epoch and chaos substream indices.
std::uint64_t tenant_seed(std::uint64_t base, int tenant);

// Builds `tenants` independent W1-like recurring fleets named "t0".."tN-1",
// each generated from tenant_seed(seed, t). `priorities` (optional) must be
// empty or size `tenants`; empty means every priority is 1.
std::vector<ServiceTenant> make_service_fleet(
    const W1Config& config, int warmup_days, int epochs, std::uint64_t seed,
    int tenants, std::span<const int> priorities = {});

// Fingerprint gate for the v2 service checkpoint: mixes every tenant's
// control_loop_fingerprint with its name and priority. Shards and pool
// width are excluded — resuming under a different execution width is
// exactly the supported case.
std::uint64_t control_service_fingerprint(
    const ServiceConfig& config, const std::vector<ServiceTenant>& tenants);

// Drives all tenants through `config.loop.epochs` shared epochs. Tenants
// are taken by value: the service owns and mutates their histories.
ServiceResult run_control_service(std::vector<ServiceTenant> tenants,
                                  const ServiceConfig& config);

}  // namespace corral

#endif  // CORRAL_CTRL_SERVICE_H_
