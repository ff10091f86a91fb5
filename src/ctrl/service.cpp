#include "ctrl/service.h"

#include <algorithm>
#include <string>
#include <utility>

#include "corral/fingerprint.h"
#include "ctrl/arbiter.h"
#include "ctrl/checkpoint.h"
#include "ctrl/tenant.h"
#include "exec/exec.h"
#include "obs/trace.h"
#include "sim/batch.h"
#include "util/check.h"
#include "util/rng.h"

namespace corral {
namespace {

// Per-tenant chaos-schedule seed: an explicit chaos_seed fans out per
// tenant the same way the base seed does (tenant 0 keeps it verbatim); 0
// lets each TenantLoop derive its own from its tenant seed.
std::uint64_t tenant_chaos_seed(const ControlLoopConfig& loop, int tenant) {
  return loop.chaos_seed == 0 ? 0 : tenant_seed(loop.chaos_seed, tenant);
}

// The arbitration schedule is a pure function of (outages, priorities,
// epochs): claims are sticky (each epoch's preferred set is the previous
// epoch's grant), so the whole run's grants can be — and are — computed up
// front, identically on a fresh run and on a resume.
struct ArbitrationSchedule {
  std::vector<std::vector<std::vector<int>>> grants;  // [epoch][tenant]
  std::vector<ServiceEpochArbitration> log;
};

ArbitrationSchedule plan_arbitration(const ServiceConfig& config,
                                     const std::vector<ServiceTenant>& tenants) {
  const std::size_t count = tenants.size();
  const int epochs = config.loop.epochs;
  ArbitrationSchedule schedule;
  schedule.grants.resize(static_cast<std::size_t>(epochs));
  schedule.log.reserve(static_cast<std::size_t>(epochs));
  std::vector<std::vector<int>> prev(count);
  for (int epoch = 0; epoch < epochs; ++epoch) {
    const std::vector<int> down =
        ctrl_detail::outage_racks_for_epoch(config.loop, epoch);
    std::vector<int> usable;
    usable.reserve(static_cast<std::size_t>(config.loop.cluster.racks));
    for (int r = 0; r < config.loop.cluster.racks; ++r) {
      if (!std::binary_search(down.begin(), down.end(), r)) {
        usable.push_back(r);
      }
    }
    std::vector<TenantClaim> claims(count);
    for (std::size_t t = 0; t < count; ++t) {
      claims[t].tenant = static_cast<int>(t);
      claims[t].priority = tenants[t].priority;
      claims[t].preferred = prev[t];
    }
    RackGrants grants = arbitrate_racks(usable, claims);
    ServiceEpochArbitration entry;
    entry.epoch = epoch;
    entry.usable_racks = static_cast<int>(usable.size());
    entry.granted_racks.reserve(count);
    entry.grant_changed.reserve(count);
    for (std::size_t t = 0; t < count; ++t) {
      entry.granted_racks.push_back(
          static_cast<int>(grants.racks[t].size()));
      entry.grant_changed.push_back(epoch > 0 &&
                                    grants.racks[t] != prev[t]);
    }
    schedule.log.push_back(std::move(entry));
    prev = grants.racks;
    schedule.grants[static_cast<std::size_t>(epoch)] =
        std::move(grants.racks);
  }
  return schedule;
}

}  // namespace

void ServiceConfig::validate(std::size_t tenants) const {
  loop.validate();
  require(shards >= 1, "ServiceConfig: shards must be >= 1");
  require(tenants >= 1, "ServiceConfig: need at least one tenant");
  for (int epoch = 0; epoch < loop.epochs; ++epoch) {
    int down = 0;
    for (const RackOutage& outage : loop.outages) {
      if (outage.epoch == epoch) ++down;
    }
    require(static_cast<std::size_t>(loop.cluster.racks - down) >= tenants,
            "ServiceConfig: epoch " + std::to_string(epoch) +
                " leaves fewer usable racks than tenants");
  }
}

std::uint64_t tenant_seed(std::uint64_t base, int tenant) {
  if (tenant == 0) return base;
  // Index offset keeps tenant substreams far from the per-epoch (small
  // indices) and chaos (0xC4A05) substreams of the same base seed.
  return substream(base, 0x7E4A0000ull + static_cast<std::uint64_t>(tenant));
}

std::vector<ServiceTenant> make_service_fleet(
    const W1Config& config, int warmup_days, int epochs, std::uint64_t seed,
    int tenants, std::span<const int> priorities) {
  require(tenants >= 1, "make_service_fleet: tenants must be >= 1");
  require(priorities.empty() ||
              priorities.size() == static_cast<std::size_t>(tenants),
          "make_service_fleet: priorities must be empty or one per tenant");
  std::vector<ServiceTenant> fleet;
  fleet.reserve(static_cast<std::size_t>(tenants));
  for (int t = 0; t < tenants; ++t) {
    ServiceTenant tenant;
    tenant.name = "t" + std::to_string(t);
    tenant.priority =
        priorities.empty() ? 1 : priorities[static_cast<std::size_t>(t)];
    tenant.pipelines = make_recurring_fleet(config, warmup_days, epochs,
                                            tenant_seed(seed, t));
    fleet.push_back(std::move(tenant));
  }
  return fleet;
}

std::uint64_t control_service_fingerprint(
    const ServiceConfig& config, const std::vector<ServiceTenant>& tenants) {
  Fingerprint f;
  f.mix("corral-service");
  f.mix(static_cast<std::uint64_t>(tenants.size()));
  for (const ServiceTenant& tenant : tenants) {
    f.mix(tenant.name);
    f.mix(static_cast<std::uint64_t>(tenant.priority));
    // The backend the tenant actually plans with: a resume that reassigns
    // per-tenant backends must be rejected like any other config change.
    f.mix(static_cast<std::uint64_t>(
        tenant.backend.value_or(config.loop.planner_backend)));
    // Same rule for the net policy the tenant's simulations run under.
    f.mix(static_cast<std::uint64_t>(
        tenant.net_policy.value_or(config.loop.net_policy)));
    f.mix(control_loop_fingerprint(config.loop, tenant.pipelines));
  }
  return f.value();
}

ServiceResult run_control_service(std::vector<ServiceTenant> tenants,
                                  const ServiceConfig& config) {
  config.validate(tenants.size());
  for (const ServiceTenant& tenant : tenants) {
    require(tenant.priority >= 1,
            "run_control_service: tenant priority must be >= 1");
    ctrl_detail::validate_pipelines(
        tenant.pipelines, "run_control_service('" + tenant.name + "')");
  }
  const std::size_t count = tenants.size();
  const int epochs = config.loop.epochs;
  // Each tenant owns a fixed block of trace sinks: ctrl at the base,
  // planner at base+1+2e, simulation at base+2+2e — the single-tenant
  // layout, shifted. The service itself traces on the sink after every
  // tenant block (T > 1 only, so a 1-tenant service — run_control_loop —
  // keeps the single-fleet layout).
  const int sink_stride = 1 + 2 * epochs;
  const std::uint64_t service_sig =
      control_service_fingerprint(config, tenants);
  const ArbitrationSchedule schedule = plan_arbitration(config, tenants);

  std::vector<TenantLoop> loops;
  loops.reserve(count);
  for (std::size_t t = 0; t < count; ++t) {
    loops.emplace_back(
        std::move(tenants[t].pipelines), config.loop,
        tenant_seed(config.loop.seed, static_cast<int>(t)),
        tenant_chaos_seed(config.loop, static_cast<int>(t)),
        /*sink_base=*/static_cast<int>(t) * sink_stride,
        /*label_prefix=*/
        count == 1 ? std::string()
                   : "t" + std::to_string(t) + "/",
        tenants[t].backend, tenants[t].net_policy);
  }

  int start_epoch = 0;
  if (!config.loop.resume_path.empty()) {
    ServiceCheckpointState saved =
        read_service_checkpoint(config.loop.resume_path);
    require(saved.config_fingerprint == service_sig,
            "run_control_service: checkpoint '" + config.loop.resume_path +
                "' was written by a different config or tenant set");
    require(saved.tenants.size() == count,
            "run_control_service: checkpoint tenant count mismatch");
    require(saved.next_epoch >= 0 && saved.next_epoch <= epochs,
            "run_control_service: checkpoint next_epoch out of range");
    start_epoch = saved.next_epoch;
    for (std::size_t t = 0; t < count; ++t) {
      loops[t].restore_state(saved.tenants[t]);
    }
    if (config.loop.tracer != nullptr) {
      obs::restore_tracer(*config.loop.tracer, saved.trace);
    }
  }

  // Bound *after* a possible restore replays old sinks into the tracer.
  for (TenantLoop& loop : loops) loop.bind_trace();
  obs::TraceRecorder service_trace;
  if (count > 1) {
    service_trace = obs::TraceRecorder(
        config.loop.tracer, static_cast<int>(count) * sink_stride,
        "service");
  }

  const BatchRunner runner(config.loop.pool);
  exec::ThreadPool& pool = config.loop.pool != nullptr
                               ? *config.loop.pool
                               : exec::ThreadPool::shared();
  const std::size_t lanes =
      std::min<std::size_t>(static_cast<std::size_t>(config.shards), count);

  ServiceResult result;
  for (int epoch = start_epoch; epoch < epochs; ++epoch) {
    const bool outage =
        !ctrl_detail::outage_racks_for_epoch(config.loop, epoch).empty();
    const ServiceEpochArbitration& entry =
        schedule.log[static_cast<std::size_t>(epoch)];
    if (count > 1) {
      int changed = 0;
      for (const bool c : entry.grant_changed) changed += c ? 1 : 0;
      service_trace.instant(
          obs::TraceTrack::kCtrl, "arbitrate", "service", /*tid=*/0,
          /*ts=*/epoch,
          {obs::arg("usable_racks",
                    static_cast<double>(entry.usable_racks)),
           obs::arg("grants_changed", static_cast<double>(changed))});
    }
    // The shared admission queue: one item per tenant, admitted in
    // tenant-id order, dealt round-robin onto the shard lanes. Tenant
    // state is disjoint and every tenant's sinks and seeds are its own,
    // so the lanes run concurrently without ordering effects; nested
    // planner/simulator regions inline on the lane's worker. One lane runs
    // on the calling thread instead, so those nested regions keep the
    // whole pool.
    const std::vector<std::vector<int>>& grants =
        schedule.grants[static_cast<std::size_t>(epoch)];
    const auto run_lane = [&](std::size_t lane) {
      for (std::size_t t = lane; t < count; t += lanes) {
        loops[t].run_epoch(epoch, grants[t], outage, runner);
      }
    };
    if (lanes > 1) {
      exec::parallel_for(pool, lanes, run_lane);
    } else {
      run_lane(0);
    }

    if (!config.loop.checkpoint_path.empty()) {
      ServiceCheckpointState state;
      state.config_fingerprint = service_sig;
      state.next_epoch = epoch + 1;
      state.tenants.resize(count);
      for (std::size_t t = 0; t < count; ++t) {
        loops[t].save_state(state.tenants[t]);
      }
      if (config.loop.tracer != nullptr) {
        state.trace = obs::snapshot_tracer(*config.loop.tracer);
      }
      write_service_checkpoint(config.loop.checkpoint_path, state);
    }
    bool crashed = false;
    for (std::size_t t = 0; t < count; ++t) {
      if (loops[t].crash_after(epoch)) {
        loops[t].note_crash(epoch);
        crashed = true;
      }
    }
    if (crashed) {
      // Whole-process crash: one tenant's crash chaos takes the shared
      // service down for everyone. Resume continues every tenant from the
      // checkpoint just written.
      result.crashed_after = epoch;
      break;
    }
  }

  result.arbitration = schedule.log;
  result.tenants.reserve(count);
  for (std::size_t t = 0; t < count; ++t) {
    TenantResult tenant;
    tenant.name = tenants[t].name;
    tenant.priority = tenants[t].priority;
    for (const ServiceEpochArbitration& entry : schedule.log) {
      if (entry.grant_changed[t]) ++tenant.grant_changes;
    }
    tenant.loop = loops[t].finish();
    result.tenants.push_back(std::move(tenant));
  }

  // Merge: epochs concatenate in tenant-id order, totals sum, and the
  // run-level mean recomputes over the concatenation — for one tenant the
  // combined result IS the tenant result.
  ControlLoopResult& combined = result.combined;
  double error_sum = 0;
  for (const TenantResult& tenant : result.tenants) {
    const ControlLoopResult& r = tenant.loop;
    combined.epochs.insert(combined.epochs.end(), r.epochs.begin(),
                           r.epochs.end());
    combined.cache.hits += r.cache.hits;
    combined.cache.misses += r.cache.misses;
    combined.cache.invalidations += r.cache.invalidations;
    combined.cache.evictions += r.cache.evictions;
    combined.cache.corruptions += r.cache.corruptions;
    combined.rf_hits += r.rf_hits;
    combined.rf_misses += r.rf_misses;
    combined.drift_trips += r.drift_trips;
    combined.epochs_completed += r.epochs_completed;
    combined.epochs_aborted += r.epochs_aborted;
    combined.chaos_events += r.chaos_events;
    combined.quarantined += r.quarantined;
    combined.exec_retries += r.exec_retries;
    combined.fallbacks += r.fallbacks;
    combined.overruns += r.overruns;
    combined.stale_views += r.stale_views;
    combined.demotions += r.demotions;
    combined.promotions += r.promotions;
  }
  for (const EpochReport& report : combined.epochs) {
    if (!report.aborted) error_sum += report.mean_prediction_error;
  }
  combined.mean_prediction_error =
      combined.epochs_completed > 0
          ? error_sum / static_cast<double>(combined.epochs_completed)
          : 0.0;
  combined.crashed_after = result.crashed_after;

  record_ctrl_metrics(config.loop.metrics, combined);
  return result;
}

}  // namespace corral
