// Multi-tenant control-plane service benchmark (docs/control_plane.md
// "Multi-tenant service"): how the shared admission queue scales over a
// tenants x shards grid, and what cross-tenant arbitration costs.
//
// For each (tenants, shards) point the same per-tenant fleets run through
// run_control_service; the recorded series — combined cache hits/misses,
// grant changes, mean prediction error — is a pure function of the tenant
// count (shards are an execution-width knob), which the bench asserts by
// comparing every shard width's combined report bytes against shards=1.
// Wall time per point is printed for orientation. Results land in
// BENCH_multitenant.json.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "ctrl/report.h"
#include "ctrl/service.h"

using namespace corral;

namespace {

struct ServiceRun {
  ServiceResult result;
  std::string combined_report;
  double wall_seconds = 0;
};

ServiceRun run_grid_point(const W1Config& workload, ServiceConfig config,
                          int tenants) {
  std::vector<int> priorities(static_cast<std::size_t>(tenants), 1);
  if (tenants > 1) priorities[0] = 3;  // one weighted tenant per point
  std::vector<ServiceTenant> fleet = make_service_fleet(
      workload, config.loop.warmup_days, config.loop.epochs,
      config.loop.seed, tenants, priorities);
  const auto start = std::chrono::steady_clock::now();
  ServiceRun run;
  run.result = run_control_service(std::move(fleet), config);
  const auto stop = std::chrono::steady_clock::now();
  run.combined_report = ctrl_report_json_string(run.result.combined);
  run.wall_seconds = std::chrono::duration<double>(stop - start).count();
  return run;
}

int total_grant_changes(const ServiceResult& result) {
  int total = 0;
  for (const TenantResult& tenant : result.tenants) {
    total += tenant.grant_changes;
  }
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = bench::parse_smoke_flag(argc, argv);
  bench::banner(
      "Control plane - multi-tenant service over a tenants x shards grid",
      "shared cluster, arbitrated rack shares, width-independent results");

  W1Config workload;
  workload.num_jobs = smoke ? 2 : 4;
  workload.task_scale = smoke ? 0.1 : 0.2;

  ServiceConfig base;
  base.loop.cluster = bench::testbed();
  base.loop.epochs = smoke ? 3 : 7;
  base.loop.warmup_days = 14;
  base.loop.outages = {{1, 3}};
  base.loop.pool = &bench::pool();

  const std::vector<int> tenant_points = smoke
                                             ? std::vector<int>{1, 2, 4}
                                             : std::vector<int>{1, 2, 4, 6};
  const std::vector<int> shard_points = {1, 2, 4};

  std::printf("\n%8s %7s %10s %10s %11s %10s %10s\n", "tenants", "shards",
              "hits", "misses", "grant.chg", "pred.err", "wall (s)");

  bench::Json grid;
  bool deterministic = true;
  for (const int tenants : tenant_points) {
    std::string reference_report;
    for (const int shards : shard_points) {
      ServiceConfig config = base;
      config.shards = shards;
      const ServiceRun run = run_grid_point(workload, config, tenants);
      if (shards == 1) {
        reference_report = run.combined_report;
      } else if (run.combined_report != reference_report) {
        deterministic = false;
        std::printf("DETERMINISM VIOLATION: tenants=%d shards=%d differs "
                    "from shards=1\n",
                    tenants, shards);
      }
      const ControlLoopResult& combined = run.result.combined;
      std::printf("%8d %7d %10llu %10llu %11d %9.2f%% %10.2f\n", tenants,
                  shards,
                  static_cast<unsigned long long>(combined.cache.hits),
                  static_cast<unsigned long long>(combined.cache.misses),
                  total_grant_changes(run.result),
                  100.0 * combined.mean_prediction_error,
                  run.wall_seconds);
      grid.push({{"tenants", tenants}, {"shards", shards},
                 {"cache_hits", combined.cache.hits},
                 {"cache_misses", combined.cache.misses},
                 {"cache_invalidations", combined.cache.invalidations},
                 {"grant_changes", total_grant_changes(run.result)},
                 {"epochs_completed", combined.epochs_completed},
                 {"mean_prediction_error", combined.mean_prediction_error},
                 {"wall_s", run.wall_seconds}});
    }
  }
  bench::write_series("multitenant",
                      {{"smoke", smoke}, {"epochs", base.loop.epochs},
                       {"jobs_per_tenant", workload.num_jobs}, {"grid", grid},
                       {"shard_width_independent", deterministic}});
  return deterministic ? 0 : 1;
}
