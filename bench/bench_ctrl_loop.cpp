// Control-plane loop benchmark (docs/control_plane.md): what the plan
// cache buys across a month of recurring epochs.
//
// Two runs of the same fleet over the same realized timelines:
//  * cached    — the real loop: sticky planning sizes, signature-keyed plan
//                cache, memoized response functions.
//  * replan    — the dead-band collapsed to ~0, so every epoch's key is
//                fresh and the full provisioning search runs every night
//                (the "plan from scratch daily" strawman).
//
// The headline series is the deterministic replan cost (provisioning
// candidates evaluated) per epoch for both runs — wall time is printed for
// orientation but the recorded series is width-independent. Results land in
// BENCH_ctrl_loop.json.
#include <chrono>
#include <cstdio>

#include "bench_common.h"
#include "ctrl/control_loop.h"

using namespace corral;

namespace {

struct LoopRun {
  ControlLoopResult result;
  double wall_seconds = 0;
};

LoopRun run_loop(const W1Config& workload, ControlLoopConfig config) {
  std::vector<RecurringPipeline> fleet = make_recurring_fleet(
      workload, config.warmup_days, config.epochs, config.seed);
  const auto start = std::chrono::steady_clock::now();
  LoopRun run;
  run.result = run_control_loop(std::move(fleet), config);
  const auto stop = std::chrono::steady_clock::now();
  run.wall_seconds = std::chrono::duration<double>(stop - start).count();
  return run;
}

std::size_t total_evals(const ControlLoopResult& result) {
  std::size_t total = 0;
  for (const EpochReport& epoch : result.epochs) {
    total += epoch.replan_cost_evals;
  }
  return total;
}

bench::Json per_epoch_evals(const ControlLoopResult& result) {
  bench::Json evals;
  for (const EpochReport& epoch : result.epochs) {
    evals.push(epoch.replan_cost_evals);
  }
  return evals;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = bench::parse_smoke_flag(argc, argv);
  bench::banner("Control plane - plan-cache effect over recurring epochs",
                "plan once, reuse while the forecast holds (§2, §3.1)");

  W1Config workload;
  workload.num_jobs = smoke ? 5 : 20;
  workload.task_scale = smoke ? 0.2 : 0.25;

  ControlLoopConfig config;
  config.cluster = bench::testbed();
  config.epochs = smoke ? 4 : 28;  // four weeks of virtual days
  config.warmup_days = 14;
  config.outages = {{smoke ? 2 : 12, 3}};
  config.pool = &bench::pool();

  const LoopRun cached = run_loop(workload, config);

  ControlLoopConfig replan = config;
  // Collapse the dead-band: every epoch re-anchors, every key is fresh,
  // the provisioning search runs nightly.
  replan.size_quantum = 1e-9;
  const LoopRun scratch = run_loop(workload, replan);

  std::printf("\n%-10s %10s %10s %12s %12s\n", "run", "hits", "misses",
              "replan evals", "wall (s)");
  std::printf("%-10s %10llu %10llu %12zu %12.2f\n", "cached",
              static_cast<unsigned long long>(cached.result.cache.hits),
              static_cast<unsigned long long>(cached.result.cache.misses),
              total_evals(cached.result), cached.wall_seconds);
  std::printf("%-10s %10llu %10llu %12zu %12.2f\n", "replan",
              static_cast<unsigned long long>(scratch.result.cache.hits),
              static_cast<unsigned long long>(scratch.result.cache.misses),
              total_evals(scratch.result), scratch.wall_seconds);
  std::printf("\nhit rate after epoch 2:  %.2f (cached)\n",
              cached.result.hit_rate_after(2));
  std::printf("mean prediction error:   %.2f%% (paper §2: 6.5%%)\n",
              100.0 * cached.result.mean_prediction_error);
  std::printf("rf memo:                 %llu hits / %llu misses (cached)\n",
              static_cast<unsigned long long>(cached.result.rf_hits),
              static_cast<unsigned long long>(cached.result.rf_misses));

  const ControlLoopResult& c = cached.result;
  const ControlLoopResult& r = scratch.result;
  bench::write_series(
      "ctrl_loop",
      {{"smoke", smoke}, {"epochs", config.epochs},
       {"jobs", workload.num_jobs}, {"outage_epoch", config.outages[0].epoch},
       {"cached",
        {{"hits", c.cache.hits}, {"misses", c.cache.misses},
         {"invalidations", c.cache.invalidations},
         {"replan_evals", total_evals(c)}, {"rf_hits", c.rf_hits},
         {"rf_misses", c.rf_misses}, {"hit_rate_after_2", c.hit_rate_after(2)},
         {"mean_prediction_error", c.mean_prediction_error},
         {"wall_s", cached.wall_seconds}}},
       {"replan_every_epoch",
        {{"hits", r.cache.hits}, {"misses", r.cache.misses},
         {"replan_evals", total_evals(r)}, {"wall_s", scratch.wall_seconds}}},
       {"per_epoch_replan_evals",
        {{"cached", per_epoch_evals(c)}, {"replan", per_epoch_evals(r)}}}});
  return 0;
}
