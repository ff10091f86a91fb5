// Control-plane resilience bench (docs/control_plane.md "Failure modes and
// guardrails"): what the guardrail policy buys when the control plane
// itself misbehaves.
//
// Three runs of the same recurring fleet over the same realized timelines:
//  * clean              — no chaos, guardrails off (the baseline loop).
//  * chaos              — deterministic fault injection (predictor spikes
//                         and NaNs, planner overruns, cache corruption and
//                         loss, stale topology views, execution failures)
//                         with guardrails OFF: bad forecasts are planned at
//                         face value and failures abort the epoch.
//  * chaos + resilience — the same fault schedule (same chaos seed) with
//                         the guardrail policy ON: quarantine, bounded
//                         retries, fallback plans, error-budget demotion.
//
// The headline series is per-epoch mean prediction error and completed vs
// aborted epochs for the three runs; everything is virtual-time and
// deterministic, so the JSON in BENCH_chaos.json is byte-identical across
// hosts and --threads. Run with --smoke for the tiny CI variant.
#include <cstdio>

#include "bench_common.h"
#include "ctrl/control_loop.h"

using namespace corral;

namespace {

ControlLoopResult run_loop(const W1Config& workload,
                           ControlLoopConfig config) {
  std::vector<RecurringPipeline> fleet = make_recurring_fleet(
      workload, config.warmup_days, config.epochs, config.seed);
  return run_control_loop(std::move(fleet), config);
}

void print_row(const char* name, const ControlLoopResult& r) {
  std::printf("%-18s %6d %8d %9.2f%% %6d %6d %8d %6d %6d\n", name,
              r.epochs_completed, r.epochs_aborted,
              100.0 * r.mean_prediction_error, r.chaos_events, r.quarantined,
              r.exec_retries, r.fallbacks, r.demotions);
}

bench::Json series_json(const ControlLoopResult& r) {
  bench::Json per_epoch_error;
  bench::Json per_epoch_aborted;
  for (const EpochReport& epoch : r.epochs) {
    per_epoch_error.push(epoch.mean_prediction_error);
    per_epoch_aborted.push(epoch.aborted ? 1 : 0);
  }
  return {{"epochs_completed", r.epochs_completed},
          {"epochs_aborted", r.epochs_aborted},
          {"mean_prediction_error", r.mean_prediction_error},
          {"chaos_events", r.chaos_events}, {"quarantined", r.quarantined},
          {"exec_retries", r.exec_retries}, {"fallbacks", r.fallbacks},
          {"overruns", r.overruns}, {"demotions", r.demotions},
          {"promotions", r.promotions}, {"per_epoch_error", per_epoch_error},
          {"per_epoch_aborted", per_epoch_aborted}};
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = bench::parse_smoke_flag(argc, argv);
  bench::banner("Control plane - resilience under fault injection",
                "guardrails keep the loop planning while chaos rages");

  W1Config workload;
  workload.num_jobs = smoke ? 5 : 12;
  workload.task_scale = 0.2;

  ControlLoopConfig base;
  base.cluster = bench::testbed();
  base.epochs = smoke ? 6 : 21;  // three weeks of virtual days
  base.warmup_days = 14;
  base.pool = &bench::pool();

  const ControlLoopResult clean = run_loop(workload, base);

  // The same fault schedule for both chaos runs: the chaos seed is fixed
  // so the guardrails are judged against identical misfortune.
  ControlLoopConfig chaotic = base;
  chaotic.chaos = parse_chaos_spec(
      "spike=0.25,nan=0.15,overrun=0.1,corrupt=0.1,loss=0.05,stale=0.1,"
      "exec=0.15");
  chaotic.chaos_seed = 7;

  const ControlLoopResult chaos = run_loop(workload, chaotic);

  ControlLoopConfig guarded = chaotic;
  guarded.resilience.enabled = true;
  guarded.resilience.max_retries = 2;
  guarded.resilience.demote_after = 3;
  guarded.resilience.promote_after = 2;
  const ControlLoopResult resilient = run_loop(workload, guarded);

  std::printf("\n%-18s %6s %8s %10s %6s %6s %8s %6s %6s\n", "run", "done",
              "aborted", "pred.err", "chaos", "quar", "retries", "fallb",
              "demote");
  print_row("clean", clean);
  print_row("chaos", chaos);
  print_row("chaos+resilience", resilient);

  std::printf("\nresilience recovered %d of %d aborted epochs\n",
              chaos.epochs_aborted - resilient.epochs_aborted,
              chaos.epochs_aborted);
  std::printf("prediction error with guardrails: %.2f%% (vs %.2f%% "
              "unguarded, %.2f%% clean)\n",
              100.0 * resilient.mean_prediction_error,
              100.0 * chaos.mean_prediction_error,
              100.0 * clean.mean_prediction_error);

  bench::write_series("chaos", {{"smoke", smoke}, {"epochs", base.epochs},
                                {"jobs", workload.num_jobs},
                                {"chaos_seed", chaotic.chaos_seed},
                                {"clean", series_json(clean)},
                                {"chaos", series_json(chaos)},
                                {"chaos_resilience", series_json(resilient)}});
  return 0;
}
