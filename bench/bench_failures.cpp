// Failure sweep (§7 "Dealing with failures"): how gracefully each policy
// degrades as machine churn intensifies on W1, online arrivals.
//
// For each machine MTBF in the sweep the same generated fault schedule
// (crash + recover events, 15 min MTTR, occasional whole-rack outages) is
// replayed under Yarn-CS, Corral, and Corral with §7 plan repair, with
// speculative execution enabled throughout. All twelve simulations (four
// MTBF points x three policies) run as one BatchRunner batch; the repair
// policy's mid-simulation replans nest onto the same pool and execute
// inline. Reports makespan inflation relative to each policy's own
// fault-free run plus the recovery counters, and emits the series as
// BENCH_failures.json for plotting.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "sim/faults.h"

using namespace corral;

namespace {

bench::Json policy_json(const SimResult& result, double healthy_makespan) {
  return {{"makespan_s", result.makespan},
          {"makespan_inflation",
           healthy_makespan > 0 ? result.makespan / healthy_makespan : 1.0},
          {"avg_completion_s", result.avg_completion()},
          {"jobs_failed", result.jobs_failed},
          {"tasks_killed", result.tasks_killed},
          {"maps_rerun", result.maps_rerun},
          {"speculative_launched", result.speculative_launched},
          {"speculative_wasted_s", result.speculative_wasted_seconds},
          {"bytes_rereplicated", result.bytes_rereplicated},
          {"chunks_lost", result.chunks_lost},
          {"degraded_time_s", result.degraded_time}};
}

}  // namespace

int main() {
  bench::banner(
      "Failure sweep - robustness under machine churn (W1, online)",
      "graceful degradation: Corral+repair <= Corral <= Yarn-CS makespan "
      "inflation as MTBF shrinks");

  ClusterConfig cluster;
  cluster.racks = 5;
  cluster.machines_per_rack = 12;
  cluster.slots_per_machine = 4;
  cluster.nic_bandwidth = 2.5 * kGbps;
  cluster.oversubscription = 5.0;

  Rng rng(17);
  W1Config wconfig;
  wconfig.num_jobs = 24;
  wconfig.task_scale = 0.4;
  auto jobs = make_w1(wconfig, rng);
  assign_uniform_arrivals(jobs, 60 * kMinute, rng);

  PlannerConfig planner_config;
  planner_config.objective = Objective::kAverageCompletionTime;
  const Plan plan = plan_offline(jobs, cluster, planner_config);
  const PlanLookup lookup(jobs, plan);

  SimConfig base;
  base.cluster = cluster;
  base.cluster.background_core_fraction = 0.5;
  base.write_output_replicas = true;
  base.enable_speculation = true;

  // One flat batch: every (MTBF, policy) pair is an independent case. The
  // factories capture only pointers to objects that outlive the batch run.
  const std::vector<double> mtbf_hours = {0.0, 24.0, 6.0, 1.5};
  std::vector<BatchCase> cases;
  for (double mtbf : mtbf_hours) {
    SimConfig sim = base;
    if (mtbf > 0) {
      FaultModelConfig faults;
      faults.machine_mtbf = mtbf * kHour;
      faults.machine_mttr = 15 * kMinute;
      // Whole-rack (ToR) outages an order of magnitude rarer than machine
      // crashes; long enough to count as durable degradation and trigger
      // §7 plan repair for the not-yet-submitted jobs.
      faults.rack_mtbf = 10 * mtbf * kHour;
      faults.rack_mttr = 30 * kMinute;
      faults.horizon = 24 * kHour;
      sim.faults = generate_fault_schedule(cluster, faults, /*seed=*/29);
    }
    char label[32];
    std::snprintf(label, sizeof(label), "mtbf=%.1fh/", mtbf);
    const auto add = [&](const char* name, auto factory) {
      BatchCase batch_case;
      batch_case.label = std::string(label) + name;
      batch_case.jobs = jobs;
      batch_case.config = sim;
      batch_case.make_policy = std::move(factory);
      cases.push_back(std::move(batch_case));
    };
    const PlanLookup* lookup_ptr = &lookup;
    const std::vector<JobSpec>* jobs_ptr = &jobs;
    const ClusterConfig* cluster_ptr = &cluster;
    const PlannerConfig* planner_ptr = &planner_config;
    add("yarn", []() -> std::unique_ptr<SchedulingPolicy> {
      return std::make_unique<YarnCapacityPolicy>();
    });
    add("corral", [lookup_ptr]() -> std::unique_ptr<SchedulingPolicy> {
      return std::make_unique<CorralPolicy>(lookup_ptr);
    });
    add("repair", [jobs_ptr, cluster_ptr,
                   planner_ptr]() -> std::unique_ptr<SchedulingPolicy> {
      return std::make_unique<CorralRepairPolicy>(*jobs_ptr, *cluster_ptr,
                                                  *planner_ptr);
    });
  }
  const std::vector<BatchResult> batch = bench::run_traced(cases);

  // batch[3 * i + p]: MTBF point i under policy p (yarn, corral, repair);
  // point 0 is the healthy run.
  const auto run = [&](std::size_t i, std::size_t p) -> const SimResult& {
    return batch[3 * i + p].result;
  };
  const std::size_t harshest = mtbf_hours.size() - 1;

  std::printf("\n%-12s %28s %28s\n", "",
              "makespan inflation (x healthy)", "tasks killed / maps rerun");
  std::printf("%-12s %9s %9s %9s %9s %9s %9s\n", "MTBF", "yarn", "corral",
              "repair", "yarn", "corral", "repair");
  for (std::size_t i = 0; i < mtbf_hours.size(); ++i) {
    char label[32];
    if (mtbf_hours[i] > 0) {
      std::snprintf(label, sizeof(label), "%.1f h", mtbf_hours[i]);
    } else {
      std::snprintf(label, sizeof(label), "none");
    }
    std::printf("%-12s %9.2f %9.2f %9.2f %4d/%-4d %4d/%-4d %4d/%-4d\n",
                label, run(i, 0).makespan / run(0, 0).makespan,
                run(i, 1).makespan / run(0, 1).makespan,
                run(i, 2).makespan / run(0, 2).makespan,
                run(i, 0).tasks_killed, run(i, 0).maps_rerun,
                run(i, 1).tasks_killed, run(i, 1).maps_rerun,
                run(i, 2).tasks_killed, run(i, 2).maps_rerun);
  }
  std::printf("\n(jobs failed at the harshest point: yarn %d, corral %d, "
              "repair %d; re-replicated %.1f / %.1f / %.1f GB)\n",
              run(harshest, 0).jobs_failed, run(harshest, 1).jobs_failed,
              run(harshest, 2).jobs_failed,
              run(harshest, 0).bytes_rereplicated / kGB,
              run(harshest, 1).bytes_rereplicated / kGB,
              run(harshest, 2).bytes_rereplicated / kGB);

  const char* const policies[] = {"yarn", "corral", "corral_repair"};
  bench::Json sweep;
  for (std::size_t i = 0; i < mtbf_hours.size(); ++i) {
    bench::Json point = {{"mtbf_hours", mtbf_hours[i]}};
    for (std::size_t p = 0; p < 3; ++p) {
      point.set(policies[p], policy_json(run(i, p), run(0, p).makespan));
    }
    sweep.push(point);
  }
  bench::write_series("failures", {{"workload", "w1-online"},
                                   {"machine_mttr_minutes", 15},
                                   {"rack_mttr_minutes", 30},
                                   {"sweep", sweep}});
  return 0;
}
