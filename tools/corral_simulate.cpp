// corral_simulate: execute a workload trace on the simulated cluster under
// one of the four scheduling policies and report the §6 metrics (optionally
// as CSV for plotting).
//
//   corral_workload_gen --workload=w1 --out=w1.trace
//   corral_simulate --trace=w1.trace --policy=corral --csv=results.csv
#include <cstdio>
#include <iostream>

#include "sim/faults.h"
#include "sim/result_io.h"
#include "sim/simulator.h"
#include "tool_common.h"
#include "util/stats.h"
#include "workload/trace_io.h"
#include "workload/workloads.h"

using namespace corral;

int main(int argc, char** argv) {
  FlagParser flags("corral_simulate: flow-level cluster simulation");
  flags.add_string("trace", "", "input corral-trace file (required)");
  flags.add_string("policy", "corral",
                   "yarn | corral | local-shuffle | shufflewatcher");
  flags.add_string("objective", "makespan",
                   "planner objective for corral/local-shuffle: makespan | "
                   "avg-completion");
  flags.add_choice("net-policy", net_policy_names(), "tcp",
                   "network rate allocation: tcp | varys | lp-order | "
                   "sincronia (docs/coflow.md)");
  flags.add_bool("writes", true, "replicate reduce outputs off-rack");
  flags.add_bool("remote-storage", false,
                 "stream input from an external storage cluster (§7)");
  flags.add_double("storage-gbps", 0,
                   "storage interconnect cap in Gbit/s; 0 = unlimited");
  flags.add_int("seed", 2015, "simulation seed");
  flags.add_string("faults", "",
                   "replay a corral-faults file instead of generating churn");
  flags.add_double("mtbf", 0,
                   "machine mean time between failures in hours; 0 = none");
  flags.add_double("mttr", 15,
                   "machine mean time to repair in minutes; 0 = permanent");
  flags.add_double("rack-mtbf", 0, "whole-rack MTBF in hours; 0 = none");
  flags.add_double("rack-mttr", 30, "whole-rack MTTR in minutes");
  flags.add_double("fault-horizon", 0,
                   "generate faults over this many hours; 0 = auto (twice "
                   "the last arrival, at least 24h)");
  flags.add_double("straggler-frac", 0,
                   "probability a task attempt runs slowed down");
  flags.add_double("straggler-slowdown", 4.0, "straggler slowdown factor");
  flags.add_bool("speculation", false,
                 "enable Hadoop-style speculative execution");
  const tools::OutputFlagSet output_set{.trace = true, .csv = true};
  tools::add_output_flags(flags, output_set);
  tools::add_cluster_flags(flags);
  if (!flags.parse(argc, argv, std::cerr)) return 2;

  try {
    tools::ToolObservability outputs =
        tools::apply_output_flags(flags, output_set);
    const std::string path = flags.get_string("trace");
    if (path.empty()) {
      std::cerr << "--trace is required\n";
      return 2;
    }
    const auto jobs = read_trace_file(path);
    const ClusterConfig cluster = tools::cluster_from_flags(flags);

    SimConfig sim;
    sim.cluster = cluster;
    parse_net_policy(flags.get_choice("net-policy"), &sim.net_policy);
    sim.write_output_replicas = flags.get_bool("writes");
    sim.remote_input_storage = flags.get_bool("remote-storage");
    if (flags.get_double("storage-gbps") > 0) {
      sim.storage_bandwidth = flags.get_double("storage-gbps") * kGbps;
    }
    sim.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
    sim.enable_speculation = flags.get_bool("speculation");
    // Sink 0 = the simulation run, sink 1 = the offline planner; fixed ids
    // keep the exported trace deterministic (docs/observability.md).
    sim.tracer = outputs.tracer_or_null();
    sim.trace_sink = 0;
    sim.metrics = outputs.metrics_or_null();

    // Fault injection: replay a recorded timeline, or synthesize churn from
    // the MTBF/MTTR knobs (plus straggler injection either way).
    if (!flags.get_string("faults").empty()) {
      sim.faults = read_faults_file(flags.get_string("faults"));
    } else if (flags.get_double("mtbf") > 0 ||
               flags.get_double("rack-mtbf") > 0) {
      FaultModelConfig fault_config;
      fault_config.machine_mtbf = flags.get_double("mtbf") * kHour;
      fault_config.machine_mttr = flags.get_double("mttr") * kMinute;
      fault_config.rack_mtbf = flags.get_double("rack-mtbf") * kHour;
      fault_config.rack_mttr = flags.get_double("rack-mttr") * kMinute;
      fault_config.horizon =
          flags.get_double("fault-horizon") > 0
              ? flags.get_double("fault-horizon") * kHour
              : std::max(2.0 * workload_span(jobs), 24 * kHour);
      fault_config.straggler_frac = flags.get_double("straggler-frac");
      fault_config.straggler_slowdown =
          flags.get_double("straggler-slowdown");
      sim.faults = generate_fault_schedule(cluster, fault_config, sim.seed);
    }
    if (flags.get_string("faults").empty()) {
      sim.faults.straggler_frac = flags.get_double("straggler-frac");
      sim.faults.straggler_slowdown = flags.get_double("straggler-slowdown");
    }

    // Plan the recurring subset when the policy needs it.
    PlannerConfig planner_config;
    planner_config.tracer = outputs.tracer_or_null();
    planner_config.trace_sink = 1;
    planner_config.objective =
        flags.get_string("objective") == "avg-completion"
            ? Objective::kAverageCompletionTime
            : Objective::kMakespan;
    std::vector<JobSpec> recurring;
    for (const JobSpec& job : jobs) {
      if (job.recurring) recurring.push_back(job);
    }
    const Plan plan = plan_offline(recurring, cluster, planner_config);
    const PlanLookup lookup(recurring, plan);

    const std::string policy_name = flags.get_string("policy");
    SimResult result;
    if (policy_name == "yarn") {
      YarnCapacityPolicy policy;
      result = run_simulation(jobs, policy, sim);
    } else if (policy_name == "corral") {
      CorralPolicy policy(&lookup);
      result = run_simulation(jobs, policy, sim);
    } else if (policy_name == "local-shuffle") {
      LocalShufflePolicy policy(&lookup);
      result = run_simulation(jobs, policy, sim);
    } else if (policy_name == "shufflewatcher") {
      ShuffleWatcherPolicy policy(cluster.slots_per_rack());
      result = run_simulation(jobs, policy, sim);
    } else {
      std::cerr << "unknown --policy: " << policy_name << "\n";
      return 2;
    }

    const auto jct = result.completion_times();
    std::printf("policy:            %s\n", result.policy_name.c_str());
    std::printf("net policy:        %s\n",
                std::string(to_string(sim.net_policy)).c_str());
    std::printf("jobs:              %zu\n", result.jobs.size());
    std::printf("makespan:          %.1f s\n", result.makespan);
    // Failed jobs have no completion time, so when every job failed there
    // is no average, median or p90 to print.
    if (jct.empty()) {
      std::printf("avg completion:    n/a\n");
      std::printf("median completion: n/a\n");
      std::printf("p90 completion:    n/a\n");
    } else {
      std::printf("avg completion:    %.1f s\n", result.avg_completion());
      std::printf("median completion: %.1f s\n", result.median_completion());
      std::printf("p90 completion:    %.1f s\n", percentile(jct, 90));
    }
    std::printf("cross-rack data:   %.2f TB\n",
                result.total_cross_rack_bytes / kTB);
    std::printf("compute hours:     %.1f h\n", result.total_compute_hours);
    std::printf("input balance CoV: %.4f\n", result.input_balance_cov);
    if (!sim.faults.empty()) {
      std::printf("jobs failed:       %d\n", result.jobs_failed);
      std::printf("tasks killed:      %d\n", result.tasks_killed);
      std::printf("maps rerun:        %d\n", result.maps_rerun);
      std::printf("stragglers:        %d\n", result.stragglers_injected);
      std::printf("spec. launched:    %d\n", result.speculative_launched);
      std::printf("spec. wasted:      %.1f h\n",
                  result.speculative_wasted_seconds / kHour);
      std::printf("re-replicated:     %.2f GB\n",
                  result.bytes_rereplicated / kGB);
      std::printf("chunks lost:       %d\n", result.chunks_lost);
      std::printf("degraded time:     %.1f h\n",
                  result.degraded_time / kHour);
    }

    if (!outputs.csv.empty()) {
      write_results_csv_file(outputs.csv, result);
      std::printf("per-job results written to %s\n", outputs.csv.c_str());
    }
    outputs.write_outputs(std::cout);
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
  return 0;
}
