// corral_plan: run a planner backend over a workload trace and print the
// schedule {R_j, T_j, p_j} plus predicted metrics and the LP lower bound.
//
//   corral_workload_gen --workload=w1 --out=w1.trace
//   corral_plan --trace=w1.trace --objective=makespan --planner=lpround
#include <cstdio>
#include <iostream>

#include "corral/lp_bound.h"
#include "corral/planner.h"
#include "net/allocator.h"
#include "plan/backend.h"
#include "tool_common.h"
#include "util/table.h"
#include "workload/trace_io.h"

using namespace corral;

int main(int argc, char** argv) {
  FlagParser flags("corral_plan: offline joint data/compute planning");
  flags.add_string("trace", "", "input corral-trace file (required)");
  flags.add_choice("objective", {"makespan", "avg-completion"}, "makespan",
                   "makespan (batch) or avg-completion (online)");
  flags.add_choice("planner", plan::planner_backend_names(), "corral",
                   "planning backend (docs/planners.md)");
  flags.add_choice("net-policy", net_policy_names(), "tcp",
                   "network rate-allocation policy the plan will execute "
                   "under (echoed in the summary; docs/coflow.md)");
  flags.add_double("replan-period-min", 0,
                   "rolling-horizon window in minutes; 0 = single shot "
                   "(corral backend only)");
  flags.add_bool("bound", true, "also compute the LP relaxation bound");
  flags.add_int("max-rows", 50, "plan rows to print (0 = all)");
  tools::add_output_flags(flags);
  tools::add_cluster_flags(flags);
  if (!flags.parse(argc, argv, std::cerr)) return 2;

  try {
    tools::ToolObservability outputs = tools::apply_output_flags(flags);
    PlannerConfig config;
    config.tracer = outputs.tracer_or_null();
    config.trace_sink = 0;
    const std::string objective = flags.get_choice("objective");
    config.objective = objective == "makespan"
                           ? Objective::kMakespan
                           : Objective::kAverageCompletionTime;
    const std::string planner = flags.get_choice("planner");
    PlannerBackendKind backend = PlannerBackendKind::kCorral;
    plan::parse_planner_backend(planner, &backend);
    NetPolicy net_policy = NetPolicy::kTcp;
    parse_net_policy(flags.get_choice("net-policy"), &net_policy);
    const double period = flags.get_double("replan-period-min") * kMinute;
    if (period > 0 && backend != PlannerBackendKind::kCorral) {
      std::cerr << "--replan-period-min requires --planner=corral\n";
      return 2;
    }

    const std::string path = flags.get_string("trace");
    if (path.empty()) {
      std::cerr << "--trace is required\n";
      return 2;
    }
    const auto jobs = read_trace_file(path);
    const ClusterConfig cluster = tools::cluster_from_flags(flags);

    const LatencyModelParams params =
        LatencyModelParams::from_cluster(cluster);
    const auto functions =
        build_response_functions(jobs, cluster.racks, params);

    // Placement constraints: resolve eligibility up front so malformed or
    // unsatisfiable requests fail with a clear error (and exit 1) before
    // any search runs, and every backend plans under the filters.
    std::vector<JobPlacement> placements;
    if (any_constrained(jobs)) {
      placements = resolve_placements(jobs, cluster);
      config.placements = &placements;
    }

    plan::ProvisionPlan provision;
    if (period > 0) {
      provision.plan = plan_rolling(functions, cluster.racks, config, period);
    } else {
      plan::PlannerRequest request;
      request.jobs = functions;
      request.specs = jobs;
      request.num_racks = cluster.racks;
      request.config = &config;
      provision = plan::planner_backend(backend).plan(request);
    }
    const Plan& plan = provision.plan;

    std::printf(
        "planned %zu jobs on %d racks (%s objective, %s backend, %s net "
        "policy)\n",
        jobs.size(), cluster.racks, objective.c_str(), planner.c_str(),
        std::string(to_string(net_policy)).c_str());
    std::printf("predicted makespan: %.1f s, avg completion: %.1f s\n",
                plan.predicted_makespan, plan.predicted_avg_completion);
    std::printf("planning cost: %zu candidate evaluations\n",
                plan.evaluated_candidates);
    if (provision.lp_bound > 0) {
      std::printf("backend LP bound: %.1f s (gap %.1f%%)\n",
                  provision.lp_bound,
                  100 * (plan.predicted_makespan / provision.lp_bound - 1));
    }
    if (flags.get_bool("bound")) {
      if (config.objective == Objective::kMakespan) {
        const double bound =
            lp_batch_makespan_bound(functions, cluster.racks);
        std::printf("LP-Batch lower bound: %.1f s (gap %.1f%%)\n", bound,
                    100 * (plan.predicted_makespan / bound - 1));
      } else {
        const double bound =
            online_avg_completion_bound(functions, cluster.racks);
        std::printf("online relaxation bound: %.1f s (gap <= %.1f%%)\n",
                    bound,
                    100 * (plan.predicted_avg_completion / bound - 1));
      }
    }

    TextTable table({"job", "racks", "start (s)", "latency (s)", "priority"});
    long max_rows = flags.get_int("max-rows");
    if (max_rows == 0) max_rows = static_cast<long>(plan.jobs.size());
    for (const PlannedJob& planned : plan.jobs) {
      if (max_rows-- <= 0) break;
      std::string racks;
      for (std::size_t i = 0; i < planned.racks.size(); ++i) {
        racks += (i ? "," : "") + std::to_string(planned.racks[i]);
      }
      table.add_row(
          {jobs[static_cast<std::size_t>(planned.job_index)].name, racks,
           TextTable::fmt(planned.start_time, 1),
           TextTable::fmt(planned.predicted_latency, 1),
           std::to_string(planned.priority)});
    }
    table.print(std::cout);
    outputs.write_outputs(std::cout);
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
  return 0;
}
