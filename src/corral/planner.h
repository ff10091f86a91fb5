// Corral's offline planner (§4).
//
// The planning problem: given response functions L_j(r) for a set of jobs
// and a cluster of R racks, choose for every job the number of racks r_j,
// the concrete rack set R_j, a start time T_j and a priority p_j, minimizing
// either makespan (batch scenario) or average completion time (online
// scenario). Both problems are NP-hard; the planner uses the two-phase
// heuristic of §4.2:
//
//  * Provisioning phase — start every job at one rack and repeatedly widen
//    the currently-longest job by one rack, evaluating each of the J*R
//    candidate allocations with the prioritization phase and keeping the
//    best. Under the makespan objective a candidate whose rack-time lower
//    bound cannot beat the best so far is skipped, and the chain stops once
//    no later candidate can; the result is the same plan
//    (docs/planners.md "Bound-and-prune provisioning").
//  * Prioritization phase — an extension of LPT to multi-rack (malleable)
//    jobs: widest-job first, ties broken by processing time (Figure 4).
#ifndef CORRAL_CORRAL_PLANNER_H_
#define CORRAL_CORRAL_PLANNER_H_

#include <span>
#include <string>
#include <vector>

#include "corral/latency_model.h"
#include "corral/placement.h"
#include "jobs/job.h"

namespace corral {

namespace exec {
class ThreadPool;
}  // namespace exec

namespace obs {
class Tracer;
}  // namespace obs

enum class Objective { kMakespan, kAverageCompletionTime };

// Which planning algorithm produces the provisioning plan (src/plan,
// docs/planners.md). The enum lives here rather than in src/plan so the
// plan-cache fingerprint (corral/fingerprint.h) and the control plane can
// name a backend without depending on the backend library. plan_offline
// and plan_rolling below always run the Corral §4.2 heuristic; callers
// that want another algorithm go through plan::planner_backend(kind).
enum class PlannerBackendKind { kCorral = 0, kDagPack = 1, kLpRound = 2 };

struct PlannerConfig {
  Objective objective = Objective::kMakespan;

  // Ablations of §4.2 design choices (see DESIGN.md):
  // Sort equal-width jobs by processing time only (plain LPT) when false.
  bool widest_job_first = true;
  // The paper runs the provisioning loop until every job reaches r_j = R;
  // the earlier heuristic of [19] stops when sum_{j: r_j>1} r_j = R.
  bool explore_full_range = true;

  // Pool for the provisioning phase's candidate evaluations; nullptr uses
  // exec::ThreadPool::shared(). The plan is byte-identical for any width
  // (see DESIGN.md "Execution engine").
  exec::ThreadPool* pool = nullptr;

  // Decision-log tracing (docs/observability.md): when set, the planner
  // records a "provision" span, per-candidate evaluations (at trace level
  // tasks) and per-job "assign" events into `tracer->sink(trace_sink)`.
  // Timestamps are logical step indices. Candidate events are recorded on
  // the calling thread after each parallel evaluation block, in step order,
  // so the decision log is byte-identical at any pool width.
  obs::Tracer* tracer = nullptr;
  int trace_sink = 0;

  // Resolved placement constraints, one per job in the planner's input
  // order (corral/placement.h), or nullptr when every job is
  // unconstrained. Not part of planner_fingerprint(): placements derive
  // from the jobs and the topology, both fingerprinted already. The
  // spec-taking plan_offline overloads resolve this automatically; callers
  // of the ResponseFunction overloads set it when constraints apply.
  const std::vector<JobPlacement>* placements = nullptr;
};

struct PlannedJob {
  int job_index = 0;        // position in the planner's input
  int num_racks = 1;        // r_j
  std::vector<int> racks;   // R_j, rack ids
  Seconds start_time = 0;   // T_j
  Seconds predicted_latency = 0;  // L_j(r_j)
  int priority = 0;         // p_j; lower value = scheduled earlier

  Seconds predicted_completion() const {
    return start_time + predicted_latency;
  }
};

struct Plan {
  std::vector<PlannedJob> jobs;  // same order as the planner's input
  Seconds predicted_makespan = 0;
  Seconds predicted_avg_completion = 0;  // mean of (completion - arrival)
  // Candidate allocations the provisioning search considered to produce
  // this plan: the whole J*R chain plus the all-ones start (summed over
  // windows for plan_rolling). The bound-and-prune search skips most of
  // them without a prioritization pass and never generates the steps after
  // it stops, and both depend on the pool width, so the count deliberately
  // ignores pruning and the stop. A deterministic, width-independent
  // measure of replan cost, used by the control plane as its "replan
  // latency" metric — wall time would break the byte-identical-across-
  // threads contract.
  std::size_t evaluated_candidates = 0;

  double objective_value(Objective objective) const {
    return objective == Objective::kMakespan ? predicted_makespan
                                             : predicted_avg_completion;
  }
};

// The request check every backend runs first: at least one rack, every
// response function covers `num_racks` racks, and config.placements (when
// set) has one entry per job with one mask entry per rack. Throws
// std::invalid_argument naming the first violation.
void validate_inputs(std::span<const ResponseFunction> jobs, int num_racks,
                     const PlannerConfig& config);

// "0,3,5": a list of rack (or job) ids as one planner trace arg.
std::string rack_list_string(std::span<const int> racks);

// Plans from precomputed response functions. Every response function must
// cover at least `num_racks` racks.
Plan plan_offline(std::span<const ResponseFunction> jobs, int num_racks,
                  const PlannerConfig& config);

// Convenience overload: builds response functions from job specs with the
// cluster's latency model (imbalance penalty included, §4.5).
Plan plan_offline(std::span<const JobSpec> jobs, const ClusterConfig& cluster,
                  const PlannerConfig& config);

// Plan repair after failures (§7 "Dealing with failures"): plans on the
// subcluster formed by `usable_racks` only (ids must be distinct, valid for
// the cluster, non-empty) and returns rack assignments in physical rack
// ids. Used to re-run provisioning/prioritization over not-yet-started jobs
// when a rack durably degrades.
Plan plan_offline(std::span<const JobSpec> jobs, const ClusterConfig& cluster,
                  const PlannerConfig& config,
                  std::span<const int> usable_racks);

// Runs only the prioritization phase (Figure 4) for a fixed rack-count
// vector; exposed for tests and for the LP-gap study.
Plan prioritize(std::span<const ResponseFunction> jobs,
                std::span<const int> racks_per_job, int num_racks,
                const PlannerConfig& config);

// Rolling-horizon planning (§3.1: "The offline planner will periodically
// receive updated estimates of future workload, rerun the planning problem,
// and update the guidelines to the cluster scheduler"). Jobs are grouped
// into windows of `period` seconds by arrival time; each window is planned
// by the two-phase heuristic against the rack availability left behind by
// the previous windows. Priorities are globally consistent across windows.
Plan plan_rolling(std::span<const ResponseFunction> jobs, int num_racks,
                  const PlannerConfig& config, Seconds period);

}  // namespace corral

#endif  // CORRAL_CORRAL_PLANNER_H_
