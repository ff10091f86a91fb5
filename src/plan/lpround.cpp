// LP rounding: turn the Appendix-A relaxation into a plan.
//
// LP-Batch lower-bounds the makespan of any rack-granular schedule. For a
// fixed budget T it decomposes per job into a tiny LP over the fractional
// rack assignment x_r (r = 1..R):
//
//   minimize   sum_r r * L_j(r) * x_r        (work the job consumes)
//   subject to sum_r x_r = 1,  sum_r L_j(r) * x_r <= T,  x >= 0
//
// and T is feasible when the summed minimal work fits the cluster's
// capacity T * R. solve_lp_batch (src/corral/lp_bound.h) finds the smallest
// feasible T* in closed form and reads each job's optimal basic solution
// there off its convex work envelope. This backend rounds it: the LP has
// two rows, so the solution has at most two nonzero x_r and the largest
// share is >= 1/2 — picking that width r_j gives L_j(r_j) <= 2 T* and work
// r_j L_j(r_j) <= 2 * (fractional work). Widest-first LPT prioritization
// over those widths then yields a makespan within a small constant of T*
// (<= 4x on batch instances: 2x from rounding, 2x from list scheduling;
// bench_planner_bakeoff checks the certificate on every TPC-H instance).
// Murray, Khuller and Chao develop this primal-dual/rounding family for
// distributed-cluster scheduling; this is its rack-granular cousin.
//
// Cost: the envelopes read J * R (job, width) points, and prioritize() is
// one pass, so evaluated_candidates = J * R + 1 — the unit DagPack's
// residual scan counts in. Ties in the largest-share pick break toward the
// smallest width. The solution reduces in job order, so the plan is
// byte-identical at any --threads width.
#include <algorithm>
#include <string>
#include <vector>

#include "corral/lp_bound.h"
#include "obs/trace.h"
#include "plan/backend.h"
#include "util/check.h"

namespace corral::plan {

std::string_view LpRoundBackend::name() const {
  return to_string(PlannerBackendKind::kLpRound);
}

ProvisionPlan LpRoundBackend::plan(const PlannerRequest& request) const {
  require(request.config != nullptr, "LpRoundBackend: config is required");
  const PlannerConfig& config = *request.config;
  const int R = request.num_racks;
  validate_inputs(request.jobs, R, config);
  const std::size_t J = request.jobs.size();

  ProvisionPlan result;
  result.backend = PlannerBackendKind::kLpRound;
  if (J == 0) return result;

  const obs::TraceRecorder trace(config.tracer, config.trace_sink, "planner");

  const LpBatchSolution solution =
      solve_lp_batch(request.jobs, R, config.pool);
  result.lp_bound = solution.bound;

  // Round each job's fractional solution by largest share (ties toward the
  // smallest width). Placement constraints cap the rounding at each job's
  // eligible rack count; the prioritize() call below then enforces
  // rack-level feasibility through config.placements.
  std::vector<int> racks_per_job(J, 1);
  for (std::size_t j = 0; j < J; ++j) {
    int max_r = R;
    if (config.placements != nullptr) {
      max_r = std::min(R, (*config.placements)[j].eligible_count);
    }
    int best_r = 1;
    double best_share = -1.0;
    for (int r = 1; r <= max_r; ++r) {
      double share = 0.0;
      for (const LpBatchSolution::Width& width : solution.widths[j]) {
        if (width.racks == r) share += width.share;
      }
      if (share > best_share + 1e-12) {
        best_share = share;
        best_r = r;
      }
    }
    racks_per_job[j] = best_r;
  }

  result.plan = prioritize(request.jobs, racks_per_job, R, config);
  result.plan.evaluated_candidates = J * static_cast<std::size_t>(R) + 1;
  if (trace.at(obs::TraceLevel::kJobs)) {
    trace.span(obs::TraceTrack::kPlanner, "lpround", "planner", 0,
               0.0, static_cast<double>(result.plan.evaluated_candidates),
               {obs::arg("jobs", static_cast<double>(J)),
                obs::arg("lp_bound_s", solution.bound),
                obs::arg("predicted_makespan_s",
                         result.plan.predicted_makespan)});
  }
  return result;
}

}  // namespace corral::plan
