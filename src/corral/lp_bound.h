// LP relaxation lower bounds (Appendix A).
//
// LP-Batch bounds the makespan of *any* schedule that assigns resources at
// rack/job granularity; the paper uses it to show the two-phase heuristic is
// within ~3% of optimal in the batch case and ~15% online. LP-Batch is
// solved in closed form: for a fixed makespan T the LP decomposes per job
// into a 2-constraint LP whose value is the lower convex envelope of the
// points (L_j(r), r * L_j(r)); feasibility of T is then a single aggregate
// capacity check, and the bound is found by binary search. At the bound,
// each job's optimal basic solution is read off the two envelope vertices
// that bracket it; LpRoundBackend (src/plan/lpround.cpp) rounds it into a
// plan. tests/lp_bound_test.cpp cross-validates the reduction against the
// dense simplex solver on the LP as the appendix writes it.
//
// The paper omits the full online formulation ("we omit the full description
// for brevity"); we use a valid-but-looser relaxation: the maximum of the
// minimum-latency bound and a preemptive SRPT bound on an aggregate
// capacity of R rack-units (see DESIGN.md).
#ifndef CORRAL_CORRAL_LP_BOUND_H_
#define CORRAL_CORRAL_LP_BOUND_H_

#include <array>
#include <span>
#include <vector>

#include "corral/latency_model.h"

namespace corral {

namespace exec {
class ThreadPool;
}  // namespace exec

// LP-Batch solved: the lower bound on the makespan of any rack-granular
// schedule and, for each job, its optimal fractional width choice at that
// bound. The per-job LP has two rows, so a job's choice has at most two
// nonzero shares: it runs on widths[0].racks for a widths[0].share fraction
// and on widths[1].racks for the rest. When its latency constraint does not
// bind, both entries name the minimum-work width, with shares 1 and 0.
struct LpBatchSolution {
  struct Width {
    int racks = 1;
    double share = 0;
  };
  Seconds bound = 0;
  std::vector<std::array<Width, 2>> widths;  // one entry per job
};

// Solves LP-Batch by the convex-envelope reduction + binary search; scales
// to hundreds of jobs and racks. The per-job envelope subproblems run on
// `pool` (nullptr = exec::ThreadPool::shared()); the feasibility search
// reduces them in job order, so the solution is identical at any pool
// width.
LpBatchSolution solve_lp_batch(std::span<const ResponseFunction> jobs,
                               int num_racks,
                               exec::ThreadPool* pool = nullptr);

// solve_lp_batch(jobs, num_racks, pool).bound.
Seconds lp_batch_makespan_bound(std::span<const ResponseFunction> jobs,
                                int num_racks,
                                exec::ThreadPool* pool = nullptr);

// Lower bound on the average completion (flow) time in the online scenario.
Seconds online_avg_completion_bound(std::span<const ResponseFunction> jobs,
                                    int num_racks);

}  // namespace corral

#endif  // CORRAL_CORRAL_LP_BOUND_H_
