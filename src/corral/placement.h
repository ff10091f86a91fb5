// Placement-constraint resolution (docs/coflow.md "Placement constraints").
//
// Jobs carry hard Shafiee–Ghaderi-style constraints (JobSpec::placement):
// anti-affinity sets, named per-rack resource classes, and rack
// exclusivity. The planner enforces them in two steps:
//
//  1. resolve_placements() turns each job's resource requirement into a
//     per-rack eligibility mask against the cluster's resource classes,
//     rejecting malformed or unsatisfiable requests with deterministic
//     errors before any search runs.
//  2. RackClaims, the one place the cross-job rule lives, treats the masks,
//     anti-affinity sets and exclusivity as feasibility filters when racks
//     are assigned. Every PlannerBackend seats jobs through it: the
//     prioritization phase (corral/planner.cpp run_prioritization) and
//     DagPack's residual greedy.
//
// Resolution is a pure per-job function of (job, cluster) — cross-job
// interactions (disjointness, exclusivity) bind only at assignment time —
// so backends may resolve any job subset independently and stay consistent.
#ifndef CORRAL_CORRAL_PLACEMENT_H_
#define CORRAL_CORRAL_PLACEMENT_H_

#include <cstddef>
#include <span>
#include <vector>

#include "cluster/topology.h"
#include "jobs/job.h"

namespace corral {

// One job's resolved constraint state. `eligible` has one entry per
// (virtual) rack of the planning cluster.
struct JobPlacement {
  std::vector<char> eligible;
  int eligible_count = 0;
  int anti_affinity = -1;
  bool rack_exclusive = false;
  bool constrained = false;
};

// Resolves every job against the cluster's resource classes. Throws
// std::invalid_argument (deterministic message naming the first offending
// job) when a placement spec is malformed, names an unknown resource class,
// requests more units than any equipped rack carries, or no rack is
// eligible.
std::vector<JobPlacement> resolve_placements(std::span<const JobSpec> jobs,
                                             const ClusterConfig& cluster);

// True when at least one job carries a real constraint (the planner's
// constraint-aware paths only engage then).
bool any_constrained(std::span<const JobSpec> jobs);
bool any_constrained(std::span<const JobPlacement> placements);

// Restricts resolved placements to the planning view `usable_racks` (sorted
// physical rack ids): virtual rack v of the view maps to physical rack
// usable_racks[v]. Used when planning on a degraded or arbitrated
// subcluster. Throws when a constrained job loses its last eligible rack.
std::vector<JobPlacement> remap_placements(
    std::span<const JobPlacement> placements, std::span<const JobSpec> jobs,
    std::span<const int> usable_racks);

// The rack-claim ledger of one assignment pass: which racks job j may
// still take, given the racks earlier jobs of the pass claimed. A rack is
// open to j when j's eligibility mask allows it, no rack-exclusive job
// claimed it, no member of j's anti-affinity set claimed it, and, when j is
// rack-exclusive itself, no job claimed it at all. When no job is
// constrained every rack is open and claim() records nothing.
//
// The ledger keeps its buffers across reset(), so a planner worker reuses
// one for all its passes. It reads each mask at every rack id without a
// bounds check: callers validate the request first (validate_inputs in
// corral/planner.h), and the placements must outlive the pass.
class RackClaims {
 public:
  // Starts a pass over `placements` (one per job, indexed by job; empty
  // when no job carries one) on `num_racks` racks, with nothing claimed.
  void reset(std::span<const JobPlacement> placements, int num_racks);

  // Sets `out` to the racks open to `job`, in ascending id order.
  void open_racks(int job, std::vector<int>& out) const;

  // Records that `job` took `racks`.
  void claim(int job, std::span<const int> racks);

 private:
  std::span<const JobPlacement> placements_;
  int num_racks_ = 0;
  bool constrained_ = false;
  std::vector<int> set_ids_;          // sorted distinct anti-affinity ids
  std::vector<int> job_set_;          // per job: index into set_ids_ or -1
  std::vector<char> set_rack_;        // [set][rack]: claimed by a member
  std::vector<char> rack_used_;       // claimed by any job
  std::vector<char> exclusive_rack_;  // claimed by a rack-exclusive job
};

// Throws the std::invalid_argument of a pass that cannot seat `job`: it
// needs `racks` racks but only `open` remain open to it.
[[noreturn]] void throw_unseatable(int job, int racks, std::size_t open);

}  // namespace corral

#endif  // CORRAL_CORRAL_PLACEMENT_H_
