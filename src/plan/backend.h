// Pluggable planner backends (docs/planners.md).
//
// Corral's two-phase heuristic (§4.2) is one point in a design space the
// related work maps out: DAGPS packs the "troublesome" part of each DAG
// first (Grandl et al.), and Murray–Khuller–Chao round LP relaxations into
// schedules with approximation guarantees. This layer puts those behind one
// interface so the control plane, the CLI tools and the benches can swap
// planning algorithms with a flag: every backend consumes the same request
// (response functions, optional job specs, rack count, PlannerConfig) and
// produces a ProvisionPlan — a corral::Plan plus the backend id, an optional
// LP lower bound, and the deterministic candidate-evaluation count the
// control plane already uses as its replan-cost metric.
//
// Backends must be deterministic at any exec::ThreadPool width: a plan is
// byte-identical for --threads 1/2/8 (the repo-wide contract, DESIGN.md
// "Execution engine").
#ifndef CORRAL_PLAN_BACKEND_H_
#define CORRAL_PLAN_BACKEND_H_

#include <span>
#include <string_view>
#include <vector>

#include "corral/latency_model.h"
#include "corral/planner.h"
#include "jobs/job.h"

namespace corral::plan {

// One planning request. `jobs` are the latency envelopes the planner
// searches over; `specs` (optional — empty or one entry per job, same
// order) lets DAG-aware backends inspect stage structure and network
// volumes. `config` carries objective, ablations, pool and tracing exactly
// as for plan_offline.
struct PlannerRequest {
  std::span<const ResponseFunction> jobs;
  std::span<const JobSpec> specs;  // may be empty
  int num_racks = 1;
  const PlannerConfig* config = nullptr;
};

struct ProvisionPlan {
  Plan plan;
  PlannerBackendKind backend = PlannerBackendKind::kCorral;
  // LP lower bound on the configured objective, when the backend computes
  // one (LpRoundBackend); 0 otherwise. Lets callers report plan quality
  // against the bound instead of against another heuristic.
  Seconds lp_bound = 0;
};

class PlannerBackend {
 public:
  virtual ~PlannerBackend() = default;
  virtual std::string_view name() const = 0;
  virtual ProvisionPlan plan(const PlannerRequest& request) const = 0;
};

// The paper's two-phase heuristic behind the interface: delegates to
// plan_offline, zero behavior change (golden tests pin byte-identical
// plans).
class CorralBackend : public PlannerBackend {
 public:
  std::string_view name() const override;
  ProvisionPlan plan(const PlannerRequest& request) const override;
};

// DAGPS-style: scores each job's stage DAG (chain length, network volume,
// envelope curvature), runs the full Corral search on the troublesome
// subset only, then places the residual greedily one job at a time.
class DagPackBackend : public PlannerBackend {
 public:
  std::string_view name() const override;
  ProvisionPlan plan(const PlannerRequest& request) const override;
};

// LP rounding: solves the Appendix-A relaxation in closed form
// (solve_lp_batch, src/corral/lp_bound.h), rounds each job's fractional
// rack assignment at the bound by largest share (deterministic
// tie-breaks), and reports the LP value as lp_bound.
class LpRoundBackend : public PlannerBackend {
 public:
  std::string_view name() const override;
  ProvisionPlan plan(const PlannerRequest& request) const override;
};

// Registry: the process-wide backend instances (stateless, safe to share).
const PlannerBackend& planner_backend(PlannerBackendKind kind);

// Flag-value names, in PlannerBackendKind order: {"corral", "dagpack",
// "lpround"}, all read from one table. parse_planner_backend returns false
// on an unknown name and leaves *out untouched.
std::string_view to_string(PlannerBackendKind kind);
bool parse_planner_backend(std::string_view name, PlannerBackendKind* out);
const std::vector<std::string>& planner_backend_names();

}  // namespace corral::plan

#endif  // CORRAL_PLAN_BACKEND_H_
