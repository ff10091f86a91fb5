// Policy-matrix bakeoff: every network rate-allocation policy (tcp, varys,
// lp-order, sincronia; src/coflow, docs/coflow.md) crossed with every
// planner backend (corral, dagpack, lpround; docs/planners.md) over three
// workloads — the Fig 10 TPC-H query batch, the Fig 6 W1 batch, and a
// placement-constrained W1 variant whose heavy shuffles are pinned onto a
// 3-rack "accel" class (with_placement_mix). Every cell plans with the
// backend, then executes the plan in the flow-level simulator under the net
// policy; the full matrix lands in BENCH_policy_matrix.json.
//
// The JSON is byte-identical at --threads 1, 2 and 8 (the exec::
// determinism contract; pinned by CoflowDeterminism.PolicyMatrixBench and
// run under TSan in CI).
//
// The bench also asserts the headline claim of the constrained variant: at
// least one net-policy pair must *invert* its makespan ordering between w1
// and w1-constrained for some planner — concentrating coflows on a few
// racks changes which allocation policy wins. Exits non-zero otherwise.
#include <cstdio>
#include <deque>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "corral/placement.h"
#include "exec/exec.h"
#include "net/allocator.h"
#include "plan/backend.h"
#include "util/flags.h"
#include "workload/tpch.h"

using namespace corral;

namespace {

// One planned (workload, backend) cell; the PlanLookup is self-contained
// so simulation cases can reference it from pool workers.
struct PlannedCell {
  std::string workload;
  std::string planner;
  const std::vector<JobSpec>* jobs = nullptr;
  const ClusterConfig* cluster = nullptr;
  PlanLookup lookup;
};

}  // namespace

int main(int argc, char** argv) {
  // --smoke: a reduced W1 for CI that still runs the full 3x3x4 matrix,
  // the JSON-write path and the inversion assertion. --threads N pins the
  // pool width (the CoflowDeterminism suite diffs the JSON across widths).
  FlagParser flags("Policy matrix: net policies x planner backends x "
                   "workloads, written to BENCH_policy_matrix.json.");
  flags.add_bool("smoke", false, "run the reduced W1 used in CI");
  flags.add_int("threads", 0,
                "bench pool width, up to 1024 (0: hardware concurrency)");
  if (!flags.parse(argc, argv, std::cerr)) return 1;
  const bool smoke = flags.get_bool("smoke");
  const long threads = flags.get_int("threads");
  if (threads < 0 || threads > 1024) {
    std::fprintf(stderr, "error: --threads must be in 0..1024\n");
    return 1;
  }
  if (threads > 0) exec::set_default_threads(static_cast<int>(threads));
  bench::banner(
      "Policy matrix: net policies x planner backends x workloads",
      "Coflow-aware allocators (varys, lp-order, sincronia) beat per-flow "
      "tcp, and placement constraints flip which one wins");

  // The constrained variant runs on a testbed declaring the "accel" class
  // on the first 3 racks; the unconstrained workloads use the plain
  // testbed (identical fabric, so columns are comparable).
  const ClusterConfig plain = bench::testbed();
  ClusterConfig equipped = plain;
  equipped.resource_classes.push_back(
      ResourceClassConfig{"accel", /*units_per_rack=*/4,
                          /*equipped_racks=*/3});

  struct Workload {
    std::string name;
    std::vector<JobSpec> jobs;
    const ClusterConfig* cluster;
  };
  std::vector<Workload> workloads;
  {
    Rng rng(10);
    workloads.push_back({"tpch", make_tpch(TpchConfig{}, rng, 0), &plain});
  }
  {
    Rng rng(6);
    workloads.push_back({"w1", bench::w1(rng, smoke ? 24 : 120), &plain});
  }
  {
    // Same W1 draw, decorated with the placement mix: heaviest 40% pinned
    // to the accel racks, two anti-affinity pairs, heaviest job exclusive.
    workloads.push_back({"w1-constrained",
                         with_placement_mix(workloads[1].jobs,
                                            PlacementMixConfig{}),
                         &equipped});
  }

  const std::vector<PlannerBackendKind> backends = {
      PlannerBackendKind::kCorral, PlannerBackendKind::kDagPack,
      PlannerBackendKind::kLpRound};
  const std::vector<NetPolicy> policies = {
      NetPolicy::kTcp, NetPolicy::kVarys, NetPolicy::kLpOrder,
      NetPolicy::kSincronia};

  // Phase 1: plan every (workload, backend) cell. Deque keeps PlanLookup
  // addresses stable for the batch-case captures below.
  std::deque<PlannedCell> cells;
  for (const Workload& workload : workloads) {
    const LatencyModelParams params =
        LatencyModelParams::from_cluster(*workload.cluster);
    const auto functions = build_response_functions(
        workload.jobs, workload.cluster->racks, params);
    std::vector<JobPlacement> placements;
    PlannerConfig config;
    config.objective = Objective::kMakespan;
    config.pool = &bench::pool();
    if (any_constrained(workload.jobs)) {
      placements = resolve_placements(workload.jobs, *workload.cluster);
      config.placements = &placements;
    }
    for (PlannerBackendKind kind : backends) {
      plan::PlannerRequest request;
      request.jobs = functions;
      request.specs = workload.jobs;
      request.num_racks = workload.cluster->racks;
      request.config = &config;
      const plan::ProvisionPlan provision =
          plan::planner_backend(kind).plan(request);
      PlannedCell cell;
      cell.workload = workload.name;
      cell.planner = std::string(plan::to_string(kind));
      cell.jobs = &workload.jobs;
      cell.cluster = workload.cluster;
      cell.lookup = PlanLookup(workload.jobs, provision.plan);
      cells.push_back(std::move(cell));
    }
  }

  // Phase 2: one simulation per (cell, net policy), all fanned over the
  // bench pool in a single batch.
  std::vector<BatchCase> cases;
  for (const PlannedCell& cell : cells) {
    for (NetPolicy policy : policies) {
      BatchCase batch_case;
      batch_case.label =
          cell.workload + "/" + cell.planner + "/" +
          std::string(to_string(policy));
      batch_case.jobs = *cell.jobs;
      batch_case.config = bench::default_sim(*cell.cluster);
      batch_case.config.net_policy = policy;
      const PlanLookup* lookup = &cell.lookup;
      batch_case.make_policy =
          [lookup]() -> std::unique_ptr<SchedulingPolicy> {
        return std::make_unique<CorralPolicy>(lookup);
      };
      cases.push_back(std::move(batch_case));
    }
  }
  const std::vector<BatchResult> results = bench::run_traced(cases);

  bench::Json rows;
  std::printf("\n%-15s %-8s %-10s %12s %12s %10s\n", "workload", "planner",
              "net", "makespan(s)", "avg-jct(s)", "xrack(TB)");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const PlannedCell& cell = cells[i / policies.size()];
    const std::string net(to_string(policies[i % policies.size()]));
    const SimResult& result = results[i].result;
    const double avg_completion = result.avg_completion();
    std::printf("%-15s %-8s %-10s %12.1f %12.1f %10.2f\n",
                cell.workload.c_str(), cell.planner.c_str(), net.c_str(),
                result.makespan, avg_completion,
                result.total_cross_rack_bytes / kTB);
    rows.push({{"workload", cell.workload}, {"planner", cell.planner},
               {"net_policy", net}, {"makespan_s", result.makespan},
               {"avg_completion_s", avg_completion},
               {"cross_rack_bytes", result.total_cross_rack_bytes}});
  }
  bench::write_series("policy_matrix", {{"rows", rows}});

  // Inversion assertion: some planner must rank a pair of net policies one
  // way on w1 and the opposite way on w1-constrained (strictly, both
  // sides). The constrained pinning concentrates the big coflows, which is
  // exactly when ordering-based allocators change rank. Results run
  // workload-major, then backend, then net policy; workloads 1 and 2 are
  // w1 and w1-constrained.
  const auto makespan_of = [&](std::size_t workload, std::size_t backend,
                               std::size_t policy) {
    return results[(workload * backends.size() + backend) * policies.size() +
                   policy]
        .result.makespan;
  };
  int inversions = 0;
  for (std::size_t k = 0; k < backends.size(); ++k) {
    const std::string planner(plan::to_string(backends[k]));
    for (std::size_t a = 0; a < policies.size(); ++a) {
      for (std::size_t b = a + 1; b < policies.size(); ++b) {
        const std::string na(to_string(policies[a]));
        const std::string nb(to_string(policies[b]));
        const double base_a = makespan_of(1, k, a);
        const double base_b = makespan_of(1, k, b);
        const double con_a = makespan_of(2, k, a);
        const double con_b = makespan_of(2, k, b);
        const bool flipped = (base_a < base_b && con_a > con_b) ||
                             (base_a > base_b && con_a < con_b);
        if (flipped) {
          std::printf(
              "inversion: %s ranks %s vs %s as %.1f/%.1f on w1 but "
              "%.1f/%.1f constrained\n",
              planner.c_str(), na.c_str(), nb.c_str(), base_a, base_b,
              con_a, con_b);
          ++inversions;
        }
      }
    }
  }
  if (inversions == 0) {
    std::fprintf(stderr,
                 "ASSERTION FAILED: no net-policy ordering inversion "
                 "between w1 and w1-constrained\n");
    return 1;
  }
  return 0;
}
