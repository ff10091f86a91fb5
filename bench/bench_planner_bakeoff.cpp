// Planner-backend bakeoff: Corral's two-phase heuristic vs the DAGPS-style
// packer vs LP rounding (src/plan/backend.h, docs/planners.md) over the
// Fig 10 TPC-H query workload and the Fig 6 W1 batch workload, at several
// cluster sizes. For every instance the bench reports predicted makespan,
// the gap to the LP-Batch lower bound, and the deterministic planning cost
// (candidate evaluations) next to wall time; the series lands in
// BENCH_planner_bakeoff.json.
//
// The bench also enforces LpRoundBackend's rounding certificate: on every
// batch instance its makespan must stay within 4x of the LP bound it
// reports (2x from rounding the per-job LP envelope, 2x from list
// scheduling; see src/plan/lpround.cpp). A violation exits non-zero.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "plan/backend.h"
#include "workload/tpch.h"

using namespace corral;

namespace {

ClusterConfig sized_testbed(int racks) {
  ClusterConfig cluster = bench::testbed();
  cluster.racks = racks;
  return cluster;
}

}  // namespace

int main(int argc, char** argv) {
  // --smoke: a tiny grid for CI that still exercises every backend and the
  // JSON-write path. Registered as a ctest case in bench/CMakeLists.txt.
  const bool smoke = bench::parse_smoke_flag(argc, argv);
  bench::banner(
      "Planner-backend bakeoff: corral vs dagpack vs lpround",
      "Corral lands within a few percent of the LP bound; dagpack trades a "
      "little quality for DAG-aware packing; lpround certifies <= 4x");

  struct Workload {
    const char* name;
    std::vector<JobSpec> jobs;
  };
  std::vector<Workload> workloads;
  {
    // Fig 10's 15 recurring TPC-H queries, run as a batch (arrival 0) so
    // the LP-Batch bound — and lpround's certificate — apply exactly.
    Rng rng(10);
    workloads.push_back({"tpch", make_tpch(TpchConfig{}, rng, 0)});
  }
  {
    // Fig 6's W1 MapReduce batch.
    Rng rng(6);
    workloads.push_back({"w1", bench::w1(rng, smoke ? 24 : 200)});
  }

  const std::vector<int> rack_counts =
      smoke ? std::vector<int>{7} : std::vector<int>{7, 14, 21};
  const std::vector<PlannerBackendKind> backends = {
      PlannerBackendKind::kCorral, PlannerBackendKind::kDagPack,
      PlannerBackendKind::kLpRound};

  // Per-backend sums across instances, for the summary.
  struct Totals {
    double makespan = 0;
    double gap = 0;
    std::size_t evals = 0;
  };
  std::vector<Totals> totals(backends.size());
  bench::Json rows;
  int violations = 0;
  std::printf("\n%-6s %-6s %-8s %12s %12s %7s %10s %9s\n", "wkld", "racks",
              "backend", "makespan(s)", "lp-bound(s)", "gap", "evals",
              "wall(ms)");
  for (const Workload& workload : workloads) {
    for (int racks : rack_counts) {
      const ClusterConfig cluster = sized_testbed(racks);
      const LatencyModelParams params =
          LatencyModelParams::from_cluster(cluster);
      const auto functions =
          build_response_functions(workload.jobs, cluster.racks, params);
      const double instance_bound =
          lp_batch_makespan_bound(functions, cluster.racks);

      PlannerConfig config;
      config.objective = Objective::kMakespan;
      config.pool = &bench::pool();
      for (std::size_t b = 0; b < backends.size(); ++b) {
        const PlannerBackendKind kind = backends[b];
        plan::PlannerRequest request;
        request.jobs = functions;
        request.specs = workload.jobs;
        request.num_racks = cluster.racks;
        request.config = &config;

        const auto start = std::chrono::steady_clock::now();
        const plan::ProvisionPlan provision =
            plan::planner_backend(kind).plan(request);
        const auto stop = std::chrono::steady_clock::now();

        const std::string backend(plan::to_string(kind));
        const Seconds makespan = provision.plan.predicted_makespan;
        const std::size_t evals = provision.plan.evaluated_candidates;
        const double gap = makespan / instance_bound - 1;
        const double wall_ms =
            std::chrono::duration<double, std::milli>(stop - start).count();
        totals[b].makespan += makespan;
        totals[b].gap += gap;
        totals[b].evals += evals;
        std::printf("%-6s %-6d %-8s %12.1f %12.1f %6.1f%% %10zu %9.2f\n",
                    workload.name, racks, backend.c_str(), makespan,
                    instance_bound, 100 * gap, evals, wall_ms);
        rows.push({{"workload", workload.name}, {"racks", racks},
                   {"backend", backend}, {"makespan_s", makespan},
                   {"lp_bound_s", instance_bound}, {"lp_gap", gap},
                   {"candidate_evals", evals}, {"wall_ms", wall_ms}});

        // The rounding certificate, checked against the bound the backend
        // itself reports (its per-job LP bisection).
        if (kind == PlannerBackendKind::kLpRound &&
            provision.plan.predicted_makespan >
                4.0 * provision.lp_bound * (1 + 1e-9)) {
          std::fprintf(stderr,
                       "CERTIFICATE VIOLATION: %s racks=%d lpround makespan "
                       "%.1fs > 4x lp_bound %.1fs\n",
                       workload.name, racks,
                       provision.plan.predicted_makespan, provision.lp_bound);
          ++violations;
        }
      }
    }
  }

  // Per-backend summary: mean makespan and mean LP gap across instances.
  std::printf("\n%-8s %16s %10s %12s\n", "backend", "mean makespan(s)",
              "mean gap", "total evals");
  bench::Json summary;
  const double n = static_cast<double>(workloads.size() * rack_counts.size());
  for (std::size_t b = 0; b < backends.size(); ++b) {
    const std::string name(plan::to_string(backends[b]));
    const Totals& t = totals[b];
    std::printf("%-8s %16.1f %9.1f%% %12zu\n", name.c_str(), t.makespan / n,
                100 * t.gap / n, t.evals);
    summary.push({{"backend", name}, {"mean_makespan_s", t.makespan / n},
                  {"mean_lp_gap", t.gap / n},
                  {"total_candidate_evals", t.evals}});
  }
  bench::write_series("planner_bakeoff",
                      {{"summary", summary}, {"rows", rows}});

  if (violations > 0) {
    std::fprintf(stderr, "%d rounding-certificate violation(s)\n",
                 violations);
    return 1;
  }
  return 0;
}
