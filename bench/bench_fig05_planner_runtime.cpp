// Figure 5: running time of the offline planner heuristic for a 4000
// machine cluster (100 racks x 40 machines) with a varying number of jobs —
// now measured at 1 thread and at full hardware concurrency over a
// jobs x racks grid, with the series recorded in BENCH_planner_runtime.json
// as the repo's planner-performance trajectory file. Times print in
// milliseconds: the bound-and-prune provisioning search plans even the
// largest grid point in milliseconds.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_common.h"

using namespace corral;

namespace {

ClusterConfig paper_cluster(int racks) {
  ClusterConfig cluster;
  cluster.racks = racks;
  cluster.machines_per_rack = 40;
  cluster.slots_per_machine = 8;
  cluster.nic_bandwidth = 2.5 * kGbps;
  cluster.oversubscription = 5.0;
  return cluster;
}

// Fastest of three plans: with the bound-and-prune search a point takes
// milliseconds, where one scheduler hiccup would otherwise dominate.
double plan_seconds(const std::vector<JobSpec>& jobs,
                    const ClusterConfig& cluster, exec::ThreadPool& pool,
                    Seconds* makespan) {
  PlannerConfig config;
  config.pool = &pool;
  double best = 1e300;
  for (int repeat = 0; repeat < 3; ++repeat) {
    const auto start = std::chrono::steady_clock::now();
    const Plan plan = plan_offline(jobs, cluster, config);
    const auto stop = std::chrono::steady_clock::now();
    if (makespan != nullptr) *makespan = plan.predicted_makespan;
    best = std::min(best,
                    std::chrono::duration<double>(stop - start).count());
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  // --smoke: a tiny grid for CI (seconds, not minutes) that still exercises
  // the full measure-and-write path, so the bench cannot rot unbuilt or
  // unrunnable. Registered as a ctest case in bench/CMakeLists.txt.
  const bool smoke = bench::parse_smoke_flag(argc, argv);
  // At least 4 so the parallel series exercises a real multi-worker pool
  // even on small CI hosts; on a single hardware thread the speedup
  // degenerates to ~1x (the contract is byte-identical output, the speedup
  // needs cores).
  const int parallel_threads = std::max(4, exec::hardware_threads());
  bench::banner(
      "Figure 5 - offline planner running time, 4000-machine cluster",
      "~55 seconds for 500 jobs on 100 racks (single desktop machine)");
  std::printf("threads: 1 vs %d (outputs byte-identical; see DESIGN.md "
              "\"Execution engine\")\n", parallel_threads);

  exec::ThreadPool serial_pool(1);
  exec::ThreadPool parallel_pool(parallel_threads);

  Rng rng(5);
  const auto all_jobs = bench::w3(rng, smoke ? 40 : 500);

  // The jobs x racks grid. Every point runs at both widths; the paper's
  // figure is the racks=100 column of the serial series.
  const std::vector<int> rack_counts = smoke ? std::vector<int>{10}
                                             : std::vector<int>{50, 100};
  const std::vector<int> job_counts =
      smoke ? std::vector<int>{20, 40}
            : std::vector<int>{50, 100, 200, 300, 400, 500};
  bench::Json grid;
  std::printf("\n%-8s %-8s %14s %14s %10s\n", "jobs", "racks",
              "1 thread (ms)", "N threads (ms)", "speedup");
  for (int racks : rack_counts) {
    const ClusterConfig cluster = paper_cluster(racks);
    for (int count : job_counts) {
      const std::vector<JobSpec> jobs(all_jobs.begin(),
                                      all_jobs.begin() + count);
      const double serial_s =
          plan_seconds(jobs, cluster, serial_pool, nullptr);
      Seconds makespan = 0;
      const double parallel_s =
          plan_seconds(jobs, cluster, parallel_pool, &makespan);
      const double speedup = serial_s / std::max(parallel_s, 1e-9);
      std::printf("%-8d %-8d %14.2f %14.2f %9.2fx   (makespan %.0fs)\n",
                  count, racks, serial_s * 1e3, parallel_s * 1e3, speedup,
                  makespan);
      grid.push({{"jobs", count}, {"racks", racks},
                 {"threads1_s", serial_s}, {"threadsN_s", parallel_s},
                 {"speedup", speedup}, {"predicted_makespan_s", makespan}});
    }
  }

  bench::write_series("planner_runtime",
                      {{"workload", "w3"},
                       {"parallel_threads", parallel_threads},
                       {"grid", grid}});
  std::printf(
      "\nThe paper reports ~55s at 500 jobs on a 6-core/24GB desktop for the\n"
      "exhaustive O(J^2 R^2) search. The rack-time bound here skips almost\n"
      "every candidate without changing the plan, so the time grows roughly\n"
      "linearly in J*R instead (DESIGN.md, docs/planners.md).\n");
  return 0;
}
