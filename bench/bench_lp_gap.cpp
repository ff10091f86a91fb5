// §4.2 quality claim: the two-phase heuristic lands within ~3% of the
// LP-relaxation lower bound for makespan (batch) and ~15% for average
// completion time (online). This bench reproduces the comparison on the
// evaluation workloads; the gap is over the *planning problem* (predicted
// latencies), exactly as in the paper. The series lands in
// BENCH_lp_gap.json; --smoke shrinks the workloads for the CI ctest.
#include <cstdio>
#include <vector>

#include "bench_common.h"

using namespace corral;

namespace {

// Prints one heuristic-vs-bound row and returns it as a series entry.
bench::Json report(const char* label, const std::vector<JobSpec>& jobs,
                   const ClusterConfig& cluster, bool online) {
  const LatencyModelParams params = LatencyModelParams::from_cluster(cluster);
  const auto functions =
      build_response_functions(jobs, cluster.racks, params);

  PlannerConfig config;
  config.objective = online ? Objective::kAverageCompletionTime
                            : Objective::kMakespan;
  const Plan plan = plan_offline(functions, cluster.racks, config);
  const double heuristic =
      online ? plan.predicted_avg_completion : plan.predicted_makespan;
  const double bound =
      online ? online_avg_completion_bound(functions, cluster.racks)
             : lp_batch_makespan_bound(functions, cluster.racks);
  std::printf("  %-14s heuristic %10.1fs  bound %10.1fs  gap %6.1f%%\n",
              label, heuristic, bound, 100 * (heuristic / bound - 1));
  return {{"workload", label}, {"mode", online ? "online" : "batch"},
          {"heuristic_s", heuristic}, {"bound_s", bound},
          {"gap", heuristic / bound - 1}};
}

}  // namespace

int main(int argc, char** argv) {
  // --smoke: smaller workloads for the CI ctest (bench/CMakeLists.txt);
  // the full measure-and-write path still runs.
  const bool smoke = bench::parse_smoke_flag(argc, argv);
  bench::banner(
      "Heuristic vs LP-relaxation lower bound (Section 4.2)",
      "batch makespan within ~3% of the LP bound; online average "
      "completion within ~15%");

  const ClusterConfig cluster = bench::testbed();
  Rng rng(42);
  auto w1_jobs = bench::w1(rng, smoke ? 30 : 200);
  auto w3_jobs = bench::w3(rng, smoke ? 30 : 200);
  auto w2_jobs = bench::w2(rng);

  bench::Json rows;
  std::printf("\nBatch (makespan vs LP-Batch):\n");
  rows.push(report("W1", w1_jobs, cluster, /*online=*/false));
  rows.push(report("W2", w2_jobs, cluster, /*online=*/false));
  rows.push(report("W3", w3_jobs, cluster, /*online=*/false));

  assign_uniform_arrivals(w1_jobs, 60 * kMinute, rng);
  assign_uniform_arrivals(w2_jobs, 60 * kMinute, rng);
  assign_uniform_arrivals(w3_jobs, 60 * kMinute, rng);
  std::printf("\nOnline (average completion vs relaxation bound; ours is a\n"
              "looser relaxation than the paper's unpublished LP, so the\n"
              "printed gap upper-bounds the true gap):\n");
  rows.push(report("W1", w1_jobs, cluster, /*online=*/true));
  rows.push(report("W2", w2_jobs, cluster, /*online=*/true));
  rows.push(report("W3", w3_jobs, cluster, /*online=*/true));

  bench::write_series("lp_gap", {{"rows", rows}});
  return 0;
}
