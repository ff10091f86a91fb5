// Figure 14: large-scale simulation combining job schedulers (Yarn-CS,
// Corral) with network schedulers (TCP max-min, Varys). The paper simulates
// 2000 machines (50 racks x 40 x 20 slots, 1 Gbps NICs) running 200 W1 jobs
// arriving over 15 minutes. We keep the topology and the 200-job count and
// halve the task scale (W1Config::task_scale = 0.5) to bound wall-clock
// time; the comparison is relative.
#include <cstdio>

#include "bench_common.h"
#include "util/stats.h"

using namespace corral;

int main() {
  bench::banner(
      "Figure 14 - job scheduler x network scheduler (2000-machine sim)",
      "Yarn+Varys ~46% better median JCT than Yarn+TCP; Corral+TCP beats "
      "Yarn+Varys (~45%); Corral+Varys is best");

  ClusterConfig cluster = ClusterConfig::paper_simulation();
  Rng rng(14);
  W1Config wconfig;
  wconfig.num_jobs = 200;
  wconfig.task_scale = 0.5;
  auto jobs = make_w1(wconfig, rng);
  assign_uniform_arrivals(jobs, 15 * kMinute, rng);

  SimConfig sim;
  sim.cluster = cluster;
  sim.cluster.background_core_fraction = 0.5;
  // The paper's flow-based event simulator models reads and shuffles, not
  // HDFS replica writes; match it so the comparison is apples-to-apples.
  sim.write_output_replicas = false;
  sim.seed = 2015;

  const auto planned = bench::plan_workload(
      jobs, sim.cluster, Objective::kAverageCompletionTime);

  struct Combo {
    const char* label;
    bool corral;
    bool varys;
    std::vector<double> jct;
  };
  std::vector<Combo> combos = {{"yarn-cs + tcp", false, false, {}},
                               {"yarn-cs + varys", false, true, {}},
                               {"corral  + tcp", true, false, {}},
                               {"corral  + varys", true, true, {}}};

  for (Combo& combo : combos) {
    SimConfig config = sim;
    config.net_policy = combo.varys ? NetPolicy::kVarys : NetPolicy::kTcp;
    SimResult result;
    if (combo.corral) {
      CorralPolicy policy(&planned.lookup);
      result = run_simulation(jobs, policy, config);
    } else {
      YarnCapacityPolicy policy;
      result = run_simulation(jobs, policy, config);
    }
    combo.jct = result.completion_times();
  }

  std::printf("\n%-18s %12s %12s %12s\n", "combination", "median (s)",
              "mean (s)", "p90 (s)");
  for (const Combo& combo : combos) {
    std::printf("%-18s %12.1f %12.1f %12.1f\n", combo.label,
                percentile(combo.jct, 50), mean(combo.jct),
                percentile(combo.jct, 90));
  }

  const double yarn_tcp = percentile(combos[0].jct, 50);
  const double yarn_varys = percentile(combos[1].jct, 50);
  const double corral_tcp = percentile(combos[2].jct, 50);
  const double corral_varys = percentile(combos[3].jct, 50);
  std::printf("\nMedian JCT reductions:\n");
  std::printf("  yarn+varys  vs yarn+tcp:    %s  (paper: ~46%%)\n",
              bench::pct(reduction(yarn_tcp, yarn_varys)).c_str());
  std::printf("  corral+tcp  vs yarn+varys:  %s  (paper: ~45%%)\n",
              bench::pct(reduction(yarn_varys, corral_tcp)).c_str());
  std::printf("  corral+varys vs corral+tcp: %s  (positive: orthogonal "
              "gains)\n",
              bench::pct(reduction(corral_tcp, corral_varys)).c_str());
  return 0;
}
