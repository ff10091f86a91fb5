// Micro-benchmarks (google-benchmark) for the core building blocks:
// latency models, planner phases, LP bounds, rate allocators, the dataset
// placement LP and DFS placement.
#include <benchmark/benchmark.h>

#include "corral/dataset_lp.h"
#include "corral/lp_bound.h"
#include "corral/planner.h"
#include "dfs/placement.h"
#include "net/network.h"
#include "obs/trace.h"
#include "sim/simulator.h"
#include "workload/workloads.h"

namespace corral {
namespace {

LatencyModelParams params() {
  return LatencyModelParams::from_cluster(ClusterConfig::paper_testbed());
}

std::vector<JobSpec> sample_jobs(int count) {
  Rng rng(1);
  W3Config config;
  config.num_jobs = count;
  return make_w3(config, rng);
}

void BM_StageLatency(benchmark::State& state) {
  const auto jobs = sample_jobs(1);
  const LatencyModelParams p = params();
  for (auto _ : state) {
    for (int r = 1; r <= 7; ++r) {
      benchmark::DoNotOptimize(stage_latency(jobs[0].stages[0], r, p));
    }
  }
}
BENCHMARK(BM_StageLatency);

void BM_ResponseFunctionBuild(benchmark::State& state) {
  const auto jobs = sample_jobs(static_cast<int>(state.range(0)));
  const LatencyModelParams p = params();
  for (auto _ : state) {
    benchmark::DoNotOptimize(build_response_functions(jobs, 100, p));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ResponseFunctionBuild)->Arg(50)->Arg(200)->Complexity();

void BM_PrioritizationPhase(benchmark::State& state) {
  const int J = static_cast<int>(state.range(0));
  const auto jobs = sample_jobs(J);
  const LatencyModelParams p = params();
  const auto functions = build_response_functions(jobs, 20, p);
  std::vector<int> racks(static_cast<std::size_t>(J));
  Rng rng(2);
  for (int& r : racks) r = rng.uniform_int(1, 20);
  PlannerConfig config;
  for (auto _ : state) {
    benchmark::DoNotOptimize(prioritize(functions, racks, 20, config));
  }
  state.SetComplexityN(J);
}
BENCHMARK(BM_PrioritizationPhase)->Arg(100)->Arg(200)->Arg(400)->Complexity();

void BM_PlanOffline(benchmark::State& state) {
  const int J = static_cast<int>(state.range(0));
  const auto jobs = sample_jobs(J);
  const LatencyModelParams p = params();
  const auto functions = build_response_functions(jobs, 10, p);
  PlannerConfig config;
  for (auto _ : state) {
    benchmark::DoNotOptimize(plan_offline(functions, 10, config));
  }
  state.SetComplexityN(J);
}
BENCHMARK(BM_PlanOffline)->Arg(25)->Arg(50)->Arg(100)->Complexity();

void BM_LpBatchBound(benchmark::State& state) {
  const auto jobs = sample_jobs(200);
  const LatencyModelParams p = params();
  const auto functions = build_response_functions(jobs, 100, p);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lp_batch_makespan_bound(functions, 100));
  }
}
BENCHMARK(BM_LpBatchBound);

void BM_MaxMinAllocate(benchmark::State& state) {
  const ClusterConfig cluster = ClusterConfig::paper_testbed();
  Network net(cluster, std::make_unique<MaxMinFairAllocator>());
  Rng rng(3);
  const int flows = static_cast<int>(state.range(0));
  for (int f = 0; f < flows; ++f) {
    const int src = rng.uniform_int(0, cluster.total_machines() - 1);
    int dst = rng.uniform_int(0, cluster.total_machines() - 2);
    if (dst >= src) ++dst;
    net.start_flow({src, dst, 1e12, 1.0, f % 64,
                    static_cast<std::uint64_t>(f)});
  }
  for (auto _ : state) {
    // Force a fresh allocation each iteration.
    net.set_background_fraction(0.5);
    benchmark::DoNotOptimize(net.time_to_next_completion());
  }
  state.SetComplexityN(flows);
}
BENCHMARK(BM_MaxMinAllocate)->Arg(100)->Arg(1000)->Arg(5000)->Complexity();

void BM_VarysAllocate(benchmark::State& state) {
  const ClusterConfig cluster = ClusterConfig::paper_testbed();
  Network net(cluster, std::make_unique<VarysAllocator>());
  Rng rng(4);
  const int flows = static_cast<int>(state.range(0));
  for (int f = 0; f < flows; ++f) {
    const int src = rng.uniform_int(0, cluster.total_machines() - 1);
    int dst = rng.uniform_int(0, cluster.total_machines() - 2);
    if (dst >= src) ++dst;
    net.start_flow({src, dst, 1e12, 1.0, f % 64,
                    static_cast<std::uint64_t>(f)});
  }
  for (auto _ : state) {
    net.set_background_fraction(0.5);
    benchmark::DoNotOptimize(net.time_to_next_completion());
  }
}
BENCHMARK(BM_VarysAllocate)->Arg(1000);

void BM_PlanRolling(benchmark::State& state) {
  Rng rng(7);
  W3Config wconfig;
  wconfig.num_jobs = 100;
  auto jobs = make_w3(wconfig, rng);
  assign_uniform_arrivals(jobs, 3600.0, rng);
  const LatencyModelParams p = params();
  const auto functions = build_response_functions(jobs, 10, p);
  PlannerConfig config;
  config.objective = Objective::kAverageCompletionTime;
  for (auto _ : state) {
    benchmark::DoNotOptimize(plan_rolling(functions, 10, config, 600.0));
  }
}
BENCHMARK(BM_PlanRolling);

void BM_DatasetPlacementLp(benchmark::State& state) {
  Rng rng(8);
  DatasetPlacementProblem problem;
  problem.num_racks = 10;
  const int datasets = static_cast<int>(state.range(0));
  for (int d = 0; d < datasets; ++d) {
    problem.datasets.push_back({"d" + std::to_string(d),
                                rng.uniform(1, 100) * kGB});
  }
  for (int j = 0; j < 2 * datasets; ++j) {
    problem.reads.push_back({rng.uniform_int(0, datasets - 1)});
    problem.job_racks.push_back({rng.uniform_int(0, 9)});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(place_datasets(problem));
  }
}
BENCHMARK(BM_DatasetPlacementLp)->Arg(10)->Arg(25);

void BM_DfsCorralPlacement(benchmark::State& state) {
  ClusterTopology topology(ClusterConfig::paper_testbed());
  Rng rng(5);
  for (auto _ : state) {
    Dfs dfs(&topology, {});
    CorralPlacement policy({1, 3});
    dfs.write_file("f", 10 * kGB, 100, policy, rng);
  }
}
BENCHMARK(BM_DfsCorralPlacement);

void BM_EndToEndSmallSim(benchmark::State& state) {
  Rng rng(6);
  W1Config wconfig;
  wconfig.num_jobs = 10;
  wconfig.task_scale = 0.25;
  const auto jobs = make_w1(wconfig, rng);
  SimConfig sim;
  sim.cluster.racks = 7;
  sim.cluster.machines_per_rack = 6;
  sim.cluster.slots_per_machine = 8;
  sim.cluster.nic_bandwidth = 2.5 * kGbps;
  for (auto _ : state) {
    YarnCapacityPolicy policy;
    benchmark::DoNotOptimize(run_simulation(jobs, policy, sim));
  }
}
BENCHMARK(BM_EndToEndSmallSim)->Unit(benchmark::kMillisecond);

// Same simulation with a tracer attached at level off: every hook reduces
// to TraceRecorder::at()'s single comparison, so this must stay within
// noise (<=2%) of BM_EndToEndSmallSim — the "tracing off is free" contract
// of src/obs.
void BM_EndToEndSmallSimTraceOff(benchmark::State& state) {
  Rng rng(6);
  W1Config wconfig;
  wconfig.num_jobs = 10;
  wconfig.task_scale = 0.25;
  const auto jobs = make_w1(wconfig, rng);
  obs::Tracer tracer;  // default options: level off
  SimConfig sim;
  sim.cluster.racks = 7;
  sim.cluster.machines_per_rack = 6;
  sim.cluster.slots_per_machine = 8;
  sim.cluster.nic_bandwidth = 2.5 * kGbps;
  sim.tracer = &tracer;
  for (auto _ : state) {
    YarnCapacityPolicy policy;
    benchmark::DoNotOptimize(run_simulation(jobs, policy, sim));
  }
}
BENCHMARK(BM_EndToEndSmallSimTraceOff)->Unit(benchmark::kMillisecond);

// And with per-task tracing on, for an honest cost number in the docs.
void BM_EndToEndSmallSimTraceTasks(benchmark::State& state) {
  Rng rng(6);
  W1Config wconfig;
  wconfig.num_jobs = 10;
  wconfig.task_scale = 0.25;
  const auto jobs = make_w1(wconfig, rng);
  obs::TracerOptions options;
  options.level = obs::TraceLevel::kTasks;
  SimConfig sim;
  sim.cluster.racks = 7;
  sim.cluster.machines_per_rack = 6;
  sim.cluster.slots_per_machine = 8;
  sim.cluster.nic_bandwidth = 2.5 * kGbps;
  for (auto _ : state) {
    // A fresh tracer per iteration so the sink does not grow unboundedly.
    obs::Tracer tracer(options);
    sim.tracer = &tracer;
    YarnCapacityPolicy policy;
    benchmark::DoNotOptimize(run_simulation(jobs, policy, sim));
  }
}
BENCHMARK(BM_EndToEndSmallSimTraceTasks)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace corral

BENCHMARK_MAIN();
