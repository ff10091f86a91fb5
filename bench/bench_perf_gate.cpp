// Performance regression gate (registered as ctest PerfGate.Regression).
//
// Measures the seven CPU-time series of kSeries, which together cover the
// repo's hot paths — the offline planner's provisioning search (Fig 5
// regime) and its two alternative backends, and the control-plane loop
// (simulator + allocator + event queue) under three allocators and as a
// multi-tenant service — and compares them against the pinned baseline in
// bench/perf_baseline.json. To factor
// out machine speed, every measurement is normalized by a fixed arithmetic
// calibration loop run on the same core: the recorded unit is
// "workload seconds per calibration second", which transfers across hosts
// of similar microarchitecture far better than raw seconds.
//
// Every series runs on the calling thread (one-thread pools), so the
// process CPU time of a region is the time its work took. Wall time would
// also count the slices the host gives to other processes: with five busy
// processes on four cores, wall-time series read up to 1.22x their pins,
// while CPU-time series stayed within 5% of their values on a quiet host.
//
// The gate fails (exit 1) when any normalized measurement exceeds its
// baseline by more than 15%. The baseline is read and checked before any
// workload runs: every series pin must appear once as a finite number > 0.
// Regenerate the baseline after an intentional performance change with:
//   bench_perf_gate --baseline bench/perf_baseline.json --update
//
// Sanitizer builds skip the gate (bench/CMakeLists.txt does not register
// the test there): instrumentation changes timings, not results.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <iostream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_common.h"
#include "ctrl/control_loop.h"
#include "ctrl/service.h"
#include "plan/backend.h"
#include "util/check.h"
#include "util/flags.h"

using namespace corral;

namespace {

// Fixed mixed integer/double workload, sized to ~0.5s on a current core.
// The result is consumed so the loop cannot be optimized away.
double calibration_run() {
  const std::clock_t start = std::clock();
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  double acc = 1.0;
  for (int i = 0; i < 60'000'000; ++i) {
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    acc += static_cast<double>(x & 0xffff) * 1e-9;
    if (acc > 1e6) acc *= 1e-6;
  }
  const std::clock_t stop = std::clock();
  if (acc == 42.0) std::printf("%f", acc);  // defeat dead-code elimination
  return static_cast<double>(stop - start) / CLOCKS_PER_SEC;
}

// Process CPU seconds of one call of `fn`: one timed region of a series.
template <typename Fn>
double time_region(Fn fn) {
  const std::clock_t start = std::clock();
  fn();
  const std::clock_t stop = std::clock();
  return static_cast<double>(stop - start) / CLOCKS_PER_SEC;
}

// A mid-grid Fig 5 point: 150 W3 jobs on a 40-rack x 40-machine cluster,
// planned single-threaded (the serial provisioning search is the regression
// target; pool speedup is a separate axis). One bound-and-prune plan takes
// a fraction of a millisecond, so the timed region repeats it 1,000 times
// (~0.2 s) to keep the 15% tolerance well clear of timer and scheduler noise.
ClusterConfig planner_cluster() {
  ClusterConfig cluster;
  cluster.racks = 40;
  cluster.machines_per_rack = 40;
  cluster.slots_per_machine = 8;
  cluster.nic_bandwidth = 2.5 * kGbps;
  cluster.oversubscription = 5.0;
  return cluster;
}

double planner_workload() {
  const ClusterConfig cluster = planner_cluster();
  Rng rng(5);
  const auto jobs = bench::w3(rng, 150);
  exec::ThreadPool pool(1);
  PlannerConfig config;
  config.pool = &pool;
  return time_region([&] {
    for (int repeat = 0; repeat < 1000; ++repeat) {
      (void)plan_offline(jobs, cluster, config);
    }
  });
}

// The alternative planner backends (src/plan/backend.h) on the same 150-job
// instance: dagpack's troublesome-subgraph packing and lpround's closed-form
// LP-Batch solve + rounding. Response functions are built outside the timed
// region — the backend search is the regression target, the latency model
// has its own coverage through the planner series.
double backend_workload(PlannerBackendKind kind, int repeats) {
  const ClusterConfig cluster = planner_cluster();
  Rng rng(5);
  const auto jobs = bench::w3(rng, 150);
  const LatencyModelParams params = LatencyModelParams::from_cluster(cluster);
  const auto functions =
      build_response_functions(jobs, cluster.racks, params);
  exec::ThreadPool pool(1);
  PlannerConfig config;
  config.pool = &pool;
  plan::PlannerRequest request;
  request.jobs = functions;
  request.specs = jobs;
  request.num_racks = cluster.racks;
  request.config = &config;
  const plan::PlannerBackend& backend = plan::planner_backend(kind);
  // One backend search takes a fraction of a millisecond on this instance;
  // `repeats` makes one region take 0.1-0.4 s, long enough that the 15%
  // tolerance is well clear of timer noise.
  return time_region([&] {
    for (int repeat = 0; repeat < repeats; ++repeat) {
      (void)backend.plan(request);
    }
  });
}

// The ctrl-loop smoke configuration: recurring epochs of predict -> plan ->
// simulate -> measure, dominated by the simulator's event loop and the rate
// allocators. It runs on a one-thread pool, like the planner series: output
// is the same for every pool width, and a serial run measures the work
// rather than how many cores the host has free. One loop run takes 25-90 ms;
// `repeats` makes one region take 0.15-0.35 s, long enough to time within
// the 15% tolerance.
double ctrl_workload(NetPolicy net_policy, int repeats) {
  W1Config workload;
  workload.num_jobs = 20;
  workload.task_scale = 0.25;
  ControlLoopConfig config;
  config.cluster = bench::testbed();
  config.epochs = 12;
  config.warmup_days = 14;
  config.outages = {{6, 3}};
  config.net_policy = net_policy;
  exec::ThreadPool pool(1);
  config.pool = &pool;
  return time_region([&] {
    for (int repeat = 0; repeat < repeats; ++repeat) {
      std::vector<RecurringPipeline> fleet = make_recurring_fleet(
          workload, config.warmup_days, config.epochs, config.seed);
      (void)run_control_loop(std::move(fleet), config);
    }
  });
}

// The multi-tenant service: four weighted fleets arbitrated over the
// testbed, dealt across two shard lanes. Covers the cross-tenant arbiter,
// the admission queue and the per-tenant merge on top of the ctrl hot
// path. Serial and repeated for the same reasons as the ctrl series.
double multitenant_workload() {
  W1Config workload;
  workload.num_jobs = 4;
  workload.task_scale = 0.2;
  exec::ThreadPool pool(1);
  ServiceConfig config;
  config.loop.cluster = bench::testbed();
  config.loop.epochs = 8;
  config.loop.warmup_days = 14;
  config.loop.outages = {{3, 3}};
  config.loop.pool = &pool;
  config.shards = 2;
  const std::vector<int> priorities = {3, 1, 1, 2};
  return time_region([&] {
    for (int repeat = 0; repeat < 12; ++repeat) {
      std::vector<ServiceTenant> fleet = make_service_fleet(
          workload, config.loop.warmup_days, config.loop.epochs,
          config.loop.seed, 4, priorities);
      (void)run_control_service(std::move(fleet), config);
    }
  });
}

// The gated series, in run order: `key` names `<key>_s` and `<key>_norm` in
// BENCH_perf_gate.json and `<key>_norm` in the baseline. `workload` builds
// its inputs, then times and returns one region.
struct Series {
  const char* key;
  const char* label;
  double (*workload)();
};

// Each series keeps its fastest region over kRounds rounds. A round times
// the calibration loop and then one region of every series, so the regions
// of one series lie seconds apart: a burst of load from other processes on
// the host slows one region of many series, not every region of one.
constexpr int kRounds = 5;

const Series kSeries[] = {
    {"planner", "planner (fig05 smoke)", planner_workload},
    {"dagpack", "dagpack backend",
     [] { return backend_workload(PlannerBackendKind::kDagPack, 800); }},
    {"lpround", "lpround backend",
     [] { return backend_workload(PlannerBackendKind::kLpRound, 800); }},
    {"ctrl", "ctrl loop (smoke)",
     [] { return ctrl_workload(NetPolicy::kTcp, 6); }},
    // The coflow-suite allocators on the same loop: lp-order re-solves its
    // ordering LP on every coflow-set change; sincronia's BSSI is the cheap
    // path. Gated separately so an allocator slowdown cannot hide inside
    // the ctrl series' tolerance.
    {"lporder", "ctrl loop (lp-order)",
     [] { return ctrl_workload(NetPolicy::kLpOrder, 2); }},
    {"sincronia", "ctrl loop (sincronia)",
     [] { return ctrl_workload(NetPolicy::kSincronia, 4); }},
    {"multitenant", "multitenant (4x2)", multitenant_workload},
};

std::string norm_key(const Series& series) {
  return std::string(series.key) + "_norm";
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags("Performance regression gate: calibration-normalized "
                   "CPU time of the planner and ctrl-loop series.");
  flags.add_string("baseline", "", "baseline JSON to gate against");
  flags.add_bool("update", false,
                 "rewrite --baseline from this run instead of gating");
  if (!flags.parse(argc, argv, std::cerr)) return 1;
  const std::string baseline_path = flags.get_string("baseline");
  const bool update = flags.get_bool("update");
  if ((update || flags.provided("baseline")) && baseline_path.empty()) {
    std::fprintf(stderr, "error: --baseline needs a path\n");
    return 1;
  }
  std::vector<double> pins;  // one per kSeries entry
  if (!baseline_path.empty() && !update) {
    try {
      const auto numbers = bench::read_flat_json(baseline_path);
      for (const Series& series : kSeries) {
        const auto pin = numbers.find(norm_key(series));
        require(pin != numbers.end() && std::isfinite(pin->second) &&
                    pin->second > 0,
                baseline_path + ": " + norm_key(series) +
                    " must be a finite number > 0");
        pins.push_back(pin->second);
      }
    } catch (const std::invalid_argument& e) {
      std::printf("FAIL: baseline %s (regenerate with --update)\n", e.what());
      return 1;
    }
  }
  bench::banner("Performance regression gate",
                "planner + ctrl-loop CPU time, calibration-normalized; "
                "fails >15% over bench/perf_baseline.json");

  double calib = 1e300;
  std::vector<double> seconds(std::size(kSeries), 1e300);
  for (int round = 0; round < kRounds; ++round) {
    calib = std::min(calib, calibration_run());
    for (std::size_t i = 0; i < seconds.size(); ++i) {
      seconds[i] = std::min(seconds[i], kSeries[i].workload());
    }
  }

  std::printf("\n%-22s %12s %12s\n", "measurement", "cpu (s)", "normalized");
  std::printf("%-22s %12.3f %12s\n", "calibration", calib, "1.000");
  bench::Json measured = {{"calibration_s", calib}};
  bench::Json norms = {{"bench", "perf_gate_baseline"}};
  for (std::size_t i = 0; i < seconds.size(); ++i) {
    const double norm = seconds[i] / calib;
    std::printf("%-22s %12.3f %12.3f\n", kSeries[i].label, seconds[i], norm);
    measured.set(std::string(kSeries[i].key) + "_s", seconds[i])
        .set(norm_key(kSeries[i]), norm);
    norms.set(norm_key(kSeries[i]), norm);
  }
  bench::write_series("perf_gate", measured);

  if (baseline_path.empty()) {
    std::printf("no --baseline given: measuring only, no gate applied\n");
    return 0;
  }
  if (update) {
    bench::write_json(baseline_path, norms);
    std::printf("baseline updated: %s\n", baseline_path.c_str());
    return 0;
  }

  constexpr double kTolerance = 1.15;
  bool ok = true;
  std::printf("\ngate (tolerance %.0f%%):\n", (kTolerance - 1.0) * 100);
  for (std::size_t i = 0; i < pins.size(); ++i) {
    const double norm = seconds[i] / calib;
    const bool pass = norm <= pins[i] * kTolerance;
    std::printf("%-22s baseline %8.3f measured %8.3f ratio %5.2fx  %s\n",
                norm_key(kSeries[i]).c_str(), pins[i], norm, norm / pins[i],
                pass ? "OK" : "REGRESSED");
    ok = ok && pass;
  }
  if (!ok) {
    std::printf("\nFAIL: performance regressed beyond tolerance. If the\n"
                "slowdown is intentional, refresh bench/perf_baseline.json\n"
                "with --update and justify it in the commit message.\n");
    return 1;
  }
  std::printf("\nPASS\n");
  return 0;
}
