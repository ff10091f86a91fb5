// Performance regression gate (registered as ctest PerfGate.Regression).
//
// Measures two wall-clock workloads that together cover the repo's hot
// paths — the offline planner's provisioning search (Fig 5 regime) and the
// control-plane loop (simulator + allocator + event queue) — and compares
// them against the pinned baseline in bench/perf_baseline.json. To factor
// out machine speed, every measurement is normalized by a fixed arithmetic
// calibration loop run on the same core: the recorded unit is
// "workload seconds per calibration second", which transfers across hosts
// of similar microarchitecture far better than raw seconds.
//
// The gate fails (exit 1) when either normalized measurement exceeds its
// baseline by more than 15%. Regenerate the baseline after an intentional
// performance change with:
//   bench_perf_gate --baseline bench/perf_baseline.json --update
//
// Sanitizer builds skip the gate (bench/CMakeLists.txt does not register
// the test there): instrumentation changes timings, not results.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "bench_common.h"
#include "ctrl/control_loop.h"
#include "ctrl/service.h"
#include "plan/backend.h"

using namespace corral;

namespace {

// Fixed mixed integer/double workload, sized to ~0.5s on a current core.
// The result is consumed so the loop cannot be optimized away.
double calibration_run() {
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  double acc = 1.0;
  for (int i = 0; i < 60'000'000; ++i) {
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    acc += static_cast<double>(x & 0xffff) * 1e-9;
    if (acc > 1e6) acc *= 1e-6;
  }
  const auto stop = std::chrono::steady_clock::now();
  if (acc == 42.0) std::printf("%f", acc);  // defeat dead-code elimination
  return std::chrono::duration<double>(stop - start).count();
}

template <typename Fn>
double min_of(int runs, Fn fn) {
  double best = 1e300;
  for (int i = 0; i < runs; ++i) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    const auto stop = std::chrono::steady_clock::now();
    best = std::min(best,
                    std::chrono::duration<double>(stop - start).count());
  }
  return best;
}

// A mid-grid Fig 5 point: 150 W3 jobs on a 40-rack x 40-machine cluster,
// planned single-threaded (the serial provisioning search is the regression
// target; pool speedup is a separate axis). One bound-and-prune plan takes
// milliseconds, so the timed region repeats it enough times to run >= 0.3 s
// and keep the 15% tolerance well clear of timer and scheduler noise.
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
  return min_of(3, [&] {
    for (int repeat = 0; repeat < 300; ++repeat) {
      (void)plan_offline(jobs, cluster, config);
    }
  });
}

// The alternative planner backends (src/plan/backend.h) on the same 150-job
// instance: dagpack's troublesome-subgraph packing and lpround's per-job LP
// bisection + rounding. Response functions are built outside the timed
// region — the backend search is the regression target, the latency model
// has its own coverage through planner_norm.
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
  config.backend = kind;
  plan::PlannerRequest request;
  request.jobs = functions;
  request.specs = jobs;
  request.num_racks = cluster.racks;
  request.config = &config;
  const plan::PlannerBackend& backend = plan::planner_backend(kind);
  // One backend search takes milliseconds or less on this instance;
  // `repeats` sizes the timed region so the 15% tolerance is well clear of
  // timer noise.
  return min_of(3, [&] {
    for (int repeat = 0; repeat < repeats; ++repeat) {
      (void)backend.plan(request);
    }
  });
}

// The ctrl-loop smoke configuration: recurring epochs of predict -> plan ->
// simulate -> measure, dominated by the simulator's event loop and the rate
// allocators.
double ctrl_workload(NetPolicy net_policy = NetPolicy::kTcp) {
  W1Config workload;
  workload.num_jobs = 20;
  workload.task_scale = 0.25;
  ControlLoopConfig config;
  config.cluster = bench::testbed();
  config.epochs = 12;
  config.warmup_days = 14;
  config.outages = {{6, 3}};
  config.net_policy = net_policy;
  config.pool = &bench::pool();
  return min_of(2, [&] {
    std::vector<RecurringPipeline> fleet = make_recurring_fleet(
        workload, config.warmup_days, config.epochs, config.seed);
    (void)run_control_loop(std::move(fleet), config);
  });
}

// The multi-tenant service: four weighted fleets arbitrated over the
// testbed, dealt across two shard lanes. Covers the cross-tenant arbiter,
// the admission queue and the per-tenant merge on top of the ctrl hot
// path.
double multitenant_workload() {
  W1Config workload;
  workload.num_jobs = 4;
  workload.task_scale = 0.2;
  ServiceConfig config;
  config.loop.cluster = bench::testbed();
  config.loop.epochs = 8;
  config.loop.warmup_days = 14;
  config.loop.outages = {{3, 3}};
  config.loop.pool = &bench::pool();
  config.shards = 2;
  const std::vector<int> priorities = {3, 1, 1, 2};
  return min_of(2, [&] {
    std::vector<ServiceTenant> fleet = make_service_fleet(
        workload, config.loop.warmup_days, config.loop.epochs,
        config.loop.seed, 4, priorities);
    (void)run_control_service(std::move(fleet), config);
  });
}

// Minimal flat-JSON number lookup: finds `"key":` and parses the number
// after it. Good enough for the baseline file this binary itself writes.
bool json_number(const std::string& text, const std::string& key,
                 double* value) {
  const auto pos = text.find("\"" + key + "\":");
  if (pos == std::string::npos) return false;
  *value = std::strtod(text.c_str() + pos + key.size() + 3, nullptr);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string baseline_path;
  bool update = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--baseline") == 0 && i + 1 < argc) {
      baseline_path = argv[++i];
    } else if (std::strcmp(argv[i], "--update") == 0) {
      update = true;
    }
  }
  bench::banner("Performance regression gate",
                "planner + ctrl-loop wall time, calibration-normalized; "
                "fails >15% over bench/perf_baseline.json");

  const double calib = std::min(calibration_run(), calibration_run());
  const double planner_s = planner_workload();
  const double dagpack_s = backend_workload(PlannerBackendKind::kDagPack, 800);
  const double lpround_s = backend_workload(PlannerBackendKind::kLpRound, 10);
  const double ctrl_s = ctrl_workload();
  // The coflow-suite allocators on the same loop: lp-order re-solves its
  // ordering LP on every coflow-set change; sincronia's BSSI is the cheap
  // path. Gated separately so an allocator slowdown cannot hide inside
  // ctrl_norm's tolerance.
  const double lporder_s = ctrl_workload(NetPolicy::kLpOrder);
  const double sincronia_s = ctrl_workload(NetPolicy::kSincronia);
  const double multitenant_s = multitenant_workload();
  const double planner_norm = planner_s / calib;
  const double dagpack_norm = dagpack_s / calib;
  const double lpround_norm = lpround_s / calib;
  const double ctrl_norm = ctrl_s / calib;
  const double lporder_norm = lporder_s / calib;
  const double sincronia_norm = sincronia_s / calib;
  const double multitenant_norm = multitenant_s / calib;

  std::printf("\n%-22s %12s %12s\n", "measurement", "wall (s)", "normalized");
  std::printf("%-22s %12.3f %12s\n", "calibration", calib, "1.000");
  std::printf("%-22s %12.3f %12.3f\n", "planner (fig05 smoke)", planner_s,
              planner_norm);
  std::printf("%-22s %12.3f %12.3f\n", "dagpack backend", dagpack_s,
              dagpack_norm);
  std::printf("%-22s %12.3f %12.3f\n", "lpround backend", lpround_s,
              lpround_norm);
  std::printf("%-22s %12.3f %12.3f\n", "ctrl loop (smoke)", ctrl_s,
              ctrl_norm);
  std::printf("%-22s %12.3f %12.3f\n", "ctrl loop (lp-order)", lporder_s,
              lporder_norm);
  std::printf("%-22s %12.3f %12.3f\n", "ctrl loop (sincronia)", sincronia_s,
              sincronia_norm);
  std::printf("%-22s %12.3f %12.3f\n", "multitenant (4x2)", multitenant_s,
              multitenant_norm);

  std::ofstream series("BENCH_perf_gate.json");
  series << "{\n  \"bench\": \"perf_gate\",\n"
         << "  \"calibration_s\": " << calib << ",\n"
         << "  \"planner_s\": " << planner_s << ",\n"
         << "  \"dagpack_s\": " << dagpack_s << ",\n"
         << "  \"lpround_s\": " << lpround_s << ",\n"
         << "  \"ctrl_s\": " << ctrl_s << ",\n"
         << "  \"lporder_s\": " << lporder_s << ",\n"
         << "  \"sincronia_s\": " << sincronia_s << ",\n"
         << "  \"multitenant_s\": " << multitenant_s << ",\n"
         << "  \"planner_norm\": " << planner_norm << ",\n"
         << "  \"dagpack_norm\": " << dagpack_norm << ",\n"
         << "  \"lpround_norm\": " << lpround_norm << ",\n"
         << "  \"ctrl_norm\": " << ctrl_norm << ",\n"
         << "  \"lporder_norm\": " << lporder_norm << ",\n"
         << "  \"sincronia_norm\": " << sincronia_norm << ",\n"
         << "  \"multitenant_norm\": " << multitenant_norm << "\n}\n";
  std::printf("\nseries written to BENCH_perf_gate.json\n");

  if (baseline_path.empty()) {
    std::printf("no --baseline given: measuring only, no gate applied\n");
    return 0;
  }
  if (update) {
    std::ofstream out(baseline_path);
    out << "{\n  \"bench\": \"perf_gate_baseline\",\n"
        << "  \"planner_norm\": " << planner_norm << ",\n"
        << "  \"dagpack_norm\": " << dagpack_norm << ",\n"
        << "  \"lpround_norm\": " << lpround_norm << ",\n"
        << "  \"ctrl_norm\": " << ctrl_norm << ",\n"
        << "  \"lporder_norm\": " << lporder_norm << ",\n"
        << "  \"sincronia_norm\": " << sincronia_norm << ",\n"
        << "  \"multitenant_norm\": " << multitenant_norm << "\n}\n";
    std::printf("baseline updated: %s\n", baseline_path.c_str());
    return 0;
  }

  std::ifstream in(baseline_path);
  if (!in) {
    std::printf("FAIL: baseline file missing: %s (regenerate with --update)\n",
                baseline_path.c_str());
    return 1;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  double base_planner = 0;
  double base_dagpack = 0;
  double base_lpround = 0;
  double base_ctrl = 0;
  double base_lporder = 0;
  double base_sincronia = 0;
  double base_multitenant = 0;
  if (!json_number(text, "planner_norm", &base_planner) ||
      !json_number(text, "dagpack_norm", &base_dagpack) ||
      !json_number(text, "lpround_norm", &base_lpround) ||
      !json_number(text, "ctrl_norm", &base_ctrl) ||
      !json_number(text, "lporder_norm", &base_lporder) ||
      !json_number(text, "sincronia_norm", &base_sincronia) ||
      !json_number(text, "multitenant_norm", &base_multitenant)) {
    std::printf("FAIL: baseline file unparsable: %s (regenerate with "
                "--update)\n",
                baseline_path.c_str());
    return 1;
  }

  constexpr double kTolerance = 1.15;
  bool ok = true;
  const auto gate = [&](const char* name, double measured, double baseline) {
    const double ratio = measured / baseline;
    const bool pass = measured <= baseline * kTolerance;
    std::printf("%-22s baseline %8.3f measured %8.3f ratio %5.2fx  %s\n",
                name, baseline, measured, ratio, pass ? "OK" : "REGRESSED");
    ok = ok && pass;
  };
  std::printf("\ngate (tolerance %.0f%%):\n", (kTolerance - 1.0) * 100);
  gate("planner_norm", planner_norm, base_planner);
  gate("dagpack_norm", dagpack_norm, base_dagpack);
  gate("lpround_norm", lpround_norm, base_lpround);
  gate("ctrl_norm", ctrl_norm, base_ctrl);
  gate("lporder_norm", lporder_norm, base_lporder);
  gate("sincronia_norm", sincronia_norm, base_sincronia);
  gate("multitenant_norm", multitenant_norm, base_multitenant);
  if (!ok) {
    std::printf("\nFAIL: performance regressed beyond tolerance. If the\n"
                "slowdown is intentional, refresh bench/perf_baseline.json\n"
                "with --update and justify it in the commit message.\n");
    return 1;
  }
  std::printf("\nPASS\n");
  return 0;
}
