// The exec:: determinism contract, checked end to end: the planner, the
// what-if layer, and the simulation batch runner must produce *byte
// identical* results (exact ==, never EXPECT_NEAR) at pool widths 1, 2 and
// 8. Width 1 is the serial reference — a one-thread pool spawns no threads
// and runs every region inline on the caller.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "corral/latency_model.h"
#include "corral/planner.h"
#include "corral/whatif.h"
#include "exec/exec.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/batch.h"
#include "sim/result_io.h"
#include "sim/simulator.h"
#include "util/hash.h"
#include "workload/workloads.h"

namespace corral {
namespace {

constexpr int kWidths[] = {1, 2, 8};

ClusterConfig mid_cluster(int racks = 6) {
  ClusterConfig config;
  config.racks = racks;
  config.machines_per_rack = 20;
  config.slots_per_machine = 8;
  config.nic_bandwidth = 2.5 * kGbps;
  config.oversubscription = 5.0;
  return config;
}

std::vector<JobSpec> w3_jobs(int count, std::uint64_t seed) {
  Rng rng(seed);
  W3Config config;
  config.num_jobs = count;
  return make_w3(config, rng);
}

void expect_identical_plans(const Plan& a, const Plan& b, int width) {
  EXPECT_EQ(a.predicted_makespan, b.predicted_makespan) << "width " << width;
  EXPECT_EQ(a.predicted_avg_completion, b.predicted_avg_completion)
      << "width " << width;
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t j = 0; j < a.jobs.size(); ++j) {
    EXPECT_EQ(a.jobs[j].job_index, b.jobs[j].job_index);
    EXPECT_EQ(a.jobs[j].num_racks, b.jobs[j].num_racks);
    EXPECT_EQ(a.jobs[j].racks, b.jobs[j].racks);
    EXPECT_EQ(a.jobs[j].start_time, b.jobs[j].start_time) << "job " << j;
    EXPECT_EQ(a.jobs[j].predicted_latency, b.jobs[j].predicted_latency)
        << "job " << j << " width " << width;
    EXPECT_EQ(a.jobs[j].priority, b.jobs[j].priority);
  }
}

TEST(Determinism, PlanOfflineIsByteIdenticalAcrossWidths) {
  const ClusterConfig cluster = mid_cluster();
  const auto jobs = w3_jobs(40, 7);
  for (Objective objective :
       {Objective::kMakespan, Objective::kAverageCompletionTime}) {
    PlannerConfig config;
    config.objective = objective;
    exec::ThreadPool serial(1);
    config.pool = &serial;
    const Plan reference = plan_offline(jobs, cluster, config);
    for (int width : kWidths) {
      exec::ThreadPool pool(width);
      config.pool = &pool;
      expect_identical_plans(reference, plan_offline(jobs, cluster, config),
                             width);
    }
  }
}

TEST(Determinism, PlanRollingIsByteIdenticalAcrossWidths) {
  const ClusterConfig cluster = mid_cluster();
  auto jobs = w3_jobs(30, 9);
  Rng rng(10);
  assign_uniform_arrivals(jobs, 30 * kMinute, rng);
  const LatencyModelParams params = LatencyModelParams::from_cluster(cluster);
  const auto functions = build_response_functions(jobs, cluster.racks, params);

  PlannerConfig config;
  config.objective = Objective::kAverageCompletionTime;
  exec::ThreadPool serial(1);
  config.pool = &serial;
  const Plan reference =
      plan_rolling(functions, cluster.racks, config, 10 * kMinute);
  for (int width : kWidths) {
    exec::ThreadPool pool(width);
    config.pool = &pool;
    expect_identical_plans(
        reference, plan_rolling(functions, cluster.racks, config, 10 * kMinute),
        width);
  }
}

TEST(Determinism, PlanCapacityIsByteIdenticalAcrossWidths) {
  const auto jobs = w3_jobs(30, 11);
  const ClusterConfig shape = mid_cluster(1);
  // A deadline some rack count in [1, 12] can meet but rack 1 misses.
  exec::ThreadPool serial(1);
  const Seconds deadline =
      assess_deadline(jobs, shape, 1.0, &serial).planned_makespan / 2.5;

  const CapacityPlan reference =
      plan_capacity(jobs, shape, deadline, 12, &serial);
  for (int width : kWidths) {
    exec::ThreadPool pool(width);
    const CapacityPlan plan = plan_capacity(jobs, shape, deadline, 12, &pool);
    EXPECT_EQ(plan.racks_needed, reference.racks_needed) << "width " << width;
    EXPECT_EQ(plan.certified_floor, reference.certified_floor);
    ASSERT_EQ(plan.sweep.size(), reference.sweep.size());
    for (std::size_t i = 0; i < plan.sweep.size(); ++i) {
      EXPECT_EQ(plan.sweep[i].racks, reference.sweep[i].racks);
      EXPECT_EQ(plan.sweep[i].verdict, reference.sweep[i].verdict);
      EXPECT_EQ(plan.sweep[i].planned_makespan,
                reference.sweep[i].planned_makespan)
          << "racks " << plan.sweep[i].racks << " width " << width;
      EXPECT_EQ(plan.sweep[i].lower_bound, reference.sweep[i].lower_bound)
          << "racks " << plan.sweep[i].racks << " width " << width;
    }
  }
}

TEST(Determinism, BatchRunnerIsByteIdenticalAcrossWidths) {
  SimConfig sim;
  sim.cluster = mid_cluster(4);
  sim.cluster.machines_per_rack = 8;
  sim.cluster.slots_per_machine = 4;
  sim.write_output_replicas = true;
  sim.seed = 2015;

  Rng rng(12);
  W1Config wconfig;
  wconfig.num_jobs = 10;
  wconfig.task_scale = 0.25;
  const auto jobs = make_w1(wconfig, rng);

  PlannerConfig planner_config;
  const Plan plan = plan_offline(jobs, sim.cluster, planner_config);
  const PlanLookup lookup(jobs, plan);
  const PlanLookup* lookup_ptr = &lookup;

  std::vector<BatchCase> cases(3);
  for (auto& batch_case : cases) {
    batch_case.jobs = jobs;
    batch_case.config = sim;
  }
  cases[0].make_policy = []() -> std::unique_ptr<SchedulingPolicy> {
    return std::make_unique<YarnCapacityPolicy>();
  };
  cases[1].make_policy = [lookup_ptr]() -> std::unique_ptr<SchedulingPolicy> {
    return std::make_unique<CorralPolicy>(lookup_ptr);
  };
  cases[2].make_policy = [lookup_ptr]() -> std::unique_ptr<SchedulingPolicy> {
    return std::make_unique<LocalShufflePolicy>(lookup_ptr);
  };

  exec::ThreadPool serial(1);
  const auto reference = BatchRunner(&serial).run(cases);
  ASSERT_EQ(reference.size(), cases.size());
  for (int width : kWidths) {
    exec::ThreadPool pool(width);
    const auto batch = BatchRunner(&pool).run(cases);
    ASSERT_EQ(batch.size(), reference.size());
    for (std::size_t c = 0; c < batch.size(); ++c) {
      EXPECT_EQ(batch[c].result.policy_name, reference[c].result.policy_name);
      EXPECT_EQ(batch[c].result.makespan, reference[c].result.makespan)
          << "case " << c << " width " << width;
      EXPECT_EQ(batch[c].result.total_cross_rack_bytes,
                reference[c].result.total_cross_rack_bytes)
          << "case " << c << " width " << width;
      const auto jct = batch[c].result.completion_times();
      const auto jct_ref = reference[c].result.completion_times();
      ASSERT_EQ(jct.size(), jct_ref.size());
      for (std::size_t j = 0; j < jct.size(); ++j) {
        EXPECT_EQ(jct[j], jct_ref[j])
            << "case " << c << " job " << j << " width " << width;
      }
    }
  }
}

// --- pinned simulator outputs ---------------------------------------------
//
// FNV-1a digests of three artifacts of one simulation — the results CSV,
// the metrics JSON and the Chrome trace at kFlows — for small configs that
// each drive one branch of the task-attempt lifecycle: speculation, a crash
// that kills backups, crash recovery with replica writes, DAG fan-in under
// Corral, and job failure; and for the two other plan-following policies
// around a plan repair. A refactor of the simulator or of the policies must
// leave every digest unchanged; each config also checks that its branch
// really fired.

struct SimArtifacts {
  SimResult result;
  std::vector<obs::TraceEvent> events;
  std::string csv;
  std::string metrics;
  std::string trace;
};

SimArtifacts run_traced(const std::vector<JobSpec>& jobs,
                        SchedulingPolicy& policy, SimConfig config) {
  obs::TracerOptions options;
  options.level = obs::TraceLevel::kFlows;
  obs::Tracer tracer(options);
  obs::MetricsRegistry metrics;
  config.tracer = &tracer;
  config.metrics = &metrics;
  SimArtifacts out;
  out.result = run_simulation(jobs, policy, config);
  EXPECT_EQ(tracer.total_dropped(), 0u);
  for (const obs::TraceSink* sink : tracer.sinks()) {
    for (obs::TraceEvent& event : sink->events()) {
      out.events.push_back(std::move(event));
    }
  }
  std::ostringstream csv;
  write_results_csv(csv, out.result);
  out.csv = csv.str();
  std::ostringstream metrics_json;
  obs::write_metrics_json(metrics_json, metrics);
  out.metrics = metrics_json.str();
  out.trace = obs::chrome_trace_string(tracer);
  return out;
}

void expect_digests(const SimArtifacts& run, const std::string& csv,
                    const std::string& metrics, const std::string& trace) {
  EXPECT_EQ(hex16(fnv1a(run.csv)), csv);
  EXPECT_EQ(hex16(fnv1a(run.metrics)), metrics);
  EXPECT_EQ(hex16(fnv1a(run.trace)), trace);
}

double trace_arg(const obs::TraceEvent& event, const std::string& key) {
  for (const obs::TraceArg& arg : event.args) {
    if (arg.key == key) return arg.num;
  }
  return -1;
}

std::string trace_str(const obs::TraceEvent& event, const std::string& key) {
  for (const obs::TraceArg& arg : event.args) {
    if (arg.key == key) return arg.str;
  }
  return {};
}

using TaskKey = std::tuple<int, int, int>;  // job id, stage, task

TaskKey task_key(const obs::TraceEvent& event) {
  return {static_cast<int>(trace_arg(event, "job")),
          static_cast<int>(trace_arg(event, "stage")),
          static_cast<int>(trace_arg(event, "task"))};
}

// Two attempts of one task can only be told apart in the trace by their
// straggler instants: a straggling attempt on another machine than the
// task's winning span is the losing copy of a speculated task. It is the
// primary (so the backup won) when it started before the winner, and the
// backup (so the primary won) when it started after. Valid only for runs
// without machine faults, where a task has at most two attempts.
struct SpeculationEvidence {
  int map_backups = 0;
  int reduce_backups = 0;
  int backup_wins = 0;
  int primary_wins = 0;
};

SpeculationEvidence speculation_evidence(
    const std::vector<obs::TraceEvent>& events) {
  std::map<TaskKey, const obs::TraceEvent*> map_spans;
  std::map<TaskKey, const obs::TraceEvent*> reduce_spans;
  std::map<std::pair<int, int>, double> maps_done;  // (job, stage) -> time
  for (const obs::TraceEvent& event : events) {
    if (event.phase != obs::TracePhase::kSpan) continue;
    const TaskKey key = task_key(event);
    if (event.name == "map") {
      map_spans[key] = &event;
      double& done = maps_done[{std::get<0>(key), std::get<1>(key)}];
      done = std::max(done, event.ts + event.dur);
    } else if (event.name == "reduce") {
      reduce_spans[key] = &event;
    }
  }
  SpeculationEvidence evidence;
  for (const obs::TraceEvent& event : events) {
    if (event.name != "straggler") continue;
    const TaskKey key = task_key(event);
    // Map attempts all launch before the stage's last map completes;
    // reduce attempts launch at or after it.
    const bool is_map =
        event.ts < maps_done[{std::get<0>(key), std::get<1>(key)}];
    const auto& spans = is_map ? map_spans : reduce_spans;
    const auto it = spans.find(key);
    if (it == spans.end() || it->second->tid == event.tid) continue;
    ++(is_map ? evidence.map_backups : evidence.reduce_backups);
    ++(it->second->ts > event.ts ? evidence.backup_wins
                                 : evidence.primary_wins);
  }
  return evidence;
}

ClusterConfig digest_cluster() {
  ClusterConfig config;
  config.racks = 4;
  config.machines_per_rack = 4;
  config.slots_per_machine = 2;  // 32 slots
  config.nic_bandwidth = 1 * kGbps;
  config.oversubscription = 4.0;
  return config;
}

MapReduceSpec digest_stage(int maps, int reduces) {
  MapReduceSpec stage;
  stage.input_bytes = maps * 500 * kMB;  // 20 s per healthy map
  stage.shuffle_bytes = maps * 200 * kMB;
  stage.output_bytes = reduces * 250 * kMB;
  stage.num_maps = maps;
  stage.num_reduces = reduces;
  stage.map_rate = 25 * kMB;
  stage.reduce_rate = 25 * kMB;
  return stage;
}

TEST(SimDigest, SpeculationBothPhases) {
  std::vector<JobSpec> jobs;
  for (int i = 0; i < 3; ++i) {
    jobs.push_back(JobSpec::map_reduce(i, "spec" + std::to_string(i),
                                       digest_stage(40, 24), 15.0 * i));
  }
  SimConfig config;
  config.cluster = digest_cluster();
  config.seed = 7;
  config.faults.straggler_frac = 0.3;
  config.faults.straggler_slowdown = 6.0;
  config.enable_speculation = true;
  config.speculation_cap = 1.0;
  YarnCapacityPolicy policy;
  const SimArtifacts run = run_traced(jobs, policy, config);

  EXPECT_EQ(run.result.jobs_failed, 0);
  EXPECT_GT(run.result.speculative_launched, 0);
  const SpeculationEvidence evidence = speculation_evidence(run.events);
  EXPECT_GT(evidence.map_backups, 0);
  EXPECT_GT(evidence.reduce_backups, 0);
  EXPECT_GT(evidence.backup_wins, 0);
  EXPECT_GT(evidence.primary_wins, 0);
  expect_digests(run, "cdd094ce958c1bce", "7d195f2268eb3db8",
                 "00ff3e5f644ce5f9");
}

// Backups a crash killed, as the trace shows them: a straggling attempt
// launched on the crashed machine before the crash, of a task whose winning
// span started earlier on another machine and ended after the crash. That
// attempt was the task's backup (a primary launches before its backup), and
// it was still running when its host died. Valid for a run whose only fault
// is that crash.
int backups_killed_by_crash(const std::vector<obs::TraceEvent>& events,
                            Seconds crash, int machine) {
  std::multimap<TaskKey, const obs::TraceEvent*> spans;  // maps and reduces
  for (const obs::TraceEvent& event : events) {
    if (event.phase == obs::TracePhase::kSpan &&
        (event.name == "map" || event.name == "reduce")) {
      spans.emplace(task_key(event), &event);
    }
  }
  int killed = 0;
  for (const obs::TraceEvent& event : events) {
    if (event.name != "straggler" || event.tid != machine ||
        event.ts >= crash) {
      continue;
    }
    const auto [first, last] = spans.equal_range(task_key(event));
    killed += std::any_of(first, last, [&](const auto& entry) {
      const obs::TraceEvent& span = *entry.second;
      return span.tid != machine && span.ts < event.ts &&
             span.ts + span.dur > crash;
    });
  }
  return killed;
}

TEST(SimDigest, CrashKillsBackups) {
  // Three slots per machine and jobs 40 s apart leave machine 7 hosting
  // two reduce backups of job 0 and a map backup of job 2 when it crashes.
  std::vector<JobSpec> jobs;
  for (int i = 0; i < 3; ++i) {
    jobs.push_back(JobSpec::map_reduce(i, "spec" + std::to_string(i),
                                       digest_stage(40, 24), 40.0 * i));
  }
  SimConfig config;
  config.cluster = digest_cluster();
  config.cluster.slots_per_machine = 3;
  config.seed = 7;
  config.faults.straggler_frac = 0.3;
  config.faults.straggler_slowdown = 6.0;
  config.enable_speculation = true;
  config.speculation_cap = 1.0;
  constexpr Seconds kCrash = 190;
  constexpr int kMachine = 7;
  config.faults.events.push_back({kCrash, FaultType::kCrash, kMachine});
  config.faults.events.push_back({kCrash + 60, FaultType::kRecover, kMachine});
  YarnCapacityPolicy policy;
  const SimArtifacts run = run_traced(jobs, policy, config);

  EXPECT_EQ(run.result.jobs_failed, 0);
  EXPECT_GT(run.result.tasks_killed, 0);
  EXPECT_GE(backups_killed_by_crash(run.events, kCrash, kMachine), 1);
  expect_digests(run, "f5acdfe5c93fa3cd", "149f13ae34c8ab45",
                 "fb98c015d15e8d54");
}

TEST(SimDigest, CrashDuringReduceWaveWithWrites) {
  // Three crashes, each healed a minute later: the first two kill replica
  // write targets of the small job's reduces, the third lands on map
  // output of the large job after its first reduce wave finished.
  const std::vector<JobSpec> jobs = {
      JobSpec::map_reduce(0, "small", digest_stage(8, 48)),
      JobSpec::map_reduce(1, "large", digest_stage(24, 48), 10.0)};
  SimConfig config;
  config.cluster = digest_cluster();
  config.seed = 11;
  config.write_output_replicas = true;
  const std::pair<Seconds, int> crashes[] = {{50, 7}, {80, 1}, {135, 5}};
  for (const auto& [time, machine] : crashes) {
    config.faults.events.push_back({time, FaultType::kCrash, machine});
    config.faults.events.push_back({time + 60, FaultType::kRecover, machine});
  }
  YarnCapacityPolicy policy;
  const SimArtifacts run = run_traced(jobs, policy, config);

  EXPECT_EQ(run.result.jobs_failed, 0);
  EXPECT_EQ(run.result.speculative_launched, 0);
  EXPECT_GT(run.result.tasks_killed, 0);
  EXPECT_GT(run.result.maps_rerun, 0);
  EXPECT_GT(run.result.bytes_rereplicated, 0);
  // A demotion back to the map phase: some map starts after a reduce of
  // the same stage started.
  std::map<std::pair<int, int>, double> first_reduce;
  for (const obs::TraceEvent& event : run.events) {
    if (event.name != "reduce") continue;
    const auto [job, stage, task] = task_key(event);
    const auto [it, fresh] = first_reduce.emplace(std::pair{job, stage},
                                                  event.ts);
    if (!fresh) it->second = std::min(it->second, event.ts);
  }
  int demoted_maps = 0;
  for (const obs::TraceEvent& event : run.events) {
    if (event.name != "map") continue;
    const auto [job, stage, task] = task_key(event);
    const auto it = first_reduce.find({job, stage});
    if (it != first_reduce.end() && event.ts > it->second) ++demoted_maps;
  }
  EXPECT_GT(demoted_maps, 0);
  // A replica write whose target died is re-issued at the same instant.
  int reissued_writes = 0;
  for (const obs::TraceEvent& cancel : run.events) {
    if (cancel.name != "flow-cancelled" ||
        trace_str(cancel, "kind") != "write-replica") {
      continue;
    }
    for (const obs::TraceEvent& event : run.events) {
      if (event.name == "write-replica" && event.ts == cancel.ts) {
        ++reissued_writes;
        break;
      }
    }
  }
  EXPECT_GT(reissued_writes, 0);
  expect_digests(run, "0469700278850352", "9888707ccc51ffc7",
                 "7d2cb68eabc0f0e2");
}

TEST(SimDigest, DagFanInUnderCorral) {
  // Two source stages join into a third, which feeds a fourth: stages 2
  // and 3 fetch their input from every rack holding parent output.
  std::vector<JobSpec> jobs;
  for (int i = 0; i < 3; ++i) {
    JobSpec job;
    job.id = i;
    job.name = "dag" + std::to_string(i);
    job.arrival = 20.0 * i;
    job.stages = {digest_stage(16, 8), digest_stage(12, 6),
                  digest_stage(10, 6), digest_stage(6, 4)};
    job.edges = {{0, 2}, {1, 2}, {2, 3}};
    jobs.push_back(std::move(job));
  }
  SimConfig config;
  config.cluster = digest_cluster();
  config.seed = 13;
  const Plan plan = plan_offline(jobs, config.cluster, PlannerConfig{});
  const PlanLookup lookup(jobs, plan);
  CorralPolicy policy(&lookup);
  const SimArtifacts run = run_traced(jobs, policy, config);

  EXPECT_EQ(run.result.jobs_failed, 0);
  int fanin_fetches = 0;
  for (const obs::TraceEvent& event : run.events) {
    if (event.name == "map-fetch" && trace_arg(event, "stage") >= 2) {
      ++fanin_fetches;
    }
  }
  EXPECT_GT(fanin_fetches, 0);
  expect_digests(run, "fae58bfa1d5f2f2e", "ebcbe81f1d0a5ac0",
                 "18e547c8b4955a17");
}

TEST(SimDigest, PlanFollowingPoliciesWithRepair) {
  // Four recurring jobs and one ad hoc job, 40 s apart. Three of rack 1's
  // four machines crash at 30 s and come back ten minutes later, so the
  // rack degrades once while three recurring jobs have not arrived yet.
  // LocalShufflePolicy follows the plan's racks and priorities over random
  // input placement; CorralRepairPolicy replans the pending jobs onto the
  // healthy racks and follows the repaired plan.
  std::vector<JobSpec> jobs;
  for (int i = 0; i < 5; ++i) {
    jobs.push_back(JobSpec::map_reduce(i, "plan" + std::to_string(i),
                                       digest_stage(16, 8), 40.0 * i));
  }
  jobs[2].recurring = false;
  std::vector<JobSpec> recurring;
  for (const JobSpec& job : jobs) {
    if (job.recurring) recurring.push_back(job);
  }
  SimConfig config;
  config.cluster = digest_cluster();
  config.seed = 19;
  for (int machine : {4, 5, 6}) {
    config.faults.events.push_back({30.0, FaultType::kCrash, machine});
    config.faults.events.push_back({630.0, FaultType::kRecover, machine});
  }

  const Plan plan = plan_offline(recurring, config.cluster, PlannerConfig{});
  const PlanLookup lookup(recurring, plan);
  LocalShufflePolicy local(&lookup);
  const SimArtifacts local_run = run_traced(jobs, local, config);
  EXPECT_EQ(local_run.result.jobs_failed, 0);
  expect_digests(local_run, "bd1bfff07c8dbed8", "3e1f9d576074eee7",
                 "b10159889a7970fc");

  CorralRepairPolicy repair(recurring, config.cluster, PlannerConfig{});
  const SimArtifacts repair_run = run_traced(jobs, repair, config);
  EXPECT_EQ(repair.repairs(), 1);
  EXPECT_EQ(repair_run.result.jobs_failed, 0);
  // The repair moved the pending jobs off the original plan.
  CorralPolicy unrepaired(&lookup);
  EXPECT_NE(run_traced(jobs, unrepaired, config).csv, repair_run.csv);
  expect_digests(repair_run, "2e088fe3843c5114", "1e40dc556ed6ff7c",
                 "d6bd419b47f6f0d0");
}

TEST(SimDigest, JobFailsWithLiveAttempts) {
  // Single-replica input and a crash mid-stage: a lost chunk's map can
  // never rerun, so its job fails while its other maps (and their
  // speculative backups) are still running; the second job survives.
  std::vector<JobSpec> jobs = {
      JobSpec::map_reduce(0, "doomed", digest_stage(48, 16)),
      JobSpec::map_reduce(1, "survivor", digest_stage(16, 8), 5.0)};
  SimConfig config;
  config.cluster = digest_cluster();
  config.seed = 17;
  config.dfs.replicas = 1;
  config.faults.straggler_frac = 0.3;
  config.faults.straggler_slowdown = 6.0;
  config.enable_speculation = true;
  config.speculation_cap = 1.0;
  config.faults.events.push_back({45.0, FaultType::kCrash, 3});
  YarnCapacityPolicy policy;
  const SimArtifacts run = run_traced(jobs, policy, config);

  EXPECT_EQ(run.result.jobs_failed, 1);
  EXPECT_TRUE(run.result.jobs[0].failed);
  EXPECT_GT(run.result.jobs[0].speculative_launched, 0);
  EXPECT_GT(run.result.chunks_lost, 0);
  int failed_instants = 0;
  for (const obs::TraceEvent& event : run.events) {
    if (event.name == "job-failed") ++failed_instants;
  }
  EXPECT_EQ(failed_instants, 1);
  expect_digests(run, "bf0ff0f535149b0a", "69fe9b04b7c26d76",
                 "c5ae406320f3f887");
}


// FNV-1a over the IEEE-754 bit image of `value`, continuing from `state`.
std::uint64_t hash_double(double value, std::uint64_t state) {
  return fnv1a(std::string_view(reinterpret_cast<const char*>(&value),
                                sizeof value),
               state);
}

TEST(SimDigest, CoflowPoliciesWithReadsAndFailure) {
  // A W1 batch on the 210-machine testbed under the coflow policies, with
  // off-rack replica writes and one machine crash mid-run: remote reads
  // and replica writes are singleton flows, shuffles of overlapping jobs
  // are interleaved coflows, and the crash cancels flows of both kinds.
  // Pins every job's finish time, the cross-rack bytes and each rack's
  // uplink utilization, bit for bit.
  Rng rng(29);
  W1Config w1;
  w1.num_jobs = 40;
  w1.task_scale = 0.5;
  std::vector<JobSpec> jobs = make_w1(w1, rng);
  assign_uniform_arrivals(jobs, 120, rng);
  SimConfig config;
  config.cluster = ClusterConfig::paper_testbed();
  config.seed = 31;
  config.write_output_replicas = true;
  config.faults.events.push_back({150.0, FaultType::kCrash, 17});
  const std::pair<NetPolicy, const char*> pins[] = {
      {NetPolicy::kVarys, "9ea35752eaf0f6ff"},
      {NetPolicy::kLpOrder, "96034faeeb1cbdde"},
      {NetPolicy::kSincronia, "78616497c262715f"}};
  for (const auto& [net_policy, pin] : pins) {
    SCOPED_TRACE(std::string(to_string(net_policy)));
    config.net_policy = net_policy;
    YarnCapacityPolicy policy;
    const SimResult result = run_simulation(jobs, policy, config);
    EXPECT_EQ(result.jobs_failed, 0);
    EXPECT_GT(result.tasks_killed, 0);
    EXPECT_GT(result.maps_rerun, 0);
    std::uint64_t digest = kFnvOffsetBasis;
    for (const JobResult& job : result.jobs) {
      digest = hash_double(job.finish, digest);
    }
    digest = hash_double(result.total_cross_rack_bytes, digest);
    for (double utilization : result.rack_uplink_utilization) {
      digest = hash_double(utilization, digest);
    }
    EXPECT_EQ(hex16(digest), pin);
  }
}

}  // namespace
}  // namespace corral
