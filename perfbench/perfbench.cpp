// Repository benchmark program (perfbench/run.py builds and runs it).
//
//   corral_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Each workload replays one fixed trace: its job shapes come from a pinned
// generator seed, as the paper's traces are fixed. --seed draws a few daily
// instances of that trace (data sizes within +-20%, data and task
// placement), so every seed does about the same amount of work. Set-up
// builds those inputs through the library's own generators. One warm-up
// operation follows, then the same operation repeats for --seconds of wall
// time. An operation is a unit a user waits for, run as one part per day
// (and per policy where the workload compares several):
//
//   planner  plan three W3 batches for a 50-rack x 40-machine cluster
//            (Fig 5): latency model + the provisioning search.
//   testbed  run a week of W1 batches on the 210-machine testbed under
//            Yarn-CS and under Corral (Figs 6/7); Corral's offline plans are
//            set-up.
//   fabric   drain four days of W1 shuffle coflows through the 2000-machine
//            fluid network (Fig 14) under the tcp, varys and sincronia rate
//            allocators.
//   ctrl     three runs of the multi-tenant control service: four tenants'
//            recurring fleets, one per rate allocator, through eight epochs.
//
// Every part checks its outputs: invariants that hold for any input, plus a
// digest that must repeat exactly, because the library is deterministic.
// Everything runs on one thread.
//
// The reported operation time is the sum over parts of each part's fastest
// repeat. On a shared host, neighbours' load slows whole stretches of a run
// (by up to 1.7x on a 4-core cloud VM), which moves a run's median far more
// than a code change does; the fastest repeats stay within a few percent.
//
// With --trace 1 the same operations run with spans around every call this
// program makes into a layer. Spans nest, and each layer is charged its self
// time: span duration minus the spans inside it. "bench" is this program's own
// share (input copies, output checks). Work counts come from the library's
// results. Per-layer figures are summed over the fastest traced repeat of
// each part and reported as shares of that traced operation time, which is
// reported too; the shares add up to 100%.
//
// The last stdout line is one JSON object: correct, attempted, failed and
// the metrics of the run.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/topology.h"
#include "coflow/coflow.h"
#include "corral/latency_model.h"
#include "corral/planner.h"
#include "ctrl/service.h"
#include "exec/exec.h"
#include "net/network.h"
#include "plan/backend.h"
#include "sim/policy.h"
#include "sim/simulator.h"
#include "workload/workloads.h"

using namespace corral;

namespace {

using Clock = std::chrono::steady_clock;

// Relative error of the day's data sizes against the trace.
constexpr double kSizeError = 0.2;

double seconds_between(Clock::time_point start, Clock::time_point stop) {
  return std::chrono::duration<double>(stop - start).count();
}

void check(bool ok, const std::string& what) {
  if (!ok) throw std::runtime_error("check failed: " + what);
}

// FNV-1a over the bit patterns of the values an operation produced.
class Digest {
 public:
  void add(double value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    add(bits);
  }
  void add(std::uint64_t bits) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (bits >> (8 * i)) & 0xff;
      hash_ *= 0x100000001b3ULL;
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

ClusterConfig testbed_cluster() {
  ClusterConfig cluster;
  cluster.racks = 7;
  cluster.machines_per_rack = 30;
  cluster.slots_per_machine = 8;
  cluster.nic_bandwidth = 2.5 * kGbps;
  cluster.oversubscription = 5.0;
  return cluster;
}

// ----------------------------------------------------------------------------
// Layer tracing.

// Self time per layer and work counts of one operation. Spans nest on a
// stack; closing one charges its duration minus its children to its layer.
class LayerTrace {
 public:
  void begin(const char* layer) {
    stack_.push_back(Open{layer, Clock::now(), 0.0});
  }
  void end() {
    const Open open = stack_.back();
    stack_.pop_back();
    const double total = seconds_between(open.start, Clock::now());
    self_seconds[open.layer] += total - open.children;
    if (!stack_.empty()) stack_.back().children += total;
  }
  void count(const char* name, double value) { counts[name] += value; }

  std::map<std::string, double> self_seconds;
  std::map<std::string, double> counts;

 private:
  struct Open {
    const char* layer;
    Clock::time_point start;
    double children;
  };
  std::vector<Open> stack_;
};

// A span when tracing is on; one branch when it is off.
class Span {
 public:
  Span(LayerTrace* trace, const char* layer) : trace_(trace) {
    if (trace_ != nullptr) trace_->begin(layer);
  }
  ~Span() {
    if (trace_ != nullptr) trace_->end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  LayerTrace* trace_;
};

// Runs every scheduling decision of `inner` inside a "policy" span, so the
// simulator is charged only for its own work.
class TracedPolicy : public SchedulingPolicy {
 public:
  TracedPolicy(SchedulingPolicy& inner, LayerTrace* trace)
      : inner_(inner), trace_(trace) {}

  std::string_view name() const override { return inner_.name(); }
  std::unique_ptr<BlockPlacementPolicy> input_placement(
      const JobSpec& job) override {
    Span span = enter();
    return inner_.input_placement(job);
  }
  std::vector<int> allowed_racks(
      const JobSpec& job, const Dfs& dfs,
      const std::vector<const FileLayout*>& input_files, Rng& rng) override {
    Span span = enter();
    return inner_.allowed_racks(job, dfs, input_files, rng);
  }
  double priority(const JobSpec& job) const override {
    Span span = enter();
    return inner_.priority(job);
  }
  void on_rack_degraded(int rack, const ClusterTopology& topology,
                        Seconds now) override {
    Span span = enter();
    inner_.on_rack_degraded(rack, topology, now);
  }
  void on_rack_recovered(int rack, const ClusterTopology& topology,
                         Seconds now) override {
    Span span = enter();
    inner_.on_rack_recovered(rack, topology, now);
  }

  double calls() const { return static_cast<double>(calls_); }

 private:
  Span enter() const {
    ++calls_;
    return Span(trace_, "policy");
  }

  SchedulingPolicy& inner_;
  LayerTrace* trace_;
  mutable std::uint64_t calls_ = 0;
};

// ----------------------------------------------------------------------------
// Workloads.

// An operation is a fixed sequence of parts, each a pure function of the
// set-up: one part per day instance of the trace (and per policy, where a
// workload compares several).
class Workload {
 public:
  virtual ~Workload() = default;
  // Builds the inputs of `seed`, replacing any earlier ones.
  virtual void setup(std::uint64_t seed) = 0;
  virtual int parts() const = 0;
  // Runs part `part`, checks its outputs (throws on a violation) and
  // returns their digest. `trace` is null in untraced runs.
  virtual std::uint64_t run(int part, LayerTrace* trace) = 0;
};

// Seed of day `day` of a run: distinct for every (seed, day) pair.
std::uint64_t day_seed(std::uint64_t seed, int day) {
  return seed * 1000 + static_cast<std::uint64_t>(day);
}

// Fig 5 regime: the offline planner on three daily W3 batches.
class PlannerWorkload : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    cluster_ = testbed_cluster();
    cluster_.racks = 50;
    cluster_.machines_per_rack = 40;
    Rng trace_rng(kTraceSeed);
    W3Config config;
    config.num_jobs = kJobs;
    const std::vector<JobSpec> trace = make_w3(config, trace_rng);
    Rng rng(seed);
    days_.clear();
    for (int day = 0; day < kDays; ++day) {
      days_.push_back(perturb_sizes(trace, kSizeError, rng));
    }
  }

  int parts() const override { return kDays; }

  std::uint64_t run(int part, LayerTrace* trace) override {
    const std::vector<JobSpec>& jobs = days_[static_cast<std::size_t>(part)];
    exec::ThreadPool pool(1);
    PlannerConfig config;
    config.pool = &pool;
    std::vector<ResponseFunction> functions;
    {
      Span span(trace, "model");
      functions = build_response_functions(
          jobs, cluster_.racks, LatencyModelParams::from_cluster(cluster_));
    }
    plan::PlannerRequest request;
    request.jobs = functions;
    request.specs = jobs;
    request.num_racks = cluster_.racks;
    request.config = &config;
    plan::ProvisionPlan result;
    {
      Span span(trace, "planner");
      result = plan::planner_backend(PlannerBackendKind::kCorral).plan(request);
    }
    const Plan& plan = result.plan;
    if (trace != nullptr) {
      trace->count("planner_candidates",
                   static_cast<double>(plan.evaluated_candidates));
    }

    check(plan.jobs.size() == jobs.size(), "planner: one entry per job");
    Digest digest;
    Seconds makespan = 0;
    for (std::size_t j = 0; j < plan.jobs.size(); ++j) {
      const PlannedJob& job = plan.jobs[j];
      std::vector<int> racks = job.racks;
      std::sort(racks.begin(), racks.end());
      check(job.num_racks >= 1 &&
                static_cast<int>(racks.size()) == job.num_racks &&
                racks.front() >= 0 && racks.back() < cluster_.racks &&
                std::adjacent_find(racks.begin(), racks.end()) == racks.end(),
            "planner: distinct racks of the cluster, as many as planned");
      check(job.start_time >= 0 &&
                std::abs(job.predicted_latency -
                         functions[j].at(job.num_racks)) <=
                    1e-9 * job.predicted_latency,
            "planner: latency is the response function's at r_j");
      makespan = std::max(makespan, job.predicted_completion());
      digest.add(static_cast<std::uint64_t>(job.num_racks));
      for (int rack : job.racks) digest.add(static_cast<std::uint64_t>(rack));
      digest.add(job.start_time);
    }
    check(std::abs(makespan - plan.predicted_makespan) <= 1e-9 * makespan,
          "planner: makespan is the latest predicted completion");
    digest.add(plan.predicted_makespan);
    return digest.value();
  }

 private:
  static constexpr std::uint64_t kTraceSeed = 5;
  static constexpr int kJobs = 200;
  static constexpr int kDays = 3;
  ClusterConfig cluster_;
  std::vector<std::vector<JobSpec>> days_;
};

// Figs 6/7 regime: a week of daily W1 batches on the 210-machine testbed
// with 50% background core load and replicated output writes, each day
// under Yarn-CS and under Corral.
class TestbedWorkload : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    Rng trace_rng(kTraceSeed);
    W1Config config;
    config.num_jobs = kJobs;
    config.task_scale = 0.1;
    const std::vector<JobSpec> trace = make_w1(config, trace_rng);
    Rng rng(seed);
    days_.clear();
    for (int d = 0; d < kDays; ++d) {
      Day day;
      day.sim.cluster = testbed_cluster();
      day.sim.cluster.background_core_fraction = 0.5;
      day.sim.write_output_replicas = true;
      day.sim.seed = day_seed(seed, d);
      day.jobs = perturb_sizes(trace, kSizeError, rng);
      // Corral plans the day's batch offline, before any job runs.
      PlannerConfig planner;
      planner.pool = &pool_;
      day.lookup = PlanLookup(
          day.jobs, plan_offline(day.jobs, day.sim.cluster, planner));
      days_.push_back(std::move(day));
    }
  }

  int parts() const override { return 2 * kDays; }

  std::uint64_t run(int part, LayerTrace* trace) override {
    const Day& day = days_[static_cast<std::size_t>(part / 2)];
    YarnCapacityPolicy yarn;
    CorralPolicy corral(&day.lookup);
    SchedulingPolicy& policy =
        part % 2 == 0 ? static_cast<SchedulingPolicy&>(yarn) : corral;
    TracedPolicy traced(policy, trace);
    SimResult result;
    {
      Span span(trace, "sim");
      result = run_simulation(day.jobs, trace != nullptr ? traced : policy,
                              day.sim);
    }
    if (trace != nullptr) trace->count("policy_calls", traced.calls());

    const std::string tag = "testbed " + std::string(policy.name());
    check(result.jobs.size() == day.jobs.size() && result.jobs_failed == 0 &&
              result.makespan > 0,
          tag + ": every job ran");
    for (const JobResult& job : result.jobs) {
      check(job.finish >= job.arrival && job.finish <= result.makespan,
            tag + ": jobs finish after arrival, by the makespan");
    }
    for (double utilization : result.rack_uplink_utilization) {
      check(utilization >= 0 && utilization <= 1 + 1e-6,
            tag + ": rack uplinks within capacity");
    }
    Digest digest;
    digest.add(result.makespan);
    digest.add(result.total_cross_rack_bytes);
    for (const JobResult& job : result.jobs) digest.add(job.finish);
    return digest.value();
  }

 private:
  static constexpr std::uint64_t kTraceSeed = 6;
  static constexpr int kJobs = 24;
  static constexpr int kDays = 7;

  struct Day {
    SimConfig sim;
    std::vector<JobSpec> jobs;
    PlanLookup lookup;
  };

  exec::ThreadPool pool_{1};
  std::vector<Day> days_;
};

// Fig 14 regime: the shuffles of daily W1 bursts on the 2000-machine
// simulation cluster with Yarn-style random map and reducer placement, one
// coflow per job, drained through the fluid network the way the simulator
// steps it, under the tcp, varys and sincronia allocators.
class FabricWorkload : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    cluster_ = ClusterConfig::paper_simulation();
    cluster_.background_core_fraction = 0.5;
    Rng trace_rng(kTraceSeed);
    W1Config config;
    config.num_jobs = kJobs;
    config.task_scale = 0.1;
    std::vector<JobSpec> trace = make_w1(config, trace_rng);
    assign_uniform_arrivals(trace, kArrivalWindow, trace_rng);
    Rng rng(seed);
    days_.clear();
    for (int day = 0; day < kDays; ++day) {
      days_.push_back(shuffles(perturb_sizes(trace, kSizeError, rng), rng));
    }
  }

  int parts() const override { return kDays * 3; }

  std::uint64_t run(int part, LayerTrace* trace) override {
    const NetPolicy policies[] = {NetPolicy::kTcp, NetPolicy::kVarys,
                                  NetPolicy::kSincronia};
    const NetPolicy policy = policies[part % 3];
    const std::vector<ShuffleFlow>& flows =
        days_[static_cast<std::size_t>(part / 3)];
    Network network(cluster_, coflow::make_allocator(policy));
    std::vector<Seconds> coflow_finish(kJobs, 0.0);
    Seconds now = 0;
    Bytes started = 0;
    Bytes delivered = 0;
    std::size_t next = 0;
    double allocations = 0;
    double flow_visits = 0;
    while (next < flows.size() || !network.idle()) {
      for (; next < flows.size() && flows[next].arrival <= now; ++next) {
        const ShuffleFlow& flow = flows[next];
        network.start_fanin_flow(flow.src_rack, flow.dst_machine, flow.bytes,
                                 flow.width, flow.coflow, next);
        started += flow.bytes;
      }
      Seconds step = next < flows.size() ? flows[next].arrival - now : kNever;
      if (!network.idle()) {
        ++allocations;
        flow_visits += network.active_flows();
        Span span(trace, "alloc");
        step = std::min(step,
                        std::max(network.time_to_next_completion(), kQuantum));
      }
      now += step;
      Span span(trace, "progress");
      for (const CompletedFlow& flow : network.advance(step)) {
        delivered += flow.bytes;
        coflow_finish[static_cast<std::size_t>(flow.coflow)] = now;
      }
    }
    if (trace != nullptr) {
      trace->count("net_allocations", allocations);
      trace->count("net_flow_visits", flow_visits);
      trace->count("net_flows", static_cast<double>(flows.size()));
    }

    const std::string tag = "fabric " + std::string(to_string(policy));
    check(std::abs(delivered - started) <= 1e-9 * started,
          tag + ": every byte delivered");
    const LinkSet& links = network.links();
    for (int link = 0; link < links.count(); ++link) {
      check(network.link_bytes()[static_cast<std::size_t>(link)] <=
                links.capacity(link) * now * (1 + 1e-9),
            tag + ": no link carried more than capacity x time");
    }
    Digest digest;
    digest.add(now);
    for (Seconds finish : coflow_finish) digest.add(finish);
    return digest.value();
  }

 private:
  static constexpr std::uint64_t kTraceSeed = 14;
  static constexpr int kJobs = 24;
  static constexpr int kDays = 4;
  static constexpr Seconds kArrivalWindow = 60;
  // The simulator's event-batching quantum: completions within one share a
  // rate reallocation.
  static constexpr Seconds kQuantum = 0.25;
  static constexpr Seconds kNever = 1e300;

  struct ShuffleFlow {
    Seconds arrival;
    int src_rack;
    int dst_machine;
    Bytes bytes;
    double width;
    int coflow;
  };

  // One fan-in flow per (map rack, reducer) of every job's shuffle, as the
  // simulator aggregates fetches; its width is the number of maps it
  // carries. Maps and reducers land on uniformly random racks and machines.
  std::vector<ShuffleFlow> shuffles(const std::vector<JobSpec>& jobs,
                                    Rng& rng) const {
    std::vector<ShuffleFlow> flows;
    std::vector<int> maps_on_rack(static_cast<std::size_t>(cluster_.racks));
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      const MapReduceSpec& stage = jobs[j].stages.front();
      if (stage.shuffle_bytes <= 0) continue;
      std::fill(maps_on_rack.begin(), maps_on_rack.end(), 0);
      for (int m = 0; m < stage.num_maps; ++m) {
        ++maps_on_rack[static_cast<std::size_t>(
            rng.uniform_int(0, cluster_.racks - 1))];
      }
      for (int r = 0; r < stage.num_reduces; ++r) {
        const int reducer = rng.uniform_int(0, cluster_.total_machines() - 1);
        for (int rack = 0; rack < cluster_.racks; ++rack) {
          const int maps = maps_on_rack[static_cast<std::size_t>(rack)];
          if (maps == 0) continue;
          flows.push_back(ShuffleFlow{
              jobs[j].arrival, rack, reducer,
              stage.shuffle_bytes * maps / stage.num_maps / stage.num_reduces,
              static_cast<double>(maps), static_cast<int>(j)});
        }
      }
    }
    std::stable_sort(flows.begin(), flows.end(),
                     [](const ShuffleFlow& a, const ShuffleFlow& b) {
                       return a.arrival < b.arrival;
                     });
    return flows;
  }

  ClusterConfig cluster_;
  std::vector<std::vector<ShuffleFlow>> days_;
};

// The multi-tenant control service: four weighted W1 fleets share the
// testbed and one rack fails mid-run. Each tenant's epochs run under a
// different rate allocator, lp-order and sincronia included. Each part is
// one service run with its own day seed (data placement of every epoch).
class CtrlWorkload : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    W1Config workload;
    workload.num_jobs = kJobsPerTenant;
    workload.task_scale = 0.25;
    const std::vector<int> priorities = {3, 1, 1, 2};
    fleet_ = make_service_fleet(workload, kWarmupDays, kEpochs, kTraceSeed, 4,
                                priorities);
    const NetPolicy policies[] = {NetPolicy::kTcp, NetPolicy::kVarys,
                                  NetPolicy::kLpOrder, NetPolicy::kSincronia};
    for (std::size_t t = 0; t < fleet_.size(); ++t) {
      fleet_[t].net_policy = policies[t];
    }
    configs_.clear();
    for (int day = 0; day < kDays; ++day) {
      ServiceConfig config;
      config.loop.cluster = testbed_cluster();
      config.loop.epochs = kEpochs;
      config.loop.warmup_days = kWarmupDays;
      config.loop.outages = {{kEpochs / 2, 3}};
      config.loop.seed = day_seed(seed, day);
      config.loop.pool = &pool_;
      configs_.push_back(config);
    }
  }

  int parts() const override { return kDays; }

  std::uint64_t run(int part, LayerTrace* trace) override {
    std::vector<ServiceTenant> fleet = fleet_;
    ServiceResult result;
    {
      Span span(trace, "ctrl");
      result = run_control_service(std::move(fleet),
                                   configs_[static_cast<std::size_t>(part)]);
    }
    const ControlLoopResult& combined = result.combined;
    if (trace != nullptr) {
      trace->count("ctrl_cache_hits", static_cast<double>(combined.cache.hits));
      trace->count("ctrl_cache_misses",
                   static_cast<double>(combined.cache.misses));
      for (const EpochReport& epoch : combined.epochs) {
        trace->count("ctrl_replan_evals",
                     static_cast<double>(epoch.replan_cost_evals));
      }
    }

    check(result.crashed_after == -1 &&
              result.tenants.size() == fleet_.size() &&
              combined.epochs_completed ==
                  kEpochs * static_cast<int>(fleet_.size()),
          "ctrl: every tenant ran every epoch");
    Digest digest;
    for (const EpochReport& epoch : combined.epochs) {
      check(!epoch.aborted && epoch.jobs_failed == 0 &&
                epoch.realized_makespan > 0 && epoch.predicted_makespan > 0,
            "ctrl: every epoch planned and ran its jobs");
      digest.add(epoch.realized_makespan);
      digest.add(epoch.predicted_makespan);
      digest.add(static_cast<std::uint64_t>(epoch.cache_hit));
    }
    return digest.value();
  }

 private:
  static constexpr std::uint64_t kTraceSeed = 2015;
  static constexpr int kDays = 3;
  static constexpr int kEpochs = 8;
  static constexpr int kWarmupDays = 14;
  static constexpr int kJobsPerTenant = 12;
  exec::ThreadPool pool_{1};
  std::vector<ServiceTenant> fleet_;
  std::vector<ServiceConfig> configs_;
};

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "planner") return std::make_unique<PlannerWorkload>();
  if (name == "testbed") return std::make_unique<TestbedWorkload>();
  if (name == "fabric") return std::make_unique<FabricWorkload>();
  if (name == "ctrl") return std::make_unique<CtrlWorkload>();
  return nullptr;
}

// ----------------------------------------------------------------------------
// Measurement.

// Per-layer metrics of a traced run, reported by every workload: each
// layer's self time as a share of the traced operation, then work counts per
// operation. A layer the workload does not call reads 0.
const char* const kLayers[] = {"model", "planner", "sim",  "policy",
                               "alloc", "progress", "ctrl", "bench"};
const char* const kCounts[] = {
    "planner_candidates", "policy_calls",      "net_allocations",
    "net_flow_visits",    "net_flows",         "ctrl_cache_hits",
    "ctrl_cache_misses",  "ctrl_replan_evals"};

constexpr int kSetupsPerOperation = 3;

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

// Peak resident set of this process image. getrusage's ru_maxrss would
// also count the launching interpreter, whose peak survives exec.
double peak_rss_mib() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0;
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof line, status) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::atof(line + 6);
  }
  std::fclose(status);
  return kib / 1024.0;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(bool correct, long attempted, long failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

bool parse_args(int argc, char** argv, std::string* workload,
                std::uint64_t* seed, double* seconds, bool* trace) {
  bool have[4] = {false, false, false, false};
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      *workload = value;
      have[0] = true;
    } else if (flag == "--seed") {
      *seed = std::strtoull(value.c_str(), &end, 10);
      have[1] = !value.empty() && *end == '\0';
    } else if (flag == "--seconds") {
      *seconds = std::strtod(value.c_str(), &end);
      have[2] = !value.empty() && *end == '\0' && *seconds > 0;
    } else if (flag == "--trace") {
      *trace = value == "1";
      have[3] = value == "0" || value == "1";
    } else {
      return false;
    }
  }
  return argc == 9 && have[0] && have[1] && have[2] && have[3];
}

}  // namespace

int main(int argc, char** argv) {
  std::string name;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool traced = false;
  std::unique_ptr<Workload> workload;
  if (!parse_args(argc, argv, &name, &seed, &seconds, &traced) ||
      (workload = make_workload(name)) == nullptr) {
    std::fprintf(stderr,
                 "usage: corral_perfbench --workload planner|testbed|fabric|"
                 "ctrl --seed N --seconds S --trace 0|1\n");
    return 2;
  }
  exec::set_default_threads(1);

  // Set-up runs before the warm-up and again after every timed operation,
  // so its median samples the whole run (mostly warm repeats, as a long-lived
  // process would see), and every later operation checks that the rebuilt
  // inputs reproduce the reference outputs.
  std::vector<double> setup_seconds;
  const auto set_up = [&] {
    const auto start = Clock::now();
    workload->setup(seed);
    setup_seconds.push_back(seconds_between(start, Clock::now()));
  };
  set_up();

  // Operation 0 is the warm-up: checked, and its part digests are the
  // references every later operation must reproduce, but not timed. The
  // time of an operation is the sum of its parts, and the run's best is the
  // sum of each part's fastest repeat.
  const auto parts = static_cast<std::size_t>(workload->parts());
  std::vector<std::uint64_t> reference(parts, 0);
  std::vector<double> best(parts, std::numeric_limits<double>::infinity());
  std::vector<LayerTrace> best_trace(parts);
  std::vector<double> op_seconds;
  long attempted = 0;
  long failed = 0;
  auto measure_start = Clock::now();
  for (long op = 0; op == 0 || op_seconds.empty() ||
                    seconds_between(measure_start, Clock::now()) < seconds;
       ++op) {
    ++attempted;
    bool ok = true;
    double op_time = 0;
    for (std::size_t part = 0; part < parts && ok; ++part) {
      LayerTrace layer_trace;
      LayerTrace* trace = traced ? &layer_trace : nullptr;
      const auto start = Clock::now();
      try {
        std::uint64_t digest = 0;
        {
          Span span(trace, "bench");
          digest = workload->run(static_cast<int>(part), trace);
        }
        if (op == 0) reference[part] = digest;
        check(digest == reference[part], "outputs repeat exactly");
      } catch (const std::exception& e) {
        std::fprintf(stderr, "operation %ld part %zu failed: %s\n", op, part,
                     e.what());
        ok = false;
        break;
      }
      const double elapsed = seconds_between(start, Clock::now());
      op_time += elapsed;
      if (op > 0 && elapsed < best[part]) {
        best[part] = elapsed;
        best_trace[part] = layer_trace;
      }
    }
    if (!ok) {
      ++failed;
      if (failed > 3) break;
      continue;
    }
    if (op == 0) {
      measure_start = Clock::now();
      continue;
    }
    op_seconds.push_back(op_time);
    for (int i = 0; i < kSetupsPerOperation; ++i) set_up();
  }

  double best_total = 0;
  if (!op_seconds.empty()) {
    for (double part_best : best) best_total += part_best;
  }
  std::vector<Metric> metrics;
  if (!traced) {
    metrics.push_back({"op_best_ms", best_total * 1e3, "ms"});
    metrics.push_back({"peak_rss_mib", peak_rss_mib(), "MiB"});
    metrics.push_back({"setup_s", median(setup_seconds), "s"});
  } else {
    metrics.push_back({"traced_op_ms", best_total * 1e3, "ms"});
    for (const char* layer : kLayers) {
      double total = 0;
      for (LayerTrace& part : best_trace) total += part.self_seconds[layer];
      metrics.push_back({std::string(layer) + "_share",
                         best_total > 0 ? 100 * total / best_total : 0.0,
                         "%"});
    }
    for (const char* count : kCounts) {
      double total = 0;
      for (LayerTrace& part : best_trace) total += part.counts[count];
      metrics.push_back({count, total, "count"});
    }
  }
  if (!op_seconds.empty()) {
    std::fprintf(stderr,
                 "%s seed %llu: %zu timed operations of %zu parts, best "
                 "%.2f ms, median %.2f ms, set-up %.3f ms\n",
                 name.c_str(), static_cast<unsigned long long>(seed),
                 op_seconds.size(), parts, best_total * 1e3,
                 median(op_seconds) * 1e3, median(setup_seconds) * 1e3);
  }
  print_result(failed == 0 && !op_seconds.empty(), attempted, failed,
               metrics);
  return 0;
}
