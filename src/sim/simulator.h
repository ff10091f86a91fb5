// Discrete-event, flow-level cluster simulator.
//
// This is the reproduction's stand-in for the paper's 210-machine
// Yarn/HDFS testbed, built in the spirit of the flow-based event simulator
// the authors used for §6.6. It executes DAG jobs over a slot-based
// cluster: map tasks read input chunks (free when node-local, a
// machine-to-machine flow otherwise, with delay scheduling steering tasks
// toward their data), shuffles move rack-aggregated fan-in flows through
// the oversubscribed fabric, and reduces compute and optionally write
// replicated output. Job scheduling and network scheduling are both
// pluggable (SchedulingPolicy, RateAllocator).
//
// Modelling notes (see DESIGN.md §6 for the full list):
//  * Within a job stage, reduces start once all the stage's maps finished
//    (Hadoop with slowstart = 1.0), matching the planner's model.
//  * Shuffle fetches are aggregated per (source rack -> destination
//    machine) with a width equal to the number of contributing map tasks,
//    so max-min fairness weighs them like the underlying task-level flows.
//  * Input upload is instantaneous at submission; the paper likewise
//    places data "as it is being uploaded" before the job runs.
#ifndef CORRAL_SIM_SIMULATOR_H_
#define CORRAL_SIM_SIMULATOR_H_

#include <span>
#include <stdexcept>
#include <string>

#include "cluster/topology.h"
#include "dfs/dfs.h"
#include "net/allocator.h"
#include "sim/faults.h"
#include "sim/metrics.h"
#include "sim/policy.h"

namespace corral {

namespace obs {
class Tracer;
class MetricsRegistry;
}  // namespace obs

// Thrown when virtual time passes SimConfig::max_time — a typed error so
// callers sweeping hostile parameter spaces can catch runaways specifically
// instead of pattern-matching a generic logic_error.
class SimulationTimeout : public std::runtime_error {
 public:
  explicit SimulationTimeout(Seconds limit);
  Seconds limit() const { return limit_; }

 private:
  Seconds limit_;
};

// Thrown when virtual time passes SimConfig::abort_at_time — the
// deterministic execution-failure hook the control plane's chaos harness
// uses to model an epoch run dying mid-flight (docs/control_plane.md
// "Failure modes and guardrails"). Distinct from SimulationTimeout so retry
// policies can absorb injected failures without masking real runaways.
class SimulationAborted : public std::runtime_error {
 public:
  explicit SimulationAborted(Seconds at);
  Seconds at() const { return at_; }

 private:
  Seconds at_;
};

// Speculation (SimConfig::enable_speculation) may back up a task that has
// run at least kSpeculationMinRuntime and longer than kSpeculationSlowdown x
// its stage's mean completed-task duration.
constexpr double kSpeculationSlowdown = 1.5;
constexpr Seconds kSpeculationMinRuntime = 10.0;
// A task attempted more than this many times fails its whole job
// (JobResult::failed) instead of looping forever, e.g. when every replica
// of its input chunk is lost.
constexpr int kMaxTaskRetries = 100;
static_assert(kMaxTaskRetries > 0 && kMaxTaskRetries < 255,
              "attempt ids travel as 8 bits inside flow tags");
// Width of re-replication flows (SimConfig::enable_rereplication), so that
// healing competes gently with job traffic.
constexpr double kRereplicationWidth = 0.5;

struct SimConfig {
  ClusterConfig cluster;
  DfsConfig dfs;
  // Rate-allocation policy for the fabric (§6.6 plus the coflow suite in
  // src/coflow). Dispatched through coflow::make_allocator.
  NetPolicy net_policy = NetPolicy::kTcp;
  // Replicate reduce outputs off-rack (adds write traffic; off by default
  // so the headline benches isolate read/shuffle locality).
  bool write_output_replicas = false;
  // Delay scheduling (§3.1 footnote 2): scheduling opportunities a job
  // declines before settling for rack-local / arbitrary map placement.
  int node_local_skips = 3;
  int rack_local_skips = 6;
  // §7 "Remote storage": job input lives in an external storage cluster
  // (Azure Storage / S3 style) and map tasks stream it over a shared
  // interconnect instead of reading DFS replicas. There is no input
  // locality; Corral's remaining benefit is shuffle/rack isolation.
  bool remote_input_storage = false;
  BytesPerSec storage_bandwidth = 1e15;  // effectively unlimited
  // Machines marked dead before the run starts (failure injection).
  std::vector<int> failed_machines;
  // The run's fault timeline plus straggler parameters (see sim/faults.h).
  // Crash semantics: running tasks on the machine are killed and
  // rescheduled; completed map outputs stored there are lost and those maps
  // rerun (map output is node-local, as in Hadoop); DFS replicas on the
  // machine are dropped (and re-replicated in the background when
  // enable_rereplication is on); in-flight transfers touching the machine
  // are torn down; Corral constraints are dropped for jobs whose assigned
  // rack falls below kRackHealthThreshold (§3.1, §7 "Dealing with
  // failures"). Recover semantics: the machine rejoins the slot pool with
  // an empty disk, and dropped Corral constraints are re-armed once every
  // assigned rack is healthy again.
  FaultSchedule faults;
  // Hadoop-style speculative execution: an idle slot may run one backup of a
  // straggler (see kSpeculationSlowdown) on another machine; the first
  // finisher wins and the loser's slot time is booked as wasted work.
  // Backups per job are capped at max(1, speculation_cap x its task count).
  bool enable_speculation = false;
  double speculation_cap = 0.1;
  // Background DFS healing: chunks that lose a replica to a crash are
  // re-replicated from a surviving copy over real network flows of width
  // kRereplicationWidth.
  bool enable_rereplication = true;
  std::uint64_t seed = 42;
  // Watchdog: the simulation throws if it passes this virtual time.
  Seconds max_time = 90 * kDay;
  // Injected execution failure: the run throws SimulationAborted when
  // virtual time passes this (<= 0 disables). Deterministic — used by the
  // control plane's chaos schedule to kill an epoch's attempt mid-run.
  Seconds abort_at_time = 0;
  // Event-batching quantum: task completions and flow completions landing
  // within one quantum are processed together, collapsing thousands of
  // rate recomputations on large workloads. Not negligible: bench_ablation's
  // Yarn-CS W1 makespan reads 8131 / 7071 / 7408 s at quantum 0 / 0.25 /
  // 1.0 s. Set to 0 for exact event ordering.
  Seconds time_quantum = 0.25;
  // --- observability (src/obs, see docs/observability.md) ---
  // Optional tracer: lifecycle/task/flow events are recorded into
  // `tracer->sink(trace_sink)` stamped with virtual sim time. Each
  // concurrent run must use a distinct sink id, assigned deterministically
  // (BatchRunner uses the batch-case index) so merged traces stay
  // byte-identical at any pool width. Null disables tracing entirely.
  obs::Tracer* tracer = nullptr;
  int trace_sink = 0;
  std::string trace_label;  // sink label; defaults to the policy name
  // Optional end-of-run metrics snapshot (counters/gauges/histograms of the
  // SimResult). Not thread-safe: one registry per run.
  obs::MetricsRegistry* metrics = nullptr;
};

// Runs `jobs` to completion under the given policy and returns the metrics.
// Jobs must have distinct ids and valid specs.
SimResult run_simulation(std::span<const JobSpec> jobs,
                         SchedulingPolicy& policy, const SimConfig& config);

}  // namespace corral

#endif  // CORRAL_SIM_SIMULATOR_H_
