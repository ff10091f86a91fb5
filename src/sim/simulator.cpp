#include "sim/simulator.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <memory>
#include <queue>
#include <string>
#include <unordered_set>

#include "coflow/coflow.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/event_queue.h"
#include "sim/locality_index.h"
#include "util/check.h"

namespace corral {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr Seconds kTimeEps = 1e-9;
// Transfers below this size are treated as free (metadata-level traffic).
constexpr Bytes kMinFlowBytes = 1.0;

enum class FlowKind : std::uint64_t {
  kMapFetch = 1,
  kReduceFetch = 2,
  kWriteRemote = 3,
  // Background DFS healing traffic; not owned by any job. The non-kind tag
  // bits carry a rereplication sequence number, not task coordinates.
  kRereplicate = 4,
};

// Flow tags: kind(4) | attempt(8) | job(20) | stage(8) | task(24). The
// attempt counter distinguishes a task's re-execution after a machine
// failure from stale flows and events of its previous run.
std::uint64_t pack_tag(FlowKind kind, int attempt, int job, int stage,
                       int task) {
  return (static_cast<std::uint64_t>(kind) << 60) |
         (static_cast<std::uint64_t>(attempt & 0xFF) << 52) |
         (static_cast<std::uint64_t>(job) << 32) |
         (static_cast<std::uint64_t>(stage) << 24) |
         static_cast<std::uint64_t>(task);
}

FlowKind tag_kind(std::uint64_t tag) {
  return static_cast<FlowKind>(tag >> 60);
}
int tag_attempt(std::uint64_t tag) {
  return static_cast<int>((tag >> 52) & 0xFF);
}
int tag_job(std::uint64_t tag) {
  return static_cast<int>((tag >> 32) & 0xFFFFF);
}
int tag_stage(std::uint64_t tag) {
  return static_cast<int>((tag >> 24) & 0xFF);
}
int tag_task(std::uint64_t tag) {
  return static_cast<int>(tag & 0xFFFFFF);
}

// Attempt counters travel as 8 bits inside tags; compare modulo 256.
bool same_attempt(int current, int from_tag) {
  return (current & 0xFF) == from_tag;
}

enum class StageState { kWaiting, kMapping, kReducing, kDone };

// A stage runs its tasks in two phases with one attempt lifecycle: launch,
// fetch, compute, speculative backup, kill, requeue. Plain enum: it indexes
// the per-phase tables.
enum Phase { kMap = 0, kReduce = 1 };

// A phase's fetch-flow kind, and back.
FlowKind fetch_kind(Phase phase) {
  return phase == kMap ? FlowKind::kMapFetch : FlowKind::kReduceFetch;
}
Phase fetch_phase(FlowKind kind) {
  return kind == FlowKind::kMapFetch ? kMap : kReduce;
}

// A stage whose maps send output to its reduces: its map output is tracked
// by rack and machine to size the reduces' fan-in flows.
bool shuffles(const MapReduceSpec& spec) {
  return spec.shuffle_bytes > 0 && spec.num_reduces > 0;
}

// One running copy of a task. A task has a primary and, under Hadoop-style
// speculation, at most one backup; the first copy to compute wins. The
// primary keeps its id (and start) while queued: events and flows of any
// other id are stale.
struct Attempt {
  int id = 0;
  int machine = -1;  // host while running, else -1 (a backup is live iff >= 0)
  Seconds start = 0;
  int fetches = 0;         // outstanding input fetch flows
  bool straggler = false;  // drawn slow at launch, until its compute starts

  void clear() {
    machine = -1;
    fetches = 0;
    straggler = false;
  }
  bool idle() const { return machine < 0 && fetches == 0 && !straggler; }
};

// One phase's tasks of one stage.
struct TaskTable {
  std::deque<int> queue;  // unscheduled task ids
  int pending = 0;        // queued, not yet assigned
  int done = 0;
  std::vector<int> issued;  // attempt ids handed out per task
  std::vector<Attempt> primary;
  std::vector<Attempt> backup;
  // The running attempt has computed and won; a reduce may still be
  // writing its output replica. Such a task gets no backup.
  std::vector<bool> computed;
  Seconds duration_total = 0;  // sum of completed task durations

  void init(int tasks) {
    const auto n = static_cast<std::size_t>(tasks);
    issued.assign(n, 0);
    primary.assign(n, Attempt{});
    backup.assign(n, Attempt{});
    computed.assign(n, false);
  }
  // Makes the backup the task's canonical (primary) attempt.
  void adopt(std::size_t t) {
    primary[t] = backup[t];
    backup[t].clear();
  }
  // The running copy an (8-bit) attempt id names: the primary, or a live
  // backup; nullptr for a stale remnant of a killed attempt.
  Attempt* find(int task, int attempt8) {
    const auto t = static_cast<std::size_t>(task);
    if (same_attempt(primary[t].id, attempt8)) return &primary[t];
    if (backup[t].machine >= 0 && same_attempt(backup[t].id, attempt8)) {
      return &backup[t];
    }
    return nullptr;
  }
};

struct StageRuntime {
  StageState state = StageState::kWaiting;
  int parents_pending = 0;
  Seconds activated_at = 0;  // when the stage entered kMapping (tracing)
  TaskTable tasks[2];        // indexed by Phase

  // --- map side ---
  std::vector<bool> map_taken;
  std::vector<int> map_exec_machine;  // machine of a completed map, or -1
  const FileLayout* input_file = nullptr;
  // Source stage reading from the external storage cluster (§7).
  bool remote_input = false;
  // Chunk-level locality indices of a stage with an input file.
  LocalityIndex maps_by_machine;
  LocalityIndex maps_by_rack;
  // Non-source stages read their parents' outputs, spread over racks.
  std::vector<Bytes> stage_input_by_rack;

  // --- shuffle bookkeeping ---
  std::vector<Bytes> map_output_by_rack;
  std::vector<int> maps_on_machine;  // completed maps whose output it holds
  // Machines of the rack holding map output (maps_on_machine > 0), counted
  // only when the stage shuffles: the width of a reduce's fan-in flow.
  std::vector<int> map_machines_in_rack;

  // --- reduce side ---
  std::vector<bool> reduce_done;

  // Where this stage's output ended up (feeds child stages).
  std::vector<Bytes> output_by_rack;
};

struct JobRuntime {
  const JobSpec* spec = nullptr;
  int index = 0;
  double priority = 0;
  std::vector<StageRuntime> stages;
  std::vector<std::vector<int>> children;  // stage -> child stages
  std::vector<int> allowed_racks;          // empty = whole cluster
  std::vector<bool> rack_allowed;          // always sized to racks
  // The policy's original rack assignment, kept so constraints dropped
  // during a rack outage (§3.1) can be re-armed when the rack heals (§7).
  std::vector<int> planned_racks;
  bool constraints_dropped = false;
  int stages_done = 0;
  bool finished = false;
  int delay_skips = 0;
  int pending_tasks = 0;  // queued map + reduce tasks across stages
  int total_tasks = 0;    // maps + reduces over all stages (speculation cap)
  JobResult result;
};

struct Event {
  Seconds time = 0;
  long seq = 0;
  enum class Type {
    kArrival,
    kMapCompute,
    kReduceCompute,
    kMachineFailure,
    kMachineRecover,
  } type = Type::kArrival;
  int job = 0;
  int stage = 0;
  int task = 0;
  int machine = 0;
  int attempt = 0;
};

// Work events drive jobs toward completion; fault events merely mutate the
// cluster. Once every job is done and no work events remain, the run can
// end even if the fault timeline stretches on for days.
bool is_work_event(Event::Type type) {
  return type == Event::Type::kArrival || type == Event::Type::kMapCompute ||
         type == Event::Type::kReduceCompute;
}

// An in-flight re-replication transfer restoring a lost DFS replica.
struct Rerep {
  std::string file;
  int chunk = 0;
  int dst = -1;
};

class Simulator {
 public:
  Simulator(std::span<const JobSpec> jobs, SchedulingPolicy& policy,
            const SimConfig& config)
      : config_(config),
        topology_(config.cluster),
        dfs_(&topology_, config.dfs),
        network_(config.cluster, coflow::make_allocator(config.net_policy)),
        policy_(policy),
        rng_(config.seed) {
    trace_ = obs::TraceRecorder(config_.tracer, config_.trace_sink,
                                config_.trace_label.empty()
                                    ? std::string(policy.name())
                                    : config_.trace_label);
    if (trace_.at(obs::TraceLevel::kFlows)) {
      network_.set_trace(trace_, &now_);
    }
    for (int m : config.failed_machines) topology_.fail_machine(m);
    require(config_.storage_bandwidth > 0,
            "run_simulation: storage bandwidth must be positive");
    network_.set_storage_bandwidth(config_.storage_bandwidth);
    slots_free_.assign(static_cast<std::size_t>(topology_.machines()), 0);
    for (int m = 0; m < topology_.machines(); ++m) {
      slots_free_[static_cast<std::size_t>(m)] =
          topology_.is_up(m) ? config_.cluster.slots_per_machine : 0;
    }
    config_.faults.validate(topology_.machines());
    for (const FaultEvent& fault : config_.faults.events) {
      push_event(Event{fault.time, next_seq_++,
                       fault.type == FaultType::kCrash
                           ? Event::Type::kMachineFailure
                           : Event::Type::kMachineRecover,
                       0, 0, 0, fault.machine, 0});
    }
    machines_down_ = 0;
    for (int m = 0; m < topology_.machines(); ++m) {
      if (!topology_.is_up(m)) ++machines_down_;
    }
    rack_usable_.assign(static_cast<std::size_t>(topology_.racks()), true);
    for (int r = 0; r < topology_.racks(); ++r) {
      rack_usable_[static_cast<std::size_t>(r)] =
          topology_.rack_usable(r, kRackHealthThreshold);
    }
    jobs_.resize(jobs.size());
    std::unordered_set<int> seen_ids;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      jobs[i].validate();
      require(seen_ids.insert(jobs[i].id).second,
              "run_simulation: duplicate job id");
      require(jobs[i].stages.size() < 256,
              "run_simulation: at most 255 stages per job");
      JobRuntime& J = jobs_[i];
      J.spec = &jobs[i];
      J.index = static_cast<int>(i);
      J.stages.resize(jobs[i].stages.size());
      J.children.resize(jobs[i].stages.size());
      for (const DagEdge& e : jobs[i].edges) {
        J.children[static_cast<std::size_t>(e.from)].push_back(e.to);
        ++J.stages[static_cast<std::size_t>(e.to)].parents_pending;
      }
      for (const MapReduceSpec& stage : jobs[i].stages) {
        J.total_tasks += stage.num_maps + stage.num_reduces;
      }
      J.result.job_id = jobs[i].id;
      J.result.name = jobs[i].name;
      J.result.recurring = jobs[i].recurring;
      J.result.arrival = jobs[i].arrival;
      J.result.first_task_start = -1;
      push_event(Event{jobs[i].arrival, next_seq_++, Event::Type::kArrival,
                       static_cast<int>(i), 0, 0, 0, 0});
    }
    unfinished_count_ = static_cast<int>(jobs_.size());
  }

  SimResult run() {
    while (!events_.empty() || !network_.idle()) {
      // Every job is settled and only fault events / background healing
      // remain: nothing left to measure.
      if (unfinished_count_ == 0 && pending_work_events_ == 0) break;
      const Seconds event_time =
          events_.empty() ? kInf : events_.top().time;
      const Seconds net_horizon = network_.time_to_next_completion();
      const Seconds net_time =
          net_horizon == kInf ? kInf : now_ + net_horizon;
      Seconds next = std::min(event_time, net_time);
      if (next == kInf) {
        // Nothing can ever make progress again. With machines down this is
        // genuine starvation — pending tasks, no capacity, no recovery
        // coming — so the stranded jobs fail cleanly. Otherwise it is a
        // simulator bug and must stay loud.
        ensure(machines_down_ > 0,
               "simulation stalled: no events, no active flows");
        for (std::size_t i = 0; i < jobs_.size(); ++i) {
          if (!jobs_[i].finished) fail_job(static_cast<int>(i));
        }
        break;
      }
      ensure(next >= now_ - kTimeEps, "time went backwards");
      if (next > config_.max_time) throw SimulationTimeout(config_.max_time);
      if (config_.abort_at_time > 0 && next > config_.abort_at_time) {
        throw SimulationAborted(config_.abort_at_time);
      }

      // Batch flow completions within one quantum (never past an event):
      // staggered completions then share a single rate recomputation.
      if (net_time < event_time) {
        next = std::min(event_time,
                        std::max(net_time, now_ + config_.time_quantum));
      }

      if (next > now_) {
        if (machines_down_ > 0 && unfinished_count_ > 0) {
          degraded_time_ += next - now_;
        }
        const auto& completed = network_.advance(next - now_);
        now_ = next;
        for (const CompletedFlow& flow : completed) on_flow_complete(flow);
      } else {
        now_ = next;
      }
      while (!events_.empty() && events_.top().time <= now_ + kTimeEps) {
        const Event event = events_.top();
        events_.pop();
        if (is_work_event(event.type)) --pending_work_events_;
        process_event(event);
      }
      dispatch();
    }
    // The event queue can drain with jobs still stranded (e.g. the whole
    // cluster died and no recovery was scheduled): fail them cleanly.
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
      if (jobs_[i].finished) continue;
      ensure(machines_down_ > 0, "run: job did not finish");
      fail_job(static_cast<int>(i));
    }

    SimResult result;
    result.policy_name = std::string(policy_.name());
    result.input_balance_cov = dfs_.rack_balance_cov();
    ensure(pending_total_ == 0, "run: tasks still queued");
    for (JobRuntime& J : jobs_) {
      ensure(J.finished, "run: job did not finish");
      ensure(J.pending_tasks == 0, "run: queued-task count out of step");
      for (std::size_t s = 0; s < J.stages.size(); ++s) {
        const StageRuntime& S = J.stages[s];
        // Every launched attempt finished, was killed or was requeued.
        for (const TaskTable& T : S.tasks) {
          ensure(std::ranges::all_of(T.primary, &Attempt::idle) &&
                     std::ranges::all_of(T.backup, &Attempt::idle),
                 "run: an attempt outlived its job");
        }
        ensure(S.map_machines_in_rack ==
                   recount_map_machines(S, J.spec->stages[s]),
               "run: shuffle width out of step with map outputs");
      }
      result.makespan = std::max(result.makespan, J.result.finish);
      result.total_cross_rack_bytes += J.result.cross_rack_bytes;
      result.total_compute_hours += J.result.compute_seconds / kHour;
      result.tasks_killed += J.result.tasks_killed;
      result.maps_rerun += J.result.maps_rerun;
      result.speculative_launched += J.result.speculative_launched;
      result.speculative_wasted_seconds += J.result.speculative_wasted_seconds;
      result.jobs.push_back(std::move(J.result));
    }
    if (result.makespan > 0) {
      const BytesPerSec uplink = config_.cluster.effective_rack_uplink();
      for (int r = 0; r < topology_.racks(); ++r) {
        const Bytes up = network_.link_bytes()[static_cast<std::size_t>(
            network_.links().rack_up(r))];
        result.rack_uplink_utilization.push_back(
            up / (uplink * result.makespan));
      }
    }
    result.stragglers_injected = stragglers_injected_;
    result.bytes_rereplicated = bytes_rereplicated_;
    result.chunks_lost = chunks_lost_;
    result.jobs_failed = jobs_failed_;
    result.degraded_time = degraded_time_;
    return result;
  }

 private:
  const MapReduceSpec& stage_spec(int job, int stage) const {
    return jobs_[static_cast<std::size_t>(job)]
        .spec->stages[static_cast<std::size_t>(stage)];
  }
  StageRuntime& stage_rt(int job, int stage) {
    return jobs_[static_cast<std::size_t>(job)]
        .stages[static_cast<std::size_t>(stage)];
  }

  // A stage's per-rack count of machines holding its map output, recounted
  // from the per-machine counts (empty for a stage never activated).
  std::vector<int> recount_map_machines(const StageRuntime& S,
                                        const MapReduceSpec& spec) const {
    std::vector<int> counts(S.map_machines_in_rack.size(), 0);
    if (!shuffles(spec)) return counts;
    for (std::size_t m = 0; m < S.maps_on_machine.size(); ++m) {
      if (S.maps_on_machine[m] > 0) {
        ++counts[static_cast<std::size_t>(
            topology_.rack_of(static_cast<int>(m)))];
      }
    }
    return counts;
  }

  void push_event(Event event) {
    // Align event times to the batching quantum (rounding up preserves
    // causality: nothing ever completes early).
    if (config_.time_quantum > 0) {
      event.time = std::ceil(event.time / config_.time_quantum) *
                   config_.time_quantum;
    }
    if (is_work_event(event.type)) ++pending_work_events_;
    events_.push(event);
  }

  // ---------------------------------------------------------------- events

  void process_event(const Event& event) {
    switch (event.type) {
      case Event::Type::kArrival:
        submit_job(event.job);
        break;
      case Event::Type::kMapCompute:
      case Event::Type::kReduceCompute: {
        if (jobs_[static_cast<std::size_t>(event.job)].finished) break;
        const Phase phase =
            event.type == Event::Type::kMapCompute ? kMap : kReduce;
        // Stale events of a killed attempt are ignored; both the primary
        // and a live speculative backup count as current.
        if (!live_attempt(phase, event.job, event.stage, event.task,
                          event.attempt & 0xFF)) {
          break;
        }
        on_computed(phase, event.job, event.stage, event.task, event.machine,
                    event.attempt & 0xFF);
        break;
      }
      case Event::Type::kMachineFailure:
        on_machine_failure(event.machine);
        break;
      case Event::Type::kMachineRecover:
        on_machine_recover(event.machine);
        break;
    }
  }

  void submit_job(int j) {
    JobRuntime& J = jobs_[static_cast<std::size_t>(j)];
    const JobSpec& spec = *J.spec;

    // Place input data (one file per source stage), then ask the policy for
    // rack constraints given where the data landed. In the remote-storage
    // deployment (§7) there is nothing to place: maps stream their input
    // over the storage interconnect instead.
    std::vector<const FileLayout*> layouts;
    if (config_.remote_input_storage) {
      for (int s : spec.source_stages()) {
        J.stages[static_cast<std::size_t>(s)].remote_input = true;
      }
    } else {
      const auto placement = policy_.input_placement(spec);
      for (int s : spec.source_stages()) {
        const MapReduceSpec& st = spec.stages[static_cast<std::size_t>(s)];
        if (st.input_bytes <= 0) continue;
        const std::string file_name = "job-" + std::to_string(spec.id) +
                                      "-stage-" + std::to_string(s) +
                                      "-input";
        const FileLayout& layout = dfs_.write_file(
            file_name, st.input_bytes, st.num_maps, *placement, rng_);
        file_job_[file_name] = j;
        J.stages[static_cast<std::size_t>(s)].input_file = &layout;
        layouts.push_back(&layout);
      }
    }

    std::vector<int> racks = policy_.allowed_racks(spec, dfs_, layouts, rng_);
    // Fall back to the whole cluster when an assigned rack lost too many
    // machines (§3.1: the RM ignores locality guidelines in that case).
    // The planned racks are remembered so the constraints can be re-armed
    // if the rack heals before the job finishes (§7).
    J.planned_racks = racks;
    for (int r : racks) {
      require(r >= 0 && r < topology_.racks(),
              "submit_job: policy returned bad rack");
      if (!topology_.rack_usable(r, kRackHealthThreshold)) {
        racks.clear();
        J.constraints_dropped = true;
        break;
      }
    }
    J.allowed_racks = racks;
    J.rack_allowed.assign(static_cast<std::size_t>(topology_.racks()),
                          racks.empty());
    for (int r : racks) J.rack_allowed[static_cast<std::size_t>(r)] = true;

    J.priority = policy_.priority(spec);
    // Insert in priority order (ties by arrival sequence).
    const auto pos = std::upper_bound(
        active_jobs_.begin(), active_jobs_.end(), j, [&](int a, int b) {
          return jobs_[static_cast<std::size_t>(a)].priority <
                 jobs_[static_cast<std::size_t>(b)].priority;
        });
    active_jobs_.insert(pos, j);

    if (trace_.at(obs::TraceLevel::kJobs)) {
      std::string racks_text;
      for (int r : J.allowed_racks) {
        if (!racks_text.empty()) racks_text += ' ';
        racks_text += std::to_string(r);
      }
      trace_.instant(
          obs::TraceTrack::kJobs, "submit", "job", spec.id, now_,
          {obs::arg("job", static_cast<double>(spec.id)),
           obs::arg("name", spec.name),
           obs::arg("priority", J.priority),
           obs::arg("racks", racks_text.empty() ? "any" : racks_text),
           obs::arg("constraints_dropped",
                    J.constraints_dropped ? 1.0 : 0.0)});
    }

    for (int s : spec.source_stages()) activate_stage(j, s);
    new_work_ = true;
  }

  void activate_stage(int j, int s) {
    JobRuntime& J = jobs_[static_cast<std::size_t>(j)];
    StageRuntime& S = stage_rt(j, s);
    const MapReduceSpec& spec = stage_spec(j, s);
    ensure(S.state == StageState::kWaiting, "activate_stage: bad state");
    ensure(S.parents_pending == 0, "activate_stage: parents pending");
    S.state = StageState::kMapping;
    S.activated_at = now_;

    const auto maps = static_cast<std::size_t>(spec.num_maps);
    S.tasks[kMap].init(spec.num_maps);
    S.tasks[kReduce].init(spec.num_reduces);
    S.map_taken.assign(maps, false);
    S.map_exec_machine.assign(maps, -1);
    S.reduce_done.assign(static_cast<std::size_t>(spec.num_reduces), false);
    S.map_output_by_rack.assign(static_cast<std::size_t>(topology_.racks()),
                                0.0);
    S.maps_on_machine.assign(static_cast<std::size_t>(topology_.machines()), 0);
    S.map_machines_in_rack.assign(static_cast<std::size_t>(topology_.racks()),
                                  0);
    S.output_by_rack.assign(static_cast<std::size_t>(topology_.racks()), 0.0);
    for (int t = 0; t < spec.num_maps; ++t) S.tasks[kMap].queue.push_back(t);
    S.tasks[kMap].pending = spec.num_maps;
    J.pending_tasks += spec.num_maps;
    pending_total_ += spec.num_maps;

    if (S.input_file != nullptr) {
      // Chunk-level locality indices: map t reads chunk t.
      const auto replicas = [&](int t) -> const std::vector<int>& {
        return S.input_file->chunks[static_cast<std::size_t>(t)].machines;
      };
      S.maps_by_machine.build(topology_.machines(), spec.num_maps, replicas,
                              [](int m) { return m; });
      S.maps_by_rack.build(topology_.racks(), spec.num_maps, replicas,
                           [&](int m) { return topology_.rack_of(m); });
    } else {
      // Non-source stage: input is the union of parent outputs.
      S.stage_input_by_rack.assign(
          static_cast<std::size_t>(topology_.racks()), 0.0);
      for (const DagEdge& e : J.spec->edges) {
        if (e.to != s) continue;
        const StageRuntime& parent = stage_rt(j, e.from);
        for (int r = 0; r < topology_.racks(); ++r) {
          S.stage_input_by_rack[static_cast<std::size_t>(r)] +=
              parent.output_by_rack[static_cast<std::size_t>(r)];
        }
      }
    }
    new_work_ = true;
  }

  // ------------------------------------------------------------ task attempts

  void start_task(Phase phase, int j, int s, int task, int machine) {
    JobRuntime& J = jobs_[static_cast<std::size_t>(j)];
    StageRuntime& S = stage_rt(j, s);
    TaskTable& T = S.tasks[phase];
    const auto st = static_cast<std::size_t>(task);
    Attempt& a = T.primary[st];
    if (phase == kMap) S.map_taken[st] = true;
    a.machine = machine;
    T.computed[st] = false;
    --T.pending;
    --J.pending_tasks;
    --pending_total_;
    --slots_free_[static_cast<std::size_t>(machine)];
    a.start = now_;
    if (J.result.first_task_start < 0) J.result.first_task_start = now_;
    launch_attempt(phase, j, s, task, a);
  }

  // Issues the input fetch (or direct compute) of one attempt — shared by
  // primary starts and speculative backup launches, which differ only in
  // their bookkeeping.
  void launch_attempt(Phase phase, int j, int s, int task, Attempt& a) {
    const double slow = draw_straggler();
    if (slow > 1.0) {
      a.straggler = true;
      if (trace_.at(obs::TraceLevel::kTasks)) {
        trace_.instant(obs::TraceTrack::kTasks, "straggler", "fault", a.machine,
                       now_,
                       {obs::arg("job", static_cast<double>(
                                            jobs_[static_cast<std::size_t>(j)]
                                                .spec->id)),
                        obs::arg("stage", static_cast<double>(s)),
                        obs::arg("task", static_cast<double>(task)),
                        obs::arg("factor", slow)});
      }
    }
    const int flows = phase == kMap
                          ? fetch_map_input(j, s, task, a.machine, a.id)
                          : fetch_shuffle(j, s, task, a.machine, a.id);
    if (flows < 0) return;  // the job failed
    if (flows == 0) {
      schedule_compute(phase, j, s, task, a);
      return;
    }
    // The compute event fires when the *last* fetch flow finishes.
    a.fetches = flows;
  }

  // Starts the flows that bring one map attempt its input split and returns
  // how many it started (0: the input is local or absent; -1: every replica
  // of the input chunk is gone and the job was failed).
  int fetch_map_input(int j, int s, int task, int machine, int attempt) {
    StageRuntime& S = stage_rt(j, s);
    const MapReduceSpec& spec = stage_spec(j, s);
    const Bytes input_share = spec.input_bytes / spec.num_maps;
    const std::uint64_t tag =
        pack_tag(FlowKind::kMapFetch, attempt, j, s, task);
    if (S.remote_input && input_share >= kMinFlowBytes) {
      // Remote storage deployment (§7): stream the split over the storage
      // interconnect, then process.
      note_flow(network_.start_storage_flow(machine, input_share, 1.0,
                                            coflow_id(j, s), tag));
      return 1;
    }
    if (S.input_file != nullptr && input_share >= kMinFlowBytes) {
      if (S.input_file->chunk_on_machine(task, machine)) return 0;
      // Remote read: stream the chunk from the closest healthy replica,
      // then process. (Remote maps pay the transfer in full; locality is
      // exactly what delay scheduling and Corral's placement buy back.)
      const int src = S.input_file->closest_replica(task, machine, topology_);
      if (src < 0) {
        // Every replica of the input chunk is gone: the job can never
        // produce its output. Fail it cleanly.
        fail_job(j);
        return -1;
      }
      note_flow(network_.start_flow(
          FlowDesc{src, machine, input_share, 1.0, /*coflow=*/-1, tag}));
      return 1;
    }
    if (S.input_file != nullptr || S.remote_input) return 0;
    // Non-source stage: fetch the task's share of parent outputs from
    // every rack holding some (a shuffle-like fan-in).
    int flows = 0;
    for (int r = 0; r < topology_.racks(); ++r) {
      const Bytes bytes =
          S.stage_input_by_rack[static_cast<std::size_t>(r)] / spec.num_maps;
      if (bytes < kMinFlowBytes) continue;
      note_flow(network_.start_fanin_flow(r, machine, bytes, 1.0,
                                          coflow_id(j, s), tag));
      ++flows;
    }
    return flows;
  }

  // Starts one reduce attempt's share of every rack's map output and
  // returns the number of flows. Width = number of machines that produced
  // map output there, approximating the task-level TCP connection count.
  int fetch_shuffle(int j, int s, int task, int machine, int attempt) {
    StageRuntime& S = stage_rt(j, s);
    const MapReduceSpec& spec = stage_spec(j, s);
    int flows = 0;
    for (int r = 0; r < topology_.racks(); ++r) {
      const Bytes bytes =
          S.map_output_by_rack[static_cast<std::size_t>(r)] /
          spec.num_reduces;
      if (bytes < kMinFlowBytes) continue;
      const double width = std::max(
          1, S.map_machines_in_rack[static_cast<std::size_t>(r)]);
      note_flow(network_.start_fanin_flow(
          r, machine, bytes, width, coflow_id(j, s),
          pack_tag(FlowKind::kReduceFetch, attempt, j, s, task)));
      ++flows;
    }
    return flows;
  }

  // The attempt has its input: it now processes it (maps their input
  // split, reduces their share of the output), slowed if it straggles.
  void schedule_compute(Phase phase, int j, int s, int task, Attempt& a) {
    const MapReduceSpec& spec = stage_spec(j, s);
    const Bytes share = phase == kMap ? spec.input_bytes / spec.num_maps
                                      : spec.output_bytes / spec.num_reduces;
    const BytesPerSec rate = phase == kMap ? spec.map_rate : spec.reduce_rate;
    const double slow = a.straggler ? config_.faults.straggler_slowdown : 1.0;
    a.straggler = false;
    push_event(Event{now_ + slow * share / rate, next_seq_++,
                     phase == kMap ? Event::Type::kMapCompute
                                   : Event::Type::kReduceCompute,
                     j, s, task, a.machine, a.id});
  }

  // An attempt finished computing. Under speculation this decides the
  // task: the first attempt to compute wins and the other copy is torn
  // down, its slot time booked as wasted work; the winner gets no further
  // backup. A map is then done; a reduce first writes its off-rack output
  // replica when that is on.
  void on_computed(Phase phase, int j, int s, int task, int machine,
                   int attempt8) {
    StageRuntime& S = stage_rt(j, s);
    TaskTable& T = S.tasks[phase];
    const auto st = static_cast<std::size_t>(task);
    if (T.backup[st].machine >= 0) {
      if (same_attempt(T.backup[st].id, attempt8)) {
        // The backup won: kill the primary and adopt the backup as the
        // task's canonical attempt.
        kill_attempt(phase, j, s, task, T.primary[st]);
        T.adopt(st);
      } else {
        kill_attempt(phase, j, s, task, T.backup[st]);
      }
    }
    T.computed[st] = true;
    if (phase == kMap) {
      finish_task(kMap, j, s, task, machine);
      return;
    }

    const MapReduceSpec& spec = stage_spec(j, s);
    const int rack = topology_.rack_of(machine);
    const Bytes out_share = spec.output_bytes / spec.num_reduces;
    // First output replica is written locally.
    S.output_by_rack[static_cast<std::size_t>(rack)] += out_share;
    if (config_.write_output_replicas && out_share >= kMinFlowBytes) {
      // HDFS write pipeline: the off-rack replica transits the core and
      // holds the slot; the same-rack copy proceeds at full bisection off
      // the critical path and is not modelled.
      const int remote = topology_.random_healthy_machine_outside(rack, rng_);
      if (remote >= 0) {
        note_flow(network_.start_flow(FlowDesc{
            machine, remote, out_share, 1.0, /*coflow=*/-1,
            pack_tag(FlowKind::kWriteRemote, T.primary[st].id, j, s, task)}));
        return;
      }
    }
    finish_task(kReduce, j, s, task, machine);
  }

  void finish_task(Phase phase, int j, int s, int task, int machine) {
    JobRuntime& J = jobs_[static_cast<std::size_t>(j)];
    StageRuntime& S = stage_rt(j, s);
    TaskTable& T = S.tasks[phase];
    const MapReduceSpec& spec = stage_spec(j, s);
    const auto st = static_cast<std::size_t>(task);
    Attempt& a = T.primary[st];
    ensure(a.machine == machine &&
               !(phase == kMap ? S.map_exec_machine[st] >= 0
                               : S.reduce_done[st]),
           "finish_task: task attempt finished twice");
    const Seconds duration = now_ - a.start;
    if (trace_.at(obs::TraceLevel::kTasks)) {
      trace_.span(obs::TraceTrack::kTasks, phase == kMap ? "map" : "reduce",
                  "task", machine, a.start, now_,
                  {obs::arg("job", static_cast<double>(J.spec->id)),
                   obs::arg("stage", static_cast<double>(s)),
                   obs::arg("task", static_cast<double>(task)),
                   obs::arg("machine", static_cast<double>(machine))});
    }
    J.result.compute_seconds += duration;
    T.duration_total += duration;
    a.machine = -1;
    ++T.done;
    if (phase == kMap) {
      const int rack = topology_.rack_of(machine);
      S.map_exec_machine[st] = machine;
      const bool first_on_machine =
          ++S.maps_on_machine[static_cast<std::size_t>(machine)] == 1;
      if (shuffles(spec)) {
        S.map_output_by_rack[static_cast<std::size_t>(rack)] +=
            spec.shuffle_bytes / spec.num_maps;
        if (first_on_machine) {
          ++S.map_machines_in_rack[static_cast<std::size_t>(rack)];
        }
      }
      if (spec.num_reduces == 0) {
        // Map-only stage: output materializes where the maps ran.
        S.output_by_rack[static_cast<std::size_t>(rack)] +=
            spec.output_bytes / spec.num_maps;
      }
    } else {
      J.result.reduce_durations.push_back(duration);
      S.reduce_done[st] = true;
    }
    free_slot(machine);

    if (T.done < (phase == kMap ? spec.num_maps : spec.num_reduces)) return;
    if (phase == kMap && spec.num_reduces > 0) {
      start_reduce_phase(j, s);
    } else {
      complete_stage(j, s);
    }
  }

  // Transitions a stage whose maps are all done into the reduce phase,
  // queueing only reduces that have not already completed (a stage can pass
  // through here again after a failure reran lost maps).
  void start_reduce_phase(int j, int s) {
    JobRuntime& J = jobs_[static_cast<std::size_t>(j)];
    StageRuntime& S = stage_rt(j, s);
    TaskTable& R = S.tasks[kReduce];
    const MapReduceSpec& spec = stage_spec(j, s);
    if (R.done == spec.num_reduces) {
      complete_stage(j, s);
      return;
    }
    S.state = StageState::kReducing;
    ensure(R.queue.empty(), "start_reduce_phase: stale reduce queue");
    for (int t = 0; t < spec.num_reduces; ++t) {
      if (!S.reduce_done[static_cast<std::size_t>(t)]) {
        R.queue.push_back(t);
        ++R.pending;
        ++J.pending_tasks;
        ++pending_total_;
      }
    }
    new_work_ = true;
  }

  void complete_stage(int j, int s) {
    JobRuntime& J = jobs_[static_cast<std::size_t>(j)];
    StageRuntime& S = stage_rt(j, s);
    for (const TaskTable& T : S.tasks) {
      for (const Attempt& a : T.primary) {
        ensure(a.machine < 0, "complete_stage: a task is still running");
      }
    }
    ensure(std::find(S.reduce_done.begin(), S.reduce_done.end(), false) ==
               S.reduce_done.end(),
           "complete_stage: a reduce is unfinished");
    S.state = StageState::kDone;
    ++J.stages_done;
    if (trace_.at(obs::TraceLevel::kJobs)) {
      const MapReduceSpec& spec = stage_spec(j, s);
      trace_.span(obs::TraceTrack::kJobs, "stage", "stage", J.spec->id,
                  S.activated_at, now_,
                  {obs::arg("job", static_cast<double>(J.spec->id)),
                   obs::arg("stage", static_cast<double>(s)),
                   obs::arg("maps", static_cast<double>(spec.num_maps)),
                   obs::arg("reduces", static_cast<double>(spec.num_reduces))});
    }
    for (int child : J.children[static_cast<std::size_t>(s)]) {
      StageRuntime& C = stage_rt(j, child);
      if (--C.parents_pending == 0) activate_stage(j, child);
    }
    if (J.stages_done == static_cast<int>(J.spec->stages.size())) {
      J.finished = true;
      J.result.finish = now_;
      --unfinished_count_;
      active_jobs_.erase(
          std::find(active_jobs_.begin(), active_jobs_.end(), j));
      if (trace_.at(obs::TraceLevel::kJobs)) {
        trace_.span(
            obs::TraceTrack::kJobs,
            J.spec->name.empty() ? std::string("job") : J.spec->name, "job",
            J.spec->id, J.result.arrival, now_,
            {obs::arg("job", static_cast<double>(J.spec->id)),
             obs::arg("cross_rack_gb", J.result.cross_rack_bytes / 1e9),
             obs::arg("compute_s", J.result.compute_seconds)});
      }
    }
  }

  // Aborts a job that can no longer finish (input data lost or a task out
  // of retries): frees every slot its live attempts occupy, purges their
  // bookkeeping, tears down its transfers, and records the failure.
  void fail_job(int j) {
    JobRuntime& J = jobs_[static_cast<std::size_t>(j)];
    if (J.finished) return;
    J.finished = true;
    J.result.failed = true;
    J.result.finish = now_;
    if (trace_.at(obs::TraceLevel::kJobs)) {
      trace_.span(obs::TraceTrack::kJobs,
                  J.spec->name.empty() ? std::string("job") : J.spec->name,
                  "job", J.spec->id, J.result.arrival, now_,
                  {obs::arg("job", static_cast<double>(J.spec->id)),
                   obs::arg("failed", 1.0)});
      trace_.instant(obs::TraceTrack::kJobs, "job-failed", "job", J.spec->id,
                     now_, {obs::arg("job", static_cast<double>(J.spec->id))});
    }
    ++jobs_failed_;
    --unfinished_count_;
    const auto pos = std::find(active_jobs_.begin(), active_jobs_.end(), j);
    if (pos != active_jobs_.end()) active_jobs_.erase(pos);

    for (StageRuntime& S : J.stages) {
      for (TaskTable& T : S.tasks) {
        for (auto* copies : {&T.primary, &T.backup}) {
          for (Attempt& a : *copies) {
            if (a.machine < 0) continue;
            free_slot(a.machine);
            a.clear();
          }
        }
      }
    }
    pending_total_ -= J.pending_tasks;
    J.pending_tasks = 0;
    forget_flows(network_.cancel_flows_if([&](const Flow& flow) {
      return tag_kind(flow.tag) != FlowKind::kRereplicate &&
             tag_job(flow.tag) == j;
    }));
    new_work_ = true;
  }

  // ----------------------------------------------------------------- flows

  // Remembers a flow's start time for its completion span (kFlows only —
  // at lower levels this is one dead branch per flow start).
  int note_flow(int flow_id) {
    if (trace_.at(obs::TraceLevel::kFlows)) {
      flow_started_.emplace(flow_id, now_);
    }
    return flow_id;
  }

  void forget_flows(const std::vector<Flow>& flows) {
    if (!trace_.at(obs::TraceLevel::kFlows)) return;
    for (const Flow& flow : flows) flow_started_.erase(flow.id);
  }

  static const char* flow_kind_name(FlowKind kind) {
    switch (kind) {
      case FlowKind::kMapFetch: return "map-fetch";
      case FlowKind::kReduceFetch: return "shuffle";
      case FlowKind::kWriteRemote: return "write-replica";
      case FlowKind::kRereplicate: return "rereplicate";
    }
    return "flow";
  }

  void trace_flow_complete(const CompletedFlow& flow) {
    const auto it = flow_started_.find(flow.id);
    if (it == flow_started_.end()) return;
    const Seconds start = it->second;
    flow_started_.erase(it);
    const Seconds elapsed = now_ - start;
    std::vector<obs::TraceArg> args;
    args.push_back(obs::arg("bytes", static_cast<double>(flow.bytes)));
    args.push_back(
        obs::arg("gbps", elapsed > 0 ? flow.bytes * 8 / elapsed / 1e9 : 0.0));
    args.push_back(obs::arg("cross_rack", flow.cross_rack ? 1.0 : 0.0));
    long tid = -1;  // DFS healing traffic is not owned by any job
    if (tag_kind(flow.tag) != FlowKind::kRereplicate) {
      const auto j = static_cast<std::size_t>(tag_job(flow.tag));
      tid = jobs_[j].spec->id;
      args.push_back(obs::arg("job", static_cast<double>(tid)));
      args.push_back(
          obs::arg("stage", static_cast<double>(tag_stage(flow.tag))));
      args.push_back(
          obs::arg("task", static_cast<double>(tag_task(flow.tag))));
    }
    trace_.span(obs::TraceTrack::kFlows, flow_kind_name(tag_kind(flow.tag)),
                "flow", tid, start, now_, std::move(args));
  }

  void on_flow_complete(const CompletedFlow& flow) {
    if (trace_.at(obs::TraceLevel::kFlows)) trace_flow_complete(flow);
    if (tag_kind(flow.tag) == FlowKind::kRereplicate) {
      // Background healing: the lost replica is whole again.
      const auto it = rereps_.find(flow.tag);
      if (it == rereps_.end()) return;
      bytes_rereplicated_ += flow.bytes;
      dfs_.add_replica(it->second.file, it->second.chunk, it->second.dst);
      rereps_.erase(it);
      return;
    }
    const int j = tag_job(flow.tag);
    const int s = tag_stage(flow.tag);
    const int task = tag_task(flow.tag);
    const int attempt = tag_attempt(flow.tag);
    JobRuntime& J = jobs_[static_cast<std::size_t>(j)];
    if (J.finished) return;
    if (flow.cross_rack) J.result.cross_rack_bytes += flow.bytes;

    switch (tag_kind(flow.tag)) {
      case FlowKind::kMapFetch:
      case FlowKind::kReduceFetch: {
        const Phase phase = fetch_phase(tag_kind(flow.tag));
        Attempt* a = stage_rt(j, s).tasks[phase].find(task, attempt);
        if (a == nullptr) break;  // a killed attempt's flow
        ensure(a->fetches > 0 && a->machine >= 0,
               "fetch finished for a task not fetching");
        if (--a->fetches > 0) break;  // fetch flows outstanding
        // The fetch is complete; the task now processes its input.
        schedule_compute(phase, j, s, task, *a);
        break;
      }
      case FlowKind::kWriteRemote: {
        const TaskTable& R = stage_rt(j, s).tasks[kReduce];
        const auto st = static_cast<std::size_t>(task);
        if (!same_attempt(R.primary[st].id, attempt)) break;
        ensure(R.primary[st].machine >= 0 && R.computed[st],
               "write finished for a task not writing");
        finish_task(kReduce, j, s, task, R.primary[st].machine);
        break;
      }
      case FlowKind::kRereplicate:
        break;  // handled above
    }
  }

  // --------------------------------------------------------------- failure

  // §3.1/§7 failure handling: dead machines lose their slots and their
  // running tasks; completed map outputs stored there are lost (map output
  // is not replicated, exactly as in Hadoop) and those maps rerun; reduce
  // outputs are HDFS-replicated and survive. Corral's rack constraints are
  // dropped for jobs whose assigned rack falls below the health threshold.
  void on_machine_failure(int machine) {
    if (!topology_.is_up(machine)) return;
    topology_.fail_machine(machine);
    ++machines_down_;
    slots_free_[static_cast<std::size_t>(machine)] = 0;
    const int machine_rack = topology_.rack_of(machine);
    if (trace_.at(obs::TraceLevel::kJobs)) {
      trace_.instant(obs::TraceTrack::kFaults, "machine-failure", "fault",
                     machine, now_,
                     {obs::arg("machine", static_cast<double>(machine)),
                      obs::arg("rack", static_cast<double>(machine_rack))});
      trace_.counter(obs::TraceTrack::kFaults, "machines_down", 0, now_,
                     static_cast<double>(machines_down_));
    }

    // Durable rack degradation: notify the policy once per transition so
    // planning policies can repair their plan for unstarted jobs (§7).
    if (rack_usable_[static_cast<std::size_t>(machine_rack)] &&
        !topology_.rack_usable(machine_rack, kRackHealthThreshold)) {
      rack_usable_[static_cast<std::size_t>(machine_rack)] = false;
      policy_.on_rack_degraded(machine_rack, topology_, now_);
    }

    for (std::size_t ji = 0; ji < jobs_.size(); ++ji) {
      JobRuntime& J = jobs_[ji];
      if (J.finished) continue;
      const int j = static_cast<int>(ji);
      // Kill the job's backups on the dead machine first, so the scan
      // below sees only live backups when deciding promotions.
      kill_backups_on(J, machine);

      // Constraint fallback (§3.1); remembered for re-arming on recovery.
      if (!J.allowed_racks.empty() &&
          std::find(J.allowed_racks.begin(), J.allowed_racks.end(),
                    machine_rack) != J.allowed_racks.end() &&
          !topology_.rack_usable(machine_rack, kRackHealthThreshold)) {
        J.allowed_racks.clear();
        J.rack_allowed.assign(static_cast<std::size_t>(topology_.racks()),
                              true);
        J.constraints_dropped = true;
      }

      for (std::size_t si = 0; si < J.stages.size() && !J.finished; ++si) {
        StageRuntime& S = J.stages[si];
        if (S.state != StageState::kMapping &&
            S.state != StageState::kReducing) {
          continue;
        }
        const int s = static_cast<int>(si);
        const MapReduceSpec& spec = stage_spec(j, s);

        // Kill maps running on the dead machine.
        kill_tasks_on(kMap, j, s, machine);

        // Lost map outputs: the machine held completed maps' intermediate
        // data that reduces have not fully consumed yet.
        int& lost = S.maps_on_machine[static_cast<std::size_t>(machine)];
        if (!J.finished && lost > 0) {
          for (int t = 0; t < spec.num_maps && !J.finished; ++t) {
            if (S.map_exec_machine[static_cast<std::size_t>(t)] != machine) {
              continue;
            }
            S.map_exec_machine[static_cast<std::size_t>(t)] = -1;
            --S.tasks[kMap].done;
            if (shuffles(spec)) {
              S.map_output_by_rack[static_cast<std::size_t>(machine_rack)] -=
                  spec.shuffle_bytes / spec.num_maps;
            }
            ++J.result.maps_rerun;
            requeue(kMap, j, s, t, /*release_slot=*/false);
          }
          if (!J.finished) {
            lost = 0;
            if (shuffles(spec)) {
              --S.map_machines_in_rack[static_cast<std::size_t>(machine_rack)];
            }
            if (S.state == StageState::kReducing) {
              demote_to_mapping(j, s);
            }
          }
        }

        // Kill reduces running on the dead machine (if the stage is still
        // reducing after the possible demotion, or was untouched above).
        if (!J.finished && S.state == StageState::kReducing) {
          kill_tasks_on(kReduce, j, s, machine);
        }
      }
    }

    // A fail-stop crash loses the disk: DFS replicas stored there are gone.
    // Chunks left with surviving copies are queued for background healing;
    // chunks losing their last copy are permanently lost (jobs depending on
    // them fail when they next try to read).
    const auto lost = dfs_.drop_replicas_on(machine);
    for (const LostReplica& replica : lost) {
      if (replica.remaining == 0) {
        ++chunks_lost_;
        continue;
      }
      if (!config_.enable_rereplication) continue;
      const auto owner = file_job_.find(replica.file);
      if (owner != file_job_.end() &&
          jobs_[static_cast<std::size_t>(owner->second)].finished) {
        continue;  // nobody will read this input again
      }
      schedule_rereplication(replica.file, replica.chunk, replica.bytes);
    }

    // Tear down every transfer touching the dead machine, plus any stale
    // flows of the tasks killed above (their attempt no longer matches).
    const int up = network_.links().host_up(machine);
    const int down = network_.links().host_down(machine);
    const auto cancelled = network_.cancel_flows_if([&](const Flow& flow) {
      for (int i = 0; i < flow.path.count; ++i) {
        if (flow.path.links[i] == up || flow.path.links[i] == down) {
          return true;
        }
      }
      return is_stale(flow.tag);
    });
    for (const Flow& flow : cancelled) on_flow_cancelled(flow, machine);
    new_work_ = true;
  }

  // A machine rejoins the cluster with an empty disk: its slots return to
  // the pool, and Corral constraints dropped during the outage are re-armed
  // for jobs whose assigned racks are all healthy again (§7).
  void on_machine_recover(int machine) {
    if (topology_.is_up(machine)) return;
    topology_.restore_machine(machine);
    --machines_down_;
    slots_free_[static_cast<std::size_t>(machine)] =
        config_.cluster.slots_per_machine;
    const int rack = topology_.rack_of(machine);
    if (trace_.at(obs::TraceLevel::kJobs)) {
      trace_.instant(obs::TraceTrack::kFaults, "machine-recover", "fault",
                     machine, now_,
                     {obs::arg("machine", static_cast<double>(machine)),
                      obs::arg("rack", static_cast<double>(rack))});
      trace_.counter(obs::TraceTrack::kFaults, "machines_down", 0, now_,
                     static_cast<double>(machines_down_));
    }
    if (!rack_usable_[static_cast<std::size_t>(rack)] &&
        topology_.rack_usable(rack, kRackHealthThreshold)) {
      rack_usable_[static_cast<std::size_t>(rack)] = true;
      rearm_constraints();
      policy_.on_rack_recovered(rack, topology_, now_);
    }
    new_work_ = true;
  }

  void rearm_constraints() {
    for (JobRuntime& J : jobs_) {
      if (J.finished || !J.constraints_dropped || J.planned_racks.empty()) {
        continue;
      }
      bool all_usable = true;
      for (int r : J.planned_racks) {
        all_usable =
            all_usable && topology_.rack_usable(r, kRackHealthThreshold);
      }
      if (!all_usable) continue;
      J.allowed_racks = J.planned_racks;
      J.rack_allowed.assign(static_cast<std::size_t>(topology_.racks()),
                            false);
      for (int r : J.allowed_racks) {
        J.rack_allowed[static_cast<std::size_t>(r)] = true;
      }
      J.constraints_dropped = false;
    }
  }

  // Kills the phase's tasks running on a dead machine. A task whose backup
  // survives elsewhere is not rescheduled: the backup is promoted to
  // primary and keeps running.
  void kill_tasks_on(Phase phase, int j, int s, int machine) {
    JobRuntime& J = jobs_[static_cast<std::size_t>(j)];
    TaskTable& T = stage_rt(j, s).tasks[phase];
    for (std::size_t t = 0; t < T.primary.size() && !J.finished; ++t) {
      if (T.primary[t].machine != machine) continue;
      ++J.result.tasks_killed;
      if (T.backup[t].machine >= 0 && topology_.is_up(T.backup[t].machine)) {
        T.adopt(t);
      } else {
        requeue(phase, j, s, static_cast<int>(t), /*release_slot=*/false);
      }
    }
  }

  // Kills a job's backup attempts hosted on a dead machine, in (stage,
  // phase, task) order. The matching flows terminate at the machine and are
  // torn down by the caller's path-based cancellation pass.
  void kill_backups_on(JobRuntime& J, int machine) {
    for (StageRuntime& S : J.stages) {
      for (TaskTable& T : S.tasks) {
        for (Attempt& backup : T.backup) {
          if (backup.machine != machine) continue;
          J.result.speculative_wasted_seconds += now_ - backup.start;
          ++J.result.tasks_killed;
          backup.clear();
        }
      }
    }
  }

  // True when the flow belongs to a task attempt that has been superseded.
  bool is_stale(std::uint64_t tag) {
    if (tag_kind(tag) == FlowKind::kRereplicate) return false;
    const int j = tag_job(tag);
    const int s = tag_stage(tag);
    const int task = tag_task(tag);
    const int attempt = tag_attempt(tag);
    if (jobs_[static_cast<std::size_t>(j)].finished) return true;
    switch (tag_kind(tag)) {
      case FlowKind::kMapFetch:
      case FlowKind::kReduceFetch:
        return !live_attempt(fetch_phase(tag_kind(tag)), j, s, task, attempt);
      default:
        return !same_attempt(stage_rt(j, s).tasks[kReduce].primary[
                                 static_cast<std::size_t>(task)].id,
                             attempt);
    }
  }

  // Reacts to a flow the failure handler tore down. Flows of killed tasks
  // only need their bookkeeping purged; flows of *live* tasks lost their
  // remote endpoint (a replica source or a write target) and the task is
  // restarted or its write re-issued.
  void on_flow_cancelled(const Flow& flow, int dead_machine) {
    if (trace_.at(obs::TraceLevel::kFlows)) {
      flow_started_.erase(flow.id);
      trace_.instant(
          obs::TraceTrack::kFlows, "flow-cancelled", "flow",
          tag_kind(flow.tag) == FlowKind::kRereplicate
              ? -1
              : jobs_[static_cast<std::size_t>(tag_job(flow.tag))].spec->id,
          now_,
          {obs::arg("kind", std::string(flow_kind_name(tag_kind(flow.tag)))),
           obs::arg("remaining_bytes", static_cast<double>(flow.remaining))});
    }
    if (tag_kind(flow.tag) == FlowKind::kRereplicate) {
      // A healing transfer lost its source or target: retry from the
      // surviving replicas (with a fresh random target).
      const auto it = rereps_.find(flow.tag);
      if (it == rereps_.end()) return;
      const Rerep info = it->second;
      rereps_.erase(it);
      const auto owner = file_job_.find(info.file);
      if (owner != file_job_.end() &&
          jobs_[static_cast<std::size_t>(owner->second)].finished) {
        return;
      }
      schedule_rereplication(info.file, info.chunk, flow.total);
      return;
    }
    const int j = tag_job(flow.tag);
    const int s = tag_stage(flow.tag);
    const int task = tag_task(flow.tag);
    const int attempt = tag_attempt(flow.tag);

    switch (tag_kind(flow.tag)) {
      case FlowKind::kRereplicate:
        break;  // handled above
      case FlowKind::kMapFetch:
      case FlowKind::kReduceFetch: {
        const Phase phase = fetch_phase(tag_kind(flow.tag));
        TaskTable& T = stage_rt(j, s).tasks[phase];
        const auto st = static_cast<std::size_t>(task);
        if (same_attempt(T.primary[st].id, attempt)) {
          // The replica source died while a live map was streaming from
          // it: restart the map (it re-picks a healthy replica), freeing
          // its still-healthy slot. (Fan-in and shuffle flows only die with
          // their destination, whose tasks the failure scan has already
          // killed, so only remote map reads get here.)
          ++jobs_[static_cast<std::size_t>(j)].result.tasks_killed;
          requeue(phase, j, s, task, /*release_slot=*/true);
          break;
        }
        if (T.find(task, attempt) != nullptr) {
          // A live backup lost its replica source: abandon the backup (the
          // primary is still running).
          ++jobs_[static_cast<std::size_t>(j)].result.tasks_killed;
          kill_attempt(phase, j, s, task, T.backup[st]);
        }
        break;
      }
      case FlowKind::kWriteRemote: {
        const TaskTable& R = stage_rt(j, s).tasks[kReduce];
        const auto st = static_cast<std::size_t>(task);
        if (!same_attempt(R.primary[st].id, attempt) ||
            R.primary[st].machine < 0 || !R.computed[st]) {
          break;  // task killed; nothing to re-issue
        }
        const int src = R.primary[st].machine;
        if (!topology_.is_up(src)) break;  // will be killed by the scan
        // The write target died: restart the replica write elsewhere.
        const int remote =
            topology_.random_healthy_machine_outside(topology_.rack_of(src),
                                                     rng_);
        if (remote >= 0 && remote != dead_machine) {
          note_flow(network_.start_flow(FlowDesc{
              src, remote, flow.total, 1.0, /*coflow=*/-1, flow.tag}));
        } else {
          // No healthy off-rack target left; skip the remote replica.
          finish_task(kReduce, j, s, task, src);
        }
        break;
      }
    }
  }

  // Returns a killed or source-less task to the pending queue under a new
  // attempt number. `release_slot` frees the slot it occupied (only when
  // the machine itself is still healthy). Fails the job once the task has
  // burned through its retry budget.
  void requeue(Phase phase, int j, int s, int task, bool release_slot) {
    JobRuntime& J = jobs_[static_cast<std::size_t>(j)];
    if (J.finished) return;
    StageRuntime& S = stage_rt(j, s);
    TaskTable& T = S.tasks[phase];
    const std::size_t st = static_cast<std::size_t>(task);
    const int machine = T.primary[st].machine;
    T.primary[st].clear();
    if (release_slot && machine >= 0) free_slot(machine);
    if (T.issued[st] >= kMaxTaskRetries) {
      fail_job(j);
      return;
    }
    T.primary[st].id = ++T.issued[st];
    if (phase == kMap) S.map_taken[st] = false;
    T.queue.push_back(task);
    ++T.pending;
    ++J.pending_tasks;
    ++pending_total_;
  }

  // Sends a reducing stage back to the map phase after intermediate data
  // loss: kills every in-flight reduce (their fetch plans reference the
  // lost outputs) and clears the queue; start_reduce_phase re-queues the
  // unfinished reduces once the rerun maps complete.
  void demote_to_mapping(int j, int s) {
    JobRuntime& J = jobs_[static_cast<std::size_t>(j)];
    StageRuntime& S = stage_rt(j, s);
    const MapReduceSpec& spec = stage_spec(j, s);
    TaskTable& R = S.tasks[kReduce];
    for (int t = 0; t < spec.num_reduces; ++t) {
      const std::size_t st = static_cast<std::size_t>(t);
      // Speculative backups fetch the same lost outputs: kill them too.
      if (R.backup[st].machine >= 0) {
        ++J.result.tasks_killed;
        kill_attempt(kReduce, j, s, t, R.backup[st]);
      }
      const int machine = R.primary[st].machine;
      if (machine >= 0) {
        R.primary[st].clear();
        R.primary[st].id = ++R.issued[st];
        ++J.result.tasks_killed;
        free_slot(machine);
      }
    }
    J.pending_tasks -= R.pending;
    pending_total_ -= R.pending;
    R.pending = 0;
    R.queue.clear();
    S.state = StageState::kMapping;
  }

  // -------------------------------------------------------------- dispatch

  void dispatch() {
    if (new_work_) {
      new_work_ = false;
      for (int m = 0; m < topology_.machines(); ++m) {
        if (slots_free_[static_cast<std::size_t>(m)] > 0) try_fill(m);
      }
      freed_machines_.clear();
      return;
    }
    // A job failing inside try_fill frees slots, appending to
    // freed_machines_ while it is walked (so no range-for) and marking new
    // work; the full scan below covers those machines.
    const std::size_t freed = freed_machines_.size();
    for (std::size_t i = 0; i < freed; ++i) try_fill(freed_machines_[i]);
    freed_machines_.clear();
    // A stage transition inside try_fill can mark new work.
    if (new_work_) dispatch();
  }

  void try_fill(int machine) {
    // With no queued task anywhere only a speculative backup could take
    // the slot; without speculation assign_one_task would find nothing.
    if (pending_total_ == 0 && !config_.enable_speculation) return;
    if (!topology_.is_up(machine)) return;
    while (slots_free_[static_cast<std::size_t>(machine)] > 0) {
      if (!assign_one_task(machine)) break;
    }
  }

  bool assign_one_task(int machine) {
    const int rack = topology_.rack_of(machine);
    for (int j : active_jobs_) {
      JobRuntime& J = jobs_[static_cast<std::size_t>(j)];
      if (J.pending_tasks == 0) continue;
      if (!J.rack_allowed[static_cast<std::size_t>(rack)]) continue;

      for (std::size_t s = 0; s < J.stages.size(); ++s) {
        StageRuntime& S = J.stages[s];
        // Reduces have no input locality; take them eagerly.
        TaskTable& R = S.tasks[kReduce];
        if (S.state == StageState::kReducing && R.pending > 0) {
          const int task = R.queue.front();
          R.queue.pop_front();
          start_task(kReduce, j, static_cast<int>(s), task, machine);
          return true;
        }
        if (S.state != StageState::kMapping || S.tasks[kMap].pending == 0) {
          continue;
        }

        if (S.input_file == nullptr) {
          // Remote-storage and fan-in reads have no chunk locality.
          const int task = pop_any_map(S);
          start_task(kMap, j, static_cast<int>(s), task, machine);
          return true;
        }
        // Delay scheduling: node-local first; otherwise the job skips this
        // opportunity until it has waited long enough for rack-local / any.
        int task = S.maps_by_machine.pop(machine, S.map_taken);
        if (task >= 0) {
          J.delay_skips = 0;
          start_task(kMap, j, static_cast<int>(s), task, machine);
          return true;
        }
        if (J.delay_skips >= config_.node_local_skips) {
          task = S.maps_by_rack.pop(rack, S.map_taken);
          if (task >= 0) {
            start_task(kMap, j, static_cast<int>(s), task, machine);
            return true;
          }
        }
        if (J.delay_skips >= config_.rack_local_skips) {
          task = pop_any_map(S);
          start_task(kMap, j, static_cast<int>(s), task, machine);
          return true;
        }
        ++J.delay_skips;
        // Fall through to the next job; this one is waiting for locality.
      }
    }
    // No queued work wants this slot: consider a speculative backup for a
    // straggling task (Hadoop-style, only on otherwise-idle capacity).
    if (config_.enable_speculation && try_speculate(machine)) return true;
    return false;
  }

  static int pop_any_map(StageRuntime& S) {
    std::deque<int>& queue = S.tasks[kMap].queue;
    while (!queue.empty()) {
      const int task = queue.front();
      queue.pop_front();
      if (!S.map_taken[static_cast<std::size_t>(task)]) return task;
    }
    ensure(false, "pop_any_map: queue empty despite pending maps");
    return -1;
  }

  // --------------------------------------------------------------- helpers

  int coflow_id(int j, int s) const { return j * 64 + s; }

  void free_slot(int machine) {
    if (!topology_.is_up(machine)) return;
    ++slots_free_[static_cast<std::size_t>(machine)];
    freed_machines_.push_back(machine);
  }

  // ----------------------------------------------------------- speculation

  // An event (or flow) belongs to a live attempt when it matches either the
  // task's current primary attempt or its speculative backup; anything else
  // is a stale remnant of a killed attempt.
  bool live_attempt(Phase phase, int j, int s, int task, int attempt8) {
    return stage_rt(j, s).tasks[phase].find(task, attempt8) != nullptr;
  }

  // Tears down one losing (or orphaned) attempt: books its run time as
  // wasted work, clears its record, cancels its flows (a reduce's replica
  // write too), and frees its slot if the host is still alive.
  void kill_attempt(Phase phase, int j, int s, int task, Attempt& a) {
    JobRuntime& J = jobs_[static_cast<std::size_t>(j)];
    J.result.speculative_wasted_seconds += now_ - a.start;
    const std::uint64_t fetch_tag =
        pack_tag(fetch_kind(phase), a.id, j, s, task);
    const std::uint64_t write_tag =
        phase == kReduce ? pack_tag(FlowKind::kWriteRemote, a.id, j, s, task)
                         : fetch_tag;
    forget_flows(network_.cancel_flows_if([&](const Flow& flow) {
      return flow.tag == fetch_tag || flow.tag == write_tag;
    }));
    if (a.machine >= 0) free_slot(a.machine);
    a.clear();
  }

  // Hadoop-style speculative execution: when a slot would otherwise idle,
  // launch a backup copy of the longest-straggling attempt. At most one
  // backup per task, never on the primary's own machine, bounded per job by
  // speculation_cap, and only once a stage has finished tasks to calibrate
  // the expected duration against.
  bool try_speculate(int machine) {
    const int rack = topology_.rack_of(machine);
    for (int j : active_jobs_) {
      JobRuntime& J = jobs_[static_cast<std::size_t>(j)];
      if (!J.rack_allowed[static_cast<std::size_t>(rack)]) continue;
      const int budget = std::max(
          1, static_cast<int>(config_.speculation_cap * J.total_tasks));
      if (J.result.speculative_launched >= budget) continue;
      for (std::size_t si = 0; si < J.stages.size(); ++si) {
        const StageState state = J.stages[si].state;
        const int s = static_cast<int>(si);
        if ((state == StageState::kMapping &&
             speculate(kMap, j, s, machine)) ||
            (state == StageState::kReducing &&
             speculate(kReduce, j, s, machine))) {
          return true;
        }
      }
    }
    return false;
  }

  // Launches a backup on `machine` for the stage's longest-running task of
  // the phase, if one has run past the straggler threshold.
  bool speculate(Phase phase, int j, int s, int machine) {
    TaskTable& T = stage_rt(j, s).tasks[phase];
    if (T.done == 0) return false;
    const Seconds mean = T.duration_total / T.done;
    const Seconds threshold =
        std::max(kSpeculationMinRuntime, kSpeculationSlowdown * mean);
    int best = -1;
    Seconds best_age = threshold;
    for (std::size_t t = 0; t < T.primary.size(); ++t) {
      const int host = T.primary[t].machine;
      if (host < 0 || host == machine || T.computed[t]) continue;
      if (T.issued[t] >= 254) continue;  // attempt ids are 8-bit
      if (T.backup[t].machine >= 0) continue;  // one backup per task
      const Seconds age = now_ - T.primary[t].start;
      if (age >= best_age) {
        best_age = age;
        best = static_cast<int>(t);
      }
    }
    if (best < 0) return false;
    const auto bt = static_cast<std::size_t>(best);
    T.backup[bt] = Attempt{++T.issued[bt], machine, now_};
    --slots_free_[static_cast<std::size_t>(machine)];
    ++jobs_[static_cast<std::size_t>(j)].result.speculative_launched;
    launch_attempt(phase, j, s, best, T.backup[bt]);
    return true;
  }

  // ------------------------------------------------------------ stragglers

  // Straggler injection (fault model): each attempt independently runs
  // `straggler_slowdown` times slower with probability `straggler_frac`.
  // The rng is only consulted when injection is enabled, so fault-free runs
  // keep their exact event stream.
  double draw_straggler() {
    if (config_.faults.straggler_frac <= 0) return 1.0;
    if (!rng_.chance(config_.faults.straggler_frac)) return 1.0;
    ++stragglers_injected_;
    return config_.faults.straggler_slowdown;
  }

  // -------------------------------------------------------- rereplication

  // Restores a lost replica by copying the chunk from a surviving holder to
  // a random healthy machine not yet holding it, over a real (background
  // width) network flow. No-op when no source or target exists.
  void schedule_rereplication(const std::string& file, int chunk,
                              Bytes bytes) {
    if (!dfs_.has_file(file)) return;
    const FileLayout& layout = dfs_.file(file);
    const auto& holders =
        layout.chunks[static_cast<std::size_t>(chunk)].machines;
    int src = -1;
    for (int m : holders) {
      if (topology_.is_up(m)) {
        src = m;
        break;
      }
    }
    if (src < 0) return;  // nothing left to copy from
    std::vector<int> candidates;
    for (int m = 0; m < topology_.machines(); ++m) {
      if (!topology_.is_up(m)) continue;
      if (std::find(holders.begin(), holders.end(), m) != holders.end()) {
        continue;
      }
      candidates.push_back(m);
    }
    if (candidates.empty()) return;
    const int dst = candidates[rng_.index(candidates.size())];
    if (bytes < kMinFlowBytes) {
      dfs_.add_replica(file, chunk, dst);
      return;
    }
    const std::uint64_t tag =
        pack_tag(FlowKind::kRereplicate, 0, 0, 0,
                 static_cast<int>(next_rerep_++ & 0xFFFFFF));
    rereps_[tag] = Rerep{file, chunk, dst};
    note_flow(network_.start_flow(FlowDesc{src, dst, bytes, kRereplicationWidth,
                                           /*coflow=*/-1, tag}));
  }

  SimConfig config_;
  ClusterTopology topology_;
  Dfs dfs_;
  Network network_;
  SchedulingPolicy& policy_;
  Rng rng_;

  std::vector<JobRuntime> jobs_;
  std::vector<int> active_jobs_;  // sorted by priority
  std::vector<int> slots_free_;
  std::vector<int> freed_machines_;
  bool new_work_ = false;
  int pending_total_ = 0;  // sum of every job's pending_tasks

  // Pending events, popped in ascending (time, seq) order
  // (sim/event_queue.h). push_event aligns times to the batching quantum.
  EventQueue<Event> events_;
  long next_seq_ = 0;
  Seconds now_ = 0;

  // Tracing (off by default; see SimConfig::tracer). flow_started_ maps
  // active flow ids to their start time and is only populated at kFlows.
  obs::TraceRecorder trace_;
  std::unordered_map<int, Seconds> flow_started_;

  // In-flight DFS healing transfers, keyed by their kRereplicate tag.
  std::unordered_map<std::uint64_t, Rerep> rereps_;
  std::uint64_t next_rerep_ = 0;
  // Input file name -> owning job index (healing stops once it finishes).
  std::unordered_map<std::string, int> file_job_;

  // Fault-model state and counters (reported through SimResult).
  std::vector<bool> rack_usable_;  // above the health threshold last check
  int machines_down_ = 0;
  int unfinished_count_ = 0;
  long pending_work_events_ = 0;
  int stragglers_injected_ = 0;
  Bytes bytes_rereplicated_ = 0;
  int chunks_lost_ = 0;
  int jobs_failed_ = 0;
  Seconds degraded_time_ = 0;
};

}  // namespace

SimulationTimeout::SimulationTimeout(Seconds limit)
    : std::runtime_error("simulation exceeded max_time (" +
                         std::to_string(limit) + "s)"),
      limit_(limit) {}

SimulationAborted::SimulationAborted(Seconds at)
    : std::runtime_error("simulation aborted by injected failure at " +
                         std::to_string(at) + "s"),
      at_(at) {}

SimResult run_simulation(std::span<const JobSpec> jobs,
                         SchedulingPolicy& policy, const SimConfig& config) {
  Simulator simulator(jobs, policy, config);
  SimResult result = simulator.run();
  if (config.metrics != nullptr) record_sim_metrics(result, *config.metrics);
  return result;
}

}  // namespace corral
