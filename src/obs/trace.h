// Deterministic structured tracing.
//
// The simulator, planner, allocator and batch runner record spans, instant
// events and counter samples into per-owner ring-buffered sinks. Events are
// stamped with *virtual* simulation time (or a logical step index for
// planner phases), never wall time by default, and the merged output orders
// events by (sink id, per-sink insertion sequence) — both of which are
// assigned deterministically — so an exported trace is byte-identical at
// any exec:: pool width. This is the same contract as src/exec (see
// DESIGN.md §3b and docs/observability.md).
//
// Hot-path cost when tracing is off: TraceRecorder::at() is a single
// comparison against a cached level, so instrumented code compiles to one
// predictable branch (verified by bench_micro BM_EndToEndSmallSimTraceOff).
#ifndef CORRAL_OBS_TRACE_H_
#define CORRAL_OBS_TRACE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace corral::obs {

// Verbosity ladder; each level includes everything below it.
//  kOff   - record nothing.
//  kJobs  - job/stage lifecycle, faults, planner decision log, batch runs.
//  kTasks - plus per-task spans and per-candidate planner evaluations.
//  kFlows - plus per-flow spans with rates and allocator internals.
enum class TraceLevel : int { kOff = 0, kJobs = 1, kTasks = 2, kFlows = 3 };

// Parses "off" / "jobs" / "tasks" / "flows"; throws std::invalid_argument
// on anything else.
TraceLevel parse_trace_level(std::string_view text);
std::string_view to_string(TraceLevel level);

// The "process" lane a trace event renders under in chrome://tracing.
// Each (sink, track) pair becomes one pid with a readable process_name.
enum class TraceTrack : int {
  kJobs = 0,    // job + stage spans (tid = job id)
  kTasks = 1,   // task spans (tid = machine id)
  kFlows = 2,   // flow spans (tid = job id; -1 for DFS healing)
  kNet = 3,     // allocator internals (fill rounds, SEBF ordering)
  kPlanner = 4, // provisioning / prioritization decision log
  kBatch = 5,   // per-run spans from BatchRunner
  kFaults = 6,  // machine failure / recovery instants (tid = machine id)
  kCtrl = 7,    // control-plane epochs: predict/plan/execute/measure spans
};
constexpr int kTraceTracks = 8;
std::string_view to_string(TraceTrack track);

enum class TracePhase : int { kSpan = 0, kInstant = 1, kCounter = 2 };

// One key/value annotation. Numeric args export as JSON numbers, string
// args as JSON strings.
struct TraceArg {
  std::string key;
  bool numeric = true;
  double num = 0;
  std::string str;
};

inline TraceArg arg(std::string key, double value) {
  TraceArg a;
  a.key = std::move(key);
  a.num = value;
  return a;
}
inline TraceArg arg(std::string key, std::string value) {
  TraceArg a;
  a.key = std::move(key);
  a.numeric = false;
  a.str = std::move(value);
  return a;
}

struct TraceEvent {
  TracePhase phase = TracePhase::kInstant;
  TraceTrack track = TraceTrack::kJobs;
  std::string name;
  std::string cat;
  long tid = 0;
  double ts = 0;     // seconds of virtual time (planner: logical steps)
  double dur = 0;    // span duration; 0 for instants and counters
  double value = 0;  // counter sample value
  std::vector<TraceArg> args;
};

// Fixed-capacity ring of events owned by exactly one execution context at a
// time (one simulation run, one planner invocation). Recording is
// lock-free; when the ring is full the *oldest* events are overwritten and
// `dropped()` counts them. NOTE: drop order depends only on this sink's own
// event sequence, so determinism survives overflow — but a truncated trace
// is rarely what you want; raise TracerOptions::sink_capacity instead.
class TraceSink {
 public:
  TraceSink(int id, std::string label, std::size_t capacity);

  void record(TraceEvent event);

  int id() const { return id_; }
  const std::string& label() const { return label_; }
  std::uint64_t recorded() const { return recorded_; }
  std::uint64_t dropped() const {
    return recorded_ - static_cast<std::uint64_t>(ring_.size());
  }
  // Events oldest-first (insertion order, minus any overwritten prefix).
  std::vector<TraceEvent> events() const;

 private:
  int id_;
  std::string label_;
  std::size_t capacity_;
  std::vector<TraceEvent> ring_;
  std::size_t next_ = 0;  // overwrite cursor once the ring is full
  std::uint64_t recorded_ = 0;
};

struct TracerOptions {
  TraceLevel level = TraceLevel::kOff;
  // Max events retained per sink (ring overwrites oldest past this).
  std::size_t sink_capacity = 1 << 20;
};

// Owns the sinks. Sink creation takes a mutex (cold path, once per run);
// recording into a sink is single-owner and lock-free. Callers must assign
// sink ids deterministically (e.g. the batch-case index), never from worker
// identity or completion order.
class Tracer {
 public:
  explicit Tracer(TracerOptions options = {});

  TraceLevel level() const { return options_.level; }

  // Returns the sink with this id, creating it on first use. A non-empty
  // label on the creating call names the pid lane in the export.
  TraceSink& sink(int id, std::string_view label = {});

  // All sinks in ascending id order (the deterministic merge order).
  std::vector<const TraceSink*> sinks() const;

  std::uint64_t total_recorded() const;
  std::uint64_t total_dropped() const;

 private:
  TracerOptions options_;
  mutable std::mutex mu_;
  std::map<int, std::unique_ptr<TraceSink>> sinks_;
};

// A value snapshot of every sink's retained events, in ascending sink id
// order. The control plane's checkpoint/restore path (src/ctrl/checkpoint)
// persists this so a resumed run replays the completed epochs' trace
// events verbatim and its exports stay byte-identical to an uninterrupted
// run. Events overwritten by ring overflow before the snapshot are gone —
// size sink_capacity for the run length when checkpointing traced runs.
struct TraceSnapshot {
  struct Sink {
    int id = 0;
    std::string label;
    std::vector<TraceEvent> events;
  };
  std::vector<Sink> sinks;
};

// Captures the tracer's sinks (ascending id, insertion order within each).
TraceSnapshot snapshot_tracer(const Tracer& tracer);

// Replays a snapshot into `tracer`, creating sinks with their recorded ids
// and labels. The tracer must be freshly constructed (no sinks yet);
// throws std::invalid_argument otherwise — replaying over live sinks would
// interleave old and new events nondeterministically.
void restore_tracer(Tracer& tracer, const TraceSnapshot& snapshot);

// Cheap copyable handle the instrumented layers hold: a cached level plus a
// sink pointer. Default-constructed recorders are permanently off, so
// instrumentation needs no null checks beyond `at()`.
class TraceRecorder {
 public:
  TraceRecorder() = default;
  // Binds to `tracer->sink(sink_id, label)`; off when tracer is null.
  TraceRecorder(Tracer* tracer, int sink_id, std::string_view label);

  // The single hot-path guard: true when `level` events should be recorded.
  bool at(TraceLevel level) const {
    return static_cast<int>(level_) >= static_cast<int>(level);
  }

  void span(TraceTrack track, std::string name, std::string cat, long tid,
            double start, double end, std::vector<TraceArg> args = {}) const;
  void instant(TraceTrack track, std::string name, std::string cat, long tid,
               double ts, std::vector<TraceArg> args = {}) const;
  void counter(TraceTrack track, std::string name, long tid, double ts,
               double value) const;

 private:
  TraceLevel level_ = TraceLevel::kOff;
  TraceSink* sink_ = nullptr;
};

}  // namespace corral::obs

#endif  // CORRAL_OBS_TRACE_H_
