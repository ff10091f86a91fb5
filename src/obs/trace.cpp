#include "obs/trace.h"

#include <algorithm>

#include "util/check.h"

namespace corral::obs {

TraceLevel parse_trace_level(std::string_view text) {
  if (text == "off") return TraceLevel::kOff;
  if (text == "jobs") return TraceLevel::kJobs;
  if (text == "tasks") return TraceLevel::kTasks;
  if (text == "flows") return TraceLevel::kFlows;
  require(false, "unknown trace level '" + std::string(text) +
                     "' (expected off | jobs | tasks | flows)");
  return TraceLevel::kOff;  // unreachable
}

std::string_view to_string(TraceLevel level) {
  switch (level) {
    case TraceLevel::kOff: return "off";
    case TraceLevel::kJobs: return "jobs";
    case TraceLevel::kTasks: return "tasks";
    case TraceLevel::kFlows: return "flows";
  }
  return "off";
}

std::string_view to_string(TraceTrack track) {
  switch (track) {
    case TraceTrack::kJobs: return "jobs";
    case TraceTrack::kTasks: return "tasks";
    case TraceTrack::kFlows: return "flows";
    case TraceTrack::kNet: return "net";
    case TraceTrack::kPlanner: return "planner";
    case TraceTrack::kBatch: return "batch";
    case TraceTrack::kFaults: return "faults";
    case TraceTrack::kCtrl: return "ctrl";
  }
  return "?";
}

TraceSink::TraceSink(int id, std::string label, std::size_t capacity)
    : id_(id), label_(std::move(label)), capacity_(capacity) {
  require(capacity_ > 0, "TraceSink capacity must be > 0");
}

void TraceSink::record(TraceEvent event) {
  ++recorded_;
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(event));
    return;
  }
  ring_[next_] = std::move(event);
  next_ = (next_ + 1) % capacity_;
}

std::vector<TraceEvent> TraceSink::events() const {
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  // Once the ring wrapped, `next_` points at the oldest surviving event.
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(next_ + i) % ring_.size()]);
  }
  return out;
}

Tracer::Tracer(TracerOptions options) : options_(options) {
  require(options_.sink_capacity > 0, "Tracer sink_capacity must be > 0");
}

TraceSink& Tracer::sink(int id, std::string_view label) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sinks_.find(id);
  if (it == sinks_.end()) {
    it = sinks_
             .emplace(id, std::make_unique<TraceSink>(
                              id, std::string(label), options_.sink_capacity))
             .first;
  }
  return *it->second;
}

std::vector<const TraceSink*> Tracer::sinks() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<const TraceSink*> out;
  out.reserve(sinks_.size());
  for (const auto& [id, sink] : sinks_) out.push_back(sink.get());
  return out;  // std::map iterates in ascending id order
}

std::uint64_t Tracer::total_recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (const auto& [id, sink] : sinks_) total += sink->recorded();
  return total;
}

std::uint64_t Tracer::total_dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (const auto& [id, sink] : sinks_) total += sink->dropped();
  return total;
}

TraceSnapshot snapshot_tracer(const Tracer& tracer) {
  TraceSnapshot snapshot;
  for (const TraceSink* sink : tracer.sinks()) {
    TraceSnapshot::Sink out;
    out.id = sink->id();
    out.label = sink->label();
    out.events = sink->events();
    snapshot.sinks.push_back(std::move(out));
  }
  return snapshot;
}

void restore_tracer(Tracer& tracer, const TraceSnapshot& snapshot) {
  require(tracer.sinks().empty(),
          "restore_tracer: tracer already has sinks; restore requires a "
          "fresh tracer");
  for (const TraceSnapshot::Sink& saved : snapshot.sinks) {
    TraceSink& sink = tracer.sink(saved.id, saved.label);
    for (const TraceEvent& event : saved.events) sink.record(event);
  }
}

TraceRecorder::TraceRecorder(Tracer* tracer, int sink_id,
                             std::string_view label) {
  if (tracer == nullptr || tracer->level() == TraceLevel::kOff) return;
  level_ = tracer->level();
  sink_ = &tracer->sink(sink_id, label);
}

void TraceRecorder::span(TraceTrack track, std::string name, std::string cat,
                         long tid, double start, double end,
                         std::vector<TraceArg> args) const {
  if (sink_ == nullptr) return;
  TraceEvent event;
  event.phase = TracePhase::kSpan;
  event.track = track;
  event.name = std::move(name);
  event.cat = std::move(cat);
  event.tid = tid;
  event.ts = start;
  event.dur = std::max(0.0, end - start);
  event.args = std::move(args);
  sink_->record(std::move(event));
}

void TraceRecorder::instant(TraceTrack track, std::string name,
                            std::string cat, long tid, double ts,
                            std::vector<TraceArg> args) const {
  if (sink_ == nullptr) return;
  TraceEvent event;
  event.phase = TracePhase::kInstant;
  event.track = track;
  event.name = std::move(name);
  event.cat = std::move(cat);
  event.tid = tid;
  event.ts = ts;
  event.args = std::move(args);
  sink_->record(std::move(event));
}

void TraceRecorder::counter(TraceTrack track, std::string name, long tid,
                            double ts, double value) const {
  if (sink_ == nullptr) return;
  TraceEvent event;
  event.phase = TracePhase::kCounter;
  event.track = track;
  event.name = std::move(name);
  event.tid = tid;
  event.ts = ts;
  event.value = value;
  sink_->record(std::move(event));
}

}  // namespace corral::obs
