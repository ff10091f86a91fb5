#include "ctrl/checkpoint.h"

#include <bit>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string_view>
#include <type_traits>

#include "corral/fingerprint.h"
#include "util/check.h"
#include "util/hash.h"

namespace corral {
namespace {

// The two codecs. Both expose the same methods, each taking the field by
// reference: Writer prints it, Reader parses into it. The visit() functions
// below list every record's fields once, in file order, and run unchanged
// in both directions — a field cannot be written but not read.
class Writer {
 public:
  void tag(std::string_view text) {
    if (line_open_) out_ += ' ';
    line_open_ = true;
    out_ += text;
  }
  template <class T>
  void integer(T& value) {
    tag(std::to_string(value));
  }
  template <class T>
  void counter(T& value) {
    tag(std::to_string(value));
  }
  template <class T>
  void count(std::vector<T>& items) {
    tag(std::to_string(items.size()));
  }
  void u64(std::uint64_t& value) { tag(hex16(value)); }
  // Doubles as the hex image of their IEEE-754 bits: exact for every value
  // including -0.0, subnormals, infinities and NaN payloads.
  void real(double& value) {
    tag(hex16(std::bit_cast<std::uint64_t>(value)));
  }
  void boolean(bool& value) { tag(value ? "1" : "0"); }
  template <class E>
  void enumeration(E& value, int /*limit*/, std::string_view /*what*/) {
    tag(std::to_string(static_cast<int>(value)));
  }
  void str(std::string& text) {
    tag(std::to_string(text.size()));
    out_ += ' ';
    out_ += text;
  }
  void endl() {
    out_ += '\n';
    line_open_ = false;
  }
  std::string take() { return std::move(out_); }

 private:
  std::string out_;
  bool line_open_ = false;
};

class Reader {
 public:
  explicit Reader(std::string_view text) : text_(text) {}

  void tag(std::string_view expected) {
    const std::string_view got = word();
    require(got == expected, "checkpoint: expected '" +
                                 std::string(expected) + "', got '" +
                                 std::string(got) + "'");
  }
  template <class T>
  void integer(T& value) {
    static_assert(std::is_signed_v<T>);
    value = parse<T>("integer");
  }
  // Unsigned decimal: a sign or a value past T's range is rejected, never
  // wrapped.
  template <class T>
  void counter(T& value) {
    static_assert(std::is_unsigned_v<T>);
    value = parse<T>("counter");
  }
  // Every element takes at least one byte of text, so a count beyond the
  // bytes left is malformed — rejected before anything is allocated.
  template <class T>
  void count(std::vector<T>& items) {
    std::size_t n = 0;
    counter(n);
    require(n <= text_.size() - pos_,
            "checkpoint: count exceeds the remaining input");
    items = std::vector<T>(n);
  }
  void u64(std::uint64_t& value) {
    value = parse<std::uint64_t>("hex value", 16);
  }
  void real(double& value) {
    std::uint64_t image = 0;
    u64(image);
    value = std::bit_cast<double>(image);
  }
  void boolean(bool& value) {
    int raw = 0;
    integer(raw);
    require(raw == 0 || raw == 1, "checkpoint: bad boolean");
    value = raw == 1;
  }
  template <class E>
  void enumeration(E& value, int limit, std::string_view what) {
    int raw = 0;
    integer(raw);
    require(raw >= 0 && raw < limit, "checkpoint: bad " + std::string(what));
    value = static_cast<E>(raw);
  }
  void str(std::string& text) {
    std::size_t len = 0;
    counter(len);
    require(pos_ < text_.size() && text_[pos_] == ' ',
            "checkpoint: malformed string");
    ++pos_;
    require(len <= text_.size() - pos_, "checkpoint: truncated string");
    text.assign(text_.substr(pos_, len));
    pos_ += len;
  }
  void endl() {}

  void finish() {
    skip_ws();
    require(pos_ == text_.size(), "checkpoint: trailing data");
  }

 private:
  std::string_view word() {
    skip_ws();
    require(pos_ < text_.size(), "checkpoint: truncated");
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           !std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    return text_.substr(start, pos_ - start);
  }
  template <class T>
  T parse(std::string_view what, int base = 10) {
    const std::string_view token = word();
    const char* end = token.data() + token.size();
    T value{};
    const auto [stop, error] =
        std::from_chars(token.data(), end, value, base);
    require(error == std::errc() && stop == end,
            "checkpoint: bad " + std::string(what) + " '" +
                std::string(token) + "'");
    return value;
  }
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  std::string_view text_;
  std::size_t pos_ = 0;
};

template <class Io>
void visit(Io& io, PlannedJob& job) {
  io.integer(job.job_index);
  io.integer(job.num_racks);
  io.integer(job.priority);
  io.real(job.start_time);
  io.real(job.predicted_latency);
  io.count(job.racks);
  for (int& rack : job.racks) io.integer(rack);
  io.endl();
}

template <class Io>
void visit(Io& io, Plan& plan) {
  io.tag("plan");
  io.count(plan.jobs);
  io.real(plan.predicted_makespan);
  io.real(plan.predicted_avg_completion);
  io.counter(plan.evaluated_candidates);
  io.endl();
  for (PlannedJob& job : plan.jobs) visit(io, job);
}

template <class Io>
void visit(Io& io, EpochReport& report) {
  io.tag("report");
  io.integer(report.epoch);
  io.integer(report.day);
  io.boolean(report.weekend);
  io.u64(report.cache_key);
  io.boolean(report.cache_hit);
  io.boolean(report.outage);
  io.boolean(report.drift_replan);
  io.counter(report.invalidations);
  io.integer(report.planning_racks);
  io.integer(report.planning_updates);
  io.counter(report.replan_cost_evals);
  io.counter(report.rf_hits);
  io.counter(report.rf_misses);
  io.real(report.mean_prediction_error);
  io.real(report.predicted_makespan);
  io.real(report.realized_makespan);
  io.real(report.makespan_error);
  io.real(report.mean_completion_error);
  io.integer(report.jobs_failed);
  io.enumeration(report.mode, 2, "report mode");
  io.integer(report.chaos_injected);
  io.integer(report.quarantined);
  io.integer(report.exec_retries);
  io.boolean(report.planner_overrun);
  io.boolean(report.fallback_plan);
  io.boolean(report.stale_topology);
  io.boolean(report.aborted);
  io.boolean(report.demoted);
  io.boolean(report.promoted);
  io.endl();
}

template <class Io>
void visit(Io& io, JobInstance& instance) {
  io.integer(instance.day);
  io.integer(instance.run_of_day);
  io.real(instance.input_bytes);
  io.endl();
}

// One tenant section, from the "state" line through the "rf" section.
template <class Io>
void visit(Io& io, CheckpointState& state) {
  // The "0" is the resume epoch of the retired v1 format, which the service
  // keeps at its own top level; it stays so v2 bytes do not change.
  io.tag("state");
  io.tag("0");
  io.u64(state.prev_topology);
  io.boolean(state.force_replan);
  io.endl();
  io.tag("budget");
  io.enumeration(state.budget_mode, 2, "budget mode");
  io.integer(state.budget_bad);
  io.integer(state.budget_good);
  io.integer(state.budget_demotions);
  io.integer(state.budget_promotions);
  io.endl();

  io.tag("pipelines");
  io.count(state.pipelines);
  io.endl();
  for (CheckpointState::Pipeline& pipeline : state.pipelines) {
    io.tag("sticky");
    io.real(pipeline.planning_inputs[0]);
    io.real(pipeline.planning_inputs[1]);
    io.count(pipeline.history);
    io.endl();
    for (JobInstance& instance : pipeline.history) visit(io, instance);
  }

  io.tag("reports");
  io.count(state.reports);
  io.integer(state.drift_trips);
  io.endl();
  for (EpochReport& report : state.reports) visit(io, report);

  io.tag("last_good");
  io.boolean(state.has_last_good);
  io.u64(state.last_good_topology);
  io.endl();
  if (state.has_last_good) visit(io, state.last_good_plan);

  PlanCacheStats& stats = state.plan_cache.stats;
  io.tag("plan_cache");
  io.count(state.plan_cache.entries);
  io.counter(stats.hits);
  io.counter(stats.misses);
  io.counter(stats.invalidations);
  io.counter(stats.evictions);
  io.counter(stats.corruptions);
  io.endl();
  for (PlanCache::Snapshot::Item& item : state.plan_cache.entries) {
    io.tag("entry");
    io.u64(item.key.workload);
    io.u64(item.key.topology);
    io.u64(item.key.planner);
    io.endl();
    visit(io, item.plan);
  }

  io.tag("rf");
  io.count(state.rf_entries);
  io.counter(state.rf_hits);
  io.counter(state.rf_misses);
  io.endl();
  for (auto& [key, latencies] : state.rf_entries) {
    io.u64(key);
    io.count(latencies);
    for (Seconds& latency : latencies) io.real(latency);
    io.endl();
  }
}

template <class Io>
void visit(Io& io, obs::TraceEvent& event) {
  io.enumeration(event.phase, 3, "trace phase");
  io.enumeration(event.track, obs::kTraceTracks, "trace track");
  io.integer(event.tid);
  io.real(event.ts);
  io.real(event.dur);
  io.real(event.value);
  io.str(event.name);
  io.str(event.cat);
  io.count(event.args);
  for (obs::TraceArg& arg : event.args) {
    io.boolean(arg.numeric);
    io.real(arg.num);
    io.str(arg.key);
    io.str(arg.str);
  }
  io.endl();
}

template <class Io>
void visit(Io& io, obs::TraceSnapshot& trace) {
  io.tag("trace");
  io.count(trace.sinks);
  io.endl();
  for (obs::TraceSnapshot::Sink& sink : trace.sinks) {
    io.tag("sink");
    io.integer(sink.id);
    io.str(sink.label);
    io.count(sink.events);
    io.endl();
    for (obs::TraceEvent& event : sink.events) visit(io, event);
  }
}

template <class Io>
void visit(Io& io, ServiceCheckpointState& state) {
  io.tag("corral-checkpoint");
  io.tag("v2");
  io.endl();
  io.tag("config");
  io.u64(state.config_fingerprint);
  io.endl();
  io.tag("service");
  io.integer(state.next_epoch);
  io.count(state.tenants);
  io.endl();
  for (std::size_t t = 0; t < state.tenants.size(); ++t) {
    io.tag("tenant");
    std::size_t index = t;
    io.counter(index);
    require(index == t, "checkpoint: tenant sections out of order");
    io.endl();
    visit(io, state.tenants[t]);
  }
  visit(io, state.trace);
}

// Verifies the checksum trailer and returns the body it covers.
std::string_view verify_checksum(const std::string& text) {
  const std::size_t trailer = text.rfind("\nchecksum ");
  require(trailer != std::string::npos, "checkpoint: missing checksum");
  const std::string_view body(text.data(), trailer + 1);
  Reader tail(std::string_view(text).substr(trailer + 1));
  std::uint64_t expected = 0;
  tail.tag("checksum");
  tail.u64(expected);
  tail.finish();
  require(fnv1a(body) == expected, "checkpoint: checksum mismatch");
  return body;
}

}  // namespace

std::uint64_t control_loop_fingerprint(
    const ControlLoopConfig& config,
    const std::vector<RecurringPipeline>& pipelines) {
  Fingerprint f;
  f.mix(topology_fingerprint(config.cluster));
  f.mix(static_cast<std::uint64_t>(config.objective ==
                                   Objective::kMakespan
                                       ? 0
                                       : 1));
  f.mix(static_cast<std::uint64_t>(config.planner_backend));
  f.mix(static_cast<std::uint64_t>(config.net_policy));
  f.mix(static_cast<std::uint64_t>(config.epochs));
  f.mix(static_cast<std::uint64_t>(config.warmup_days));
  f.mix(config.drift_threshold);
  f.mix(config.size_quantum);
  f.mix(static_cast<std::uint64_t>(config.history_window_days));
  f.mix(static_cast<std::uint64_t>(config.outages.size()));
  for (const RackOutage& outage : config.outages) {
    f.mix(static_cast<std::uint64_t>(outage.epoch));
    f.mix(static_cast<std::uint64_t>(outage.rack));
  }
  f.mix(static_cast<std::uint64_t>(config.cache_capacity));
  f.mix(config.seed);
  f.mix(config.chaos.fingerprint());
  f.mix(config.chaos_seed);
  f.mix(static_cast<std::uint64_t>(config.resilience.enabled ? 1 : 0));
  f.mix(static_cast<std::uint64_t>(config.resilience.planner_budget_evals));
  f.mix(static_cast<std::uint64_t>(config.resilience.max_retries));
  f.mix(config.resilience.retry_backoff);
  f.mix(config.resilience.outlier_factor);
  f.mix(static_cast<std::uint64_t>(config.resilience.demote_after));
  f.mix(static_cast<std::uint64_t>(config.resilience.promote_after));
  f.mix(static_cast<std::uint64_t>(pipelines.size()));
  for (const RecurringPipeline& pipeline : pipelines) {
    f.mix(job_fingerprint(pipeline.reference, config.size_quantum));
    f.mix(pipeline.shape.base_input);
    f.mix(static_cast<std::uint64_t>(pipeline.timeline.size()));
    for (const JobInstance& instance : pipeline.timeline) {
      f.mix(static_cast<std::uint64_t>(instance.day));
      f.mix(static_cast<std::uint64_t>(instance.run_of_day));
      f.mix(instance.input_bytes);
    }
  }
  return f.value();
}

std::string serialize_service_checkpoint(const ServiceCheckpointState& state) {
  Writer w;
  // The Writer only reads the fields it is handed.
  visit(w, const_cast<ServiceCheckpointState&>(state));
  std::string text = w.take();
  text += "checksum " + hex16(fnv1a(text)) + "\n";
  return text;
}

ServiceCheckpointState deserialize_service_checkpoint(
    const std::string& text) {
  Reader r(verify_checksum(text));
  ServiceCheckpointState state;
  visit(r, state);
  r.finish();
  return state;
}

void write_service_checkpoint(const std::string& path,
                              const ServiceCheckpointState& state) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("cannot open " + tmp + " for write");
    out << serialize_service_checkpoint(state);
    if (!out) throw std::runtime_error("write to " + tmp + " failed");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("rename " + tmp + " -> " + path + " failed");
  }
}

ServiceCheckpointState read_service_checkpoint(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open checkpoint " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (!in.good() && !in.eof()) {
    throw std::runtime_error("read from " + path + " failed");
  }
  return deserialize_service_checkpoint(buffer.str());
}

}  // namespace corral
