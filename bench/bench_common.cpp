#include "bench_common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>

#include "obs/export.h"
#include "util/check.h"
#include "util/flags.h"
#include "util/table.h"

namespace corral::bench {
namespace {

void write_env_trace() {
  const char* out = std::getenv("CORRAL_TRACE_OUT");
  if (out == nullptr || bench_tracer() == nullptr) return;
  try {
    obs::write_chrome_trace_file(out, *bench_tracer());
    std::fprintf(stderr, "trace written to %s\n", out);
  } catch (const std::exception& e) {
    // Throwing out of an atexit handler would call std::terminate.
    std::fprintf(stderr, "trace write to %s failed: %s\n", out, e.what());
  }
}

// Next free sink id for the env tracer. Advanced per batch in program
// order (the bench mains are single-threaded between batches), so lane
// assignment stays deterministic.
int next_trace_sink = 0;

// Whether `t` is a JSON number, -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
// read into `value` by strtod. strtod (C locale) accepts a superset; the
// other checks reject the rest: inf, nan, hex, a leading '+' or '.', a
// leading zero, a '.' with no digit after it.
bool read_number(const std::string& t, double* value) {
  const auto digit_at = [&](std::size_t i) {
    return i < t.size() && t[i] >= '0' && t[i] <= '9';
  };
  const std::size_t first = t.starts_with('-') ? 1 : 0;
  const std::size_t dot = t.find('.');
  char* end = nullptr;
  *value = std::strtod(t.c_str(), &end);
  return t.find_first_not_of("-+.0123456789eE") == std::string::npos &&
         digit_at(first) && !(t[first] == '0' && digit_at(first + 1)) &&
         (dot == std::string::npos || digit_at(dot + 1)) &&
         end == t.c_str() + t.size();
}

}  // namespace

exec::ThreadPool& pool() { return exec::ThreadPool::shared(); }

obs::Tracer* bench_tracer() {
  // Intentionally leaked: std::atexit(write_env_trace) is registered during
  // this static's initialization, so a destructor registered *after*
  // initialization (e.g. a unique_ptr's) would run before the handler and
  // the export would read a destroyed tracer.
  static obs::Tracer* const tracer = []() -> obs::Tracer* {
    const char* out = std::getenv("CORRAL_TRACE_OUT");
    if (out == nullptr || *out == '\0') return nullptr;
    obs::TracerOptions options;
    const char* level = std::getenv("CORRAL_TRACE_LEVEL");
    options.level = level != nullptr ? obs::parse_trace_level(level)
                                     : obs::TraceLevel::kJobs;
    std::atexit(write_env_trace);
    return new obs::Tracer(options);
  }();
  return tracer;
}

std::vector<BatchResult> run_traced(std::span<const BatchCase> cases) {
  BatchRunner runner(&pool());
  if (obs::Tracer* tracer = bench_tracer()) {
    runner.set_tracer(tracer, next_trace_sink);
    next_trace_sink += static_cast<int>(cases.size());
  }
  return runner.run(cases);
}

ClusterConfig testbed() {
  ClusterConfig config;
  config.racks = 7;
  config.machines_per_rack = 30;
  config.slots_per_machine = 8;
  config.nic_bandwidth = 2.5 * kGbps;
  config.oversubscription = 5.0;
  return config;
}

SimConfig default_sim(const ClusterConfig& cluster) {
  SimConfig config;
  config.cluster = cluster;
  config.cluster.background_core_fraction = 0.5;  // §6.1
  config.write_output_replicas = true;
  config.seed = 2015;
  return config;
}

std::vector<JobSpec> w1(Rng& rng, int jobs) {
  W1Config config;
  config.num_jobs = jobs;
  return make_w1(config, rng);
}

std::vector<JobSpec> w2(Rng& rng) { return make_w2(W2Config{}, rng); }

std::vector<JobSpec> w3(Rng& rng, int jobs) {
  W3Config config;
  config.num_jobs = jobs;
  return make_w3(config, rng);
}

PlannedWorkload plan_workload(const std::vector<JobSpec>& jobs,
                              const ClusterConfig& cluster,
                              Objective objective) {
  PlannerConfig config;
  config.objective = objective;
  std::vector<JobSpec> recurring;
  for (const JobSpec& job : jobs) {
    if (job.recurring) recurring.push_back(job);
  }
  Plan plan = plan_offline(recurring, cluster, config);
  PlanLookup lookup(recurring, plan);
  return PlannedWorkload{std::move(plan), std::move(lookup)};
}

std::vector<BatchCase> policy_cases(const std::vector<JobSpec>& jobs,
                                    const PlannedWorkload& planned,
                                    const SimConfig& sim,
                                    const std::string& label_prefix,
                                    bool include_shufflewatcher) {
  // The factories run on pool workers; they capture only read-only state
  // (the plan lookup, value copies of sim knobs) per the BatchCase rule.
  const PlanLookup* lookup = &planned.lookup;
  std::vector<BatchCase> cases;
  const auto add = [&](const std::string& name, auto factory) {
    BatchCase batch_case;
    batch_case.label = label_prefix + name;
    batch_case.jobs = jobs;
    batch_case.config = sim;
    batch_case.make_policy = std::move(factory);
    cases.push_back(std::move(batch_case));
  };
  add("yarn", []() -> std::unique_ptr<SchedulingPolicy> {
    return std::make_unique<YarnCapacityPolicy>();
  });
  add("corral", [lookup]() -> std::unique_ptr<SchedulingPolicy> {
    return std::make_unique<CorralPolicy>(lookup);
  });
  add("local-shuffle", [lookup]() -> std::unique_ptr<SchedulingPolicy> {
    return std::make_unique<LocalShufflePolicy>(lookup);
  });
  if (include_shufflewatcher) {
    const int slots_per_rack = sim.cluster.slots_per_rack();
    add("shufflewatcher", [slots_per_rack]() -> std::unique_ptr<SchedulingPolicy> {
      return std::make_unique<ShuffleWatcherPolicy>(slots_per_rack);
    });
  }
  return cases;
}

PolicyComparison run_all_policies(const std::vector<JobSpec>& jobs,
                                  Objective objective, const SimConfig& sim,
                                  bool include_shufflewatcher) {
  const PlannedWorkload planned =
      plan_workload(jobs, sim.cluster, objective);
  const std::vector<BatchCase> cases =
      policy_cases(jobs, planned, sim, "", include_shufflewatcher);
  const std::vector<BatchResult> batch = run_traced(cases);

  PolicyComparison results;
  results.yarn = batch[0].result;
  results.corral = batch[1].result;
  results.localshuffle = batch[2].result;
  if (include_shufflewatcher) results.shufflewatcher = batch[3].result;
  return results;
}

TwoPolicyComparison run_yarn_and_corral(const std::vector<JobSpec>& jobs,
                                        Objective objective,
                                        const SimConfig& sim) {
  const PlannedWorkload planned =
      plan_workload(jobs, sim.cluster, objective);
  std::vector<BatchCase> cases =
      policy_cases(jobs, planned, sim, "", /*include_shufflewatcher=*/false);
  cases.resize(2);  // yarn + corral only
  const std::vector<BatchResult> batch = run_traced(cases);
  TwoPolicyComparison results;
  results.yarn = batch[0].result;
  results.corral = batch[1].result;
  return results;
}

std::string pct(double fraction) { return TextTable::pct(fraction, 1); }

void print_cdf(const std::string& title, const std::vector<double>& samples,
               int points) {
  Cdf cdf(samples);
  std::printf("  %s (n=%zu):\n", title.c_str(), cdf.size());
  for (const auto& [value, fraction] : cdf.sample_points(points)) {
    std::printf("    p%-5.1f %12.1f\n", fraction * 100, value);
  }
}

void banner(const std::string& figure, const std::string& claim) {
  std::printf("==============================================================\n");
  std::printf("%s\n", figure.c_str());
  std::printf("Paper: %s\n", claim.c_str());
  std::printf("==============================================================\n");
}

bool parse_smoke_flag(int argc, char** argv) {
  FlagParser flags("Prints one paper series and writes it to BENCH_*.json.");
  flags.add_bool("smoke", false, "run the reduced workload used in CI");
  if (!flags.parse(argc, argv, std::cerr)) std::exit(1);
  return flags.get_bool("smoke");
}

Json::Json(std::initializer_list<Member> members) : object_(true) {
  for (const Member& member : members) set(member.first, member.second);
}

void Json::push(Json value) {
  ensure(json_.empty() && !object_, "Json::push: not an array");
  values_.push_back(std::move(value));
}

Json& Json::set(std::string key, Json value) {
  ensure(object_, "Json::set: not an object");
  keys_.push_back(std::move(key));
  values_.push_back(std::move(value));
  return *this;
}

std::string Json::dump() const {
  std::string out;
  render(out, 0);
  return out + '\n';
}

void Json::render(std::string& out, int depth) const {
  if (!json_.empty()) {
    out += json_;
    return;
  }
  const bool multiline =
      depth == 0 ||
      std::any_of(values_.begin(), values_.end(),
                  [](const Json& value) { return value.json_.empty(); });
  const std::string indent = '\n' + std::string(2 * depth, ' ');
  out += object_ ? '{' : '[';
  for (std::size_t i = 0; i < values_.size(); ++i) {
    out += i == 0 ? "" : multiline ? "," : ", ";
    if (multiline) out += indent + "  ";
    if (object_) out += Json(keys_[i]).json_ + ": ";
    values_[i].render(out, depth + 1);
  }
  if (multiline) out += indent;
  out += object_ ? '}' : ']';
}

void write_json(const std::string& path, const Json& value) {
  std::ofstream out(path);
  out << value.dump();
  out.close();
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    std::exit(1);
  }
}

void write_series(const std::string& name, const Json& series) {
  ensure(series.object_, "write_series: the series must be an object");
  Json file = {{"bench", name},
               {"manifest", {{"build_type", CORRAL_BUILD_TYPE},
                             {"compiler", __VERSION__},
                             {"hardware_threads", exec::hardware_threads()}}}};
  for (std::size_t i = 0; i < series.keys_.size(); ++i) {
    file.set(series.keys_[i], series.values_[i]);
  }
  const std::string path = "BENCH_" + name + ".json";
  write_json(path, file);
  std::printf("\nseries written to %s\n", path.c_str());
}

std::map<std::string, double> read_flat_json(const std::string& path) {
  std::ifstream in(path);
  require(in.good(), path + ": cannot open");
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  // The next token: one of "{:,}", a string with its quotes, or a bare word.
  std::size_t at = 0;
  const auto next = [&] {
    const std::size_t from =
        std::min(text.find_first_not_of(" \t\r\n", at), text.size());
    at = std::min(text.find_first_of(" \t\r\n{:,}\"", from), text.size());
    if (from < text.size() && text[from] == '"') {
      at = text.find_first_of("\"\\", from + 1);
      require(at != std::string::npos && text[at] == '"',
              path + ": unterminated string, or an escape in one");
      ++at;
    } else if (at == from && from < text.size()) {
      ++at;  // one of "{:,}"
    }
    return text.substr(from, at - from);
  };
  require(next() == "{", path + ": expected '{'");
  std::map<std::string, double> members;
  for (std::string separator = ","; separator == ",";) {
    std::string key = next();
    require(key.starts_with('"'), path + ": expected a quoted key");
    key = key.substr(1, key.size() - 2);
    require(next() == ":", path + ": expected ':' after " + key);
    const std::string value = next();
    double number = 0;
    const bool is_number = read_number(value, &number);
    require(is_number || value.starts_with('"') || value == "true" ||
                value == "false" || value == "null",
            path + ": " + key + " is not a JSON string, bool, null or number");
    require(members.emplace(key, is_number ? number : std::nan("")).second,
            path + ": " + key + " appears twice");
    separator = next();
    require(separator == "," || separator == "}",
            path + ": expected ',' or '}' after " + key);
  }
  require(next().empty(), path + ": trailing text after the object");
  return members;
}

}  // namespace corral::bench
