#include "corral/latency_model.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "corral/fingerprint.h"
#include "jobs/dag.h"
#include "util/check.h"

namespace corral {

LatencyModelParams LatencyModelParams::from_cluster(
    const ClusterConfig& config) {
  LatencyModelParams params;
  params.machines_per_rack = config.machines_per_rack;
  params.slots_per_machine = config.slots_per_machine;
  params.nic_bandwidth = config.nic_bandwidth;
  params.oversubscription = config.oversubscription;
  params.alpha = params.default_alpha();
  return params;
}

double LatencyModelParams::default_alpha() const {
  const BytesPerSec uplink =
      machines_per_rack * nic_bandwidth / oversubscription;
  return 1.0 / uplink;
}

StageLatency stage_latency(const MapReduceSpec& stage, int racks,
                           const LatencyModelParams& params) {
  require(racks >= 1, "stage_latency: racks must be >= 1");
  require(params.machines_per_rack >= 1 && params.slots_per_machine >= 1,
          "stage_latency: invalid model params");
  require(params.oversubscription >= 1.0,
          "stage_latency: oversubscription must be >= 1");
  stage.validate();

  const double r = racks;
  const double k = params.machines_per_rack;
  const double slots = r * k * params.slots_per_machine;
  const double B = params.nic_bandwidth;
  const double V = params.oversubscription;

  StageLatency out;

  // Map stage: w_map waves, each processing one task's input at B_M.
  const double map_waves = std::ceil(stage.num_maps / slots);
  out.map = map_waves * (stage.input_bytes / stage.num_maps) / stage.map_rate;

  if (stage.num_reduces == 0 || stage.shuffle_bytes <= 0) {
    // Map-only stage (e.g., an extract with no aggregation).
    if (stage.num_reduces > 0) {
      const double reduce_waves = std::ceil(stage.num_reduces / slots);
      out.reduce = reduce_waves * (stage.output_bytes / stage.num_reduces) /
                   stage.reduce_rate;
    }
    return out;
  }

  const double reduce_waves = std::ceil(stage.num_reduces / slots);

  // Shuffle (§4.3). D_core is the shuffle data a single machine sends
  // across the core over the whole shuffle; dividing by the per-machine
  // core share B/V gives the cross-core time. D_local is the per-machine
  // data that stays within the rack, moved at the residual NIC bandwidth
  // B - B/V. We evaluate both on a per-wave basis and multiply by the wave
  // count, which is equivalent to using the whole-shuffle totals (each wave
  // moves 1/w of the data); this avoids double-counting the wave factor.
  if (racks > 1) {
    const double core_per_machine =
        stage.shuffle_bytes / (r * k) * (r - 1.0) / r;
    const double local_per_machine = stage.shuffle_bytes / (r * k) / r;
    const Seconds core_time = core_per_machine / (B / V);
    const Seconds local_time =
        local_per_machine * ((k - 1.0) / k) / (B - B / V);
    out.shuffle = std::max(core_time, local_time);
  } else {
    // Single rack: no data crosses the core; everything moves inside the
    // rack at full NIC speed.
    const double local_per_machine = stage.shuffle_bytes / k;
    out.shuffle = local_per_machine * ((k - 1.0) / k) / B;
  }

  // Reduce stage: w_reduce waves, each processing one task's output at B_R.
  out.reduce = reduce_waves * (stage.output_bytes / stage.num_reduces) /
               stage.reduce_rate;
  return out;
}

namespace {

// One job's L_j(r) and L'_j(r) with the per-job work done once: the DAG's
// topological order and predecessor lists, and the input bytes the penalty
// charges. Each rack count then costs the stage latencies and one
// critical-path pass, with the same arithmetic as a from-scratch
// evaluation.
class JobLatency {
 public:
  JobLatency(const JobSpec& job, const LatencyModelParams& params)
      : job_(job), params_(params), total_input_(job.total_input()) {
    require(!job.stages.empty(), "job_latency: job has no stages");
  }

  Seconds latency(int racks) {
    if (job_.is_map_reduce()) {
      return stage_latency(job_.stages.front(), racks, params_).total();
    }
    weights_.clear();
    for (const MapReduceSpec& stage : job_.stages) {
      weights_.push_back(stage_latency(stage, racks, params_).total());
    }
    // Built after the first stage latencies, so an invalid stage is
    // reported before a bad edge, as critical_path would.
    if (!critical_path_) {
      critical_path_.emplace(static_cast<int>(job_.stages.size()),
                             job_.edges);
    }
    return critical_path_->length(weights_);
  }

  Seconds with_penalty(int racks) {
    return latency(racks) + params_.alpha * total_input_ / racks;
  }

 private:
  const JobSpec& job_;
  const LatencyModelParams& params_;
  Bytes total_input_;
  std::vector<double> weights_;
  std::optional<CriticalPathSolver> critical_path_;
};

}  // namespace

Seconds job_latency(const JobSpec& job, int racks,
                    const LatencyModelParams& params) {
  return JobLatency(job, params).latency(racks);
}

Seconds job_latency_with_penalty(const JobSpec& job, int racks,
                                 const LatencyModelParams& params) {
  return JobLatency(job, params).with_penalty(racks);
}

ResponseFunction::ResponseFunction(const JobSpec& job, int max_racks,
                                   const LatencyModelParams& params)
    : arrival_(job.arrival) {
  require(max_racks >= 1, "ResponseFunction: max_racks must be >= 1");
  JobLatency model(job, params);
  latency_.reserve(static_cast<std::size_t>(max_racks));
  for (int r = 1; r <= max_racks; ++r) {
    latency_.push_back(model.with_penalty(r));
  }
}

ResponseFunction::ResponseFunction(std::vector<Seconds> latency_by_racks,
                                   Seconds arrival)
    : latency_(std::move(latency_by_racks)), arrival_(arrival) {
  require(!latency_.empty(), "ResponseFunction: empty latency vector");
  for (Seconds l : latency_) {
    require(l >= 0, "ResponseFunction: negative latency");
  }
}

Seconds ResponseFunction::min_latency() const {
  return *std::min_element(latency_.begin(), latency_.end());
}

int ResponseFunction::best_racks() const {
  const auto it = std::min_element(latency_.begin(), latency_.end());
  return static_cast<int>(it - latency_.begin()) + 1;
}

std::vector<ResponseFunction> build_response_functions(
    std::span<const JobSpec> jobs, int max_racks,
    const LatencyModelParams& params) {
  std::vector<ResponseFunction> out;
  out.reserve(jobs.size());
  for (const JobSpec& job : jobs) {
    out.emplace_back(job, max_racks, params);
  }
  return out;
}

ResponseFunctionCache::ResponseFunctionCache(double size_quantum)
    : size_quantum_(size_quantum) {
  require(size_quantum > 0,
          "ResponseFunctionCache: size_quantum must be positive");
}

ResponseFunction ResponseFunctionCache::get(const JobSpec& job, int max_racks,
                                            const LatencyModelParams& params) {
  require(max_racks >= 1, "ResponseFunctionCache: max_racks must be >= 1");
  Fingerprint key;
  key.mix(job_fingerprint(job, size_quantum_));
  key.mix(static_cast<std::uint64_t>(max_racks));
  key.mix(latency_params_fingerprint(params));
  const auto it = entries_.find(key.value());
  if (it != entries_.end()) {
    ++hits_;
    return ResponseFunction(it->second, job.arrival);
  }
  ++misses_;
  const ResponseFunction built(job, max_racks, params);
  std::vector<Seconds> latencies;
  latencies.reserve(static_cast<std::size_t>(max_racks));
  for (int r = 1; r <= max_racks; ++r) latencies.push_back(built.at(r));
  entries_.emplace(key.value(), std::move(latencies));
  return built;
}

std::vector<ResponseFunction> ResponseFunctionCache::get_all(
    std::span<const JobSpec> jobs, int max_racks,
    const LatencyModelParams& params) {
  std::vector<ResponseFunction> out;
  out.reserve(jobs.size());
  for (const JobSpec& job : jobs) {
    out.push_back(get(job, max_racks, params));
  }
  return out;
}

void ResponseFunctionCache::clear() { entries_.clear(); }

ResponseFunctionCache::Snapshot ResponseFunctionCache::snapshot() const {
  Snapshot out(entries_.begin(), entries_.end());
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

void ResponseFunctionCache::restore(const Snapshot& entries,
                                    std::uint64_t hits, std::uint64_t misses) {
  entries_.clear();
  for (const auto& [key, latencies] : entries) {
    entries_.emplace(key, latencies);
  }
  hits_ = hits;
  misses_ = misses;
}

}  // namespace corral
