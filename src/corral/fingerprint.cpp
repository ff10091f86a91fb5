#include "corral/fingerprint.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <vector>

#include "util/check.h"
#include "util/hash.h"

namespace corral {

Fingerprint& Fingerprint::mix(std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    state_ ^= (value >> (8 * byte)) & 0xffu;
    state_ *= kFnvPrime;
  }
  return *this;
}

Fingerprint& Fingerprint::mix(double value) {
  // Normalize the two zero representations so -0.0 and +0.0 hash equal.
  if (value == 0.0) value = 0.0;
  return mix(std::bit_cast<std::uint64_t>(value));
}

Fingerprint& Fingerprint::mix(std::string_view text) {
  mix(static_cast<std::uint64_t>(text.size()));
  state_ = fnv1a(text, state_);
  return *this;
}

std::int64_t quantize_log(double value, double quantum) {
  require(quantum > 0, "quantize_log: quantum must be positive");
  if (!(value > 0)) return std::numeric_limits<std::int64_t>::min();
  return std::llround(std::log(value) / std::log1p(quantum));
}

std::uint64_t job_fingerprint(const JobSpec& job, double size_quantum) {
  Fingerprint f;
  f.mix(job.name);
  f.mix(static_cast<std::uint64_t>(job.recurring ? 1 : 0));
  f.mix(static_cast<std::uint64_t>(job.stages.size()));
  for (const MapReduceSpec& stage : job.stages) {
    f.mix(stage.name);
    f.mix(static_cast<std::uint64_t>(
        quantize_log(stage.input_bytes, size_quantum)));
    f.mix(static_cast<std::uint64_t>(
        quantize_log(stage.shuffle_bytes, size_quantum)));
    f.mix(static_cast<std::uint64_t>(
        quantize_log(stage.output_bytes, size_quantum)));
    f.mix(static_cast<std::uint64_t>(
        quantize_log(stage.num_maps, size_quantum)));
    f.mix(static_cast<std::uint64_t>(
        quantize_log(stage.num_reduces, size_quantum)));
    f.mix(stage.map_rate);
    f.mix(stage.reduce_rate);
  }
  f.mix(static_cast<std::uint64_t>(job.edges.size()));
  for (const DagEdge& edge : job.edges) {
    f.mix(static_cast<std::uint64_t>(edge.from));
    f.mix(static_cast<std::uint64_t>(edge.to));
  }
  // Placement constraints change the feasible plans, so they must miss the
  // cache. Mixed only when present: unconstrained jobs keep their
  // pre-placement fingerprints (and cached plans) byte-identical.
  if (job.placement.constrained()) {
    f.mix(static_cast<std::uint64_t>(job.placement.anti_affinity));
    f.mix(job.placement.resource_class);
    f.mix(static_cast<std::uint64_t>(job.placement.resource_units));
    f.mix(static_cast<std::uint64_t>(job.placement.rack_exclusive ? 1 : 0));
  }
  return f.value();
}

std::uint64_t workload_fingerprint(std::span<const JobSpec> jobs,
                                   double size_quantum) {
  Fingerprint f;
  f.mix(static_cast<std::uint64_t>(jobs.size()));
  for (const JobSpec& job : jobs) f.mix(job_fingerprint(job, size_quantum));
  return f.value();
}

std::uint64_t topology_fingerprint(const ClusterConfig& cluster,
                                   std::span<const int> usable_racks) {
  Fingerprint f;
  f.mix(static_cast<std::uint64_t>(cluster.racks));
  f.mix(static_cast<std::uint64_t>(cluster.machines_per_rack));
  f.mix(static_cast<std::uint64_t>(cluster.slots_per_machine));
  f.mix(cluster.nic_bandwidth);
  f.mix(cluster.oversubscription);
  f.mix(cluster.background_core_fraction);
  // Resource classes gate placement eligibility; mixed only when declared
  // so class-free topologies keep their pre-placement fingerprints.
  if (!cluster.resource_classes.empty()) {
    f.mix(static_cast<std::uint64_t>(cluster.resource_classes.size()));
    for (const ResourceClassConfig& cls : cluster.resource_classes) {
      f.mix(cls.name);
      f.mix(static_cast<std::uint64_t>(cls.units_per_rack));
      f.mix(static_cast<std::uint64_t>(cls.equipped_racks));
    }
  }
  if (usable_racks.empty()) {
    // Canonical form: every rack healthy.
    f.mix(static_cast<std::uint64_t>(cluster.racks));
    for (int r = 0; r < cluster.racks; ++r) {
      f.mix(static_cast<std::uint64_t>(r));
    }
    return f.value();
  }
  std::vector<int> sorted(usable_racks.begin(), usable_racks.end());
  std::sort(sorted.begin(), sorted.end());
  f.mix(static_cast<std::uint64_t>(sorted.size()));
  for (int r : sorted) f.mix(static_cast<std::uint64_t>(r));
  return f.value();
}

std::uint64_t planner_fingerprint(const PlannerConfig& config,
                                  PlannerBackendKind backend) {
  Fingerprint f;
  f.mix(static_cast<std::uint64_t>(config.objective == Objective::kMakespan
                                       ? 0
                                       : 1));
  f.mix(static_cast<std::uint64_t>(config.widest_job_first ? 1 : 0));
  f.mix(static_cast<std::uint64_t>(config.explore_full_range ? 1 : 0));
  // Backend id: switching --planner must miss the plan cache (the cached
  // plan was produced by a different algorithm).
  f.mix(static_cast<std::uint64_t>(backend));
  return f.value();
}

std::uint64_t latency_params_fingerprint(const LatencyModelParams& params) {
  Fingerprint f;
  f.mix(static_cast<std::uint64_t>(params.machines_per_rack));
  f.mix(static_cast<std::uint64_t>(params.slots_per_machine));
  f.mix(params.nic_bandwidth);
  f.mix(params.oversubscription);
  f.mix(params.alpha);
  return f.value();
}

}  // namespace corral
