// Stable fingerprints for plan-cache keys (docs/control_plane.md).
//
// The control plane caches offline plans keyed by what the planner actually
// saw: the predicted workload, the planning topology, and the planner
// configuration. Fingerprints are FNV-1a hashes over the *semantic* fields
// only — job ids and arrival offsets are excluded (a recurring job keeps
// its identity across instances), and data sizes / task counts are
// quantized into relative log-space buckets so the small day-to-day
// prediction wiggle of a recurring job (§2: ~6.5% error) maps to the same
// key and hits the cache, while a genuinely different workload misses.
//
// Everything here is a pure function of its inputs, so fingerprints are
// byte-identical across runs, pool widths and platforms with IEEE doubles.
#ifndef CORRAL_CORRAL_FINGERPRINT_H_
#define CORRAL_CORRAL_FINGERPRINT_H_

#include <cstdint>
#include <span>
#include <string_view>

#include "cluster/topology.h"
#include "corral/latency_model.h"
#include "corral/planner.h"
#include "jobs/job.h"

namespace corral {

// Incremental FNV-1a (64-bit; util/hash.h). Doubles are mixed by bit
// pattern, so equal doubles always hash equal and NaN payloads are at least
// deterministic.
class Fingerprint {
 public:
  Fingerprint& mix(std::uint64_t value);
  Fingerprint& mix(double value);
  Fingerprint& mix(std::string_view text);

  std::uint64_t value() const { return state_; }

 private:
  // NOT the standard FNV offset basis (14695981039346656037, kFnvOffsetBasis):
  // this one drops its last digit. Every plan-cache key printed in ctrl
  // reports and traces derives from it, so it stays as it is.
  std::uint64_t state_ = 1469598103934665603ull;
};

// Relative log-space bucket of a positive quantity: two values within
// roughly `quantum` (e.g. 0.15 = 15%) of each other land in the same
// bucket. Zero and negatives map to a reserved bucket. quantum must be > 0.
std::int64_t quantize_log(double value, double quantum);

// One job's semantic shape: name, DAG edges, and per-stage quantized
// bytes/task counts plus processing rates. Excludes id and arrival.
std::uint64_t job_fingerprint(const JobSpec& job, double size_quantum);

// Order-sensitive combination over a whole workload (the planner's input
// order is part of the plan's meaning).
std::uint64_t workload_fingerprint(std::span<const JobSpec> jobs,
                                   double size_quantum);

// The planning universe: cluster shape, bandwidth parameters, and the
// sorted usable-rack set (empty span = all racks healthy). A rack outage
// changes this fingerprint, which is what invalidates cached plans.
std::uint64_t topology_fingerprint(const ClusterConfig& cluster,
                                   std::span<const int> usable_racks = {});

// Objective, the §4.2 ablation switches and the planning backend. The
// pool/tracer fields are execution detail, not plan semantics, and are
// excluded.
std::uint64_t planner_fingerprint(const PlannerConfig& config,
                                  PlannerBackendKind backend);

// Latency-model parameters (for memoized response functions).
std::uint64_t latency_params_fingerprint(const LatencyModelParams& params);

}  // namespace corral

#endif  // CORRAL_CORRAL_FINGERPRINT_H_
