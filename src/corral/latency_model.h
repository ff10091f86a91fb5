// Latency response functions (§4.3, §4.5).
//
// The planner predicts the latency L_j(r) of job j when allocated r racks.
// For a MapReduce stage the model is the sum of a map stage, a shuffle stage
// and a reduce stage; for a DAG it is the sum of stage latencies along the
// critical path. These functions are deliberately simple proxies: "we
// tradeoff accurate (absolute) latency values for simpler and practical
// planning algorithms" (§3.3).
#ifndef CORRAL_CORRAL_LATENCY_MODEL_H_
#define CORRAL_CORRAL_LATENCY_MODEL_H_

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cluster/topology.h"
#include "jobs/job.h"
#include "util/check.h"

namespace corral {

struct LatencyModelParams {
  int machines_per_rack = 30;   // k
  int slots_per_machine = 8;    // tasks running concurrently per machine
  BytesPerSec nic_bandwidth = 10 * kGbps;  // B
  double oversubscription = 5.0;           // V

  // Data-imbalance tradeoff coefficient (§4.5). The penalty added to L_j(r)
  // is alpha * D_I / r. The paper sets alpha to the inverse of the
  // rack-to-core bandwidth so the penalty approximates the time to upload
  // the job's input into a rack.
  double alpha = 0.0;

  static LatencyModelParams from_cluster(const ClusterConfig& config);

  // alpha = 1 / (rack uplink bandwidth), the paper's default (§4.5).
  double default_alpha() const;
};

// Latency of one MapReduce stage on r racks (§4.3), without the imbalance
// penalty. Breaks out the three phases for tests and diagnostics.
struct StageLatency {
  Seconds map = 0;
  Seconds shuffle = 0;
  Seconds reduce = 0;
  Seconds total() const { return map + shuffle + reduce; }
};

StageLatency stage_latency(const MapReduceSpec& stage, int racks,
                           const LatencyModelParams& params);

// Latency of a whole job on r racks: single stage for MapReduce, critical
// path over stages for DAGs (§4.3 "General DAGs"). No imbalance penalty.
Seconds job_latency(const JobSpec& job, int racks,
                    const LatencyModelParams& params);

// L'_j(r) = L_j(r) + alpha * D_I / r (§4.5).
Seconds job_latency_with_penalty(const JobSpec& job, int racks,
                                 const LatencyModelParams& params);

// Precomputed response function L'_j(r) for r = 1..max_racks, as used by the
// planner and the LP bounds.
class ResponseFunction {
 public:
  ResponseFunction(const JobSpec& job, int max_racks,
                   const LatencyModelParams& params);

  // For direct construction in tests and synthetic studies.
  ResponseFunction(std::vector<Seconds> latency_by_racks, Seconds arrival);

  int max_racks() const { return static_cast<int>(latency_.size()); }
  // r must be in [1, max_racks()]. Inline: the provisioning search reads
  // the table once per job for every candidate it evaluates.
  Seconds at(int racks) const {
    require(racks >= 1 && racks <= max_racks(),
            "ResponseFunction::at: racks out of range");
    return latency_[static_cast<std::size_t>(racks - 1)];
  }
  Seconds arrival() const { return arrival_; }
  Seconds min_latency() const;
  // Rack count attaining min_latency (smallest such r).
  int best_racks() const;

 private:
  std::vector<Seconds> latency_;  // latency_[r-1] = L'(r)
  Seconds arrival_ = 0;
};

// Builds response functions for a batch of jobs.
std::vector<ResponseFunction> build_response_functions(
    std::span<const JobSpec> jobs, int max_racks,
    const LatencyModelParams& params);

// Memoizes L'_j(r) envelopes across planning rounds (docs/control_plane.md).
//
// Recurring jobs re-enter the planner every epoch with near-identical
// predicted sizes; recomputing every response function from scratch is the
// bulk of a replan's model-evaluation cost. The cache keys each job by its
// semantic fingerprint (corral/fingerprint.h) with data sizes quantized
// into `size_quantum` relative buckets, so tonight's instance reuses the
// envelope computed for yesterday's near-identical instance. A hit returns
// the cached envelope re-stamped with the query job's arrival time; the
// latencies are those of the bucket representative (within ~size_quantum of
// exact — the same tolerance the plan cache accepts). Not thread-safe: one
// cache per control loop, queried from the calling thread only.
class ResponseFunctionCache {
 public:
  explicit ResponseFunctionCache(double size_quantum = 0.15);

  // The memoized equivalent of ResponseFunction(job, max_racks, params).
  ResponseFunction get(const JobSpec& job, int max_racks,
                       const LatencyModelParams& params);

  // Memoized build_response_functions.
  std::vector<ResponseFunction> get_all(std::span<const JobSpec> jobs,
                                        int max_racks,
                                        const LatencyModelParams& params);

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::size_t size() const { return entries_.size(); }
  void clear();

  // Checkpoint support (src/ctrl/checkpoint): the memo's entries sorted by
  // key — a deterministic, restorable image of the cache. restore() replaces
  // the current contents and counters with the snapshot's.
  using Snapshot =
      std::vector<std::pair<std::uint64_t, std::vector<Seconds>>>;
  Snapshot snapshot() const;
  void restore(const Snapshot& entries, std::uint64_t hits,
               std::uint64_t misses);

 private:
  double size_quantum_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::unordered_map<std::uint64_t, std::vector<Seconds>> entries_;
};

}  // namespace corral

#endif  // CORRAL_CORRAL_LATENCY_MODEL_H_
