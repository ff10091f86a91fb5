#include "sim/policy.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/check.h"

namespace corral {

PlanLookup::PlanLookup(std::span<const JobSpec> planned_jobs,
                       const Plan& plan) {
  require(planned_jobs.size() == plan.jobs.size(),
          "PlanLookup: job/plan size mismatch");
  for (std::size_t i = 0; i < planned_jobs.size(); ++i) {
    by_job_id_.emplace(planned_jobs[i].id, plan.jobs[i]);
  }
}

const PlannedJob* PlanLookup::find(int job_id) const {
  const auto it = by_job_id_.find(job_id);
  return it == by_job_id_.end() ? nullptr : &it->second;
}

void PlanLookup::set(int job_id, const PlannedJob& planned) {
  by_job_id_[job_id] = planned;
}

void PlanLookup::erase(int job_id) { by_job_id_.erase(job_id); }

std::unique_ptr<BlockPlacementPolicy> YarnCapacityPolicy::input_placement(
    const JobSpec&) {
  return std::make_unique<DefaultPlacement>();
}

std::vector<int> YarnCapacityPolicy::allowed_racks(
    const JobSpec&, const Dfs&, const std::vector<const FileLayout*>&,
    Rng&) {
  return {};
}

double YarnCapacityPolicy::priority(const JobSpec& job) const {
  return job.arrival;
}

CorralPolicy::CorralPolicy(const PlanLookup* plan) : plan_(plan) {
  require(plan_ != nullptr, "CorralPolicy: plan must not be null");
}

const PlannedJob* CorralPolicy::planned(const JobSpec& job) const {
  // Ad hoc jobs use regular HDFS policies (§3.1).
  return job.recurring ? plan_->find(job.id) : nullptr;
}

std::unique_ptr<BlockPlacementPolicy> CorralPolicy::input_placement(
    const JobSpec& job) {
  const PlannedJob* entry = planned(job);
  if (entry == nullptr) return std::make_unique<DefaultPlacement>();
  return std::make_unique<CorralPlacement>(entry->racks);
}

std::vector<int> CorralPolicy::allowed_racks(
    const JobSpec& job, const Dfs&, const std::vector<const FileLayout*>&,
    Rng&) {
  const PlannedJob* entry = planned(job);
  if (entry == nullptr) return {};
  return entry->racks;
}

double CorralPolicy::priority(const JobSpec& job) const {
  // Planned jobs are ordered by their planned start time T_j (which orders
  // exactly like the planner's priority rank p_j); ad hoc jobs interleave
  // by arrival time on the same axis, so they use whatever slots the plan
  // leaves idle without being starved behind the entire plan.
  const PlannedJob* entry = planned(job);
  if (entry == nullptr) return job.arrival;
  return entry->start_time;
}

// lookup_ is not constructed yet when CorralPolicy keeps its address; the
// base reads it only after construction.
CorralRepairPolicy::CorralRepairPolicy(std::vector<JobSpec> recurring_jobs,
                                       const ClusterConfig& cluster,
                                       const PlannerConfig& planner_config)
    : CorralPolicy(&lookup_),
      jobs_(std::move(recurring_jobs)),
      cluster_(cluster),
      planner_config_(planner_config),
      lookup_(jobs_, plan_offline(jobs_, cluster_, planner_config_)) {}

std::vector<int> CorralRepairPolicy::allowed_racks(
    const JobSpec& job, const Dfs& dfs,
    const std::vector<const FileLayout*>& input_files, Rng& rng) {
  submitted_.insert(job.id);
  return CorralPolicy::allowed_racks(job, dfs, input_files, rng);
}

void CorralRepairPolicy::on_rack_degraded(int, const ClusterTopology& topology,
                                          Seconds now) {
  std::vector<JobSpec> pending;
  for (const JobSpec& job : jobs_) {
    if (!submitted_.contains(job.id)) pending.push_back(job);
  }
  if (pending.empty()) return;

  const std::vector<int> healthy =
      topology.usable_racks(kRackHealthThreshold);
  if (healthy.empty()) {
    // Nothing left to plan on: release the pending jobs to run
    // unconstrained wherever capacity survives.
    for (const JobSpec& job : pending) lookup_.erase(job.id);
    ++repairs_;
    return;
  }
  Plan repaired = plan_offline(pending, cluster_, planner_config_, healthy);
  for (std::size_t i = 0; i < pending.size(); ++i) {
    PlannedJob entry = repaired.jobs[i];
    // The repaired plan starts its clock at the repair instant; offsetting
    // keeps repaired jobs prioritized after the already-dispatched prefix
    // of the original plan.
    entry.start_time += now;
    lookup_.set(pending[i].id, entry);
  }
  ++repairs_;
}

std::unique_ptr<BlockPlacementPolicy> LocalShufflePolicy::input_placement(
    const JobSpec&) {
  // The whole point of this baseline: Corral's task placement, HDFS's
  // random data placement (§6.1).
  return std::make_unique<DefaultPlacement>();
}

ShuffleWatcherPolicy::ShuffleWatcherPolicy(int slots_per_rack)
    : slots_per_rack_(slots_per_rack) {
  require(slots_per_rack_ > 0,
          "ShuffleWatcherPolicy: slots_per_rack must be positive");
}

std::unique_ptr<BlockPlacementPolicy> ShuffleWatcherPolicy::input_placement(
    const JobSpec&) {
  return std::make_unique<DefaultPlacement>();
}

std::vector<int> ShuffleWatcherPolicy::allowed_racks(
    const JobSpec& job, const Dfs& dfs,
    const std::vector<const FileLayout*>& input_files, Rng&) {
  const int num_racks = dfs.topology().racks();
  // Choose the rack count that minimizes estimated cross-rack bytes:
  // remote input reads shrink with r, shuffle spillover grows with r.
  const double input = job.total_input();
  const double shuffle = job.total_shuffle();
  int needed = 1;
  double best_cost = std::numeric_limits<double>::max();
  for (int r = 1; r <= num_racks; ++r) {
    const double cost =
        input * (1.0 - static_cast<double>(r) / num_racks) +
        shuffle * (static_cast<double>(r - 1) / r);
    if (cost < best_cost - 1e-9) {
      best_cost = cost;
      needed = r;
    }
  }
  if (needed >= num_racks) return {};

  // Per-rack bytes of this job's input.
  std::vector<Bytes> input_by_rack(static_cast<std::size_t>(num_racks), 0.0);
  for (const FileLayout* file : input_files) {
    for (const auto& chunk : file->chunks) {
      for (int m : chunk.machines) {
        input_by_rack[static_cast<std::size_t>(dfs.topology().rack_of(m))] +=
            chunk.bytes / static_cast<double>(chunk.machines.size());
      }
    }
  }
  // Rank racks by how much of the job's input they hold, bucketed coarsely
  // so near-ties resolve toward low rack ids. ShuffleWatcher is oblivious
  // to what other jobs chose, so with HDFS's near-uniform spread many jobs
  // herd onto the same racks — the contention pathology §6.2.1 observes
  // ("ends up scheduling several large jobs on the same subset of racks").
  const Bytes bucket = std::max<Bytes>(input / (2.0 * num_racks), 1.0);
  std::vector<int> racks(static_cast<std::size_t>(num_racks));
  for (int r = 0; r < num_racks; ++r) racks[static_cast<std::size_t>(r)] = r;
  std::sort(racks.begin(), racks.end(), [&](int a, int b) {
    const double ba =
        std::floor(input_by_rack[static_cast<std::size_t>(a)] / bucket);
    const double bb =
        std::floor(input_by_rack[static_cast<std::size_t>(b)] / bucket);
    if (ba != bb) return ba > bb;
    return a < b;
  });
  racks.resize(static_cast<std::size_t>(needed));
  std::sort(racks.begin(), racks.end());
  return racks;
}

double ShuffleWatcherPolicy::priority(const JobSpec& job) const {
  return job.arrival;
}

}  // namespace corral
