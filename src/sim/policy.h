// Job scheduling policies (§6.1 "Baselines").
//
// The simulator delegates three decisions to a policy, mirroring how the
// paper's Yarn implementation splits responsibilities (§5):
//   * where to place a job's input data (HDFS block placement policy),
//   * which racks the job's tasks are constrained to (locality preference
//     passed to the Resource Manager),
//   * the order in which jobs get free slots (priority p_j).
//
// Implemented policies:
//   * YarnCapacityPolicy  — Yarn-CS: default random data placement, no rack
//     constraints, FIFO by arrival, delay scheduling for map locality.
//   * CorralPolicy        — the paper's system: plan-driven data placement
//     (one replica inside R_j), tasks constrained to R_j, plan priorities.
//   * CorralRepairPolicy  — CorralPolicy over a plan it repairs when a rack
//     degrades (§7).
//   * LocalShufflePolicy  — Corral's task placement but HDFS's default data
//     placement; isolates the contribution of input placement (§6.1).
//   * ShuffleWatcherPolicy — per-job greedy rack subset chosen at submit
//     time with no cross-job coordination; input data stays random.
#ifndef CORRAL_SIM_POLICY_H_
#define CORRAL_SIM_POLICY_H_

#include <memory>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "corral/planner.h"
#include "dfs/placement.h"
#include "jobs/job.h"

namespace corral {

// Minimum healthy fraction of an assigned rack (§3.1, §7). The simulator's
// constraint fallback and CorralRepairPolicy's replanning both read it, so
// they agree on when a rack is unhealthy.
constexpr double kRackHealthThreshold = 0.5;

// Maps job ids to their planned allocation. Built from the jobs the planner
// saw (in the same order) and the plan it produced.
class PlanLookup {
 public:
  PlanLookup() = default;
  PlanLookup(std::span<const JobSpec> planned_jobs, const Plan& plan);

  // Returns nullptr for jobs the planner did not see (ad hoc jobs).
  const PlannedJob* find(int job_id) const;
  // A plan repair: replaces (or adds) the entry of `job_id`, or drops it so
  // the job runs like an ad hoc one.
  void set(int job_id, const PlannedJob& planned);
  void erase(int job_id);

 private:
  std::unordered_map<int, PlannedJob> by_job_id_;
};

class SchedulingPolicy {
 public:
  virtual ~SchedulingPolicy() = default;

  virtual std::string_view name() const = 0;

  // Block placement policy for the job's input files.
  virtual std::unique_ptr<BlockPlacementPolicy> input_placement(
      const JobSpec& job) = 0;

  // Racks the job's tasks are constrained to; empty means the whole
  // cluster. Called after the input data has been placed; `input_files`
  // are the job's input layouts (one per source stage).
  virtual std::vector<int> allowed_racks(
      const JobSpec& job, const Dfs& dfs,
      const std::vector<const FileLayout*>& input_files, Rng& rng) = 0;

  // Scheduling priority; lower value runs first.
  virtual double priority(const JobSpec& job) const = 0;

  // Failure notifications (§7 "Dealing with failures"). The simulator calls
  // these when a rack crosses the health threshold in either direction,
  // giving planning policies a chance to repair their plan for jobs that
  // have not started yet. Defaults are no-ops.
  virtual void on_rack_degraded(int rack, const ClusterTopology& topology,
                                Seconds now) {
    (void)rack, (void)topology, (void)now;
  }
  virtual void on_rack_recovered(int rack, const ClusterTopology& topology,
                                 Seconds now) {
    (void)rack, (void)topology, (void)now;
  }
};

class YarnCapacityPolicy : public SchedulingPolicy {
 public:
  std::string_view name() const override { return "yarn-cs"; }
  std::unique_ptr<BlockPlacementPolicy> input_placement(
      const JobSpec& job) override;
  std::vector<int> allowed_racks(
      const JobSpec& job, const Dfs& dfs,
      const std::vector<const FileLayout*>& input_files, Rng& rng) override;
  double priority(const JobSpec& job) const override;
};

// Follows a plan (§3.1): a recurring job the plan covers gets one input
// replica inside its planned racks, runs on those racks only, and is
// ordered by its planned start time; any other job is handled like Yarn-CS.
class CorralPolicy : public SchedulingPolicy {
 public:
  explicit CorralPolicy(const PlanLookup* plan);

  std::string_view name() const override { return "corral"; }
  std::unique_ptr<BlockPlacementPolicy> input_placement(
      const JobSpec& job) override;
  std::vector<int> allowed_racks(
      const JobSpec& job, const Dfs& dfs,
      const std::vector<const FileLayout*>& input_files, Rng& rng) override;
  double priority(const JobSpec& job) const override;

 private:
  // The plan's entry for `job`; nullptr for a job to handle like Yarn-CS.
  const PlannedJob* planned(const JobSpec& job) const;

  const PlanLookup* plan_;
};

// Corral with plan repair (§7): behaves exactly like CorralPolicy until a
// rack durably degrades below kRackHealthThreshold; then it re-runs the
// two-phase planner over the recurring jobs that have not yet been
// submitted, against the healthy racks only, and follows the repaired
// plan from that point on. Jobs already running keep their original plan
// entries — the simulator's constraint-fallback path handles them.
// Recovered racks re-enter the planning universe at the next repair. Owns
// its plan, so it needs the recurring job specs rather than a PlanLookup.
class CorralRepairPolicy : public CorralPolicy {
 public:
  CorralRepairPolicy(std::vector<JobSpec> recurring_jobs,
                     const ClusterConfig& cluster,
                     const PlannerConfig& planner_config);

  std::string_view name() const override { return "corral-repair"; }
  // CorralPolicy's racks; also marks the job as submitted.
  std::vector<int> allowed_racks(
      const JobSpec& job, const Dfs& dfs,
      const std::vector<const FileLayout*>& input_files, Rng& rng) override;

  void on_rack_degraded(int rack, const ClusterTopology& topology,
                        Seconds now) override;

  // Number of repair replans performed so far.
  int repairs() const { return repairs_; }

 private:
  std::vector<JobSpec> jobs_;
  ClusterConfig cluster_;
  PlannerConfig planner_config_;
  PlanLookup lookup_;  // the plan CorralPolicy follows
  std::unordered_set<int> submitted_;  // job ids
  int repairs_ = 0;
};

// Corral's task placement and priorities over HDFS's default data
// placement: isolates the contribution of input placement (§6.1).
class LocalShufflePolicy : public CorralPolicy {
 public:
  using CorralPolicy::CorralPolicy;

  std::string_view name() const override { return "local-shuffle"; }
  std::unique_ptr<BlockPlacementPolicy> input_placement(
      const JobSpec& job) override;
};

class ShuffleWatcherPolicy : public SchedulingPolicy {
 public:
  explicit ShuffleWatcherPolicy(int slots_per_rack);

  std::string_view name() const override { return "shufflewatcher"; }
  std::unique_ptr<BlockPlacementPolicy> input_placement(
      const JobSpec& job) override;
  // Greedy, per-job: picks the rack count minimizing the job's estimated
  // cross-rack bytes — remote input reads (input is spread uniformly, so a
  // fraction 1 - r/R must cross) against shuffle spillover ((r-1)/r of the
  // shuffle) — then prefers the racks already holding the most of its
  // input. No coordination across jobs and no makespan term, which is why
  // it "can schedule all jobs on a single rack" (§6.1) and places W2's
  // giant shuffle-heavy jobs on one rack (§6.2.1).
  std::vector<int> allowed_racks(
      const JobSpec& job, const Dfs& dfs,
      const std::vector<const FileLayout*>& input_files, Rng& rng) override;
  double priority(const JobSpec& job) const override;

 private:
  int slots_per_rack_;
};

}  // namespace corral

#endif  // CORRAL_SIM_POLICY_H_
