// Simulation results and the derived metrics reported in §6.
#ifndef CORRAL_SIM_METRICS_H_
#define CORRAL_SIM_METRICS_H_

#include <string>
#include <vector>

#include "util/stats.h"
#include "util/units.h"

namespace corral {

struct JobResult {
  int job_id = 0;
  std::string name;
  bool recurring = true;
  Seconds arrival = 0;
  Seconds first_task_start = 0;
  Seconds finish = 0;
  // Bytes this job moved over rack up/down links (input reads, shuffle,
  // replica writes).
  Bytes cross_rack_bytes = 0;
  // Total slot-occupancy seconds of the job's tasks ("compute hours",
  // Fig 7b, measures "the total time spent by all the tasks").
  double compute_seconds = 0;
  // Per reduce-task execution times (fetch + compute + write), Fig 7c.
  std::vector<Seconds> reduce_durations;

  // --- failure/recovery accounting (§7) ---
  // True when the job was aborted because a task exhausted its retries or
  // its input data was lost; `finish` is then the abort time.
  bool failed = false;
  // Running task attempts killed by machine failures.
  int tasks_killed = 0;
  // Completed maps rerun because their node-local outputs were lost.
  int maps_rerun = 0;
  // Speculative backup copies launched for this job's tasks, and the slot
  // seconds spent on losing copies (the price of first-finisher-wins).
  int speculative_launched = 0;
  double speculative_wasted_seconds = 0;

  Seconds completion_time() const { return finish - arrival; }
};

struct SimResult {
  std::string policy_name;
  Seconds makespan = 0;  // time until the last job finishes
  std::vector<JobResult> jobs;
  Bytes total_cross_rack_bytes = 0;
  double total_compute_hours = 0;
  // CoV of per-rack input bytes after placement (§6.2 "Data balance").
  double input_balance_cov = 0;
  // Mean utilization of each rack's (background-reduced) core uplink over
  // the run: bytes sent up / (effective capacity x makespan). Quantifies
  // how much core bandwidth the scheduler left for other tenants.
  std::vector<double> rack_uplink_utilization;

  // --- failure/recovery accounting (§7), aggregated over jobs ---
  int tasks_killed = 0;
  int maps_rerun = 0;
  int speculative_launched = 0;
  double speculative_wasted_seconds = 0;
  // Task starts that were slowed by straggler injection.
  int stragglers_injected = 0;
  // DFS healing traffic: bytes copied to restore lost replicas, and chunks
  // whose every replica was lost (permanent data loss).
  Bytes bytes_rereplicated = 0;
  int chunks_lost = 0;
  // Jobs aborted by retry exhaustion or data loss (JobResult::failed).
  int jobs_failed = 0;
  // Virtual time during which at least one machine was down ("time in
  // degraded mode"), accumulated until the last job finishes.
  Seconds degraded_time = 0;

  // The result row of one job, or nullptr when the id is unknown — the
  // feedback hook the control plane uses to fold realized completions and
  // input observations back into per-job histories (docs/control_plane.md).
  const JobResult* find_job(int job_id) const;

  // Completion times of jobs that finished successfully (failed jobs would
  // skew completion statistics with their early abort times).
  std::vector<double> completion_times() const;
  double avg_completion() const;
  double median_completion() const;
  // Mean of per-job average reduce-task times (Fig 7c aggregates per job).
  std::vector<double> per_job_avg_reduce_time() const;
  // Average of rack_uplink_utilization (0 when unavailable).
  double avg_uplink_utilization() const;
};

// (a - b) / a: fractional reduction of metric `b` relative to baseline `a`.
double reduction(double baseline, double value);

namespace obs {
class MetricsRegistry;
}  // namespace obs

// Folds a finished run into an obs::MetricsRegistry: sim.* counters for the
// fault/speculation totals, sim.* gauges for makespan and utilization, and
// histograms of job completion times and reduce durations. Used by
// run_simulation when SimConfig::metrics is set.
void record_sim_metrics(const SimResult& result, obs::MetricsRegistry& registry);

}  // namespace corral

#endif  // CORRAL_SIM_METRICS_H_
