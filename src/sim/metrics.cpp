#include "sim/metrics.h"

#include "obs/metrics.h"
#include "util/check.h"

namespace corral {

const JobResult* SimResult::find_job(int job_id) const {
  for (const JobResult& job : jobs) {
    if (job.job_id == job_id) return &job;
  }
  return nullptr;
}

std::vector<double> SimResult::completion_times() const {
  std::vector<double> out;
  out.reserve(jobs.size());
  for (const JobResult& job : jobs) {
    if (!job.failed) out.push_back(job.completion_time());
  }
  return out;
}

double SimResult::avg_completion() const {
  const auto times = completion_times();
  return mean(times);
}

double SimResult::median_completion() const {
  const auto times = completion_times();
  require(!times.empty(), "median_completion: no jobs");
  return percentile(times, 50);
}

std::vector<double> SimResult::per_job_avg_reduce_time() const {
  std::vector<double> out;
  for (const JobResult& job : jobs) {
    if (!job.reduce_durations.empty()) {
      out.push_back(mean(job.reduce_durations));
    }
  }
  return out;
}

double SimResult::avg_uplink_utilization() const {
  return mean(rack_uplink_utilization);
}

double reduction(double baseline, double value) {
  require(baseline != 0, "reduction: zero baseline");
  return (baseline - value) / baseline;
}

void record_sim_metrics(const SimResult& result,
                        obs::MetricsRegistry& registry) {
  registry.counter("sim.jobs").add(static_cast<double>(result.jobs.size()));
  registry.counter("sim.jobs_failed").add(result.jobs_failed);
  registry.counter("sim.tasks_killed").add(result.tasks_killed);
  registry.counter("sim.maps_rerun").add(result.maps_rerun);
  registry.counter("sim.speculative_launched")
      .add(result.speculative_launched);
  registry.counter("sim.speculative_wasted_seconds")
      .add(result.speculative_wasted_seconds);
  registry.counter("sim.stragglers_injected").add(result.stragglers_injected);
  registry.counter("sim.chunks_lost").add(result.chunks_lost);
  registry.counter("sim.bytes_rereplicated").add(result.bytes_rereplicated);
  registry.counter("sim.cross_rack_bytes")
      .add(result.total_cross_rack_bytes);

  registry.gauge("sim.makespan_s").set(result.makespan);
  registry.gauge("sim.degraded_time_s").set(result.degraded_time);
  registry.gauge("sim.total_compute_hours").set(result.total_compute_hours);
  registry.gauge("sim.input_balance_cov").set(result.input_balance_cov);
  registry.gauge("sim.avg_uplink_utilization")
      .set(result.avg_uplink_utilization());

  // Buckets from 1s up: job completions span seconds to days.
  obs::HistogramOptions seconds_scale;
  seconds_scale.first_bound = 1.0;
  seconds_scale.growth = 2.0;
  seconds_scale.buckets = 24;
  obs::Histogram& completions =
      registry.histogram("sim.job_completion_s", seconds_scale);
  for (double t : result.completion_times()) completions.observe(t);
  obs::Histogram& reduces =
      registry.histogram("sim.reduce_duration_s", seconds_scale);
  for (const JobResult& job : result.jobs) {
    for (double t : job.reduce_durations) reduces.observe(t);
  }
}

}  // namespace corral
