#include "sim/batch.h"

#include "exec/exec.h"
#include "obs/trace.h"
#include "util/check.h"

namespace corral {

BatchRunner::BatchRunner(exec::ThreadPool* pool) : pool_(pool) {}

void BatchRunner::set_tracer(obs::Tracer* tracer, int first_sink) {
  tracer_ = tracer;
  first_sink_ = first_sink;
}

std::vector<BatchResult> BatchRunner::run(
    std::span<const BatchCase> cases) const {
  exec::ThreadPool& pool =
      pool_ != nullptr ? *pool_ : exec::ThreadPool::shared();
  for (const BatchCase& batch_case : cases) {
    require(static_cast<bool>(batch_case.make_policy),
            "BatchRunner: case without a policy factory");
  }
  return exec::parallel_map(pool, cases.size(), [&](int, std::size_t i) {
    const BatchCase& batch_case = cases[i];
    const std::unique_ptr<SchedulingPolicy> policy = batch_case.make_policy();
    ensure(policy != nullptr, "BatchRunner: policy factory returned null");
    // Runner-attached tracing: sink id = first_sink + case index, a pure
    // function of the submission order (never of the worker or completion
    // order), preserving byte-identical merged traces at any pool width.
    SimConfig config = batch_case.config;
    if (tracer_ != nullptr && config.tracer == nullptr) {
      config.tracer = tracer_;
      config.trace_sink = first_sink_ + static_cast<int>(i);
      config.trace_label = batch_case.label;
    }
    SimResult sim = run_simulation(batch_case.jobs, *policy, config);
    if (config.tracer != nullptr) {
      const std::string& label =
          batch_case.label.empty() ? sim.policy_name : batch_case.label;
      const obs::TraceRecorder trace(config.tracer, config.trace_sink,
                                     label);
      if (trace.at(obs::TraceLevel::kJobs)) {
        trace.span(obs::TraceTrack::kBatch, label, "batch",
                   static_cast<long>(i), 0.0, sim.makespan,
                   {obs::arg("case", static_cast<double>(i)),
                    obs::arg("policy", sim.policy_name),
                    obs::arg("jobs",
                             static_cast<double>(batch_case.jobs.size())),
                    obs::arg("makespan_s", sim.makespan)});
      }
    }
    return BatchResult{batch_case.label, std::move(sim)};
  });
}

}  // namespace corral
