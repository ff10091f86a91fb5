// DAGPS-style planning: do the hard part first.
//
// Grandl et al. observe that DAG schedules degrade when the "troublesome"
// part of the graph — long chains and network-heavy stages that cannot
// overlap with anything — is placed last, after the easy work has fragmented
// the cluster. This backend applies the idea at Corral's rack granularity:
//
//  1. Score every job by how troublesome it is. With job specs available the
//     score combines the serial chain fraction (critical-path stages over
//     total stages) and the network volume fraction (shuffle bytes over
//     total bytes); with envelopes only it falls back to the curvature of
//     L_j(r) (a job whose latency barely improves with racks is a serial
//     chain in disguise). Either way the score is weighted by L_j(1) so big
//     jobs dominate.
//  2. Run the full Corral §4.2 search on the troublesome subset only
//     (score >= mean). The expensive J*R provisioning search is spent where
//     placement quality matters.
//  3. Place the residual jobs greedily, one at a time in (arrival, score
//     desc, index) order, evaluating every width r in [1, R] against the
//     rack availability the troublesome plan left behind and keeping the
//     earliest completion (ties: narrowest width, then lowest rack ids).
//
// Placement constraints (corral/placement.h) thread through both steps:
// the packed search sees the troublesome subset's placements (resolution
// is per-job, so slicing is sound), and the residual greedy takes each
// job's candidate racks from a RackClaims ledger that already holds the
// packed plan's claims.
//
// The search in step 2 runs on the configured pool (byte-identical at any
// width, like plan_offline); steps 1 and 3 are serial scans, so the whole
// plan is deterministic at any --threads value.
#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>
#include <vector>

#include "jobs/dag.h"
#include "obs/trace.h"
#include "plan/backend.h"
#include "util/check.h"

namespace corral::plan {
namespace {

// How troublesome is this job? Always >= L_j(1), at most 3 * L_j(1).
double troublesome_score(const ResponseFunction& job, const JobSpec* spec,
                         int num_racks) {
  const double base = job.at(1);
  if (spec != nullptr && !spec->stages.empty()) {
    const auto num_stages = static_cast<int>(spec->stages.size());
    std::vector<double> weights(spec->stages.size());
    for (std::size_t s = 0; s < spec->stages.size(); ++s) {
      const MapReduceSpec& stage = spec->stages[s];
      weights[s] = static_cast<double>(stage.input_bytes) +
                   static_cast<double>(stage.shuffle_bytes) +
                   static_cast<double>(stage.output_bytes);
    }
    const CriticalPath cp = critical_path(num_stages, spec->edges, weights);
    const double chain_frac =
        static_cast<double>(cp.nodes.size()) / num_stages;
    const double total_bytes = static_cast<double>(spec->total_input()) +
                               static_cast<double>(spec->total_shuffle()) +
                               static_cast<double>(spec->total_output());
    const double net_frac =
        total_bytes > 0
            ? static_cast<double>(spec->total_shuffle()) / total_bytes
            : 0.0;
    return base * (1.0 + chain_frac + net_frac);
  }
  // Envelope curvature: r * L(r) / L(1) is 1 for a perfectly parallel job
  // and r for a fully serial one.
  if (num_racks <= 1) return base;
  const double ratio = job.at(num_racks) * num_racks / base;
  const double serial_frac =
      std::clamp((ratio - 1.0) / (num_racks - 1.0), 0.0, 1.0);
  return base * (1.0 + 2.0 * serial_frac);
}

}  // namespace

std::string_view DagPackBackend::name() const {
  return to_string(PlannerBackendKind::kDagPack);
}

ProvisionPlan DagPackBackend::plan(const PlannerRequest& request) const {
  require(request.config != nullptr, "DagPackBackend: config is required");
  require(request.specs.empty() || request.specs.size() == request.jobs.size(),
          "DagPackBackend: specs must be empty or one per job");
  const PlannerConfig& config = *request.config;
  const int R = request.num_racks;
  validate_inputs(request.jobs, R, config);
  const std::size_t J = request.jobs.size();

  ProvisionPlan result;
  result.backend = PlannerBackendKind::kDagPack;
  if (J == 0) return result;

  const obs::TraceRecorder trace(config.tracer, config.trace_sink, "planner");

  // Step 1: scores and the troublesome split. max >= mean, so the
  // troublesome set is never empty; when every score ties the backend
  // degenerates to the plain Corral search over all jobs.
  std::vector<double> score(J);
  for (std::size_t j = 0; j < J; ++j) {
    score[j] = troublesome_score(
        request.jobs[j], request.specs.empty() ? nullptr : &request.specs[j],
        R);
  }
  const double mean_score =
      std::accumulate(score.begin(), score.end(), 0.0) /
      static_cast<double>(J);
  std::vector<int> trouble_idx;
  std::vector<int> residual_idx;
  for (std::size_t j = 0; j < J; ++j) {
    if (score[j] >= mean_score) {
      trouble_idx.push_back(static_cast<int>(j));
    } else {
      residual_idx.push_back(static_cast<int>(j));
    }
  }

  // Step 2: the full two-phase search over the troublesome subset. When
  // placement constraints apply, the subset's placements are sliced out for
  // the packed search (resolution is per-job, so the slice stays valid).
  const std::vector<JobPlacement>* placements = config.placements;
  std::vector<ResponseFunction> trouble;
  trouble.reserve(trouble_idx.size());
  for (int j : trouble_idx) {
    trouble.push_back(request.jobs[static_cast<std::size_t>(j)]);
  }
  PlannerConfig trouble_config = config;
  std::vector<JobPlacement> trouble_placements;
  if (placements != nullptr) {
    trouble_placements.reserve(trouble_idx.size());
    for (int j : trouble_idx) {
      trouble_placements.push_back((*placements)[static_cast<std::size_t>(j)]);
    }
    trouble_config.placements = &trouble_placements;
  }
  const Plan packed = plan_offline(trouble, R, trouble_config);

  // The cross-job placement state the packed plan leaves behind, rebuilt
  // from its rack assignments so the residual greedy honors it.
  RackClaims claims;
  claims.reset(placements != nullptr ? *placements
                                     : std::span<const JobPlacement>(),
               R);

  Plan& plan = result.plan;
  plan.jobs.resize(J);
  plan.evaluated_candidates = packed.evaluated_candidates;
  std::vector<Seconds> finish(static_cast<std::size_t>(R), 0.0);
  Seconds makespan = 0;
  Seconds total_flow = 0;
  for (std::size_t i = 0; i < trouble_idx.size(); ++i) {
    PlannedJob planned = packed.jobs[i];
    planned.job_index = trouble_idx[i];
    for (int r : planned.racks) {
      finish[static_cast<std::size_t>(r)] = std::max(
          finish[static_cast<std::size_t>(r)], planned.predicted_completion());
    }
    claims.claim(trouble_idx[i], planned.racks);
    makespan = std::max(makespan, planned.predicted_completion());
    total_flow += planned.predicted_completion() -
                  trouble[i].arrival();
    plan.jobs[static_cast<std::size_t>(trouble_idx[i])] = std::move(planned);
  }

  // Step 3: residual jobs, greedy earliest-completion over every width.
  // Serial by construction; order is (arrival, score desc, index).
  std::sort(residual_idx.begin(), residual_idx.end(), [&](int a, int b) {
    const auto sa = static_cast<std::size_t>(a);
    const auto sb = static_cast<std::size_t>(b);
    const Seconds aa = request.jobs[sa].arrival();
    const Seconds ab = request.jobs[sb].arrival();
    if (aa != ab) return aa < ab;
    if (score[sa] != score[sb]) return score[sa] > score[sb];
    return a < b;
  });
  std::vector<Seconds> sorted_finish;
  std::vector<int> rack_order;
  int priority = static_cast<int>(trouble_idx.size());
  double step = 0.0;
  for (int j : residual_idx) {
    const auto sj = static_cast<std::size_t>(j);
    const ResponseFunction& job = request.jobs[sj];
    // Candidate racks: the racks the ledger leaves open to the job.
    claims.open_racks(j, rack_order);
    if (rack_order.empty()) throw_unseatable(j, 1, rack_order.size());
    const int max_r = static_cast<int>(rack_order.size());
    sorted_finish.clear();
    for (int r : rack_order) {
      sorted_finish.push_back(finish[static_cast<std::size_t>(r)]);
    }
    std::sort(sorted_finish.begin(), sorted_finish.end());
    int best_r = 1;
    Seconds best_completion = 0;
    for (int r = 1; r <= max_r; ++r) {
      const Seconds start = std::max(
          job.arrival(), sorted_finish[static_cast<std::size_t>(r) - 1]);
      const Seconds completion = start + job.at(r);
      if (r == 1 || completion < best_completion) {
        best_completion = completion;
        best_r = r;
      }
      if (trace.at(obs::TraceLevel::kTasks)) {
        trace.instant(obs::TraceTrack::kPlanner, "candidate", "planner", j,
                      step,
                      {obs::arg("job", static_cast<double>(j)),
                       obs::arg("racks", static_cast<double>(r)),
                       obs::arg("value", completion)});
      }
      step += 1.0;
    }
    plan.evaluated_candidates += static_cast<std::size_t>(max_r);

    // Take the best_r candidate racks that free up earliest (ties by rack
    // id).
    std::partial_sort(rack_order.begin(), rack_order.begin() + best_r,
                      rack_order.end(), [&](int a, int b) {
                        const Seconds fa =
                            finish[static_cast<std::size_t>(a)];
                        const Seconds fb =
                            finish[static_cast<std::size_t>(b)];
                        if (fa != fb) return fa < fb;
                        return a < b;
                      });
    PlannedJob& planned = plan.jobs[sj];
    planned.job_index = j;
    planned.num_racks = best_r;
    planned.racks.assign(rack_order.begin(), rack_order.begin() + best_r);
    std::sort(planned.racks.begin(), planned.racks.end());
    planned.predicted_latency = job.at(best_r);
    planned.start_time = best_completion - planned.predicted_latency;
    planned.priority = priority++;
    for (int r : planned.racks) {
      finish[static_cast<std::size_t>(r)] = best_completion;
    }
    claims.claim(j, planned.racks);
    makespan = std::max(makespan, best_completion);
    total_flow += best_completion - job.arrival();
    if (trace.at(obs::TraceLevel::kJobs)) {
      trace.instant(obs::TraceTrack::kPlanner, "assign", "planner", j, step,
                    {obs::arg("job", static_cast<double>(j)),
                     obs::arg("num_racks", static_cast<double>(best_r)),
                     obs::arg("racks", rack_list_string(planned.racks)),
                     obs::arg("start_s", planned.start_time),
                     obs::arg("latency_s", planned.predicted_latency),
                     obs::arg("priority", static_cast<double>(
                                              planned.priority))});
    }
  }

  plan.predicted_makespan = makespan;
  plan.predicted_avg_completion = total_flow / static_cast<double>(J);
  if (trace.at(obs::TraceLevel::kJobs)) {
    trace.span(obs::TraceTrack::kPlanner, "dagpack", "planner", 0,
               0.0, step,
               {obs::arg("jobs", static_cast<double>(J)),
                obs::arg("troublesome", static_cast<double>(
                                            trouble_idx.size())),
                obs::arg("candidates", static_cast<double>(
                                           plan.evaluated_candidates)),
                obs::arg("predicted_makespan_s", makespan)});
  }
  return result;
}

}  // namespace corral::plan
