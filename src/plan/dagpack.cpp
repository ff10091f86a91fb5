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
// is per-job, so slicing is sound), and the residual greedy filters each
// job's candidate racks by eligibility, anti-affinity and exclusivity —
// including the racks the packed plan already claimed.
//
// The search in step 2 runs on the configured pool (byte-identical at any
// width, like plan_offline); steps 1 and 3 are serial scans, so the whole
// plan is deterministic at any --threads value.
#include <algorithm>
#include <chrono>
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

std::string rack_list_string(const std::vector<int>& racks) {
  std::string out;
  for (std::size_t i = 0; i < racks.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(racks[i]);
  }
  return out;
}

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
  require(R >= 1, "DagPackBackend: num_racks must be >= 1");
  const std::size_t J = request.jobs.size();
  for (const ResponseFunction& f : request.jobs) {
    require(f.max_racks() >= R,
            "DagPackBackend: response function does not cover the racks");
  }

  ProvisionPlan result;
  result.backend = PlannerBackendKind::kDagPack;
  if (J == 0) return result;

  const obs::TraceRecorder trace(config.tracer, config.trace_sink, "planner");
  const auto trace_begin = std::chrono::steady_clock::now();
  const auto clock_at = [&](double step) {
    if (!trace.wall_clock()) return step;
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         trace_begin)
        .count();
  };

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
  const bool constrained =
      placements != nullptr && any_constrained(*placements);
  if (placements != nullptr) {
    require(placements->size() == J,
            "DagPackBackend: placements must cover every job");
  }
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

  // Cross-job constraint state the packed plan leaves behind, rebuilt from
  // its rack assignments so the residual greedy honors it.
  std::vector<int> set_ids;
  std::vector<char> set_rack;
  std::vector<char> rack_used;
  std::vector<char> exclusive_rack;
  const auto set_index_of = [&](const JobPlacement& pl) {
    if (pl.anti_affinity < 0) return -1;
    return static_cast<int>(
        std::lower_bound(set_ids.begin(), set_ids.end(), pl.anti_affinity) -
        set_ids.begin());
  };
  if (constrained) {
    for (const JobPlacement& p : *placements) {
      if (p.anti_affinity >= 0) set_ids.push_back(p.anti_affinity);
    }
    std::sort(set_ids.begin(), set_ids.end());
    set_ids.erase(std::unique(set_ids.begin(), set_ids.end()), set_ids.end());
    set_rack.assign(set_ids.size() * static_cast<std::size_t>(R), 0);
    rack_used.assign(static_cast<std::size_t>(R), 0);
    exclusive_rack.assign(static_cast<std::size_t>(R), 0);
  }
  const auto claim_racks = [&](const std::vector<int>& racks, int job) {
    if (!constrained) return;
    const JobPlacement& pl = (*placements)[static_cast<std::size_t>(job)];
    const int set_index = set_index_of(pl);
    for (int r : racks) {
      const auto sr = static_cast<std::size_t>(r);
      rack_used[sr] = 1;
      if (pl.rack_exclusive) exclusive_rack[sr] = 1;
      if (set_index >= 0) {
        set_rack[static_cast<std::size_t>(set_index) *
                     static_cast<std::size_t>(R) +
                 sr] = 1;
      }
    }
  };

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
    claim_racks(planned.racks, trouble_idx[i]);
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
  std::vector<int> rack_order(static_cast<std::size_t>(R));
  int priority = static_cast<int>(trouble_idx.size());
  double step = 0.0;
  for (int j : residual_idx) {
    const auto sj = static_cast<std::size_t>(j);
    const ResponseFunction& job = request.jobs[sj];
    // Candidate racks: everything, or — under constraints — the racks the
    // job's eligibility mask, its anti-affinity set's prior picks and the
    // exclusivity claims leave open.
    rack_order.clear();
    if (constrained) {
      const JobPlacement& pl = (*placements)[sj];
      const int set_index = set_index_of(pl);
      for (int r = 0; r < R; ++r) {
        const auto sr = static_cast<std::size_t>(r);
        if (!pl.eligible[sr]) continue;
        if (exclusive_rack[sr]) continue;
        if (pl.rack_exclusive && rack_used[sr]) continue;
        if (set_index >= 0 &&
            set_rack[static_cast<std::size_t>(set_index) *
                         static_cast<std::size_t>(R) +
                     sr]) {
          continue;
        }
        rack_order.push_back(r);
      }
      require(!rack_order.empty(),
              "placement: job " + std::to_string(j) +
                  " needs 1 racks but only 0 remain eligible after "
                  "placement filters");
    } else {
      rack_order.resize(static_cast<std::size_t>(R));
      std::iota(rack_order.begin(), rack_order.end(), 0);
    }
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
                      clock_at(step),
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
    claim_racks(planned.racks, j);
    makespan = std::max(makespan, best_completion);
    total_flow += best_completion - job.arrival();
    if (trace.at(obs::TraceLevel::kJobs)) {
      trace.instant(obs::TraceTrack::kPlanner, "assign", "planner", j,
                    clock_at(step),
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
               clock_at(0.0), clock_at(step),
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
