// The pluggable planner-backend subsystem (src/plan/backend.h):
//
//  - CorralBackend is a zero-behavior-change wrapper: its plans are golden
//    field-exact against a direct plan_offline call on the evaluation
//    workloads (the Fig 5 W3 grid, the Fig 6 W1 batch, the Fig 10 TPC-H
//    queries).
//  - Every backend honors the exec:: determinism contract: byte-identical
//    plans (exact ==, never EXPECT_NEAR) at pool widths 1, 2 and 8.
//  - LpRoundBackend's reported bound matches the LP-Batch relaxation and
//    its rounded plan stays within the 4x certificate.
//  - Every backend rejects a request whose eligibility mask does not cover
//    the racks.
//  - LpRoundDigest and DagPackDigest pin those backends' whole plans, bit
//    for bit, on the test workloads, the bakeoff's instances, the perf
//    gate's instance and the placement-constrained policy-matrix batch.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "corral/fingerprint.h"
#include "corral/latency_model.h"
#include "corral/lp_bound.h"
#include "corral/placement.h"
#include "corral/planner.h"
#include "exec/exec.h"
#include "lp/simplex.h"
#include "plan/backend.h"
#include "util/hash.h"
#include "workload/tpch.h"
#include "workload/workloads.h"

namespace corral {
namespace {

constexpr int kWidths[] = {1, 2, 8};

ClusterConfig mid_cluster(int racks = 6) {
  ClusterConfig config;
  config.racks = racks;
  config.machines_per_rack = 20;
  config.slots_per_machine = 8;
  config.nic_bandwidth = 2.5 * kGbps;
  config.oversubscription = 5.0;
  return config;
}

std::vector<JobSpec> w3_jobs(int count, std::uint64_t seed) {
  Rng rng(seed);
  W3Config config;
  config.num_jobs = count;
  return make_w3(config, rng);
}

std::vector<JobSpec> w1_jobs(int count, std::uint64_t seed) {
  Rng rng(seed);
  W1Config config;
  config.num_jobs = count;
  return make_w1(config, rng);
}

std::vector<JobSpec> tpch_jobs() {
  Rng rng(10);
  return make_tpch(TpchConfig{}, rng, /*first_id=*/0);
}

void expect_identical_plans(const Plan& a, const Plan& b,
                            const std::string& label) {
  EXPECT_EQ(a.predicted_makespan, b.predicted_makespan) << label;
  EXPECT_EQ(a.predicted_avg_completion, b.predicted_avg_completion) << label;
  EXPECT_EQ(a.evaluated_candidates, b.evaluated_candidates) << label;
  ASSERT_EQ(a.jobs.size(), b.jobs.size()) << label;
  for (std::size_t j = 0; j < a.jobs.size(); ++j) {
    EXPECT_EQ(a.jobs[j].job_index, b.jobs[j].job_index) << label;
    EXPECT_EQ(a.jobs[j].num_racks, b.jobs[j].num_racks) << label;
    EXPECT_EQ(a.jobs[j].racks, b.jobs[j].racks) << label;
    EXPECT_EQ(a.jobs[j].start_time, b.jobs[j].start_time)
        << label << " job " << j;
    EXPECT_EQ(a.jobs[j].predicted_latency, b.jobs[j].predicted_latency)
        << label << " job " << j;
    EXPECT_EQ(a.jobs[j].priority, b.jobs[j].priority) << label;
  }
}

// A plan is structurally valid when every job is placed exactly once on
// num_racks distinct in-range racks with a unique priority.
void expect_valid_plan(const Plan& plan, std::size_t num_jobs, int num_racks,
                       const std::string& label) {
  ASSERT_EQ(plan.jobs.size(), num_jobs) << label;
  std::set<int> seen_jobs;
  std::set<int> seen_priorities;
  for (const PlannedJob& job : plan.jobs) {
    EXPECT_TRUE(seen_jobs.insert(job.job_index).second) << label;
    EXPECT_TRUE(seen_priorities.insert(job.priority).second) << label;
    EXPECT_GE(job.num_racks, 1) << label;
    EXPECT_LE(job.num_racks, num_racks) << label;
    ASSERT_EQ(job.racks.size(), static_cast<std::size_t>(job.num_racks))
        << label;
    std::set<int> distinct(job.racks.begin(), job.racks.end());
    EXPECT_EQ(distinct.size(), job.racks.size()) << label;
    for (int rack : job.racks) {
      EXPECT_GE(rack, 0) << label;
      EXPECT_LT(rack, num_racks) << label;
    }
    EXPECT_GE(job.start_time, 0.0) << label;
    EXPECT_GT(job.predicted_latency, 0.0) << label;
  }
  EXPECT_EQ(*seen_priorities.begin(), 0) << label;
  EXPECT_EQ(*seen_priorities.rbegin(),
            static_cast<int>(num_jobs) - 1)
      << label;
}

plan::PlannerRequest make_request(std::span<const ResponseFunction> functions,
                                  std::span<const JobSpec> specs,
                                  int num_racks,
                                  const PlannerConfig* config) {
  plan::PlannerRequest request;
  request.jobs = functions;
  request.specs = specs;
  request.num_racks = num_racks;
  request.config = config;
  return request;
}

TEST(PlanBackend, NamesParseAndRoundTrip) {
  for (PlannerBackendKind kind :
       {PlannerBackendKind::kCorral, PlannerBackendKind::kDagPack,
        PlannerBackendKind::kLpRound}) {
    const std::string name(plan::to_string(kind));
    PlannerBackendKind parsed = PlannerBackendKind::kCorral;
    EXPECT_TRUE(plan::parse_planner_backend(name, &parsed)) << name;
    EXPECT_EQ(parsed, kind) << name;
    EXPECT_EQ(plan::planner_backend(kind).name(), name);
  }
  PlannerBackendKind parsed = PlannerBackendKind::kCorral;
  EXPECT_FALSE(plan::parse_planner_backend("greedy", &parsed));
  EXPECT_FALSE(plan::parse_planner_backend("", &parsed));
  const std::vector<std::string> names = plan::planner_backend_names();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "corral");
  EXPECT_EQ(names[1], "dagpack");
  EXPECT_EQ(names[2], "lpround");
}

TEST(PlanBackend, FingerprintSeparatesBackends) {
  const PlannerConfig config;
  std::set<std::uint64_t> fingerprints;
  for (PlannerBackendKind kind :
       {PlannerBackendKind::kCorral, PlannerBackendKind::kDagPack,
        PlannerBackendKind::kLpRound}) {
    fingerprints.insert(planner_fingerprint(config, kind));
  }
  // Three distinct backends must key three distinct plan-cache entries.
  EXPECT_EQ(fingerprints.size(), 3u);
}

// CorralBackend is a wrapper, not a reimplementation: golden-test it
// field-exact against plan_offline on each evaluation workload family.
TEST(PlanBackend, CorralBackendMatchesPlanOfflineGolden) {
  struct Case {
    const char* label;
    std::vector<JobSpec> jobs;
    int racks;
  };
  std::vector<Case> cases;
  cases.push_back({"fig05-w3", w3_jobs(40, 7), 6});
  cases.push_back({"fig06-w1", w1_jobs(30, 6), 7});
  cases.push_back({"fig10-tpch", tpch_jobs(), 7});

  for (const Case& test_case : cases) {
    const ClusterConfig cluster = mid_cluster(test_case.racks);
    const LatencyModelParams params =
        LatencyModelParams::from_cluster(cluster);
    const auto functions =
        build_response_functions(test_case.jobs, cluster.racks, params);
    for (Objective objective :
         {Objective::kMakespan, Objective::kAverageCompletionTime}) {
      PlannerConfig config;
      config.objective = objective;
      const Plan direct = plan_offline(functions, cluster.racks, config);
      const plan::ProvisionPlan provision =
          plan::planner_backend(PlannerBackendKind::kCorral)
              .plan(make_request(functions, test_case.jobs, cluster.racks,
                                 &config));
      EXPECT_EQ(provision.backend, PlannerBackendKind::kCorral);
      expect_identical_plans(direct, provision.plan, test_case.label);
    }
  }
}

struct WorkloadCase {
  const char* label;
  std::vector<JobSpec> jobs;
  int racks = 0;
};

std::vector<WorkloadCase> workload_cases() {
  std::vector<WorkloadCase> cases;
  cases.push_back({"w3", w3_jobs(30, 9), 6});
  cases.push_back({"w1", w1_jobs(24, 6), 7});
  cases.push_back({"tpch", tpch_jobs(), 7});
  return cases;
}

TEST(PlanBackend, DagPackProducesValidPlans) {
  for (const auto& [label, jobs, racks] : workload_cases()) {
    const ClusterConfig cluster = mid_cluster(racks);
    const LatencyModelParams params =
        LatencyModelParams::from_cluster(cluster);
    const auto functions =
        build_response_functions(jobs, cluster.racks, params);
    PlannerConfig config;
    const plan::ProvisionPlan provision =
        plan::planner_backend(PlannerBackendKind::kDagPack)
            .plan(make_request(functions, jobs, cluster.racks, &config));
    EXPECT_EQ(provision.backend, PlannerBackendKind::kDagPack);
    expect_valid_plan(provision.plan, jobs.size(), cluster.racks, label);
    EXPECT_GT(provision.plan.evaluated_candidates, 0u) << label;
    EXPECT_GT(provision.plan.predicted_makespan, 0.0) << label;
  }
  // The spec-free path (envelope-curvature scoring) must work too.
  const auto jobs = w3_jobs(20, 11);
  const ClusterConfig cluster = mid_cluster();
  const LatencyModelParams params = LatencyModelParams::from_cluster(cluster);
  const auto functions = build_response_functions(jobs, cluster.racks, params);
  PlannerConfig config;
  const plan::ProvisionPlan provision =
      plan::planner_backend(PlannerBackendKind::kDagPack)
          .plan(make_request(functions, {}, cluster.racks, &config));
  expect_valid_plan(provision.plan, jobs.size(), cluster.racks, "no-specs");
}

// Every backend checks the request the same way before it seats a job: a
// constrained job whose eligibility mask is shorter than the rack count is
// rejected. The job carrying it here is one DagPack places in its residual
// greedy: a score is at most 3 L_j(1) and the mean score is at least the
// mean L(1), so a job with 3 L_j(1) below that mean is not troublesome.
TEST(PlanBackend, EveryBackendRejectsAShortEligibilityMask) {
  const auto jobs = w1_jobs(24, 6);
  const ClusterConfig cluster = mid_cluster(7);
  const auto functions = build_response_functions(
      jobs, cluster.racks, LatencyModelParams::from_cluster(cluster));
  double mean_l1 = 0;
  std::size_t residual = 0;
  for (std::size_t j = 0; j < functions.size(); ++j) {
    mean_l1 += functions[j].at(1) / static_cast<double>(functions.size());
    if (functions[j].at(1) < functions[residual].at(1)) residual = j;
  }
  ASSERT_LT(3 * functions[residual].at(1), mean_l1);
  std::vector<JobPlacement> placements(jobs.size());
  for (JobPlacement& placement : placements) {
    placement.eligible.assign(static_cast<std::size_t>(cluster.racks), 1);
    placement.eligible_count = cluster.racks;
  }
  placements[residual].eligible.assign(1, 1);
  placements[residual].eligible_count = 1;
  placements[residual].constrained = true;
  PlannerConfig config;
  config.placements = &placements;
  for (PlannerBackendKind kind :
       {PlannerBackendKind::kCorral, PlannerBackendKind::kDagPack,
        PlannerBackendKind::kLpRound}) {
    EXPECT_THROW(plan::planner_backend(kind).plan(make_request(
                     functions, jobs, cluster.racks, &config)),
                 std::invalid_argument)
        << plan::to_string(kind);
  }
}

TEST(PlanBackend, LpRoundBoundMatchesLpBatchAndCertificateHolds) {
  for (const auto& [label, jobs, racks] : workload_cases()) {
    const ClusterConfig cluster = mid_cluster(racks);
    const LatencyModelParams params =
        LatencyModelParams::from_cluster(cluster);
    const auto functions =
        build_response_functions(jobs, cluster.racks, params);
    PlannerConfig config;
    const plan::ProvisionPlan provision =
        plan::planner_backend(PlannerBackendKind::kLpRound)
            .plan(make_request(functions, jobs, cluster.racks, &config));
    EXPECT_EQ(provision.backend, PlannerBackendKind::kLpRound);
    expect_valid_plan(provision.plan, jobs.size(), cluster.racks, label);

    // The backend reports the closed-form LP-Batch bound itself.
    EXPECT_GT(provision.lp_bound, 0.0) << label;
    EXPECT_EQ(provision.lp_bound,
              lp_batch_makespan_bound(functions, cluster.racks))
        << label;

    // Rounding certificate: <= 2x from rounding, <= 2x from list
    // scheduling (src/plan/lpround.cpp).
    EXPECT_LE(provision.plan.predicted_makespan, 4.0 * provision.lp_bound)
        << label;
    // No valid plan can beat the relaxation.
    EXPECT_GE(provision.plan.predicted_makespan,
              provision.lp_bound * (1 - 1e-9))
        << label;
  }
}

// TSan runs this suite (the 'Determinism' regex in ci.yml): every backend
// must produce byte-identical plans at any pool width.
TEST(PlanBackendDeterminism, AllBackendsByteIdenticalAcrossWidths) {
  const ClusterConfig cluster = mid_cluster();
  const auto jobs = w3_jobs(30, 9);
  const LatencyModelParams params = LatencyModelParams::from_cluster(cluster);
  const auto functions = build_response_functions(jobs, cluster.racks, params);

  for (PlannerBackendKind kind :
       {PlannerBackendKind::kCorral, PlannerBackendKind::kDagPack,
        PlannerBackendKind::kLpRound}) {
    PlannerConfig config;
    exec::ThreadPool serial(1);
    config.pool = &serial;
    const plan::ProvisionPlan reference =
        plan::planner_backend(kind).plan(
            make_request(functions, jobs, cluster.racks, &config));
    for (int width : kWidths) {
      exec::ThreadPool pool(width);
      config.pool = &pool;
      const plan::ProvisionPlan wide =
          plan::planner_backend(kind).plan(
              make_request(functions, jobs, cluster.racks, &config));
      const std::string label = std::string(plan::to_string(kind)) +
                                " width " + std::to_string(width);
      EXPECT_EQ(reference.lp_bound, wide.lp_bound) << label;
      expect_identical_plans(reference.plan, wide.plan, label);
    }
  }
}

// One pinned backend instance: a batch and the cluster it is planned for,
// which also resolves the batch's placement constraints, if any.
struct BackendInstance {
  std::string label;
  std::vector<JobSpec> jobs;
  ClusterConfig cluster;
};

// A testbed-like cluster: 30 machines per rack, as in bench::testbed().
ClusterConfig testbed_of(int racks) {
  ClusterConfig cluster = mid_cluster(racks);
  cluster.machines_per_rack = 30;
  return cluster;
}

std::vector<BackendInstance> backend_instances() {
  std::vector<BackendInstance> instances;
  for (const auto& [label, jobs, racks] : workload_cases()) {
    instances.push_back({label, jobs, mid_cluster(racks)});
  }
  // bench_planner_bakeoff: the TPC-H batch and a 200-job W1 batch.
  for (int racks : {7, 14, 21}) {
    const std::string suffix = "@" + std::to_string(racks);
    instances.push_back({"bakeoff-tpch" + suffix, tpch_jobs(),
                         testbed_of(racks)});
    instances.push_back({"bakeoff-w1" + suffix, w1_jobs(200, 6),
                         testbed_of(racks)});
  }
  // bench_perf_gate's backend instance: 150 W3 jobs on 40 racks of 40.
  ClusterConfig gate = mid_cluster(40);
  gate.machines_per_rack = 40;
  instances.push_back({"gate-w3", w3_jobs(150, 5), gate});
  // bench_policy_matrix's w1-constrained: 120 W1 jobs with the placement
  // mix, on a testbed whose first 3 racks carry the "accel" class.
  ClusterConfig equipped = testbed_of(7);
  equipped.resource_classes.push_back(ResourceClassConfig{"accel", 4, 3});
  instances.push_back({"matrix-w1-constrained",
                       with_placement_mix(w1_jobs(120, 6),
                                          PlacementMixConfig{}),
                       equipped});
  return instances;
}

std::vector<ResponseFunction> functions_of(const BackendInstance& instance) {
  return build_response_functions(
      instance.jobs, instance.cluster.racks,
      LatencyModelParams::from_cluster(instance.cluster));
}

// The batch's resolved placement constraints, or an empty vector when no
// job carries one.
std::vector<JobPlacement> placements_of(const BackendInstance& instance) {
  if (!any_constrained(std::span<const JobSpec>(instance.jobs))) return {};
  return resolve_placements(instance.jobs, instance.cluster);
}

// Plans `instance` with backend `kind`; `with_specs` false sends the
// request without job specs (DagPack then scores envelope curvature).
plan::ProvisionPlan plan_instance(PlannerBackendKind kind,
                                  const BackendInstance& instance,
                                  exec::ThreadPool& pool,
                                  bool with_specs = true) {
  const auto functions = functions_of(instance);
  const std::vector<JobPlacement> placements = placements_of(instance);
  PlannerConfig config;
  config.pool = &pool;
  if (!placements.empty()) config.placements = &placements;
  return plan::planner_backend(kind).plan(make_request(
      functions,
      with_specs ? std::span<const JobSpec>(instance.jobs)
                 : std::span<const JobSpec>(),
      instance.cluster.racks, &config));
}

plan::ProvisionPlan plan_lpround(const BackendInstance& instance,
                                 exec::ThreadPool& pool) {
  return plan_instance(PlannerBackendKind::kLpRound, instance, pool);
}

std::uint64_t mix(std::uint64_t state, std::uint64_t value) {
  return fnv1a(std::to_string(value) + ",", state);
}

std::uint64_t mix(std::uint64_t state, double value) {
  return mix(state, std::bit_cast<std::uint64_t>(value));
}

// Every PlannedJob field (bit images of the doubles), the predicted
// makespan and average completion, and the bits of the LP bound (0 for a
// backend that computes none). The
// candidate count is a cost measure, not part of the plan, and is left out.
std::string plan_digest(const plan::ProvisionPlan& provision) {
  std::uint64_t state = kFnvOffsetBasis;
  for (const PlannedJob& job : provision.plan.jobs) {
    state = mix(state, static_cast<std::uint64_t>(job.job_index));
    state = mix(state, static_cast<std::uint64_t>(job.num_racks));
    for (int r : job.racks) state = mix(state, static_cast<std::uint64_t>(r));
    state = mix(state, job.start_time);
    state = mix(state, job.predicted_latency);
    state = mix(state, static_cast<std::uint64_t>(job.priority));
    state = fnv1a(";", state);
  }
  state = mix(state, provision.plan.predicted_makespan);
  state = mix(state, provision.plan.predicted_avg_completion);
  state = mix(state, provision.lp_bound);
  return hex16(state);
}

TEST(LpRoundDigest, PinnedPlans) {
  const std::vector<BackendInstance> instances = backend_instances();
  const std::vector<std::string> want = {
      "b433cdd5c0742d7d", "37063b5644581c3e", "fd041208af4be69e",
      "b83904aae432aa7c", "7d82abdd1c10644b", "59dedc69d7ee4334",
      "d3a37c550f74023a", "e6ffcd2d0d63a33e", "f1b72ba7a890d004",
      "22823f800e9f6df9", "f8139b9d624e8daa"};
  ASSERT_EQ(want.size(), instances.size());
  for (int width : {1, 4}) {
    exec::ThreadPool pool(width);
    for (std::size_t i = 0; i < instances.size(); ++i) {
      EXPECT_EQ(want[i], plan_digest(plan_lpround(instances[i], pool)))
          << instances[i].label << " width " << width;
    }
  }
}

// DagPack's whole plans on the same instances, with the job specs (DAG
// scores) and without them (envelope-curvature scores), followed by the
// spec-free request of PlanBackend.DagPackProducesValidPlans. Each entry
// is the plan digest and the candidate count. On
// matrix-w1-constrained the residual greedy sees jobs whose open racks the
// eligibility, anti-affinity and exclusivity filters narrow.
TEST(DagPackDigest, PinnedPlans) {
  std::vector<BackendInstance> instances = backend_instances();
  const std::size_t with_specs = instances.size();
  for (std::size_t i = 0; i < with_specs; ++i) {
    instances.push_back(instances[i]);
    instances.back().label += " no-specs";
  }
  instances.push_back({"no-specs-w3", w3_jobs(20, 11), mid_cluster()});
  const std::vector<std::string> want = {
      "1fc3a45f12d5764f 173", "a3ca1db5e14e1ae3 163",
      "f7b353cfbff49dae 99", "6507a00add784ebd 99",
      "bdbdef3bb4d1b6fb 1352", "4f2375102b8c0899 204",
      "8e3ad13535dc87e4 2752", "b2b19480762824b0 309",
      "7620dc268662bbdd 4152", "daf8028edeb6c6bb 5964",
      "8b6d2dcd6ccd8cfe 529", "1b65470630fcdbb9 172",
      "59f158005673c904 162", "2bb2ae8c1797c010 98",
      "e2c3f1d3cd703a30 97", "4a015fa1ab83a600 1346",
      "ad00dd3f8502ebc6 202", "478d8fea702fc3ec 2745",
      "5f24bdd16986fcd2 307", "67df2141d9f4a69f 4145",
      "da9d9b18f6c1b12f 5958", "0fbef47e115d37ff 529",
      "9d9c8b2920ed251d 118"};
  ASSERT_EQ(want.size(), instances.size());
  for (int width : {1, 4}) {
    exec::ThreadPool pool(width);
    for (std::size_t i = 0; i < instances.size(); ++i) {
      const plan::ProvisionPlan provision = plan_instance(
          PlannerBackendKind::kDagPack, instances[i], pool, i < with_specs);
      EXPECT_EQ(want[i],
                plan_digest(provision) + " " +
                    std::to_string(provision.plan.evaluated_candidates))
          << instances[i].label << " width " << width;
    }
  }
}

// The envelopes read every (job, width) point once and prioritize() is one
// pass: the cost is J * R + 1, at any pool width.
TEST(LpRoundCost, CountsEnvelopePointsAndOnePass) {
  for (const BackendInstance& instance : backend_instances()) {
    for (int width : {1, 4}) {
      exec::ThreadPool pool(width);
      EXPECT_EQ(plan_lpround(instance, pool).plan.evaluated_candidates,
                instance.jobs.size() *
                        static_cast<std::size_t>(instance.cluster.racks) +
                    1)
          << instance.label << " width " << width;
    }
  }
}

// Reference: one job's two-row LP at latency budget T, as the appendix
// writes it, solved with the dense simplex solver. x[r - 1] is the share
// of width r.
LpSolution solve_job_lp(const ResponseFunction& job, int num_racks,
                        double budget) {
  LpProblem lp(num_racks);
  std::vector<double> objective;
  std::vector<double> latency;
  for (int r = 1; r <= num_racks; ++r) {
    objective.push_back(static_cast<double>(r) * job.at(r));
    latency.push_back(job.at(r));
  }
  lp.minimize(std::move(objective));
  lp.add_constraint(std::vector<double>(static_cast<std::size_t>(num_racks),
                                        1.0),
                    Relation::kEqual, 1.0);
  lp.add_constraint(std::move(latency), Relation::kLessEqual, budget);
  return lp.solve();
}

// At the bound, every job's simplex solution rounds (largest share, ties
// toward the smaller width, capped at the eligible rack count) to the width
// the backend picked from the closed form, and its work matches the
// envelope's.
TEST(LpRoundCost, SimplexReferenceRoundsToTheSameWidths) {
  exec::ThreadPool pool(1);
  for (const BackendInstance& instance : backend_instances()) {
    const auto functions = functions_of(instance);
    const std::vector<JobPlacement> placements = placements_of(instance);
    const int R = instance.cluster.racks;
    const LpBatchSolution solution = solve_lp_batch(functions, R, &pool);
    const plan::ProvisionPlan provision = plan_lpround(instance, pool);
    ASSERT_EQ(provision.lp_bound, solution.bound) << instance.label;
    std::vector<int> picked(functions.size());
    for (const PlannedJob& job : provision.plan.jobs) {
      picked[static_cast<std::size_t>(job.job_index)] = job.num_racks;
    }
    for (std::size_t j = 0; j < functions.size(); ++j) {
      const std::string label = instance.label + " job " + std::to_string(j);
      const LpSolution lp = solve_job_lp(functions[j], R, solution.bound);
      ASSERT_TRUE(lp.optimal()) << label;
      double envelope_work = 0;
      for (const LpBatchSolution::Width& w : solution.widths[j]) {
        envelope_work += w.share * w.racks * functions[j].at(w.racks);
      }
      EXPECT_NEAR(lp.objective, envelope_work, 1e-9 * envelope_work)
          << label;
      const int max_r =
          placements.empty() ? R : std::min(R, placements[j].eligible_count);
      int best_r = 1;
      double best_share = -1.0;
      for (int r = 1; r <= max_r; ++r) {
        const double share = lp.x[static_cast<std::size_t>(r) - 1];
        if (share > best_share + 1e-12) {
          best_share = share;
          best_r = r;
        }
      }
      EXPECT_EQ(best_r, picked[j]) << label;
    }
  }
}

}  // namespace
}  // namespace corral
