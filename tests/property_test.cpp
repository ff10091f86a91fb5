// Property-based and parameterized invariants across modules:
//  * rate allocators never starve flows and never overfill links,
//  * the prioritization phase emits non-overlapping per-rack schedules,
//  * the latency model behaves monotonically where the math says it must,
//  * simulation results satisfy conservation-style sanity properties.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "corral/fingerprint.h"
#include "corral/planner.h"
#include "ctrl/plan_cache.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "workload/workloads.h"

namespace corral {
namespace {

// ---------------------------------------------------------------- allocators

struct AllocatorCase {
  const char* name;
  bool varys;
  std::uint64_t seed;
};

// Without a printer gtest shows an AllocatorCase as its raw bytes, the name
// pointer included, so the ctest names would move with the binary's layout.
// The case name is already the test-name suffix; the seed alone keeps every
// name within 100 characters.
void PrintTo(const AllocatorCase& param, std::ostream* os) {
  *os << "seed " << param.seed;
}

class AllocatorProperty : public ::testing::TestWithParam<AllocatorCase> {};

TEST_P(AllocatorProperty, NoStarvationAndCapacityRespected) {
  const AllocatorCase param = GetParam();
  ClusterConfig cluster;
  cluster.racks = 5;
  cluster.machines_per_rack = 6;
  cluster.nic_bandwidth = 1 * kGbps;
  cluster.oversubscription = 3.0;

  std::unique_ptr<RateAllocator> allocator;
  if (param.varys) {
    allocator = std::make_unique<VarysAllocator>();
  } else {
    allocator = std::make_unique<MaxMinFairAllocator>();
  }
  Network net(cluster, std::move(allocator));

  Rng rng(param.seed);
  const int machines = cluster.total_machines();
  const int flows = rng.uniform_int(20, 150);
  for (int f = 0; f < flows; ++f) {
    const int src = rng.uniform_int(0, machines - 1);
    int dst = rng.uniform_int(0, machines - 2);
    if (dst >= src) ++dst;
    net.start_flow({src, dst, rng.uniform(1, 100) * kMB,
                    rng.uniform(1, 8), rng.uniform_int(-1, 10),
                    static_cast<std::uint64_t>(f)});
  }

  // Advancing by a positive horizon must make progress for every flow
  // eventually: run to empty with a step-count guard.
  int steps = 0;
  while (!net.idle()) {
    const Seconds horizon = net.time_to_next_completion();
    ASSERT_GT(horizon, 0);
    ASSERT_LT(horizon, 1e9) << "a flow is effectively starved";
    net.advance(horizon);
    ASSERT_LT(++steps, flows + 10) << "completion batching regressed";
  }
}

TEST_P(AllocatorProperty, LinkLoadsNeverExceedCapacity) {
  const AllocatorCase param = GetParam();
  ClusterConfig cluster;
  cluster.racks = 4;
  cluster.machines_per_rack = 4;
  cluster.nic_bandwidth = 100;  // small integers for clean accounting
  cluster.oversubscription = 2.0;
  LinkSet links(cluster);

  std::vector<Flow> flows;
  Rng rng(param.seed);
  const int machines = cluster.total_machines();
  for (int f = 0; f < 60; ++f) {
    Flow flow;
    flow.id = f;
    flow.total = flow.remaining = rng.uniform(10, 1000);
    flow.width = rng.uniform(1, 5);
    flow.coflow = rng.uniform_int(-1, 6);
    const int src = rng.uniform_int(0, machines - 1);
    int dst = rng.uniform_int(0, machines - 2);
    if (dst >= src) ++dst;
    flow.path.add(links.host_up(src));
    const int src_rack = src / cluster.machines_per_rack;
    const int dst_rack = dst / cluster.machines_per_rack;
    if (src_rack != dst_rack) {
      flow.path.add(links.rack_up(src_rack));
      flow.path.add(links.rack_down(dst_rack));
    }
    flow.path.add(links.host_down(dst));
    flows.push_back(flow);
  }

  std::unique_ptr<RateAllocator> allocator;
  if (param.varys) {
    allocator = std::make_unique<VarysAllocator>();
  } else {
    allocator = std::make_unique<MaxMinFairAllocator>();
  }
  allocator->allocate(flows, links);

  std::vector<double> load(static_cast<std::size_t>(links.count()), 0.0);
  double total_rate = 0;
  for (const Flow& flow : flows) {
    // Max-min fairness never leaves a flow at zero; Varys may park a flow
    // behind an earlier coflow that saturated its links (SEBF starvation is
    // temporary — the NoStarvation test above shows every flow finishes).
    if (!param.varys) {
      EXPECT_GT(flow.rate, 0) << "allocator starved flow " << flow.id;
    }
    EXPECT_GE(flow.rate, 0);
    total_rate += flow.rate;
    for (int i = 0; i < flow.path.count; ++i) {
      load[static_cast<std::size_t>(flow.path.links[i])] += flow.rate;
    }
  }
  EXPECT_GT(total_rate, 0);
  for (int l = 0; l < links.count(); ++l) {
    EXPECT_LE(load[static_cast<std::size_t>(l)],
              links.capacity(l) * (1 + 1e-9))
        << "link " << l << " overfilled";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Allocators, AllocatorProperty,
    ::testing::Values(AllocatorCase{"maxmin_a", false, 1},
                      AllocatorCase{"maxmin_b", false, 2},
                      AllocatorCase{"maxmin_c", false, 3},
                      AllocatorCase{"varys_a", true, 1},
                      AllocatorCase{"varys_b", true, 2},
                      AllocatorCase{"varys_c", true, 3}),
    [](const auto& info) { return std::string(info.param.name); });

// ------------------------------------------------------------------- planner

class PlannerProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PlannerProperty, ScheduleIsFeasibleAtRackGranularity) {
  Rng rng(GetParam());
  const int num_racks = rng.uniform_int(2, 10);
  std::vector<ResponseFunction> jobs;
  const int J = rng.uniform_int(5, 40);
  for (int i = 0; i < J; ++i) {
    std::vector<Seconds> latency;
    const double base = rng.uniform(10, 500);
    const double parallel = rng.uniform(0, 1);
    for (int r = 1; r <= num_racks; ++r) {
      latency.push_back(base * ((1 - parallel) + parallel / r));
    }
    jobs.emplace_back(std::move(latency),
                      rng.chance(0.5) ? rng.uniform(0, 300) : 0.0);
  }
  PlannerConfig config;
  config.objective = rng.chance(0.5) ? Objective::kMakespan
                                     : Objective::kAverageCompletionTime;
  const Plan plan = plan_offline(jobs, num_racks, config);

  // Per-rack busy intervals must not overlap (the model holds racks for
  // the job's entire duration, §4.1).
  std::map<int, std::vector<std::pair<Seconds, Seconds>>> busy;
  for (std::size_t j = 0; j < plan.jobs.size(); ++j) {
    const PlannedJob& job = plan.jobs[j];
    EXPECT_GE(job.start_time, jobs[j].arrival() - 1e-9);
    EXPECT_EQ(static_cast<int>(job.racks.size()), job.num_racks);
    std::set<int> distinct(job.racks.begin(), job.racks.end());
    EXPECT_EQ(distinct.size(), job.racks.size());
    for (int r : job.racks) {
      EXPECT_GE(r, 0);
      EXPECT_LT(r, num_racks);
      busy[r].emplace_back(job.start_time,
                           job.start_time + job.predicted_latency);
    }
  }
  for (auto& [rack, intervals] : busy) {
    std::sort(intervals.begin(), intervals.end());
    for (std::size_t i = 1; i < intervals.size(); ++i) {
      EXPECT_GE(intervals[i].first, intervals[i - 1].second - 1e-9)
          << "overlapping jobs on rack " << rack;
    }
  }

  // The plan's claimed makespan matches its own jobs.
  Seconds makespan = 0;
  for (const PlannedJob& job : plan.jobs) {
    makespan = std::max(makespan, job.predicted_completion());
  }
  EXPECT_NEAR(plan.predicted_makespan, makespan, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlannerProperty,
                         ::testing::Range<std::uint64_t>(1, 9));

// ------------------------------------------------------------- latency model

class LatencyMonotonicity : public ::testing::TestWithParam<int> {};

TEST_P(LatencyMonotonicity, WavesAndPenaltyShrinkWithRacks) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  LatencyModelParams params =
      LatencyModelParams::from_cluster(ClusterConfig::paper_testbed());
  MapReduceSpec stage;
  stage.input_bytes = rng.uniform(1, 500) * kGB;
  stage.shuffle_bytes = rng.uniform(0, 500) * kGB;
  stage.output_bytes = rng.uniform(0, 100) * kGB;
  stage.num_maps = rng.uniform_int(1, 4000);
  stage.num_reduces = rng.uniform_int(1, 2000);

  for (int r = 1; r < 7; ++r) {
    const StageLatency a = stage_latency(stage, r, params);
    const StageLatency b = stage_latency(stage, r + 1, params);
    // Map and reduce phases only ever get more slots.
    EXPECT_LE(b.map, a.map + 1e-9);
    EXPECT_LE(b.reduce, a.reduce + 1e-9);
    EXPECT_GE(b.shuffle, 0.0);
    // The imbalance penalty strictly decreases with racks.
    const JobSpec job = JobSpec::map_reduce(1, "j", stage);
    const double pa = job_latency_with_penalty(job, r, params) -
                      job_latency(job, r, params);
    const double pb = job_latency_with_penalty(job, r + 1, params) -
                      job_latency(job, r + 1, params);
    EXPECT_GT(pa, pb);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, LatencyMonotonicity,
                         ::testing::Range(1, 9));

// ---------------------------------------------------------------- simulation

struct SimCase {
  const char* name;
  std::uint64_t seed;
  bool varys;
  bool writes;
};

// Without a printer gtest shows a SimCase as its raw bytes, the name
// pointer included; under ASLR that changes from build to build, and so
// does the ctest name gtest_discover_tests derives from it.
void PrintTo(const SimCase& param, std::ostream* os) {
  *os << param.name << " seed " << param.seed;
}

class SimProperty : public ::testing::TestWithParam<SimCase> {};

TEST_P(SimProperty, ConservationInvariants) {
  const SimCase param = GetParam();
  Rng rng(param.seed);
  W1Config wconfig;
  wconfig.num_jobs = 12;
  wconfig.task_scale = 0.2;
  auto jobs = make_w1(wconfig, rng);
  assign_uniform_arrivals(jobs, 120.0, rng);

  SimConfig sim;
  sim.cluster.racks = 4;
  sim.cluster.machines_per_rack = 6;
  sim.cluster.slots_per_machine = 4;
  sim.cluster.nic_bandwidth = 2 * kGbps;
  sim.net_policy = param.varys ? NetPolicy::kVarys : NetPolicy::kTcp;
  sim.write_output_replicas = param.writes;
  sim.seed = param.seed;

  YarnCapacityPolicy policy;
  const SimResult result = run_simulation(jobs, policy, sim);

  ASSERT_EQ(result.jobs.size(), jobs.size());
  Bytes movable = 0;
  double compute_floor = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const JobResult& job = result.jobs[i];
    const JobSpec& spec = jobs[i];
    EXPECT_GT(job.finish, spec.arrival);
    EXPECT_GE(job.first_task_start, spec.arrival - 1e-6);
    EXPECT_LE(job.finish, result.makespan + 1e-9);
    // Reduce-task count matches the spec.
    std::size_t reduces = 0;
    for (const auto& stage : spec.stages) {
      reduces += static_cast<std::size_t>(stage.num_reduces);
    }
    EXPECT_EQ(job.reduce_durations.size(), reduces);
    // Slot time is at least the pure compute time of the job's bytes.
    double pure_compute = 0;
    for (const auto& stage : spec.stages) {
      pure_compute += stage.input_bytes / stage.map_rate;
      if (stage.num_reduces > 0) {
        pure_compute += stage.output_bytes / stage.reduce_rate;
      }
    }
    EXPECT_GE(job.compute_seconds, pure_compute * 0.999);
    compute_floor += pure_compute;
    movable += spec.total_input() + spec.total_shuffle() +
               2 * spec.total_output();
    // Cross-rack traffic cannot exceed everything the job ever moves.
    EXPECT_LE(job.cross_rack_bytes,
              spec.total_input() + spec.total_shuffle() +
                  2 * spec.total_output() + 1);
  }
  EXPECT_LE(result.total_cross_rack_bytes, movable + 1);
  EXPECT_GE(result.total_compute_hours * kHour, compute_floor * 0.999);
  // Makespan is bounded below by aggregate compute over all slots.
  const double slots = sim.cluster.total_slots();
  EXPECT_GE(result.makespan, compute_floor / slots * 0.5);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, SimProperty,
    ::testing::Values(SimCase{"tcp_nowrite_a", 11, false, false},
                      SimCase{"tcp_write_a", 12, false, true},
                      SimCase{"varys_nowrite_a", 13, true, false},
                      SimCase{"varys_write_a", 14, true, true},
                      SimCase{"tcp_write_b", 15, false, true},
                      SimCase{"varys_write_b", 16, true, true}),
    [](const auto& info) { return std::string(info.param.name); });

// ---------------------------------------------------------------- plan cache

// The plan cache must never serve a plan keyed under a topology fingerprint
// other than the current one: after every invalidate_topology_changed(), a
// find() against the current usable-rack set can only hit entries inserted
// under that same set, no matter how inserts, invalidations and FIFO
// evictions interleave.
class PlanCacheTopologyProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PlanCacheTopologyProperty, NeverServesMismatchedTopology) {
  ClusterConfig cluster;
  cluster.racks = 6;
  cluster.machines_per_rack = 4;

  Rng rng(GetParam());
  PlanCache cache(8);  // small capacity so evictions happen constantly

  // The usable-rack set drives the topology fingerprint; racks toggle
  // up/down at random through the run.
  std::set<int> down;
  auto current_topology = [&] {
    std::vector<int> usable;
    for (int r = 0; r < cluster.racks; ++r) {
      if (down.count(r) == 0) usable.push_back(r);
    }
    return topology_fingerprint(cluster, usable);
  };

  // Model: which (workload, planner) keys were inserted under which
  // topology, and the tag each plan carries.
  std::map<std::uint64_t, std::uint64_t> inserted_under;  // tag -> topology

  std::uint64_t next_tag = 1;
  for (int step = 0; step < 400; ++step) {
    const std::uint64_t topology = current_topology();
    const int op = rng.uniform_int(0, 9);
    if (op < 5) {  // insert a plan for the current topology
      const std::uint64_t workload =
          static_cast<std::uint64_t>(rng.uniform_int(1, 12));
      Plan plan;
      plan.predicted_makespan = static_cast<double>(next_tag);
      plan.evaluated_candidates = next_tag;
      inserted_under[next_tag] = topology;
      ++next_tag;
      cache.insert(PlanCacheKey{workload, topology, /*planner=*/1}, plan);
    } else if (op < 8) {  // lookup under the current topology
      const std::uint64_t workload =
          static_cast<std::uint64_t>(rng.uniform_int(1, 12));
      const Plan* hit =
          cache.find(PlanCacheKey{workload, topology, /*planner=*/1});
      if (hit != nullptr) {
        const auto it = inserted_under.find(hit->evaluated_candidates);
        ASSERT_NE(it, inserted_under.end());
        EXPECT_EQ(it->second, topology)
            << "seed " << GetParam() << " step " << step
            << ": served a plan planned for a different topology";
      }
    } else {  // flip a rack and tell the cache the world changed
      const int rack = rng.uniform_int(0, cluster.racks - 1);
      if (down.count(rack) != 0) {
        down.erase(rack);
      } else if (down.size() + 1 < static_cast<std::size_t>(cluster.racks)) {
        down.insert(rack);
      }
      cache.invalidate_topology_changed(current_topology());
    }
  }

  // Terminal sweep: every entry still resident must be keyed under the
  // final topology after one last invalidation pass.
  const std::uint64_t final_topology = current_topology();
  cache.invalidate_topology_changed(final_topology);
  for (std::uint64_t workload = 1; workload <= 12; ++workload) {
    const Plan* hit =
        cache.find(PlanCacheKey{workload, final_topology, /*planner=*/1});
    if (hit != nullptr) {
      EXPECT_EQ(inserted_under.at(hit->evaluated_candidates),
                final_topology);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlanCacheTopologyProperty,
                         ::testing::Values(101u, 202u, 303u, 404u),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace corral
