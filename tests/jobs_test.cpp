#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "jobs/dag.h"
#include "jobs/job.h"
#include "util/rng.h"

namespace corral {
namespace {

MapReduceSpec small_stage(Bytes in = 1 * kGB) {
  MapReduceSpec stage;
  stage.input_bytes = in;
  stage.shuffle_bytes = in / 2;
  stage.output_bytes = in / 4;
  stage.num_maps = 8;
  stage.num_reduces = 4;
  return stage;
}

TEST(Dag, TopologicalOrderOfChain) {
  const std::vector<DagEdge> edges = {{0, 1}, {1, 2}};
  const auto order = topological_order(3, edges);
  ASSERT_EQ(order.size(), 3u);
  std::vector<int> position(3);
  for (int i = 0; i < 3; ++i) position[static_cast<std::size_t>(order[i])] = i;
  EXPECT_LT(position[0], position[1]);
  EXPECT_LT(position[1], position[2]);
}

TEST(Dag, DetectsCycle) {
  const std::vector<DagEdge> edges = {{0, 1}, {1, 2}, {2, 0}};
  EXPECT_THROW(topological_order(3, edges), std::invalid_argument);
}

TEST(Dag, RejectsSelfLoopAndBadIndex) {
  EXPECT_THROW(topological_order(2, std::vector<DagEdge>{{0, 0}}),
               std::invalid_argument);
  EXPECT_THROW(topological_order(2, std::vector<DagEdge>{{0, 5}}),
               std::invalid_argument);
}

TEST(Dag, CriticalPathOfDiamondPicksHeavierBranch) {
  // 0 -> {1, 2} -> 3, branch 2 is heavier.
  const std::vector<DagEdge> edges = {{0, 1}, {0, 2}, {1, 3}, {2, 3}};
  const std::vector<double> weights = {1.0, 2.0, 5.0, 1.0};
  const CriticalPath path = critical_path(4, edges, weights);
  EXPECT_DOUBLE_EQ(path.length, 7.0);
  EXPECT_EQ(path.nodes, (std::vector<int>{0, 2, 3}));
}

TEST(Dag, CriticalPathOfIndependentNodesIsHeaviestNode) {
  const std::vector<double> weights = {3.0, 9.0, 4.0};
  const CriticalPath path = critical_path(3, {}, weights);
  EXPECT_DOUBLE_EQ(path.length, 9.0);
  EXPECT_EQ(path.nodes, (std::vector<int>{1}));
}

TEST(Dag, CriticalPathValidatesWeightCount) {
  const std::vector<double> weights = {1.0};
  EXPECT_THROW(critical_path(2, {}, weights), std::invalid_argument);
}

// Kahn's algorithm with one adjacency vector per node and a LIFO ready
// stack: the visiting order topological_order keeps.
std::vector<int> reference_order(int n, const std::vector<DagEdge>& edges) {
  std::vector<int> indegree(static_cast<std::size_t>(n), 0);
  std::vector<std::vector<int>> next(static_cast<std::size_t>(n));
  for (const DagEdge& e : edges) {
    next[static_cast<std::size_t>(e.from)].push_back(e.to);
    ++indegree[static_cast<std::size_t>(e.to)];
  }
  std::vector<int> ready;
  for (int v = 0; v < n; ++v) {
    if (indegree[static_cast<std::size_t>(v)] == 0) ready.push_back(v);
  }
  std::vector<int> order;
  while (!ready.empty()) {
    const int v = ready.back();
    ready.pop_back();
    order.push_back(v);
    for (int w : next[static_cast<std::size_t>(v)]) {
      if (--indegree[static_cast<std::size_t>(w)] == 0) ready.push_back(w);
    }
  }
  return order;
}

// Longest path ending at v, by recursion over the edge list.
double reference_distance(int v, const std::vector<DagEdge>& edges,
                          const std::vector<double>& weights) {
  double best = 0.0;
  for (const DagEdge& e : edges) {
    if (e.to == v) {
      best = std::max(best, reference_distance(e.from, edges, weights));
    }
  }
  return best + weights[static_cast<std::size_t>(v)];
}

// Random DAGs with edges listed in shuffled order, several weightings per
// graph through one solver: the order matches the reference's visit for
// visit, the length the recursive longest path exactly, and the path is a
// chain of edges whose weights add up to the length.
TEST(Dag, SolverMatchesReferencesOverManyWeightings) {
  Rng rng(11);
  for (int trial = 0; trial < 60; ++trial) {
    const int n = rng.uniform_int(1, 9);
    std::vector<DagEdge> edges;
    for (int a = 0; a < n; ++a) {
      for (int b = a + 1; b < n; ++b) {
        if (rng.uniform(0, 1) < 0.35) edges.push_back({a, b});
      }
    }
    // Relabel nodes so edges do not always point to higher ids.
    std::vector<int> label(static_cast<std::size_t>(n));
    std::iota(label.begin(), label.end(), 0);
    rng.shuffle(std::span<int>(label));
    for (DagEdge& e : edges) {
      e = {label[static_cast<std::size_t>(e.from)],
           label[static_cast<std::size_t>(e.to)]};
    }
    rng.shuffle(std::span<DagEdge>(edges));
    EXPECT_EQ(topological_order(n, edges), reference_order(n, edges));

    CriticalPathSolver solver(n, edges);
    for (int w = 0; w < 5; ++w) {
      std::vector<double> weights;
      for (int v = 0; v < n; ++v) {
        weights.push_back(static_cast<double>(rng.uniform_int(0, 6)));
      }
      double want = 0.0;
      for (int v = 0; v < n; ++v) {
        want = std::max(want, reference_distance(v, edges, weights));
      }
      EXPECT_EQ(solver.length(weights), want);
      const CriticalPath path = solver.path(weights);
      EXPECT_EQ(path.length, want);
      double sum = 0.0;
      for (std::size_t i = 0; i < path.nodes.size(); ++i) {
        sum += weights[static_cast<std::size_t>(path.nodes[i])];
        if (i == 0) continue;
        const DagEdge step{path.nodes[i - 1], path.nodes[i]};
        EXPECT_TRUE(std::any_of(edges.begin(), edges.end(),
                                [&](const DagEdge& e) {
                                  return e.from == step.from && e.to == step.to;
                                }));
      }
      EXPECT_EQ(sum, want);
    }
  }
}

TEST(JobSpec, MapReduceFactoryBuildsSingleStage) {
  const JobSpec job = JobSpec::map_reduce(7, "wordcount", small_stage(), 12.0);
  EXPECT_EQ(job.id, 7);
  EXPECT_TRUE(job.is_map_reduce());
  EXPECT_DOUBLE_EQ(job.arrival, 12.0);
  EXPECT_EQ(job.max_parallelism(), 8);
  EXPECT_EQ(job.num_tasks(), 12);
  EXPECT_NO_THROW(job.validate());
}

TEST(JobSpec, TotalsSumOverStages) {
  JobSpec job;
  job.id = 1;
  job.name = "dag";
  job.stages = {small_stage(2 * kGB), small_stage(1 * kGB)};
  job.edges = {{0, 1}};
  // Only stage 0 is a source; stage 1 reads stage 0's output.
  EXPECT_DOUBLE_EQ(job.total_input(), 2 * kGB);
  EXPECT_DOUBLE_EQ(job.total_shuffle(), 1.5 * kGB);
  EXPECT_EQ(job.source_stages(), (std::vector<int>{0}));
  EXPECT_NO_THROW(job.validate());
}

TEST(JobSpec, ValidateRejectsBadSpecs) {
  JobSpec job = JobSpec::map_reduce(1, "bad", small_stage());
  job.stages[0].num_maps = 0;
  EXPECT_THROW(job.validate(), std::invalid_argument);

  job = JobSpec::map_reduce(1, "bad", small_stage());
  job.stages[0].input_bytes = -1;
  EXPECT_THROW(job.validate(), std::invalid_argument);

  job = JobSpec::map_reduce(1, "bad", small_stage());
  job.arrival = -5;
  EXPECT_THROW(job.validate(), std::invalid_argument);

  JobSpec cyclic;
  cyclic.stages = {small_stage(), small_stage()};
  cyclic.edges = {{0, 1}, {1, 0}};
  EXPECT_THROW(cyclic.validate(), std::invalid_argument);

  JobSpec empty;
  EXPECT_THROW(empty.validate(), std::invalid_argument);
}

TEST(JobSpec, MapOnlyStageIsValid) {
  MapReduceSpec stage = small_stage();
  stage.num_reduces = 0;
  stage.shuffle_bytes = 0;
  const JobSpec job = JobSpec::map_reduce(2, "map-only", stage);
  EXPECT_NO_THROW(job.validate());
  EXPECT_EQ(job.max_parallelism(), 8);
}

}  // namespace
}  // namespace corral
