// DAG utilities: topological order and critical paths.
//
// The latency response function of a DAG job is the sum of stage latencies
// along its critical path (§4.3). The paper finds the path with an efficient
// shortest-path style pass over the DAG; we do the same via a topological
// order, which is O(V + E).
#ifndef CORRAL_JOBS_DAG_H_
#define CORRAL_JOBS_DAG_H_

#include <cstddef>
#include <span>
#include <vector>

namespace corral {

struct DagEdge {
  int from = 0;
  int to = 0;
};

// Returns a topological order of nodes 0..num_nodes-1.
// Throws std::invalid_argument if an edge index is out of range or the
// graph has a cycle.
std::vector<int> topological_order(int num_nodes,
                                   std::span<const DagEdge> edges);

struct CriticalPath {
  double length = 0.0;
  std::vector<int> nodes;  // in execution order
};

// Longest weighted path (node weights) from any source to any sink.
// Requires weights.size() == num_nodes and an acyclic graph.
CriticalPath critical_path(int num_nodes, std::span<const DagEdge> edges,
                           std::span<const double> node_weights);

// critical_path for one graph under many weightings: the topological order
// and every node's predecessors (one flat array, in edge order) are built
// once, and each call runs only the longest-path pass, without allocating
// unless a path is returned. The latency model evaluates a DAG job's
// critical path at every rack count this way.
class CriticalPathSolver {
 public:
  // Throws like topological_order.
  CriticalPathSolver(int num_nodes, std::span<const DagEdge> edges);

  // critical_path(num_nodes, edges, node_weights).length.
  double length(std::span<const double> node_weights);
  CriticalPath path(std::span<const double> node_weights);

 private:
  // Fills dist_ and pred_; returns the first node of greatest distance.
  std::size_t relax(std::span<const double> node_weights);

  std::vector<int> order_;  // declared first: it validates the graph
  // Node v's predecessors are preds_[pred_start_[v] .. pred_start_[v + 1]).
  std::vector<int> pred_start_;
  std::vector<int> preds_;
  std::vector<double> dist_;
  std::vector<int> pred_;
};

}  // namespace corral

#endif  // CORRAL_JOBS_DAG_H_
