#include "jobs/dag.h"

#include <algorithm>

#include "util/check.h"

namespace corral {
namespace {

// Files every edge under one of its endpoints as one flat array, keeping
// edge order within a node: afterwards the values filed under node v are
// items[start[v] .. start[v + 1]). `start` must hold num_nodes + 2 zeros and
// `items` one slot per edge; the extra slot lets the fill pass advance each
// node's cursor in place, so no second offset array is needed.
template <typename Key, typename Value>
void group_edges(std::span<const DagEdge> edges, std::span<int> start,
                 std::span<int> items, Key key, Value value) {
  for (const DagEdge& e : edges) ++start[static_cast<std::size_t>(key(e)) + 2];
  for (std::size_t v = 2; v < start.size(); ++v) start[v] += start[v - 1];
  for (const DagEdge& e : edges) {
    items[static_cast<std::size_t>(
        start[static_cast<std::size_t>(key(e)) + 1]++)] = value(e);
  }
}

int edge_from(const DagEdge& e) { return e.from; }
int edge_to(const DagEdge& e) { return e.to; }

}  // namespace

std::vector<int> topological_order(int num_nodes,
                                   std::span<const DagEdge> edges) {
  require(num_nodes >= 0, "topological_order: negative node count");
  for (const DagEdge& e : edges) {
    require(e.from >= 0 && e.from < num_nodes && e.to >= 0 && e.to < num_nodes,
            "topological_order: edge index out of range");
    require(e.from != e.to, "topological_order: self-loop");
  }
  const auto n = static_cast<std::size_t>(num_nodes);
  // One buffer: successor offsets, successors in edge order, in-degrees and
  // the stack of ready nodes.
  std::vector<int> buffer(n + 2 + edges.size() + 2 * n, 0);
  const std::span<int> all(buffer);
  const std::span<int> start = all.subspan(0, n + 2);
  const std::span<int> successors = all.subspan(n + 2, edges.size());
  const std::span<int> indegree = all.subspan(n + 2 + edges.size(), n);
  const std::span<int> ready = all.subspan(n + 2 + edges.size() + n, n);
  group_edges(edges, start, successors, edge_from, edge_to);
  for (const DagEdge& e : edges) ++indegree[static_cast<std::size_t>(e.to)];

  std::size_t ready_count = 0;
  for (int v = 0; v < num_nodes; ++v) {
    if (indegree[static_cast<std::size_t>(v)] == 0) ready[ready_count++] = v;
  }
  std::vector<int> order;
  order.reserve(n);
  while (ready_count > 0) {
    const int v = ready[--ready_count];
    order.push_back(v);
    const auto sv = static_cast<std::size_t>(v);
    for (int k = start[sv]; k < start[sv + 1]; ++k) {
      const int next = successors[static_cast<std::size_t>(k)];
      if (--indegree[static_cast<std::size_t>(next)] == 0) {
        ready[ready_count++] = next;
      }
    }
  }
  require(order.size() == n, "topological_order: graph has a cycle");
  return order;
}

CriticalPathSolver::CriticalPathSolver(int num_nodes,
                                       std::span<const DagEdge> edges)
    : order_(topological_order(num_nodes, edges)),
      pred_start_(static_cast<std::size_t>(num_nodes) + 2, 0),
      preds_(edges.size()),
      dist_(static_cast<std::size_t>(num_nodes)),
      pred_(static_cast<std::size_t>(num_nodes)) {
  group_edges(edges, pred_start_, preds_, edge_to, edge_from);
}

std::size_t CriticalPathSolver::relax(std::span<const double> node_weights) {
  require(node_weights.size() == dist_.size(),
          "critical_path: weight count must match node count");
  // Longest distance ending at each node, and the predecessor achieving it.
  for (int v : order_) {
    const auto sv = static_cast<std::size_t>(v);
    double best = 0.0;
    int best_pred = -1;
    for (int k = pred_start_[sv]; k < pred_start_[sv + 1]; ++k) {
      const int p = preds_[static_cast<std::size_t>(k)];
      if (dist_[static_cast<std::size_t>(p)] > best) {
        best = dist_[static_cast<std::size_t>(p)];
        best_pred = p;
      }
    }
    dist_[sv] = best + node_weights[sv];
    pred_[sv] = best_pred;
  }
  std::size_t tail = 0;
  for (std::size_t v = 1; v < dist_.size(); ++v) {
    if (dist_[v] > dist_[tail]) tail = v;
  }
  return tail;
}

double CriticalPathSolver::length(std::span<const double> node_weights) {
  const std::size_t tail = relax(node_weights);
  return dist_.empty() ? 0.0 : dist_[tail];
}

CriticalPath CriticalPathSolver::path(std::span<const double> node_weights) {
  const std::size_t tail = relax(node_weights);
  CriticalPath result;
  if (dist_.empty()) return result;
  result.length = dist_[tail];
  for (int v = static_cast<int>(tail); v != -1;
       v = pred_[static_cast<std::size_t>(v)]) {
    result.nodes.push_back(v);
  }
  std::reverse(result.nodes.begin(), result.nodes.end());
  return result;
}

CriticalPath critical_path(int num_nodes, std::span<const DagEdge> edges,
                           std::span<const double> node_weights) {
  require(static_cast<int>(node_weights.size()) == num_nodes,
          "critical_path: weight count must match node count");
  return CriticalPathSolver(num_nodes, edges).path(node_weights);
}

}  // namespace corral
