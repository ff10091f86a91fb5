#include "coflow/coflow.h"

#include <algorithm>
#include <cstddef>
#include <string>
#include <utility>

#include "lp/simplex.h"
#include "net/fill.h"
#include "util/check.h"

namespace corral::coflow {
namespace {

using net_detail::FillScratch;
using net_detail::GroupRef;

// Per-coflow demand profile: bytes on every link the coflow touches, plus
// the ideal completion time Γ at full capacity. Only real coflows
// (flow.coflow >= 0) appear; stray flows are not part of any ordering
// decision.
struct CoflowDemands {
  std::vector<long> keys;     // ascending
  std::vector<double> gamma;  // per key, at full link capacity
  // Per key: (link, bytes) pairs, links ascending.
  std::vector<std::vector<std::pair<int, double>>> demand;
};

// The demands of the real coflows grouped in `scratch`, whose groups must
// still be in build_coflow_groups' order (real coflows by ascending key).
// A group's bytes on a link are the sum of its flows' remaining bytes in
// row order, so they, and Γ, do not depend on how the flows are stored.
CoflowDemands gather_demands(const FillScratch& scratch) {
  CoflowDemands out;
  for (const GroupRef& group : scratch.groups) {
    if (group.key < 0) continue;
    out.keys.push_back(group.key);
    out.gamma.push_back(group.gamma);
    auto& row = out.demand.emplace_back();
    const auto begin = static_cast<std::size_t>(group.load_begin);
    const auto end = begin + static_cast<std::size_t>(group.load_count);
    for (std::size_t i = begin; i < end; ++i) {
      const net_detail::LinkLoad& load = scratch.group_loads[i];
      if (load.bytes > 0.0) row.emplace_back(load.link, load.bytes);
    }
    std::sort(row.begin(), row.end());
  }
  return out;
}

CoflowDemands demands_of(const std::vector<Flow>& flows,
                         const LinkSet& links) {
  FlowTable table = FlowTable::of(flows);
  FillScratch scratch;
  net_detail::build_coflow_groups(table, scratch, links);
  return gather_demands(scratch);
}

// SEBF fallback order: ascending (Γ, key). Used when the LP does not reach
// an optimum (iteration limit — never seen in practice, but the allocator
// must stay deterministic and total either way).
std::vector<long> sebf_order(const CoflowDemands& demands) {
  std::vector<std::size_t> index(demands.keys.size());
  for (std::size_t k = 0; k < index.size(); ++k) index[k] = k;
  std::sort(index.begin(), index.end(), [&](std::size_t a, std::size_t b) {
    return demands.gamma[a] != demands.gamma[b]
               ? demands.gamma[a] < demands.gamma[b]
               : demands.keys[a] < demands.keys[b];
  });
  std::vector<long> order;
  order.reserve(index.size());
  for (std::size_t k : index) order.push_back(demands.keys[k]);
  return order;
}

// The Qiu–Stein–Zhong ordering LP over completion-time variables C_k:
//
//   minimize   sum_k C_k
//   subject to C_k >= Γ_k                                  (release at 0)
//              sum_k d_{k,l} C_k >= (D_l² + sum_k d_{k,l}²) / (2 cap_l)
//
// The second family are the classic "parallel inequalities" of
// single-machine weighted-completion-time scheduling, one per loaded link
// (Queyranne's polyhedral bound, scaled by link capacity). Scheduling
// coflows in ascending C_k order is the list-scheduling step of the LP
// rounding algorithms QSZ study.
std::vector<long> lp_order(const CoflowDemands& demands,
                           const LinkSet& links) {
  const int K = static_cast<int>(demands.keys.size());
  if (K <= 1) return demands.keys;

  LpProblem lp(K);
  lp.minimize(std::vector<double>(static_cast<std::size_t>(K), 1.0));
  for (int k = 0; k < K; ++k) {
    if (demands.gamma[static_cast<std::size_t>(k)] <= 0.0) continue;
    lp.add_constraint_sparse({{k, 1.0}}, Relation::kGreaterEqual,
                             demands.gamma[static_cast<std::size_t>(k)]);
  }
  // One parallel inequality per loaded link. Collect the per-link terms by
  // walking the (link-ascending) sparse demand rows.
  std::vector<int> loaded;
  for (const auto& row : demands.demand) {
    for (const auto& [link, bytes] : row) loaded.push_back(link);
  }
  std::sort(loaded.begin(), loaded.end());
  loaded.erase(std::unique(loaded.begin(), loaded.end()), loaded.end());
  for (int l : loaded) {
    std::vector<std::pair<int, double>> terms;
    double total = 0.0;
    double sum_sq = 0.0;
    for (int k = 0; k < K; ++k) {
      const auto& row = demands.demand[static_cast<std::size_t>(k)];
      const auto it = std::lower_bound(
          row.begin(), row.end(), std::make_pair(l, 0.0),
          [](const auto& a, const auto& b) { return a.first < b.first; });
      if (it == row.end() || it->first != l) continue;
      terms.emplace_back(k, it->second);
      total += it->second;
      sum_sq += it->second * it->second;
    }
    if (terms.empty()) continue;
    lp.add_constraint_sparse(terms, Relation::kGreaterEqual,
                             (total * total + sum_sq) /
                                 (2.0 * links.capacity(l)));
  }

  const LpSolution solution = lp.solve();
  if (!solution.optimal()) return sebf_order(demands);

  std::vector<std::size_t> index(demands.keys.size());
  for (std::size_t k = 0; k < index.size(); ++k) index[k] = k;
  std::sort(index.begin(), index.end(), [&](std::size_t a, std::size_t b) {
    return solution.x[a] != solution.x[b] ? solution.x[a] < solution.x[b]
                                          : demands.keys[a] < demands.keys[b];
  });
  std::vector<long> order;
  order.reserve(index.size());
  for (std::size_t k : index) order.push_back(demands.keys[k]);
  return order;
}

// Sincronia's Bottleneck-Select-Scale-Iterate: find the most-bottlenecked
// link, schedule the heaviest coflow on it *last* (unit initial weights,
// scaled down as heavier coflows are pinned behind), subtract, iterate.
// The reverse of the pin order is the priority order.
std::vector<long> bssi_order(const CoflowDemands& demands) {
  const std::size_t K = demands.keys.size();
  std::vector<char> scheduled(K, 0);
  std::vector<double> weight(K, 1.0);
  std::vector<long> reversed;
  reversed.reserve(K);

  for (std::size_t placed = 0; placed < K; ++placed) {
    // Most-bottlenecked link among unscheduled coflows (ties: lowest link).
    double best_load = 0.0;
    int bottleneck = -1;
    {
      // Accumulate per-link loads sparsely: (link, load) merged by map-free
      // two-pass over the sorted demand rows.
      std::vector<std::pair<int, double>> loads;
      for (std::size_t k = 0; k < K; ++k) {
        if (scheduled[k]) continue;
        for (const auto& [link, bytes] : demands.demand[k]) {
          loads.emplace_back(link, bytes);
        }
      }
      std::sort(loads.begin(), loads.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      for (std::size_t i = 0; i < loads.size();) {
        double total = 0.0;
        std::size_t j = i;
        while (j < loads.size() && loads[j].first == loads[i].first) {
          total += loads[j].second;
          ++j;
        }
        if (total > best_load) {
          best_load = total;
          bottleneck = loads[i].first;
        }
        i = j;
      }
    }
    if (bottleneck < 0) {
      // Only drained coflows remain: pin them in descending key order so
      // the reversed output lists them ascending, matching the SEBF tie
      // rule for zero-Γ groups.
      std::vector<long> rest;
      for (std::size_t k = 0; k < K; ++k) {
        if (!scheduled[k]) rest.push_back(demands.keys[k]);
      }
      std::sort(rest.rbegin(), rest.rend());
      for (long key : rest) reversed.push_back(key);
      break;
    }

    // Select: the unscheduled coflow with the largest demand per unit
    // weight on the bottleneck (ties: lowest key) goes last.
    std::size_t pick = K;
    double pick_score = -net_detail::kInf;
    double pick_demand = 0.0;
    for (std::size_t k = 0; k < K; ++k) {
      if (scheduled[k]) continue;
      const auto& row = demands.demand[k];
      const auto it = std::lower_bound(
          row.begin(), row.end(), std::make_pair(bottleneck, 0.0),
          [](const auto& a, const auto& b) { return a.first < b.first; });
      if (it == row.end() || it->first != bottleneck) continue;
      const double score = weight[k] > 0.0 ? it->second / weight[k]
                                           : net_detail::kInf;
      if (score > pick_score) {
        pick_score = score;
        pick = k;
        pick_demand = it->second;
      }
    }
    ensure(pick < K, "bssi: bottleneck link with no demand");
    scheduled[pick] = 1;
    reversed.push_back(demands.keys[pick]);

    // Scale: discount the weights of coflows sharing the bottleneck.
    for (std::size_t k = 0; k < K; ++k) {
      if (scheduled[k]) continue;
      const auto& row = demands.demand[k];
      const auto it = std::lower_bound(
          row.begin(), row.end(), std::make_pair(bottleneck, 0.0),
          [](const auto& a, const auto& b) { return a.first < b.first; });
      if (it == row.end() || it->first != bottleneck) continue;
      weight[k] = std::max(
          0.0, weight[k] - weight[pick] * (it->second / pick_demand));
    }
  }
  std::reverse(reversed.begin(), reversed.end());
  return reversed;
}

// Shared driver: MADD + backfill in an externally computed coflow order.
// The order is recomputed only when the set of live coflows changes —
// between membership changes the cached priority list stands (the
// Sincronia stance: ordering is an arrival/departure-time decision, rate
// assignment is per-epoch). Per-instance state only, so each simulation
// stays deterministic regardless of which pool worker runs it.
class OrderedCoflowAllocator : public RateAllocator {
 public:
  using RateAllocator::allocate;
  void allocate(FlowTable& flows, const LinkSet& links) override {
    if (flows.live() == 0) return;
    FillScratch& scratch = net_detail::thread_scratch();
    std::fill(flows.rate.begin(), flows.rate.end(), 0.0);
    net_detail::build_coflow_groups(flows, scratch, links);

    // Live real coflow keys, ascending: the groups after the singletons.
    const std::size_t first_real = flows.singleton_rows().size();
    live_keys_.clear();
    for (std::size_t k = 0; k < flows.coflows(); ++k) {
      live_keys_.push_back(flows.coflow_key(k));
    }
    if (live_keys_ != cached_keys_) {
      cached_order_ = compute_order(gather_demands(scratch), links);
      cached_keys_ = live_keys_;
      ++order_refreshes_;
      ensure(cached_order_.size() == cached_keys_.size(),
             "coflow: ordering lost or duplicated a coflow");
      // rank_[i]: priority position of cached_keys_[i].
      rank_.assign(cached_keys_.size(), -1);
      for (std::size_t p = 0; p < cached_order_.size(); ++p) {
        const auto it = std::lower_bound(cached_keys_.begin(),
                                         cached_keys_.end(), cached_order_[p]);
        const auto i = static_cast<std::size_t>(it - cached_keys_.begin());
        ensure(it != cached_keys_.end() && *it == cached_order_[p] &&
                   rank_[i] < 0,
               "coflow: live coflow missing from cached order");
        rank_[i] = static_cast<int>(p);
      }
    }

    // Real coflows first, in cached priority order; stray singletons ride
    // behind in SEBF (Γ, key) order.
    ordered_.resize(scratch.groups.size());
    for (std::size_t i = 0; i < rank_.size(); ++i) {
      ordered_[static_cast<std::size_t>(rank_[i])] =
          scratch.groups[first_real + i];
    }
    const auto strays =
        ordered_.begin() + static_cast<std::ptrdiff_t>(rank_.size());
    std::copy_n(scratch.groups.begin(), first_real, strays);
    std::sort(strays, ordered_.end(),
              [](const GroupRef& a, const GroupRef& b) {
                return a.gamma != b.gamma ? a.gamma < b.gamma : a.key < b.key;
              });
    scratch.groups.swap(ordered_);

    if (trace_.at(obs::TraceLevel::kFlows)) {
      trace_.counter(obs::TraceTrack::kNet,
                     std::string(name()) + ".order_refreshes", 0, trace_now(),
                     static_cast<double>(order_refreshes_));
      trace_.counter(obs::TraceTrack::kNet,
                     std::string(name()) + ".live_coflows", 0, trace_now(),
                     static_cast<double>(live_keys_.size()));
    }

    net_detail::madd_in_group_order(flows, scratch, links);
    net_detail::progressive_fill(flows, scratch,
                                 static_cast<std::size_t>(links.count()));
  }

 protected:
  virtual std::vector<long> compute_order(const CoflowDemands& demands,
                                          const LinkSet& links) = 0;

 private:
  std::vector<long> live_keys_;
  std::vector<long> cached_keys_;
  std::vector<long> cached_order_;
  std::vector<int> rank_;
  std::vector<GroupRef> ordered_;
  std::uint64_t order_refreshes_ = 0;
};

class LpOrderAllocator : public OrderedCoflowAllocator {
 public:
  std::string_view name() const override { return "lp-order"; }

 protected:
  std::vector<long> compute_order(const CoflowDemands& demands,
                                  const LinkSet& links) override {
    return lp_order(demands, links);
  }
};

class SincroniaAllocator : public OrderedCoflowAllocator {
 public:
  std::string_view name() const override { return "sincronia"; }

 protected:
  std::vector<long> compute_order(const CoflowDemands& demands,
                                  const LinkSet& /*links*/) override {
    return bssi_order(demands);
  }
};

}  // namespace

std::unique_ptr<RateAllocator> make_allocator(NetPolicy policy) {
  switch (policy) {
    case NetPolicy::kTcp:
      return std::make_unique<MaxMinFairAllocator>();
    case NetPolicy::kVarys:
      return std::make_unique<VarysAllocator>();
    case NetPolicy::kLpOrder:
      return std::make_unique<LpOrderAllocator>();
    case NetPolicy::kSincronia:
      return std::make_unique<SincroniaAllocator>();
  }
  require(false, "make_allocator: unknown net policy");
  return nullptr;
}

std::vector<long> lp_order_keys(const std::vector<Flow>& flows,
                                const LinkSet& links) {
  return lp_order(demands_of(flows, links), links);
}

std::vector<long> sincronia_order_keys(const std::vector<Flow>& flows,
                                       const LinkSet& links) {
  return bssi_order(demands_of(flows, links));
}

double permutation_cct(const std::vector<Flow>& flows, const LinkSet& links,
                       const std::vector<long>& order) {
  const CoflowDemands demands = demands_of(flows, links);
  require(order.size() == demands.keys.size(),
          "permutation_cct: order must list every coflow exactly once");
  std::vector<double> elapsed(static_cast<std::size_t>(links.count()), 0.0);
  double total = 0.0;
  for (long key : order) {
    const auto it =
        std::lower_bound(demands.keys.begin(), demands.keys.end(), key);
    require(it != demands.keys.end() && *it == key,
            "permutation_cct: unknown coflow key in order");
    const auto k = static_cast<std::size_t>(it - demands.keys.begin());
    double finish = 0.0;
    for (const auto& [link, bytes] : demands.demand[k]) {
      elapsed[static_cast<std::size_t>(link)] += bytes / links.capacity(link);
      finish = std::max(finish, elapsed[static_cast<std::size_t>(link)]);
    }
    // A sequential (permutation) schedule: the coflow finishes when its
    // slowest link has pushed every byte queued so far.
    total += finish;
  }
  return total;
}

}  // namespace corral::coflow
