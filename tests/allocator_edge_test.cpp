// Allocator edge cases: zero-remaining flows, NaN guards, capacity safety.
//
// A flow can reach remaining == 0 without having been retired yet (the
// Network sweeps completions after the advance that drains them, and
// injected or restored states can carry such flows). Historically Varys's
// MADD divided by the group's Γ, which is 0 when every member is drained —
// the rate went NaN and poisoned the fill. These tests pin the guards:
// rates stay finite and non-negative, per-link rate sums respect capacity,
// drained flows are costless in MADD, and the thread_local scratch path
// stays bit-exact under the pool with drained flows in the mix. They also
// pin the linear-time coflow grouping to a sort-based oracle, and the
// std::vector<Flow> adapter to the rates a Network computes in place.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "coflow/coflow.h"
#include "exec/exec.h"
#include "net/fill.h"
#include "net/network.h"

namespace corral {
namespace {

ClusterConfig tiny_cluster() {
  ClusterConfig config;
  config.racks = 2;
  config.machines_per_rack = 4;
  config.slots_per_machine = 2;
  config.nic_bandwidth = 8;
  config.oversubscription = 2.0;  // rack uplink = 4*8/2 = 16 B/s
  return config;
}

// Builds a machine-to-machine flow with the same path Network::start_flow
// charges, but with a caller-controlled `remaining` (the Network API cannot
// create drained-but-unretired flows, which is exactly the state under
// test).
Flow make_flow(const LinkSet& links, const ClusterConfig& config, int id,
               int src, int dst, Bytes remaining, double width, int coflow) {
  Flow flow;
  flow.id = id;
  flow.total = std::max(remaining, 1.0);
  flow.remaining = remaining;
  flow.width = width;
  flow.coflow = coflow;
  const int src_rack = src / config.machines_per_rack;
  const int dst_rack = dst / config.machines_per_rack;
  flow.cross_rack = src_rack != dst_rack;
  flow.path.add(links.host_up(src));
  if (flow.cross_rack) {
    flow.path.add(links.rack_up(src_rack));
    flow.path.add(links.rack_down(dst_rack));
  }
  flow.path.add(links.host_down(dst));
  return flow;
}

// `require_progress` additionally asserts every live flow got a positive
// rate. Always true for max-min (progressive filling's shares are
// non-decreasing from a positive first bottleneck); for Varys it holds in
// the simulator's fan-in patterns but not for arbitrary random topologies,
// where MADD can exactly saturate a link an unrelated later coflow crosses.
void check_rates_sane(const std::vector<Flow>& flows, const LinkSet& links,
                      bool require_progress = true) {
  std::vector<double> used(static_cast<std::size_t>(links.count()), 0.0);
  for (const Flow& flow : flows) {
    EXPECT_TRUE(std::isfinite(flow.rate)) << "flow " << flow.id;
    EXPECT_GE(flow.rate, 0.0) << "flow " << flow.id;
    if (require_progress && flow.remaining > 0) {
      // Work conservation: live flows always make progress.
      EXPECT_GT(flow.rate, 0.0) << "flow " << flow.id;
    }
    for (int i = 0; i < flow.path.count; ++i) {
      used[static_cast<std::size_t>(flow.path.links[i])] += flow.rate;
    }
  }
  for (int l = 0; l < links.count(); ++l) {
    const double cap = links.capacity(l);
    EXPECT_LE(used[static_cast<std::size_t>(l)], cap + 1e-6 + 1e-9 * cap)
        << "link " << l;
  }
}

TEST(VarysEdge, FullyDrainedCoflowYieldsFiniteRates) {
  // Coflow 0: every member drained (Γ == 0 — the old NaN division). Coflow
  // 1 carries real bytes and must still get sane MADD rates.
  const ClusterConfig config = tiny_cluster();
  const LinkSet links(config);
  std::vector<Flow> flows;
  flows.push_back(make_flow(links, config, 0, 0, 4, 0.0, 1.0, 0));
  flows.push_back(make_flow(links, config, 1, 1, 5, 0.0, 2.0, 0));
  flows.push_back(make_flow(links, config, 2, 2, 6, 64.0, 1.0, 1));
  flows.push_back(make_flow(links, config, 3, 3, 7, 32.0, 1.0, 1));
  VarysAllocator allocator;
  allocator.allocate(flows, links);
  check_rates_sane(flows, links);
}

TEST(VarysEdge, PartiallyDrainedCoflowChargesNoCapacityForDrainedFlows) {
  // One drained member inside a live coflow: MADD must skip it (no residual
  // consumed), so the live sibling sharing its NIC keeps the full rate it
  // would get if the drained flow were already retired.
  const ClusterConfig config = tiny_cluster();
  const LinkSet links(config);
  std::vector<Flow> with_drained;
  with_drained.push_back(make_flow(links, config, 0, 0, 4, 80.0, 1.0, 0));
  with_drained.push_back(make_flow(links, config, 1, 1, 5, 0.0, 1.0, 0));
  std::vector<Flow> without;
  without.push_back(make_flow(links, config, 0, 0, 4, 80.0, 1.0, 0));

  VarysAllocator allocator;
  allocator.allocate(with_drained, links);
  check_rates_sane(with_drained, links);
  VarysAllocator reference;
  reference.allocate(without, links);
  EXPECT_EQ(with_drained[0].rate, without[0].rate);
}

TEST(MaxMinEdge, DrainedFlowsKeepFillFinite) {
  const ClusterConfig config = tiny_cluster();
  const LinkSet links(config);
  std::vector<Flow> flows;
  flows.push_back(make_flow(links, config, 0, 0, 1, 0.0, 1.0, -1));
  flows.push_back(make_flow(links, config, 1, 0, 2, 40.0, 1.0, -1));
  MaxMinFairAllocator allocator;
  allocator.allocate(flows, links);
  check_rates_sane(flows, links);
}

TEST(AllocatorProperty, RandomFlowSetsRespectLinkCapacities) {
  // Randomized mixes of live and drained flows, singleton and coflowed,
  // through both allocators: rates must stay finite, positive for live
  // flows, and sum within capacity on every link.
  const ClusterConfig config = tiny_cluster();
  const LinkSet links(config);
  std::mt19937 rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<Flow> flows;
    const int n = 1 + static_cast<int>(rng() % 12);
    for (int f = 0; f < n; ++f) {
      const int src = static_cast<int>(rng() % 8);
      int dst = static_cast<int>(rng() % 8);
      if (dst == src) dst = (dst + 1) % 8;
      const Bytes remaining =
          rng() % 5 == 0 ? 0.0 : 1.0 + static_cast<double>(rng() % 100);
      const double width = 1.0 + static_cast<double>(rng() % 3);
      const int coflow = rng() % 2 == 0 ? static_cast<int>(rng() % 3) : -1;
      flows.push_back(
          make_flow(links, config, f, src, dst, remaining, width, coflow));
    }
    std::vector<Flow> varys_flows = flows;
    VarysAllocator varys;
    varys.allocate(varys_flows, links);
    check_rates_sane(varys_flows, links, /*require_progress=*/false);

    MaxMinFairAllocator maxmin;
    maxmin.allocate(flows, links);
    check_rates_sane(flows, links);
  }
}

TEST(AllocatorProperty, DrainedFlowsParallelMatchesSerialExactly) {
  // AllocatorConcurrency (net_test) with drained flows in the mix: the
  // thread_local scratch's lazy-clear load/touched state must produce
  // bit-identical rates no matter which pool worker ran what before.
  const ClusterConfig config = tiny_cluster();
  const LinkSet links(config);
  const int kCases = 32;
  auto drive = [&](int c) {
    std::vector<Flow> flows;
    const int n = 2 + c % 6;
    for (int f = 0; f < n; ++f) {
      const int src = (c + f) % 8;
      int dst = (c + 3 * f + 1) % 8;
      if (dst == src) dst = (dst + 1) % 8;
      const Bytes remaining =
          (c + f) % 3 == 0 ? 0.0 : 16.0 + static_cast<double>(8 * f);
      flows.push_back(make_flow(links, config, f, src, dst, remaining,
                                1.0 + f % 2, f % 2 == 0 ? c % 2 : -1));
    }
    std::vector<double> rates;
    VarysAllocator varys;
    varys.allocate(flows, links);
    for (const Flow& flow : flows) rates.push_back(flow.rate);
    MaxMinFairAllocator maxmin;
    maxmin.allocate(flows, links);
    for (const Flow& flow : flows) rates.push_back(flow.rate);
    return rates;
  };

  std::vector<std::vector<double>> serial(kCases);
  for (int c = 0; c < kCases; ++c) serial[c] = drive(c);

  exec::ThreadPool pool(8);
  const auto parallel = exec::parallel_map(
      pool, kCases, [&](int, std::size_t c) { return drive(int(c)); });
  for (int c = 0; c < kCases; ++c) {
    ASSERT_EQ(parallel[c].size(), serial[c].size()) << "case " << c;
    for (std::size_t i = 0; i < serial[c].size(); ++i) {
      EXPECT_EQ(parallel[c][i], serial[c][i]) << "case " << c << " rate " << i;
    }
  }
}

TEST(NetPolicyNames, ParseRoundTripsEveryPolicyAndRejectsUnknown) {
  // The ForEveryPolicy tests below reach every policy through its spelling.
  const std::vector<std::string>& names = net_policy_names();
  ASSERT_EQ(names.size(), 4u);
  for (NetPolicy policy : {NetPolicy::kTcp, NetPolicy::kVarys,
                           NetPolicy::kLpOrder, NetPolicy::kSincronia}) {
    const std::string_view name = to_string(policy);
    EXPECT_EQ(names[static_cast<std::size_t>(policy)], name);
    NetPolicy parsed =
        policy == NetPolicy::kTcp ? NetPolicy::kVarys : NetPolicy::kTcp;
    ASSERT_TRUE(parse_net_policy(name, &parsed)) << name;
    EXPECT_EQ(parsed, policy) << name;
  }
  for (std::string_view bad : {"", "TCP", "lp_order", "varys ", "unknown"}) {
    NetPolicy untouched = NetPolicy::kVarys;
    EXPECT_FALSE(parse_net_policy(bad, &untouched)) << bad;
    EXPECT_EQ(untouched, NetPolicy::kVarys) << bad;
  }
}

TEST(AllocatorEdge, FullyDrainedCoflowYieldsFiniteRatesForEveryPolicy) {
  // The PR 7 zero-Γ guard, through the factory every tool dispatches on:
  // no registered policy may emit NaN or overfill when an entire coflow is
  // drained while a live coflow shares the fabric.
  const ClusterConfig config = tiny_cluster();
  const LinkSet links(config);
  for (const std::string& name : net_policy_names()) {
    NetPolicy policy = NetPolicy::kTcp;
    ASSERT_TRUE(parse_net_policy(name, &policy)) << name;
    std::vector<Flow> flows;
    flows.push_back(make_flow(links, config, 0, 0, 4, 0.0, 1.0, 0));
    flows.push_back(make_flow(links, config, 1, 1, 5, 0.0, 2.0, 0));
    flows.push_back(make_flow(links, config, 2, 2, 6, 64.0, 1.0, 1));
    flows.push_back(make_flow(links, config, 3, 3, 7, 32.0, 1.0, 1));
    const auto allocator = coflow::make_allocator(policy);
    allocator->allocate(flows, links);
    check_rates_sane(flows, links, /*require_progress=*/false);
    for (const Flow& flow : flows) {
      if (flow.remaining > 0) {
        EXPECT_GT(flow.rate, 0.0) << name << " flow " << flow.id;
      }
    }
  }
}

TEST(AllocatorEdge, ZeroRemainingSingletonsYieldFiniteRatesForEveryPolicy) {
  // Drained singletons next to a live coflow: the ordering policies place
  // singletons behind real coflows, and drained ones must stay costless.
  const ClusterConfig config = tiny_cluster();
  const LinkSet links(config);
  for (const std::string& name : net_policy_names()) {
    NetPolicy policy = NetPolicy::kTcp;
    ASSERT_TRUE(parse_net_policy(name, &policy)) << name;
    std::vector<Flow> flows;
    flows.push_back(make_flow(links, config, 0, 0, 4, 0.0, 1.0, -1));
    flows.push_back(make_flow(links, config, 1, 1, 5, 48.0, 1.0, -1));
    flows.push_back(make_flow(links, config, 2, 2, 6, 64.0, 1.0, 0));
    const auto allocator = coflow::make_allocator(policy);
    allocator->allocate(flows, links);
    check_rates_sane(flows, links, /*require_progress=*/false);
  }
}

TEST(AllocatorProperty, RandomFlowSetsRespectCapacityForEveryPolicy) {
  // The capacity-safety property quantified over the whole registry:
  // random live/drained singleton/coflow mixes through every policy the
  // factory can build — rates finite, non-negative, per-link sums within
  // capacity. Same generator seed per policy, so all four see identical
  // instances.
  const ClusterConfig config = tiny_cluster();
  const LinkSet links(config);
  for (const std::string& name : net_policy_names()) {
    NetPolicy policy = NetPolicy::kTcp;
    ASSERT_TRUE(parse_net_policy(name, &policy)) << name;
    const auto allocator = coflow::make_allocator(policy);
    std::mt19937 rng(4242);
    for (int trial = 0; trial < 120; ++trial) {
      std::vector<Flow> flows;
      const int n = 1 + static_cast<int>(rng() % 12);
      for (int f = 0; f < n; ++f) {
        const int src = static_cast<int>(rng() % 8);
        int dst = static_cast<int>(rng() % 8);
        if (dst == src) dst = (dst + 1) % 8;
        const Bytes remaining =
            rng() % 5 == 0 ? 0.0 : 1.0 + static_cast<double>(rng() % 100);
        const double width = 1.0 + static_cast<double>(rng() % 3);
        const int coflow =
            rng() % 2 == 0 ? static_cast<int>(rng() % 3) : -1;
        flows.push_back(
            make_flow(links, config, f, src, dst, remaining, width, coflow));
      }
      allocator->allocate(flows, links);
      check_rates_sane(flows, links, /*require_progress=*/false);
    }
  }
}

// Flows whose coflow ids mix singletons (-1), small ids, simulator-style
// j*64+s ids and ids near INT_MAX; about a quarter are drained.
std::vector<Flow> mixed_flows(const LinkSet& links, const ClusterConfig& config,
                              std::mt19937& rng, int n) {
  std::vector<Flow> flows;
  for (int f = 0; f < n; ++f) {
    const int src = static_cast<int>(rng() % 8);
    int dst = static_cast<int>(rng() % 8);
    if (dst == src) dst = (dst + 1) % 8;
    int coflow = -1;
    switch (rng() % 4) {
      case 0:
        break;
      case 1:
        coflow = static_cast<int>(rng() % 4);
        break;
      case 2:
        coflow = static_cast<int>(rng() % 5) * 64 + static_cast<int>(rng() % 3);
        break;
      default:
        coflow = std::numeric_limits<int>::max() - static_cast<int>(rng() % 3);
    }
    const Bytes remaining =
        rng() % 4 == 0 ? 0.0 : 1.0 + static_cast<double>(rng() % 100);
    const double width = 1.0 + static_cast<double>(rng() % 3);
    flows.push_back(
        make_flow(links, config, f, src, dst, remaining, width, coflow));
  }
  return flows;
}

// The grouping oracle: sort (key, row) pairs, singletons keyed -(row)-1, and
// take each run's Γ as the running maximum of load / capacity after every
// flow-link addition. Also returns each run's final per-link bytes.
struct SortedGroup {
  long key = 0;
  std::vector<int> rows;
  double gamma = 0;
  std::map<int, double> bytes;
};

std::vector<SortedGroup> sorted_groups(const std::vector<Flow>& flows,
                                       const LinkSet& links) {
  std::vector<std::pair<long, int>> pairs;
  for (std::size_t f = 0; f < flows.size(); ++f) {
    const long key = flows[f].coflow >= 0 ? static_cast<long>(flows[f].coflow)
                                           : -static_cast<long>(f) - 1;
    pairs.emplace_back(key, static_cast<int>(f));
  }
  std::sort(pairs.begin(), pairs.end());
  std::vector<SortedGroup> groups;
  for (std::size_t i = 0; i < pairs.size();) {
    SortedGroup group;
    group.key = pairs[i].first;
    for (; i < pairs.size() && pairs[i].first == group.key; ++i) {
      const Flow& flow = flows[static_cast<std::size_t>(pairs[i].second)];
      group.rows.push_back(pairs[i].second);
      for (int p = 0; p < flow.path.count; ++p) {
        const int l = flow.path.links[static_cast<std::size_t>(p)];
        group.bytes[l] += flow.remaining;
        group.gamma =
            std::max(group.gamma, group.bytes[l] / links.capacity(l));
      }
    }
    groups.push_back(std::move(group));
  }
  return groups;
}

// Groups `table` with `scratch` and checks the result against the oracle
// over its live rows: runs, order, rows, Γ and per-link bytes, exactly.
// The oracle numbers the live rows 0, 1, ...; `live_rows` maps them back
// to table rows, which is monotone, so the order of singleton keys holds.
void expect_grouping_matches_oracle(FlowTable& table,
                                    net_detail::FillScratch& scratch,
                                    const LinkSet& links) {
  std::vector<Flow> live;
  std::vector<int> live_rows;
  for (std::size_t f = 0; f < table.size(); ++f) {
    if (!table.alive(f)) continue;
    live.push_back(table.row(f));
    live_rows.push_back(static_cast<int>(f));
  }
  const std::vector<SortedGroup> expected = sorted_groups(live, links);
  net_detail::build_coflow_groups(table, scratch, links);

  ASSERT_EQ(scratch.groups.size(), expected.size());
  for (std::size_t g = 0; g < expected.size(); ++g) {
    const net_detail::GroupRef& group = scratch.groups[g];
    std::vector<int> rows;
    for (int i : expected[g].rows) {
      rows.push_back(live_rows[static_cast<std::size_t>(i)]);
    }
    const long key =
        expected[g].key >= 0
            ? expected[g].key
            : -static_cast<long>(
                  live_rows[static_cast<std::size_t>(-expected[g].key - 1)]) -
                  1;
    EXPECT_EQ(group.key, key) << "group " << g;
    EXPECT_EQ(std::vector<int>(group.rows.begin(), group.rows.end()), rows)
        << "group " << g;
    EXPECT_EQ(group.gamma, expected[g].gamma) << "group " << g;
    std::map<int, double> bytes;
    for (int i = 0; i < group.load_count; ++i) {
      const net_detail::LinkLoad& load =
          scratch.group_loads[static_cast<std::size_t>(group.load_begin + i)];
      EXPECT_TRUE(bytes.emplace(load.link, load.bytes).second)
          << "link listed twice";
    }
    EXPECT_EQ(bytes, expected[g].bytes) << "group " << g;
  }
}

TEST(CoflowGrouping, MatchesSortedPairsOracle) {
  const ClusterConfig config = tiny_cluster();
  const LinkSet links(config);
  std::mt19937 rng(515);
  net_detail::FillScratch scratch;
  for (int trial = 0; trial < 300; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    FlowTable table = FlowTable::of(
        mixed_flows(links, config, rng, 1 + static_cast<int>(rng() % 40)));
    // One scratch across trials: leftovers of a pass must not leak.
    expect_grouping_matches_oracle(table, scratch, links);
  }
}

// The same oracle on one long-lived table whose coflow membership is kept
// across starts, retires (whole coflows among them) and compactions.
TEST(CoflowGrouping, LongLivedTableMatchesSortedPairsOracle) {
  const ClusterConfig config = tiny_cluster();
  const LinkSet links(config);
  std::mt19937 rng(516);
  net_detail::FillScratch scratch;
  FlowTable table;
  int next_id = 0;
  for (int step = 0; step < 400; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    for (Flow& flow :
         mixed_flows(links, config, rng, static_cast<int>(rng() % 6))) {
      flow.id = next_id++;
      table.push_back(flow);
    }
    const std::size_t retires = rng() % 7;
    for (std::size_t i = 0; i < retires && table.live() > 0; ++i) {
      std::size_t f = rng() % table.size();
      while (!table.alive(f)) f = (f + 1) % table.size();
      if (rng() % 3 == 0 && table.coflow[f] >= 0) {
        // The whole coflow goes at once.
        for (std::size_t g = 0; g < table.size(); ++g) {
          if (table.alive(g) && table.coflow[g] == table.coflow[f] && g != f) {
            table.retire(g);
          }
        }
      }
      table.retire(f);
    }
    if (step % 3 == 0) table.compact_if_sparse();
    expect_grouping_matches_oracle(table, scratch, links);
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_GE(table.compactions(), 5u);
}

TEST(AllocatorEdge, VectorAdapterMatchesNetworkRatesForEveryPolicy) {
  // The same allocation through a Network's own table and through the
  // std::vector<Flow> adapter must give the same rates, bit for bit. The
  // Network side reallocates over partially drained flows, after a flow of
  // a new coflow arrives (so the ordering policies refresh their order on
  // both sides).
  const ClusterConfig config = tiny_cluster();
  for (const std::string& name : net_policy_names()) {
    NetPolicy policy = NetPolicy::kTcp;
    ASSERT_TRUE(parse_net_policy(name, &policy)) << name;
    std::mt19937 rng(777);
    for (int trial = 0; trial < 60; ++trial) {
      Network net(config, coflow::make_allocator(policy));
      const LinkSet& links = net.links();
      const std::vector<Flow> drawn =
          mixed_flows(links, config, rng, 1 + static_cast<int>(rng() % 30));
      for (const Flow& flow : drawn) {
        const Bytes bytes = 8.0 + flow.total;
        const int dst = static_cast<int>(rng() % 8);
        if (rng() % 3 == 0) {
          net.start_fanin_flow(static_cast<int>(rng() % 2), dst, bytes,
                               flow.width, flow.coflow, 0);
        } else {
          int src = static_cast<int>(rng() % 8);
          if (src == dst) src = (src + 1) % 8;
          net.start_flow({src, dst, bytes, flow.width, flow.coflow, 0});
        }
      }
      net.advance(net.time_to_next_completion() * 0.5);
      net.start_flow({0, 5, 40.0, 1.0, 1000 + trial, 0});
      net.time_to_next_completion();
      const std::vector<Flow> rated =
          net.cancel_flows_if([](const Flow&) { return true; });

      std::vector<Flow> flows = rated;
      for (Flow& flow : flows) flow.rate = 0;
      coflow::make_allocator(policy)->allocate(flows, links);
      ASSERT_EQ(flows.size(), rated.size());
      for (std::size_t f = 0; f < flows.size(); ++f) {
        EXPECT_EQ(flows[f].rate, rated[f].rate)
            << name << " trial " << trial << " flow " << f;
      }
    }
  }
}

TEST(NetworkEdge, ZeroDtAdvanceSweepsWithoutMovingBytes) {
  // advance(0) must be a pure sweep: no byte movement, no completions for
  // live flows, and repeated calls cannot stall or corrupt the flow set.
  Network net(tiny_cluster(), std::make_unique<MaxMinFairAllocator>());
  net.start_flow({0, 1, 80, 1.0, -1, 0});
  EXPECT_TRUE(net.advance(0).empty());
  EXPECT_TRUE(net.advance(0).empty());
  EXPECT_EQ(net.active_flows(), 1);
  const Seconds horizon = net.time_to_next_completion();
  EXPECT_NEAR(horizon, 10.0, 1e-9);
  EXPECT_EQ(net.advance(horizon).size(), 1u);
  EXPECT_TRUE(net.idle());
}

TEST(NetworkEdge, NearCompleteFlowRetiresImmediately) {
  // Drive a flow to within the completion slack but not exactly to zero:
  // the next horizon must be 0 (not a tiny positive dt) and a zero-dt
  // advance must retire it — the "finished but unretired" stall guard.
  Network net(tiny_cluster(), std::make_unique<MaxMinFairAllocator>());
  net.start_flow({0, 1, 80, 1.0, -1, 7});
  const Seconds horizon = net.time_to_next_completion();
  // Stop 1e-4 bytes short of completion (slack is 1e-3 bytes; rate 8 B/s).
  const auto done = net.advance(horizon - 1e-4 / 8.0);
  ASSERT_EQ(done.size(), 1u);  // already within slack: swept on this advance
  EXPECT_EQ(done[0].tag, 7u);
  EXPECT_TRUE(net.idle());
}

}  // namespace
}  // namespace corral
