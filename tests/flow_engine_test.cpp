// The incremental flow engine: Network's FlowTable keeps per-link
// incidence across allocations and retires rows by tombstone. These tests
// check that its rates match a from-scratch table bit for bit, that its
// work scales with the flows that changed, and, at the paper's
// 2000-machine scale (Fig 14), pin W1 shuffle coflows drained under every
// rate allocator by digest.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "coflow/coflow.h"
#include "net/network.h"
#include "util/hash.h"
#include "util/units.h"
#include "util/rng.h"
#include "workload/workloads.h"

namespace corral {
namespace {

// FNV-1a over the IEEE-754 bit images of `values`, continuing from `state`.
std::uint64_t hash_doubles(const std::vector<double>& values,
                           std::uint64_t state) {
  return fnv1a(std::string_view(reinterpret_cast<const char*>(values.data()),
                                values.size() * sizeof(double)),
               state);
}

struct ShuffleFlow {
  Seconds arrival = 0;
  int src_rack = 0;
  int dst_machine = 0;
  Bytes bytes = 0;
  double width = 1;
  int coflow = -1;
};

// One fan-in flow per (map rack, reducer) of each job's first-stage
// shuffle, as the simulator aggregates fetches; its width is the number of
// maps it carries. Maps land on uniformly random racks and reducers on
// uniformly random machines. Sorted by arrival (stable).
std::vector<ShuffleFlow> fig14_shuffles(const ClusterConfig& cluster,
                                        int num_jobs, std::uint64_t seed) {
  Rng rng(seed);
  W1Config config;
  config.num_jobs = num_jobs;
  config.task_scale = 0.1;
  std::vector<JobSpec> jobs = make_w1(config, rng);
  assign_uniform_arrivals(jobs, 60, rng);
  std::vector<ShuffleFlow> flows;
  std::vector<int> maps_on_rack(static_cast<std::size_t>(cluster.racks));
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const MapReduceSpec& stage = jobs[j].stages.front();
    if (stage.shuffle_bytes <= 0) continue;
    std::fill(maps_on_rack.begin(), maps_on_rack.end(), 0);
    for (int m = 0; m < stage.num_maps; ++m) {
      ++maps_on_rack[static_cast<std::size_t>(
          rng.uniform_int(0, cluster.racks - 1))];
    }
    for (int r = 0; r < stage.num_reduces; ++r) {
      const int reducer = rng.uniform_int(0, cluster.total_machines() - 1);
      for (int rack = 0; rack < cluster.racks; ++rack) {
        const int maps = maps_on_rack[static_cast<std::size_t>(rack)];
        if (maps == 0) continue;
        flows.push_back(ShuffleFlow{
            jobs[j].arrival, rack, reducer,
            stage.shuffle_bytes * maps / stage.num_maps / stage.num_reduces,
            static_cast<double>(maps), static_cast<int>(j)});
      }
    }
  }
  std::stable_sort(flows.begin(), flows.end(),
                   [](const ShuffleFlow& a, const ShuffleFlow& b) {
                     return a.arrival < b.arrival;
                   });
  return flows;
}

// Drains `flows` the way the simulator steps the network: start every flow
// that has arrived, advance to the next arrival or completion (at least one
// batching quantum, so nearby completions share a reallocation), repeat.
// Returns hex16 of the coflow finish times followed by link_bytes().
std::string drain_digest(const ClusterConfig& cluster,
                         const std::vector<ShuffleFlow>& flows, int num_jobs,
                         NetPolicy policy) {
  constexpr Seconds kQuantum = 0.25;
  constexpr Seconds kNever = 1e300;
  Network network(cluster, coflow::make_allocator(policy));
  std::vector<Seconds> coflow_finish(static_cast<std::size_t>(num_jobs), 0.0);
  Seconds now = 0;
  std::size_t next = 0;
  while (next < flows.size() || !network.idle()) {
    for (; next < flows.size() && flows[next].arrival <= now; ++next) {
      const ShuffleFlow& flow = flows[next];
      network.start_fanin_flow(flow.src_rack, flow.dst_machine, flow.bytes,
                               flow.width, flow.coflow, next);
    }
    Seconds step = next < flows.size() ? flows[next].arrival - now : kNever;
    if (!network.idle()) {
      step = std::min(step,
                      std::max(network.time_to_next_completion(), kQuantum));
    }
    now += step;
    for (const CompletedFlow& flow : network.advance(step)) {
      coflow_finish[static_cast<std::size_t>(flow.coflow)] = now;
    }
  }
  return hex16(hash_doubles(network.link_bytes(),
                            hash_doubles(coflow_finish, kFnvOffsetBasis)));
}

// Flow ids of `rows` of `table`.
std::vector<int> ids_of(const FlowTable& table, std::span<const int> rows) {
  std::vector<int> ids;
  for (int f : rows) ids.push_back(table.id[static_cast<std::size_t>(f)]);
  return ids;
}

// Rebuilds a table from the network's live rows and allocates it with
// `reference`, which must have seen the same sequence of allocations as the
// network's own allocator (lp-order and sincronia cache their coflow order
// between allocations). Every live rate must match bit for bit, and so must
// the state the allocation read: the order of the active links, each
// link's flows and its summed width, the live coflow keys in order, each
// coflow's flows, and the flows in no coflow. No link may carry more than
// its capacity.
void expect_matches_from_scratch(const Network& net,
                                 RateAllocator& reference) {
  const FlowTable& table = net.flows();
  std::vector<Flow> live;
  for (std::size_t f = 0; f < table.size(); ++f) {
    if (table.alive(f)) live.push_back(table.row(f));
  }
  ASSERT_EQ(live.size(), static_cast<std::size_t>(net.active_flows()));
  FlowTable fresh = FlowTable::of(live);
  reference.allocate(fresh, net.links());
  std::vector<double> load(static_cast<std::size_t>(net.links().count()));
  for (std::size_t i = 0; i < live.size(); ++i) {
    EXPECT_EQ(std::memcmp(&fresh.rate[i], &live[i].rate, sizeof(double)), 0)
        << "flow " << live[i].id << ": " << live[i].rate << " vs "
        << fresh.rate[i];
    for (int p = 0; p < live[i].path.count; ++p) {
      load[static_cast<std::size_t>(live[i].path.links[p])] += live[i].rate;
    }
  }
  for (int l = 0; l < net.links().count(); ++l) {
    EXPECT_LE(load[static_cast<std::size_t>(l)],
              net.links().capacity(l) * (1 + 1e-9))
        << "link " << l;
  }
  ASSERT_EQ(table.active_links(), fresh.active_links());
  for (int l : fresh.active_links()) {
    EXPECT_EQ(ids_of(table, table.link_rows(l)),
              ids_of(fresh, fresh.link_rows(l)))
        << "link " << l;
    const double width = table.link_width(l);
    const double fresh_width = fresh.link_width(l);
    EXPECT_EQ(std::memcmp(&width, &fresh_width, sizeof(double)), 0)
        << "link " << l;
  }
  ASSERT_EQ(table.coflows(), fresh.coflows());
  for (std::size_t k = 0; k < fresh.coflows(); ++k) {
    ASSERT_EQ(table.coflow_key(k), fresh.coflow_key(k)) << "coflow " << k;
    EXPECT_EQ(ids_of(table, table.coflow_rows(k)),
              ids_of(fresh, fresh.coflow_rows(k)))
        << "coflow " << fresh.coflow_key(k);
  }
  EXPECT_EQ(ids_of(table, table.singleton_rows()),
            ids_of(fresh, fresh.singleton_rows()));
}

// Drives a network through a seeded random mix of flow starts (machine,
// fan-in and storage), advances (zero, partial, to within a hair of a
// completion, and to the next completion), cancellations, background
// changes and bursts, checking every reallocation against a from-scratch
// table. A burst cancels flows and starts several before the next
// reallocation: one coflow loses all of its rows and reopens under the same
// key, others lose some rows and gain one, and new coflows open at once,
// before a refresh has placed them.
void drive_against_scratch(const ClusterConfig& cluster, NetPolicy policy,
                           std::uint64_t seed, int steps) {
  SCOPED_TRACE(std::string(to_string(policy)) + " seed " +
               std::to_string(seed));
  Network net(cluster, coflow::make_allocator(policy));
  net.set_storage_bandwidth(2 * cluster.nic_bandwidth);
  std::unique_ptr<RateAllocator> reference = coflow::make_allocator(policy);
  Rng rng(seed);
  const int machines = cluster.total_machines();
  std::uint64_t tag = 0;
  int checked = 0;
  const auto start_flow = [&](Bytes bytes, double width, int coflow) {
    const int src = rng.uniform_int(0, machines - 1);
    const int dst = (src + rng.uniform_int(1, machines - 1)) % machines;
    net.start_flow({src, dst, bytes, width, coflow, tag++});
  };
  for (int step = 0; step < steps; ++step) {
    const Bytes bytes = rng.uniform(1.0, 200.0) * kMB;
    const double width = 1 + rng.uniform_int(0, 3);
    const int coflow = rng.uniform_int(-1, 5);
    const int op = rng.uniform_int(0, 104);
    if (op < 30) {
      start_flow(bytes, width, coflow);
    } else if (op < 48) {
      net.start_fanin_flow(rng.uniform_int(0, cluster.racks - 1),
                           rng.uniform_int(0, machines - 1), bytes, width,
                           coflow, tag++);
    } else if (op < 56) {
      net.start_storage_flow(rng.uniform_int(0, machines - 1), bytes, width,
                             coflow, tag++);
    } else if (op < 88) {
      const Seconds horizon = net.time_to_next_completion();
      if (horizon < 1e300) {
        const double shares[] = {0.0, rng.uniform(0.0, 1.0), 1 - 1e-12, 1.0};
        net.advance(horizon * shares[rng.uniform_int(0, 3)]);
      }
    } else if (op < 95) {
      const auto modulus = static_cast<std::uint64_t>(rng.uniform_int(2, 9));
      const auto residue = static_cast<std::uint64_t>(rng.uniform_int(0, 8));
      net.cancel_flows_if(
          [&](const Flow& flow) { return flow.tag % modulus == residue; });
    } else if (op < 100) {
      net.set_background_fraction(rng.uniform(0.0, 0.8));
    } else {
      const int reopened = rng.uniform_int(0, 11);
      net.cancel_flows_if([&](const Flow& flow) {
        return flow.coflow == reopened || flow.tag % 3 == 0;
      });
      start_flow(bytes, width, reopened);
      // Keys above 5 are rare, so most of them open a new coflow.
      for (int i = rng.uniform_int(2, 5); i > 0; --i) {
        start_flow(bytes, width, rng.uniform_int(-1, 11));
      }
    }
    const std::uint64_t before = net.counters().reallocations;
    net.time_to_next_completion();  // reallocates if anything changed
    if (net.counters().reallocations != before) {
      expect_matches_from_scratch(net, *reference);
      ++checked;
    }
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_GT(checked, steps / 2);
  EXPECT_GE(net.counters().compactions, 5u);
}

ClusterConfig small_cluster() {
  ClusterConfig config;
  config.racks = 3;
  config.machines_per_rack = 4;
  config.nic_bandwidth = 1 * kGbps;
  config.oversubscription = 2.0;
  return config;
}

TEST(FlowEngine, IncrementalMatchesFromScratch) {
  for (NetPolicy policy : {NetPolicy::kTcp, NetPolicy::kVarys,
                           NetPolicy::kLpOrder, NetPolicy::kSincronia}) {
    for (std::uint64_t seed : {1, 2}) {
      drive_against_scratch(small_cluster(), policy, seed, 600);
    }
    drive_against_scratch(ClusterConfig::paper_simulation(), policy, 3, 600);
  }
}

// N steady flows on a one-rack cluster, each sharing its NIC links with
// exactly one other flow, lose one flow per step. A from-scratch engine
// would sum every remaining flow's links on each reallocation; this one
// re-sums only the links the retired flow crossed.
TEST(FlowEngine, ResumsScaleWithRetiredLinks) {
  constexpr int kMachines = 64;
  constexpr int kFlows = 2 * kMachines;
  ClusterConfig cluster;
  cluster.racks = 1;
  cluster.machines_per_rack = kMachines;
  Network net(cluster, std::make_unique<MaxMinFairAllocator>());
  // Flow i leaves machine i % M for machine (i + 1 + i / M) % M: every
  // host_up and every host_down carries two flows.
  for (int i = 0; i < kFlows; ++i) {
    net.start_flow({i % kMachines, (i + 1 + i / kMachines) % kMachines,
                    100 * kMB, 1.0, -1, static_cast<std::uint64_t>(i)});
  }
  net.time_to_next_completion();
  ASSERT_EQ(net.counters().reallocations, 1u);

  std::uint64_t total_resummed = 0;
  for (int i = 0; i < kFlows; ++i) {
    const NetworkCounters before = net.counters();
    const std::vector<Flow> gone = net.cancel_flows_if([&](const Flow& flow) {
      return flow.tag == static_cast<std::uint64_t>(i);
    });
    ASSERT_EQ(gone.size(), 1u);
    net.time_to_next_completion();
    const NetworkCounters after = net.counters();
    EXPECT_EQ(after.reallocations - before.reallocations, net.idle() ? 0u : 1u);
    // Exactly the live rows left on the retired flow's links.
    std::uint64_t expected = 0;
    const FlowTable& table = net.flows();
    for (int p = 0; p < gone[0].path.count; ++p) {
      for (std::size_t f = 0; f < table.size(); ++f) {
        if (!table.alive(f)) continue;
        const int* path = table.path(f);
        expected += static_cast<std::uint64_t>(
            std::count(path, path + table.path_count[f], gone[0].path.links[p]));
      }
    }
    const std::uint64_t resummed =
        after.entries_resummed - before.entries_resummed;
    EXPECT_EQ(resummed, expected) << "step " << i;
    EXPECT_LE(resummed, 2u) << "step " << i;
    total_resummed += resummed;
  }
  EXPECT_LE(total_resummed, static_cast<std::uint64_t>(kFlows));
  const NetworkCounters done = net.counters();
  EXPECT_EQ(done.rows_started, static_cast<std::uint64_t>(kFlows));
  EXPECT_EQ(done.rows_retired, static_cast<std::uint64_t>(kFlows));
  EXPECT_GE(done.compactions, 3u);
  EXPECT_EQ(done.advances, 0u);
  EXPECT_TRUE(net.idle());
}

// K coflows of M flows each on a one-rack cluster, plus a few flows in no
// coflow, lose one coflow flow per step. A from-scratch grouping would
// list every live flow on each reallocation; this engine lists again only
// the coflow that lost a flow.
TEST(FlowEngine, RelistsScaleWithCoflowsThatLostARow) {
  constexpr int kMachines = 32;
  constexpr int kCoflows = 8;
  constexpr int kPerCoflow = 12;
  constexpr int kSingletons = 4;
  ClusterConfig cluster;
  cluster.racks = 1;
  cluster.machines_per_rack = kMachines;
  Network net(cluster, std::make_unique<VarysAllocator>());
  // Coflows interleave in flow-id order: flow i belongs to coflow
  // i % kCoflows, and tag i names it.
  for (int i = 0; i < kCoflows * kPerCoflow; ++i) {
    net.start_flow({i % kMachines, (i + 1 + i / kMachines) % kMachines,
                    100 * kMB, 1.0, i % kCoflows,
                    static_cast<std::uint64_t>(i)});
  }
  for (int i = 0; i < kSingletons; ++i) {
    net.start_flow({i, (i + 2) % kMachines, 300 * kMB, 1.0, -1,
                    static_cast<std::uint64_t>(1000 + i)});
  }
  net.time_to_next_completion();
  ASSERT_EQ(net.counters().reallocations, 1u);
  ASSERT_EQ(net.flows().coflows(), static_cast<std::size_t>(kCoflows));

  std::uint64_t total_relisted = 0;
  // Cancel coflow flows in id order: every step shrinks a different
  // coflow, and each coflow loses its last flow in the final round.
  for (int i = 0; i < kCoflows * kPerCoflow; ++i) {
    const NetworkCounters before = net.counters();
    const std::vector<Flow> gone = net.cancel_flows_if([&](const Flow& flow) {
      return flow.tag == static_cast<std::uint64_t>(i);
    });
    ASSERT_EQ(gone.size(), 1u);
    net.time_to_next_completion();
    const NetworkCounters after = net.counters();
    EXPECT_EQ(after.reallocations - before.reallocations, 1u);
    // Exactly the live flows left in the cancelled flow's coflow.
    std::uint64_t expected = 0;
    const FlowTable& table = net.flows();
    for (std::size_t f = 0; f < table.size(); ++f) {
      if (table.alive(f) && table.coflow[f] == gone[0].coflow) ++expected;
    }
    const std::uint64_t relisted =
        after.coflow_rows_relisted - before.coflow_rows_relisted;
    EXPECT_EQ(relisted, expected) << "step " << i;
    EXPECT_LT(relisted, static_cast<std::uint64_t>(kPerCoflow)) << "step " << i;
    total_relisted += relisted;
  }
  // Each coflow is listed again once per lost flow, at a shrinking size.
  EXPECT_EQ(total_relisted, static_cast<std::uint64_t>(
                                kCoflows * kPerCoflow * (kPerCoflow - 1) / 2));
  EXPECT_EQ(net.flows().coflows(), 0u);
  EXPECT_EQ(net.flows().singleton_rows().size(),
            static_cast<std::size_t>(kSingletons));
  EXPECT_GE(net.counters().compactions, 2u);
}

TEST(FabricDigest, Fig14SliceAllPolicies) {
  constexpr int kJobs = 28;
  ClusterConfig cluster = ClusterConfig::paper_simulation();
  cluster.background_core_fraction = 0.5;
  const std::vector<ShuffleFlow> flows = fig14_shuffles(cluster, kJobs, 2);
  ASSERT_EQ(flows.size(), 35551u);
  EXPECT_EQ(drain_digest(cluster, flows, kJobs, NetPolicy::kTcp),
            "0866367e72b1e80b");
  EXPECT_EQ(drain_digest(cluster, flows, kJobs, NetPolicy::kVarys),
            "8a8ed82e11b59701");
  EXPECT_EQ(drain_digest(cluster, flows, kJobs, NetPolicy::kLpOrder),
            "0812a1a82f93d6f1");
  EXPECT_EQ(drain_digest(cluster, flows, kJobs, NetPolicy::kSincronia),
            "28079478936735be");
}

}  // namespace
}  // namespace corral
