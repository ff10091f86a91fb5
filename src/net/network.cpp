#include "net/network.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "util/check.h"

namespace corral {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
// Flows are considered complete when fewer than this many bytes remain;
// guards against floating-point residue after an exact-horizon advance.
constexpr Bytes kCompletionSlack = 1e-3;

}  // namespace

Network::Network(const ClusterConfig& config,
                 std::unique_ptr<RateAllocator> allocator)
    : config_(config), links_(config), allocator_(std::move(allocator)) {
  require(allocator_ != nullptr, "Network: allocator must not be null");
  link_bytes_.assign(static_cast<std::size_t>(links_.count()), 0.0);
}

int Network::add_flow(Flow flow) {
  flow.id = next_flow_id_++;
  flows_.push_back(flow);
  ++counters_.rows_started;
  dirty_ = true;
  return flow.id;
}

int Network::start_flow(const FlowDesc& desc) {
  require(desc.bytes > 0, "start_flow: bytes must be positive");
  require(desc.src_machine >= 0 &&
              desc.src_machine < config_.total_machines(),
          "start_flow: src out of range");
  require(desc.dst_machine >= 0 &&
              desc.dst_machine < config_.total_machines(),
          "start_flow: dst out of range");
  require(desc.src_machine != desc.dst_machine,
          "start_flow: src and dst must differ (local transfers are free)");
  require(desc.width > 0, "start_flow: width must be positive");

  Flow flow;
  flow.total = flow.remaining = desc.bytes;
  flow.width = desc.width;
  flow.coflow = desc.coflow;
  flow.tag = desc.tag;
  const int src_rack = desc.src_machine / config_.machines_per_rack;
  const int dst_rack = desc.dst_machine / config_.machines_per_rack;
  flow.cross_rack = src_rack != dst_rack;
  flow.path.add(links_.host_up(desc.src_machine));
  if (flow.cross_rack) {
    flow.path.add(links_.rack_up(src_rack));
    flow.path.add(links_.rack_down(dst_rack));
  }
  flow.path.add(links_.host_down(desc.dst_machine));
  return add_flow(flow);
}

int Network::start_fanin_flow(int src_rack, int dst_machine, Bytes bytes,
                              double width, int coflow, std::uint64_t tag) {
  require(bytes > 0, "start_fanin_flow: bytes must be positive");
  require(src_rack >= 0 && src_rack < config_.racks,
          "start_fanin_flow: src rack out of range");
  require(dst_machine >= 0 && dst_machine < config_.total_machines(),
          "start_fanin_flow: dst out of range");
  require(width > 0, "start_fanin_flow: width must be positive");

  Flow flow;
  flow.total = flow.remaining = bytes;
  flow.width = width;
  flow.coflow = coflow;
  flow.tag = tag;
  const int dst_rack = dst_machine / config_.machines_per_rack;
  flow.cross_rack = src_rack != dst_rack;
  if (flow.cross_rack) {
    flow.path.add(links_.rack_up(src_rack));
    flow.path.add(links_.rack_down(dst_rack));
  }
  flow.path.add(links_.host_down(dst_machine));
  return add_flow(flow);
}

int Network::start_storage_flow(int dst_machine, Bytes bytes, double width,
                                int coflow, std::uint64_t tag) {
  require(bytes > 0, "start_storage_flow: bytes must be positive");
  require(dst_machine >= 0 && dst_machine < config_.total_machines(),
          "start_storage_flow: dst out of range");
  require(width > 0, "start_storage_flow: width must be positive");

  Flow flow;
  flow.total = flow.remaining = bytes;
  flow.width = width;
  flow.coflow = coflow;
  flow.tag = tag;
  flow.cross_rack = true;  // storage reads transit the core
  flow.path.add(links_.storage_link());
  flow.path.add(links_.rack_down(dst_machine / config_.machines_per_rack));
  flow.path.add(links_.host_down(dst_machine));
  return add_flow(flow);
}

void Network::set_storage_bandwidth(BytesPerSec bandwidth) {
  links_.set_storage_bandwidth(bandwidth);
  dirty_ = true;
}


std::vector<Flow> Network::cancel_flows_if(
    const std::function<bool(const Flow&)>& predicate) {
  require(predicate != nullptr, "cancel_flows_if: predicate required");
  std::vector<Flow> cancelled;
  for (std::size_t f = 0; f < flows_.size(); ++f) {
    if (!flows_.alive(f)) continue;
    Flow flow = flows_.row(f);
    if (!predicate(flow)) continue;
    cancelled.push_back(std::move(flow));
    flows_.retire(f);
  }
  if (!cancelled.empty()) {
    counters_.rows_retired += cancelled.size();
    flows_.compact_if_sparse();
    dirty_ = true;
  }
  return cancelled;
}

void Network::recompute_if_dirty() {
  if (!dirty_) return;
  allocator_->allocate(flows_, links_);
  ++counters_.reallocations;
  dirty_ = false;
}

Seconds Network::time_to_next_completion() {
  if (idle()) return kInf;
  recompute_if_dirty();
  // Tombstones (remaining +infinity, rate 0) drop out of both branches.
  Seconds horizon = kInf;
  for (std::size_t f = 0; f < flows_.size(); ++f) {
    const Bytes remaining = flows_.remaining[f];
    if (remaining <= kCompletionSlack) {
      // Finished but not yet retired (e.g. injected with zero bytes left):
      // completes immediately — the next advance() sweeps it out even when
      // no time passes, so such a flow can never stall the simulation.
      horizon = 0;
    } else if (flows_.rate[f] > 0) {
      horizon = std::min(horizon, remaining / flows_.rate[f]);
    }
  }
  ensure(horizon < kInf,
         "Network: active flows but no progress (allocator starved a flow)");
  return horizon;
}

const std::vector<CompletedFlow>& Network::advance(Seconds dt) {
  require(dt >= 0, "advance: dt must be non-negative");
  completed_.clear();  // reused buffer: valid until the next advance()
  ++counters_.advances;
  if (idle()) return completed_;
  recompute_if_dirty();

  // One walk moves every flow and notes the rows that finished, as a
  // branch-free append. Tombstones move nothing (rate 0, an empty path)
  // and never finish (remaining +infinity). With dt == 0 every flow moves
  // zero bytes, which leaves every sum as it was; the walk still runs, so
  // already-finished flows retire instead of spinning the event loop at a
  // zero horizon.
  finished_.resize(flows_.size());
  std::size_t finished = 0;
  for (std::size_t f = 0; f < flows_.size(); ++f) {
    const Bytes moved = std::min(flows_.remaining[f], flows_.rate[f] * dt);
    flows_.remaining[f] -= moved;
    if (flows_.cross_rack[f]) cross_rack_bytes_ += moved;
    const int* path = flows_.path(f);
    for (int i = 0; i < flows_.path_count[f]; ++i) {
      link_bytes_[static_cast<std::size_t>(path[i])] += moved;
    }
    finished_[finished] = static_cast<int>(f);
    finished += flows_.remaining[f] <= kCompletionSlack ? 1 : 0;
  }
  // Retire everything that finished in this step; symmetric shuffles
  // complete in groups, so a single recompute serves many completions.
  for (std::size_t i = 0; i < finished; ++i) {
    const auto f = static_cast<std::size_t>(finished_[i]);
    completed_.push_back(CompletedFlow{flows_.id[f], flows_.tag[f],
                                       flows_.coflow[f], flows_.total[f],
                                       flows_.cross_rack[f] != 0});
    flows_.retire(f);
  }
  if (!completed_.empty()) {
    counters_.rows_retired += completed_.size();
    flows_.compact_if_sparse();
    dirty_ = true;
  }
  return completed_;
}

NetworkCounters Network::counters() const {
  NetworkCounters counters = counters_;
  counters.compactions = flows_.compactions();
  counters.entries_resummed = flows_.entries_resummed();
  counters.coflow_rows_relisted = flows_.coflow_rows_relisted();
  return counters;
}

void Network::set_background_fraction(double fraction) {
  links_.set_background_fraction(fraction);
  dirty_ = true;
}

}  // namespace corral
