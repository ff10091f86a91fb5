#include "net/allocator.h"

#include <algorithm>
#include <cstddef>
#include <utility>

#include "net/fill.h"
#include "util/check.h"

namespace corral {

using net_detail::FillScratch;
using net_detail::GroupRef;
using net_detail::thread_scratch;

std::string_view to_string(NetPolicy policy) {
  switch (policy) {
    case NetPolicy::kTcp:
      return "tcp";
    case NetPolicy::kVarys:
      return "varys";
    case NetPolicy::kLpOrder:
      return "lp-order";
    case NetPolicy::kSincronia:
      return "sincronia";
  }
  return "unknown";
}

bool parse_net_policy(std::string_view text, NetPolicy* policy) {
  if (text == "tcp") {
    *policy = NetPolicy::kTcp;
  } else if (text == "varys") {
    *policy = NetPolicy::kVarys;
  } else if (text == "lp-order") {
    *policy = NetPolicy::kLpOrder;
  } else if (text == "sincronia") {
    *policy = NetPolicy::kSincronia;
  } else {
    return false;
  }
  return true;
}

const std::vector<std::string>& net_policy_names() {
  static const std::vector<std::string> names = {"tcp", "varys", "lp-order",
                                                 "sincronia"};
  return names;
}

void FlowPath::add(int link) {
  require(count < static_cast<int>(links.size()), "FlowPath: too many links");
  links[static_cast<std::size_t>(count++)] = link;
}

void FlowTable::push_back(const Flow& flow) {
  ensure(flow.path.count > 0, "allocator: flow with empty path");
  id.push_back(flow.id);
  tag.push_back(flow.tag);
  coflow.push_back(flow.coflow);
  total.push_back(flow.total);
  remaining.push_back(flow.remaining);
  width.push_back(flow.width);
  rate.push_back(flow.rate);
  cross_rack.push_back(flow.cross_rack ? 1 : 0);
  path_links.insert(path_links.end(), flow.path.links.begin(),
                    flow.path.links.end());
  path_count.push_back(flow.path.count);
}

Flow FlowTable::row(std::size_t f) const {
  Flow flow;
  flow.id = id[f];
  flow.tag = tag[f];
  flow.coflow = coflow[f];
  flow.total = total[f];
  flow.remaining = remaining[f];
  flow.width = width[f];
  flow.rate = rate[f];
  flow.cross_rack = cross_rack[f] != 0;
  std::copy_n(path(f), kMaxPathLinks, flow.path.links.begin());
  flow.path.count = path_count[f];
  return flow;
}

void FlowTable::resize(std::size_t n) {
  id.resize(n);
  tag.resize(n);
  coflow.resize(n);
  total.resize(n);
  remaining.resize(n);
  width.resize(n);
  rate.resize(n);
  cross_rack.resize(n);
  path_links.resize(n * kMaxPathLinks);
  path_count.resize(n);
}

FlowTable FlowTable::of(const std::vector<Flow>& flows) {
  FlowTable table;
  for (const Flow& flow : flows) table.push_back(flow);
  return table;
}

void RateAllocator::allocate(std::vector<Flow>& flows, const LinkSet& links) {
  FlowTable table = FlowTable::of(flows);
  allocate(table, links);
  for (std::size_t f = 0; f < flows.size(); ++f) flows[f].rate = table.rate[f];
}

void MaxMinFairAllocator::allocate(FlowTable& flows, const LinkSet& links) {
  if (flows.empty()) return;
  FillScratch& scratch = thread_scratch();
  std::fill(flows.rate.begin(), flows.rate.end(), 0.0);
  const std::vector<double>& capacities = links.capacities();
  scratch.residual.assign(capacities.begin(), capacities.end());
  const int rounds =
      net_detail::progressive_fill(flows, scratch, capacities.size());
  if (trace_.at(obs::TraceLevel::kFlows)) {
    trace_.counter(obs::TraceTrack::kNet, "maxmin.fill_rounds", 0, trace_now(),
                   rounds);
    trace_.counter(obs::TraceTrack::kNet, "maxmin.active_flows", 0,
                   trace_now(), static_cast<double>(flows.size()));
  }
}

void VarysAllocator::allocate(FlowTable& flows, const LinkSet& links) {
  if (flows.empty()) return;
  FillScratch& scratch = thread_scratch();
  std::fill(flows.rate.begin(), flows.rate.end(), 0.0);
  net_detail::build_coflow_groups(flows, scratch, links);

  // Smallest effective bottleneck first; ties broken by coflow key so the
  // ordering (and the reorder trace below) is stable.
  std::sort(scratch.groups.begin(), scratch.groups.end(),
            [](const GroupRef& a, const GroupRef& b) {
              return a.gamma != b.gamma ? a.gamma < b.gamma : a.key < b.key;
            });

  if (trace_.at(obs::TraceLevel::kFlows)) {
    // A "reorder" is a priority inversion versus the previous allocation:
    // the relative SEBF order of two surviving coflows flipped.
    std::vector<long> order;
    order.reserve(scratch.groups.size());
    for (const GroupRef& group : scratch.groups) {
      if (group.key >= 0) order.push_back(group.key);  // real coflows only
    }
    bool inverted = false;
    std::vector<long> previous;
    for (long key : last_order_) {
      const auto it = std::find(order.begin(), order.end(), key);
      if (it != order.end()) {
        previous.push_back(static_cast<long>(it - order.begin()));
      }
    }
    for (std::size_t i = 1; i < previous.size(); ++i) {
      if (previous[i] < previous[i - 1]) {
        inverted = true;
        break;
      }
    }
    if (inverted) ++reorders_;
    last_order_ = std::move(order);
    trace_.instant(obs::TraceTrack::kNet, "sebf", "net", 0, trace_now(),
                   {obs::arg("coflows", static_cast<double>(last_order_.size())),
                    obs::arg("groups", static_cast<double>(scratch.groups.size())),
                    obs::arg("reordered", inverted ? 1.0 : 0.0)});
    trace_.counter(obs::TraceTrack::kNet, "varys.reorders", 0, trace_now(),
                   static_cast<double>(reorders_));
  }

  // MADD in SEBF order, then work conservation: distribute leftover capacity
  // max-min across all flows on top of the MADD rates.
  net_detail::madd_in_group_order(flows, scratch, links);
  net_detail::progressive_fill(flows, scratch,
                               static_cast<std::size_t>(links.count()));
}

}  // namespace corral
