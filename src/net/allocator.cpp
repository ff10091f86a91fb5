#include "net/allocator.h"

#include <algorithm>
#include <array>
#include <cstddef>
#include <limits>
#include <utility>

#include "net/fill.h"
#include "util/check.h"

namespace corral {

using net_detail::FillScratch;
using net_detail::GroupRef;
using net_detail::thread_scratch;

// Flag spellings, indexed by NetPolicy's value.
constexpr std::array<std::string_view, 4> kNetPolicyNames = {
    "tcp", "varys", "lp-order", "sincronia"};
static_assert(kNetPolicyNames.size() ==
              static_cast<std::size_t>(NetPolicy::kSincronia) + 1);

std::string_view to_string(NetPolicy policy) {
  const auto index = static_cast<std::size_t>(policy);
  return index < kNetPolicyNames.size() ? kNetPolicyNames[index] : "unknown";
}

bool parse_net_policy(std::string_view text, NetPolicy* policy) {
  const auto it =
      std::find(kNetPolicyNames.begin(), kNetPolicyNames.end(), text);
  if (it == kNetPolicyNames.end()) return false;
  *policy = static_cast<NetPolicy>(it - kNetPolicyNames.begin());
  return true;
}

const std::vector<std::string>& net_policy_names() {
  static const std::vector<std::string> names(kNetPolicyNames.begin(),
                                              kNetPolicyNames.end());
  return names;
}

void FlowPath::add(int link) {
  require(count < static_cast<int>(links.size()), "FlowPath: too many links");
  links[static_cast<std::size_t>(count++)] = link;
}

namespace {

// compact_if_sparse() sweeps once more than 1/kSparseDivisor of the rows
// are tombstones.
constexpr std::size_t kSparseDivisor = 4;
// Entries in a list's first slot of a row pool.
constexpr int kMinSlot = 4;
// Rows a table can hold, so that row * kMaxPathLinks fits an int.
constexpr std::size_t kMaxRows = std::numeric_limits<int>::max() / kMaxPathLinks;

// Appends `row` to the list `slot` keeps in `pool` (see FlowTable::RowSlot).
template <typename Slot>
void append_row(std::vector<int>& pool, Slot& slot, int row) {
  if (slot.count == slot.capacity) {
    const int capacity = std::max(kMinSlot, 2 * slot.capacity);
    const std::size_t end = pool.size();
    if (slot.capacity > 0 &&
        static_cast<std::size_t>(slot.begin + slot.capacity) == end) {
      pool.resize(end + static_cast<std::size_t>(capacity - slot.capacity));
    } else {
      pool.resize(end + static_cast<std::size_t>(capacity));
      std::copy_n(pool.begin() + slot.begin, slot.count,
                  pool.begin() + static_cast<std::ptrdiff_t>(end));
      slot.begin = static_cast<int>(end);
    }
    slot.capacity = capacity;
  }
  pool[static_cast<std::size_t>(slot.begin + slot.count++)] = row;
}

// Renumbers the lists of `slots[s]` for every s in `order` through
// `new_row` while packing `pool`: the lists move down the pool in pool
// order, so a slot is never written before it has been read, and keep some
// headroom within their old size; space no listed slot holds is dropped.
// Renumbering is monotone, so each list stays ascending. Empties `order`.
template <typename Slots>
void pack_slots(std::vector<int>& pool, Slots& slots, std::vector<int>& order,
                const std::vector<int>& new_row) {
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return slots[static_cast<std::size_t>(a)].begin <
           slots[static_cast<std::size_t>(b)].begin;
  });
  int end = 0;
  for (int s : order) {
    auto& slot = slots[static_cast<std::size_t>(s)];
    for (int i = 0; i < slot.count; ++i) {
      pool[static_cast<std::size_t>(end + i)] = new_row[static_cast<std::size_t>(
          pool[static_cast<std::size_t>(slot.begin + i)])];
    }
    slot.begin = end;
    slot.capacity =
        std::min(slot.capacity, std::max(kMinSlot, slot.count + slot.count / 4));
    end += slot.capacity;
  }
  order.clear();
  pool.resize(static_cast<std::size_t>(end));
}

// Sorts `incoming` by `key` and merges it into `order`, which is sorted by
// `key` already (keys are distinct): from the back, so only the tail past
// the smallest incoming key moves. Empties `incoming`.
template <typename Key>
void merge_by_key(std::vector<int>& order, std::vector<int>& incoming,
                  const Key& key) {
  std::sort(incoming.begin(), incoming.end(),
            [&](int a, int b) { return key(a) < key(b); });
  std::size_t kept = order.size();
  std::size_t k = incoming.size();
  std::size_t out = kept + k;
  order.resize(out);
  while (k > 0) {
    if (kept > 0 && key(order[kept - 1]) > key(incoming[k - 1])) {
      order[--out] = order[--kept];
    } else {
      order[--out] = incoming[--k];
    }
  }
  incoming.clear();
}

}  // namespace

void FlowTable::push_back(const Flow& flow) {
  ensure(flow.path.count > 0, "allocator: flow with empty path");
  ensure(size() < kMaxRows, "allocator: flow table full");
  const int r = static_cast<int>(size());
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
  row_slot_.push_back(-1);
  for (int i = 0; i < flow.path.count; ++i) {
    const int link = flow.path.links[static_cast<std::size_t>(i)];
    const auto sl = static_cast<std::size_t>(link);
    if (sl >= links_.size()) links_.resize(sl + 1);
    LinkRows& rows = links_[sl];
    if (rows.count == 0) {
      // Not in active_links_ (it carried no row at the last refresh, and
      // has no tombstone since): the next refresh places it.
      rows.width = 0.0;
      rows.moved = 1;
      moved_links_.push_back(link);
    }
    append_row(link_entries_, rows, r);
    // Extending the running sum adds in row order, as a re-sum would.
    rows.width += flow.width;
  }
  if (coflows_kept_) list_in_coflow(r);
}

void FlowTable::keep_coflows() {
  if (coflows_kept_) return;
  coflows_kept_ = true;
  for (std::size_t f = 0; f < size(); ++f) {
    if (alive(f)) list_in_coflow(static_cast<int>(f));
  }
}

void FlowTable::list_in_coflow(int row) {
  const int key = coflow[static_cast<std::size_t>(row)];
  if (key < 0) {
    singletons_.push_back(row);
  } else {
    const int s = coflow_slot(key);
    row_slot_[static_cast<std::size_t>(row)] = s;
    append_row(coflow_entries_, coflows_[static_cast<std::size_t>(s)], row);
  }
}

int FlowTable::coflow_slot(int key) {
  // Rows of one coflow tend to start next to each other.
  if (key == cached_key_) return cached_slot_;
  const auto key_of = [&](int s) {
    return coflows_[static_cast<std::size_t>(s)].key;
  };
  // Listed by the last refresh, or opened since.
  int slot = -1;
  const auto it = std::lower_bound(
      coflow_order_.begin(), coflow_order_.end(), key,
      [&](int s, int k) { return key_of(s) < k; });
  if (it != coflow_order_.end() && key_of(*it) == key) {
    slot = *it;
  } else {
    const auto opened = std::find_if(new_coflows_.begin(), new_coflows_.end(),
                                     [&](int s) { return key_of(s) == key; });
    if (opened != new_coflows_.end()) slot = *opened;
  }
  if (slot < 0) {
    // A coflow without a slot: the next refresh places it in coflow_order_.
    if (free_coflows_.empty()) {
      slot = static_cast<int>(coflows_.size());
      coflows_.emplace_back();
    } else {
      slot = free_coflows_.back();
      free_coflows_.pop_back();
    }
    CoflowRows& rows = coflows_[static_cast<std::size_t>(slot)];
    rows = CoflowRows{};
    rows.key = key;
    new_coflows_.push_back(slot);
  }
  cached_key_ = key;
  cached_slot_ = slot;
  return slot;
}

void FlowTable::retire(std::size_t f) {
  ensure(alive(f), "FlowTable: retiring a dead row");
  const int* links = path(f);
  for (int i = 0; i < path_count[f]; ++i) {
    LinkRows& rows = links_[static_cast<std::size_t>(links[i])];
    if (!rows.stale) {
      rows.stale = 1;
      stale_links_.push_back(links[i]);
    }
  }
  if (coflows_kept_ && coflow[f] < 0) {
    singletons_stale_ = true;
  } else if (coflows_kept_) {
    // The cache spares most retires a read of the slot column, which no
    // walk over the rows keeps warm.
    if (coflow[f] != cached_key_) {
      cached_key_ = coflow[f];
      cached_slot_ = row_slot_[f];
    }
    const int s = cached_slot_;
    CoflowRows& rows = coflows_[static_cast<std::size_t>(s)];
    if (!rows.stale) {
      rows.stale = 1;
      stale_coflows_.push_back(s);
    }
  }
  rate[f] = 0.0;
  remaining[f] = std::numeric_limits<Bytes>::infinity();
  path_count[f] = 0;
  ++dead_;
}

int FlowTable::keep_live(int* rows, int count) const {
  int kept = 0;
  for (int i = 0; i < count; ++i) {
    if (alive(static_cast<std::size_t>(rows[i]))) rows[kept++] = rows[i];
  }
  return kept;
}

int FlowTable::first_touch_key(int link, int row) const {
  const int* links = path(static_cast<std::size_t>(row));
  int position = 0;
  while (links[position] != link) ++position;
  return row * kMaxPathLinks + position;
}

void FlowTable::refresh() {
  refresh_links();
  refresh_coflows();
}

void FlowTable::refresh_links() {
  // A link that lost a row drops its tombstones and re-sums its width from
  // zero over the rows left, in order.
  bool any_left_order = false;
  for (int link : stale_links_) {
    LinkRows& rows = links_[static_cast<std::size_t>(link)];
    rows.stale = 0;
    int* entries = link_entries_.data() + rows.begin;
    rows.count = keep_live(entries, rows.count);
    double sum = 0.0;
    for (int i = 0; i < rows.count; ++i) {
      sum += width[static_cast<std::size_t>(entries[i])];
    }
    rows.width = sum;
    entries_resummed_ += static_cast<std::uint64_t>(rows.count);
    if (rows.moved) continue;  // joined since the last refresh
    if (rows.count == 0 || entries[0] != rows.key / kMaxPathLinks) {
      // Its first row died: it leaves the order, and rejoins at its new
      // first row if it has one.
      rows.moved = 1;
      moved_links_.push_back(link);
      any_left_order = true;
    }
  }
  stale_links_.clear();
  if (!moved_links_.empty()) place_moved_links(any_left_order);
}

void FlowTable::place_moved_links(bool any_left_order) {
  if (any_left_order) {
    // The links that stay keep their relative order, so remain sorted.
    active_links_.erase(
        std::remove_if(active_links_.begin(), active_links_.end(),
                       [&](int link) {
                         return links_[static_cast<std::size_t>(link)].moved;
                       }),
        active_links_.end());
  }
  std::size_t k = 0;
  for (int link : moved_links_) {
    LinkRows& rows = links_[static_cast<std::size_t>(link)];
    rows.moved = 0;
    if (rows.count == 0) continue;
    rows.key = first_touch_key(
        link, link_entries_[static_cast<std::size_t>(rows.begin)]);
    moved_links_[k++] = link;
  }
  moved_links_.resize(k);
  merge_by_key(active_links_, moved_links_, [&](int link) {
    return links_[static_cast<std::size_t>(link)].key;
  });
}

void FlowTable::refresh_coflows() {
  // The singleton list and each coflow that lost a row drop their
  // tombstones. A coflow left without rows closes: it leaves the key order,
  // and its slot goes back to the free list.
  if (singletons_stale_) {
    singletons_stale_ = false;
    singletons_.resize(static_cast<std::size_t>(
        keep_live(singletons_.data(), static_cast<int>(singletons_.size()))));
    coflow_rows_relisted_ += singletons_.size();
  }
  bool any_closed = false;
  for (int s : stale_coflows_) {
    CoflowRows& rows = coflows_[static_cast<std::size_t>(s)];
    rows.stale = 0;
    rows.count = keep_live(coflow_entries_.data() + rows.begin, rows.count);
    coflow_rows_relisted_ += static_cast<std::uint64_t>(rows.count);
    if (rows.count > 0) continue;
    if (rows.key == cached_key_) cached_key_ = -1;
    rows.capacity = 0;
    free_coflows_.push_back(s);
    any_closed = true;
  }
  stale_coflows_.clear();
  const auto closed = [&](int s) {
    return coflows_[static_cast<std::size_t>(s)].count == 0;
  };
  if (any_closed) {
    coflow_order_.erase(
        std::remove_if(coflow_order_.begin(), coflow_order_.end(), closed),
        coflow_order_.end());
  }
  if (!new_coflows_.empty()) {
    new_coflows_.erase(
        std::remove_if(new_coflows_.begin(), new_coflows_.end(), closed),
        new_coflows_.end());
    merge_by_key(coflow_order_, new_coflows_, [&](int s) {
      return coflows_[static_cast<std::size_t>(s)].key;
    });
  }
}

void FlowTable::compact_if_sparse() {
  if (dead_ * kSparseDivisor <= size()) return;
  refresh();  // every list now holds live rows only
  const std::size_t n = size();
  new_row_.resize(n);
  std::size_t kept = 0;
  for (std::size_t f = 0; f < n; ++f) {
    if (!alive(f)) continue;
    new_row_[f] = static_cast<int>(kept);
    if (kept != f) move_row(f, kept);
    ++kept;
  }
  resize(kept);
  renumber_rows();
  dead_ = 0;
  ++compactions_;
}

void FlowTable::renumber_rows() {
  // Renumbering is monotone: every list stays ascending, and the link sums
  // and both orders stay as they are.
  for (LinkRows& rows : links_) {
    if (rows.count == 0) rows.capacity = 0;
  }
  moved_links_.assign(active_links_.begin(), active_links_.end());
  pack_slots(link_entries_, links_, moved_links_, new_row_);
  for (int link : active_links_) {
    LinkRows& rows = links_[static_cast<std::size_t>(link)];
    rows.key = new_row_[static_cast<std::size_t>(rows.key / kMaxPathLinks)] *
                   kMaxPathLinks +
               rows.key % kMaxPathLinks;
  }
  new_coflows_.assign(coflow_order_.begin(), coflow_order_.end());
  pack_slots(coflow_entries_, coflows_, new_coflows_, new_row_);
  for (int& row : singletons_) row = new_row_[static_cast<std::size_t>(row)];
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

void FlowTable::move_row(std::size_t from, std::size_t to) {
  id[to] = id[from];
  tag[to] = tag[from];
  coflow[to] = coflow[from];
  total[to] = total[from];
  remaining[to] = remaining[from];
  width[to] = width[from];
  rate[to] = rate[from];
  cross_rack[to] = cross_rack[from];
  for (std::size_t i = 0; i < kMaxPathLinks; ++i) {
    path_links[to * kMaxPathLinks + i] = path_links[from * kMaxPathLinks + i];
  }
  path_count[to] = path_count[from];
  row_slot_[to] = row_slot_[from];
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
  row_slot_.resize(n);
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
  if (flows.live() == 0) return;
  FillScratch& scratch = thread_scratch();
  std::fill(flows.rate.begin(), flows.rate.end(), 0.0);
  net_detail::seed_residual(flows, scratch, links);
  const int rounds = net_detail::progressive_fill(
      flows, scratch, static_cast<std::size_t>(links.count()));
  if (trace_.at(obs::TraceLevel::kFlows)) {
    trace_.counter(obs::TraceTrack::kNet, "maxmin.fill_rounds", 0, trace_now(),
                   rounds);
    trace_.counter(obs::TraceTrack::kNet, "maxmin.active_flows", 0,
                   trace_now(), static_cast<double>(flows.live()));
  }
}

void VarysAllocator::allocate(FlowTable& flows, const LinkSet& links) {
  if (flows.live() == 0) return;
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
