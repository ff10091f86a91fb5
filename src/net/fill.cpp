#include "net/fill.h"

#include <algorithm>

#include "util/check.h"

namespace corral::net_detail {

namespace {

// Grows a per-link array to `n` entries; new entries are zero, which is the
// between-pass state every per-link array keeps (see FillScratch).
template <typename T>
void grow_to(std::vector<T>& values, std::size_t n) {
  if (values.size() < n) values.resize(n, T{});
}

// flow_slot of a tombstone row: in no group at all.
constexpr int kDeadRow = -2;

// Zeroes the load and marker of every touched link and empties the list.
void clear_touched(FillScratch& scratch) {
  for (int l : scratch.touched) {
    scratch.load[static_cast<std::size_t>(l)] = 0.0;
    scratch.touched_mark[static_cast<std::size_t>(l)] = 0;
  }
  scratch.touched.clear();
}

}  // namespace

int progressive_fill(FlowTable& flows, FillScratch& scratch,
                     std::size_t num_links) {
  ensure(scratch.residual.size() == num_links,
         "progressive_fill: residual/link count mismatch");
  // The table keeps each link's live rows and summed width across passes;
  // this pass consumes a copy of the widths.
  flows.refresh_links();
  const std::vector<int>& active_links = flows.active_links();
  grow_to(scratch.width_on_link, num_links);
  for (int l : active_links) {
    scratch.width_on_link[static_cast<std::size_t>(l)] = flows.link_width(l);
  }
  scratch.frozen.assign(flows.size(), 0);

  // Widths are subtracted as flows freeze; treat tiny residues as empty so
  // floating-point drift cannot leave a "loaded" link with no unfrozen
  // flows (which would stall the loop).
  constexpr double kWidthEps = 1e-9;
  std::size_t remaining_flows = flows.live();
  int rounds = 0;
  scratch.scan_links.assign(active_links.begin(), active_links.end());
  while (remaining_flows > 0) {
    ++rounds;
    // Bottleneck link: smallest per-width share among links carrying load
    // (the first such link in first-touch order on a tie). Widths only
    // shrink, so a link that falls to kWidthEps stays out for the rest of
    // the pass; the scan list drops it, keeping the others in order.
    int bottleneck = -1;
    double best_share = kInf;
    std::size_t live = 0;
    for (int l : scratch.scan_links) {
      const auto sl = static_cast<std::size_t>(l);
      if (scratch.width_on_link[sl] <= kWidthEps) continue;
      scratch.scan_links[live++] = l;
      const double share =
          std::max(scratch.residual[sl], 0.0) / scratch.width_on_link[sl];
      if (share < best_share) {
        best_share = share;
        bottleneck = l;
      }
    }
    scratch.scan_links.resize(live);
    ensure(bottleneck >= 0, "progressive_fill: active flows but no link");

    std::size_t frozen_now = 0;
    for (const int row : flows.link_rows(bottleneck)) {
      const auto f = static_cast<std::size_t>(row);
      if (scratch.frozen[f]) continue;
      scratch.frozen[f] = 1;
      --remaining_flows;
      ++frozen_now;
      const double flow_rate = best_share * flows.width[f];
      flows.rate[f] += flow_rate;
      const int* path = flows.path(f);
      for (int i = 0; i < flows.path_count[f]; ++i) {
        const auto link = static_cast<std::size_t>(path[i]);
        scratch.residual[link] =
            std::max(scratch.residual[link] - flow_rate, 0.0);
        scratch.width_on_link[link] -= flows.width[f];
      }
    }
    if (frozen_now == 0) {
      // Width residue only: retire the link and keep going.
      scratch.width_on_link[static_cast<std::size_t>(bottleneck)] = 0.0;
    }
  }
  return rounds;
}

void build_coflow_groups(const FlowTable& flows, FillScratch& scratch,
                         const LinkSet& links) {
  const std::size_t n = flows.size();
  const std::vector<double>& capacity = links.capacities();
  clear_touched(scratch);
  grow_to(scratch.load, capacity.size());
  grow_to(scratch.touched_mark, capacity.size());

  // Pass 1: give each distinct real coflow a slot (first-seen order) and
  // count its flows. Rows of one coflow tend to be adjacent, so the map is
  // consulted only when the key changes.
  scratch.keys.clear();
  scratch.key_count.clear();
  scratch.flow_slot.resize(n);
  int singletons = 0;
  int last_coflow = -1;
  int last_slot = -1;
  for (std::size_t f = 0; f < n; ++f) {
    if (!flows.alive(f)) {
      scratch.flow_slot[f] = kDeadRow;
      continue;
    }
    const int coflow = flows.coflow[f];
    if (coflow < 0) {
      ++singletons;
      scratch.flow_slot[f] = -1;
      continue;
    }
    if (coflow != last_coflow) {
      int& slot = scratch.slot_of_key[static_cast<std::uint64_t>(coflow) + 1];
      if (slot == 0) {
        scratch.keys.push_back(coflow);
        scratch.key_count.push_back(0);
        slot = static_cast<int>(scratch.keys.size());
      }
      last_coflow = coflow;
      last_slot = slot - 1;
    }
    scratch.flow_slot[f] = last_slot;
    ++scratch.key_count[static_cast<std::size_t>(last_slot)];
  }
  for (long key : scratch.keys) {
    scratch.slot_of_key.erase(static_cast<std::uint64_t>(key) + 1);
  }

  // Group layout: singletons first, then the real coflows by ascending key.
  // key_count turns into each slot's next write position.
  const std::size_t num_keys = scratch.keys.size();
  scratch.key_order.resize(num_keys);
  for (std::size_t k = 0; k < num_keys; ++k) {
    scratch.key_order[k] = static_cast<int>(k);
  }
  std::sort(scratch.key_order.begin(), scratch.key_order.end(),
            [&](int a, int b) {
              return scratch.keys[static_cast<std::size_t>(a)] <
                     scratch.keys[static_cast<std::size_t>(b)];
            });
  scratch.groups.clear();
  scratch.groups.reserve(static_cast<std::size_t>(singletons) + num_keys);
  for (int i = 0; i < singletons; ++i) scratch.groups.push_back({0, i, 1});
  int next = singletons;
  for (int slot : scratch.key_order) {
    const auto sk = static_cast<std::size_t>(slot);
    const int count = scratch.key_count[sk];
    scratch.groups.push_back({scratch.keys[sk], next, count});
    scratch.key_count[sk] = next;
    next += count;
  }

  // Pass 2: place the rows. Singletons fill [0, singletons) from the back,
  // so they come out in descending row order, exactly the order of their
  // -(row)-1 keys.
  scratch.group_flows.resize(static_cast<std::size_t>(next));
  int singleton_pos = singletons;
  for (std::size_t f = 0; f < n; ++f) {
    const int slot = scratch.flow_slot[f];
    if (slot == kDeadRow) continue;
    if (slot < 0) {
      --singleton_pos;
      scratch.group_flows[static_cast<std::size_t>(singleton_pos)] =
          static_cast<int>(f);
      scratch.groups[static_cast<std::size_t>(singleton_pos)].key =
          -static_cast<long>(f) - 1;
    } else {
      scratch.group_flows[static_cast<std::size_t>(
          scratch.key_count[static_cast<std::size_t>(slot)]++)] =
          static_cast<int>(f);
    }
  }

  // Each group's per-link bytes, and its effective bottleneck Γ at full
  // link capacity, taken once per touched link when the group's load is
  // complete. Loads only grow within a group (remaining bytes are
  // non-negative), so this is the same maximum, bit for bit, as taking it
  // after every flow-link addition.
  scratch.group_loads.clear();
  for (GroupRef& group : scratch.groups) {
    const auto begin = static_cast<std::size_t>(group.begin);
    const auto end = begin + static_cast<std::size_t>(group.count);
    for (std::size_t j = begin; j < end; ++j) {
      const auto f = static_cast<std::size_t>(scratch.group_flows[j]);
      const int* path = flows.path(f);
      for (int p = 0; p < flows.path_count[f]; ++p) {
        const auto sl = static_cast<std::size_t>(path[p]);
        if (!scratch.touched_mark[sl]) {
          scratch.touched_mark[sl] = 1;
          scratch.touched.push_back(path[p]);
        }
        scratch.load[sl] += flows.remaining[f];
      }
    }
    group.load_begin = static_cast<int>(scratch.group_loads.size());
    group.load_count = static_cast<int>(scratch.touched.size());
    double gamma = 0;
    for (int l : scratch.touched) {
      const auto sl = static_cast<std::size_t>(l);
      scratch.group_loads.push_back({l, scratch.load[sl]});
      gamma = std::max(gamma, scratch.load[sl] / capacity[sl]);
    }
    clear_touched(scratch);
    group.gamma = gamma;
  }
}

void madd_in_group_order(FlowTable& flows, FillScratch& scratch,
                         const LinkSet& links) {
  const std::vector<double>& capacities = links.capacities();
  scratch.residual.assign(capacities.begin(), capacities.end());
  for (const GroupRef& group : scratch.groups) {
    // Rescaled completion time on what is left of the fabric. Residuals do
    // not change while a group's γ is taken, so one look per link the group
    // crosses gives the same γ as a look per flow-link.
    double gamma = 0;
    bool starved = false;
    const auto loads_begin = static_cast<std::size_t>(group.load_begin);
    const auto loads_end =
        loads_begin + static_cast<std::size_t>(group.load_count);
    for (std::size_t i = loads_begin; i < loads_end; ++i) {
      const LinkLoad& load = scratch.group_loads[i];
      const auto sl = static_cast<std::size_t>(load.link);
      if (scratch.residual[sl] <= kTinyBytes) {
        starved = true;
      } else {
        gamma = std::max(gamma, load.bytes / scratch.residual[sl]);
      }
    }
    // A group that is starved (a saturated link) or carries no bytes at all
    // (gamma == 0 — e.g. every flow already finished but has not been
    // retired yet) gets no MADD rate; the work-conserving backfill below
    // still serves its flows. The gamma guard also keeps the division safe.
    if (starved || gamma <= 0) continue;
    const auto begin = static_cast<std::size_t>(group.begin);
    const auto end = begin + static_cast<std::size_t>(group.count);
    for (std::size_t j = begin; j < end; ++j) {
      const auto f = static_cast<std::size_t>(scratch.group_flows[j]);
      // Zero-remaining flows keep rate 0 (identical to 0/gamma, without
      // relying on the division) and consume no residual capacity.
      if (flows.remaining[f] <= 0) continue;
      const double flow_rate = flows.remaining[f] / gamma;
      flows.rate[f] = flow_rate;
      const int* path = flows.path(f);
      for (int p = 0; p < flows.path_count[f]; ++p) {
        const auto sl = static_cast<std::size_t>(path[p]);
        scratch.residual[sl] = std::max(scratch.residual[sl] - flow_rate, 0.0);
      }
    }
  }
}

FillScratch& thread_scratch() {
  thread_local FillScratch scratch;
  return scratch;
}

}  // namespace corral::net_detail
