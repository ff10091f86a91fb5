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

void seed_residual(FlowTable& flows, FillScratch& scratch,
                   const LinkSet& links) {
  flows.refresh();
  const std::vector<double>& capacity = links.capacities();
  scratch.residual.resize(capacity.size());
  for (int l : flows.active_links()) {
    scratch.residual[static_cast<std::size_t>(l)] =
        capacity[static_cast<std::size_t>(l)];
  }
}

void build_coflow_groups(FlowTable& flows, FillScratch& scratch,
                         const LinkSet& links) {
  flows.keep_coflows();
  flows.refresh();
  const std::vector<double>& capacity = links.capacities();
  clear_touched(scratch);
  grow_to(scratch.load, capacity.size());
  grow_to(scratch.touched_mark, capacity.size());
  scratch.groups.clear();
  scratch.group_loads.clear();

  // Each group's per-link bytes, and its effective bottleneck Γ at full
  // link capacity, taken once per touched link when the group's load is
  // complete. Loads only grow within a group (remaining bytes are
  // non-negative), so this is the same maximum, bit for bit, as taking it
  // after every flow-link addition.
  const auto add_group = [&](long key, std::span<const int> rows) {
    for (const int row : rows) {
      const auto f = static_cast<std::size_t>(row);
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
    GroupRef group{key, rows, static_cast<int>(scratch.group_loads.size()),
                   static_cast<int>(scratch.touched.size()), 0.0};
    for (int l : scratch.touched) {
      const auto sl = static_cast<std::size_t>(l);
      scratch.group_loads.push_back({l, scratch.load[sl]});
      group.gamma = std::max(group.gamma, scratch.load[sl] / capacity[sl]);
    }
    clear_touched(scratch);
    scratch.groups.push_back(group);
  };
  // Singletons first, in descending row order (ascending -(row)-1 key),
  // then the real coflows by ascending key.
  const std::span<const int> singletons = flows.singleton_rows();
  for (std::size_t i = singletons.size(); i-- > 0;) {
    add_group(-static_cast<long>(singletons[i]) - 1, singletons.subspan(i, 1));
  }
  for (std::size_t k = 0; k < flows.coflows(); ++k) {
    add_group(flows.coflow_key(k), flows.coflow_rows(k));
  }
}

void madd_in_group_order(FlowTable& flows, FillScratch& scratch,
                         const LinkSet& links) {
  seed_residual(flows, scratch, links);
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
    for (const int row : group.rows) {
      const auto f = static_cast<std::size_t>(row);
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
