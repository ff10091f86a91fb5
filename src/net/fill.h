// Shared rate-fill machinery behind the RateAllocator policies.
//
// PR 7 rewrote progressive filling and the Varys Γ/MADD loops into
// structure-of-arrays form inside net/allocator.cpp. The coflow-scheduler
// suite (src/coflow) reuses exactly the same machinery — same scratch, same
// fill loop, same MADD semantics — so the pieces live here as an internal
// shared header. Everything in net_detail is an implementation detail of
// the allocators: tools and the simulator program against RateAllocator.
#ifndef CORRAL_NET_FILL_H_
#define CORRAL_NET_FILL_H_

#include <cstddef>
#include <limits>
#include <span>
#include <vector>

#include "net/allocator.h"
#include "net/links.h"

namespace corral::net_detail {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kTinyBytes = 1e-6;

// Bytes a coflow still has to move across one link.
struct LinkLoad {
  int link = 0;
  double bytes = 0;
};

// One coflow group: its key and table rows (the span points into the
// FlowTable's membership lists, valid until the table next changes), and
// the run of links those rows cross with their summed remaining bytes
// (indices into FillScratch::group_loads).
struct GroupRef {
  long key = 0;
  std::span<const int> rows;
  int load_begin = 0;
  int load_count = 0;
  double gamma = 0;
};

// Scratch space for rate recomputation, reusable across calls so the steady
// state allocates nothing (the allocator runs once per simulation event
// batch). The flows themselves are not here: the allocators read and write
// the caller's FlowTable in place, and the bottleneck-scan, freeze and
// Varys Γ/MADD inner loops walk its dense columns (width/remaining/rate plus
// stride-4 flattened paths).
//
// Concurrency contract (exec:: pool workers run whole simulations, so one
// OS thread serves many simulations over its lifetime and several threads
// allocate at once): everything that outlives a pass belongs to the
// FlowTable its Network owns — the rows, the per-link incidence (each
// link's live rows, their summed width, and the first-touch order of the
// links that carry any) and the coflow membership (the live coflow keys in
// order, each one's live rows, and the rows in no coflow), which the table
// keeps up to date as rows start and retire. Only this per-pass scratch is
// thread_local, and no pass reads what an earlier pass left in it:
// residual and width_on_link are written on every active link of the
// table before a pass reads them, and a pass reads no other entry (entries
// off the active links hold whatever an earlier pass, perhaps of another
// table, left there); the coflow arrays (load, touched_mark) are all-zero
// between passes — a pass writes only links it lists in touched, and that
// list is zeroed at the end of each coflow group and again at the start of
// the next pass (so even a pass cut short by an exception leaves nothing
// behind). No pass pays for the links it does not touch. Results therefore
// cannot depend on which worker ran the previous simulation (regression
// test: AllocatorConcurrency in net_test).
struct FillScratch {
  // Per-link widths still unfrozen in this pass, copied from the table's
  // link widths for its active links; scan_links lists the active links
  // not yet drained, in the table's first-touch order (the bottleneck scan
  // iterates it, so this order is part of the deterministic contract).
  std::vector<double> width_on_link;
  std::vector<int> scan_links;
  std::vector<char> frozen;

  // Link capacities remaining; consumed in place by MADD and the fill.
  std::vector<double> residual;

  // Coflow state: per-link load with deduplicated lazy-clear markers, the
  // groups, and each group's per-link bytes, links in first-touch order.
  std::vector<double> load;
  std::vector<char> touched_mark;
  std::vector<int> touched;
  std::vector<LinkLoad> group_loads;
  std::vector<GroupRef> groups;
};

// Refreshes the table, then sets scratch.residual to the full link
// capacity on each of its active links, the only entries a pass reads.
void seed_residual(FlowTable& flows, FillScratch& scratch,
                   const LinkSet& links);

// Progressive filling over the table's live rows: repeatedly saturate the
// most constrained link and freeze the flows that cross it at the
// width-weighted fair share, added on top of whatever is already in
// flows.rate (zero for max-min; the MADD rates for coflow backfill). Reads
// the table's per-link incidence, so a pass touches only the rows it
// freezes and the links it scans; scratch.residual must have been seeded
// (seed_residual) since the table last changed.
// Consumes scratch.residual in place, clamping at subtraction time so a
// frozen round can never drive a residual negative (the share computation
// re-clamps defensively, keeping the result identical either way).
// Returns the number of filling rounds (bottleneck links saturated).
int progressive_fill(FlowTable& flows, FillScratch& scratch,
                     std::size_t num_links);

// Refreshes the table and groups its live flows into coflows, from the
// membership the table keeps (keep_coflows), and computes each group's
// per-link bytes and effective bottleneck Γ at full link capacity. Flows
// without a coflow are singletons keyed -(row)-1 and come first, in
// descending row order; real coflows follow in ascending key, rows
// ascending within each. That is the order of sorting (key, row) pairs.
// Fills scratch.group_loads and scratch.groups.
void build_coflow_groups(FlowTable& flows, FillScratch& scratch,
                         const LinkSet& links);

// MADD: give each coflow, in the *current* scratch.groups order, just
// enough rate on the residual capacities to finish all its flows together
// (its per-link bytes come from build_coflow_groups). Seeds
// scratch.residual first (seed_residual). A group that is starved (a
// saturated link) or carries no bytes at all (gamma == 0 — e.g. every flow
// already finished but has not been retired yet) gets no MADD rate; the
// caller's work-conserving backfill still serves its flows. The gamma
// guard also keeps the division safe.
void madd_in_group_order(FlowTable& flows, FillScratch& scratch,
                         const LinkSet& links);

// One scratch per OS thread: concurrent allocations (simulation batches on
// the exec:: pool) never share buffers, and a pool worker reuses its slot
// across simulations without reallocation. allocate() is not re-entrant on
// one thread (nothing in progressive_fill calls back out), so a single slot
// per thread suffices.
FillScratch& thread_scratch();

}  // namespace corral::net_detail

#endif  // CORRAL_NET_FILL_H_
