// Flow rate allocation policies (§6.6).
//
// The simulator supports pluggable network schedulers, mirroring the paper's
// flow-based event simulator: "We have implemented ... a max-min fair
// bandwidth allocation mechanism to emulate TCP, and Varys, which uses
// application communication patterns to better schedule flows."
#ifndef CORRAL_NET_ALLOCATOR_H_
#define CORRAL_NET_ALLOCATOR_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "net/links.h"
#include "obs/trace.h"

namespace corral {

// The registered rate-allocation policies. `tcp` and `varys` are the paper's
// two network schedulers; `lp-order` and `sincronia` are the coflow-suite
// additions implemented in src/coflow (Qiu–Stein–Zhong LP ordering and a
// Sincronia-style bottleneck approximation). The numeric values are mixed
// into control-loop and service fingerprints, so they are part of the
// checkpoint format: append, never renumber.
enum class NetPolicy {
  kTcp = 0,
  kVarys = 1,
  kLpOrder = 2,
  kSincronia = 3,
};

// Flag-facing spelling of a policy ("tcp", "varys", "lp-order",
// "sincronia") and its inverse. parse_net_policy returns false on an
// unknown spelling and leaves *policy untouched.
std::string_view to_string(NetPolicy policy);
bool parse_net_policy(std::string_view text, NetPolicy* policy);

// The valid flag spellings, in enum order (for FlagParser::add_choice).
const std::vector<std::string>& net_policy_names();

// Most links a flow path can cross: host_up, rack_up, rack_down, host_down.
constexpr int kMaxPathLinks = 4;

struct FlowPath {
  std::array<int, kMaxPathLinks> links{};
  int count = 0;

  void add(int link);
};

struct Flow {
  int id = 0;
  Bytes total = 0;
  Bytes remaining = 0;
  // Number of aggregated subflows; max-min fair share is width-weighted so
  // an aggregate of w task-level transfers competes like w TCP connections.
  double width = 1.0;
  // Coflow id (>= 0) groups the flows of one shuffle for Varys; -1 means
  // the flow is not part of any coflow and competes individually.
  int coflow = -1;
  // Opaque caller tag (the simulator stores task identifiers here).
  std::uint64_t tag = 0;
  bool cross_rack = false;
  FlowPath path;
  BytesPerSec rate = 0;  // output of the allocator
};

// A flow set in structure-of-arrays form: one column per Flow field, one
// row per flow, in ascending id order. Network keeps its active flows here,
// and the rate allocators read and write the table in place, so their inner
// loops walk dense arrays and no flow is copied per allocation.
//
// Retired rows stay behind as tombstones until too many pile up: a dead row
// has rate 0, remaining +infinity and an empty path, so a walk over every
// row (progress, next completion) needs no liveness branch, while walks that
// list flows skip rows that are not alive(). The table also keeps, across
// allocations, two views of its live rows that only change when a flow
// starts or retires:
//  - per link: the link's live rows in ascending row order and their summed
//    width, and the links that carry a live row in first-touch order (by
//    their first live row, then by position on that row's path);
//  - per coflow: the live real coflows in ascending key order, each with
//    its live rows ascending, and the live rows without a coflow. Only the
//    coflow schedulers read it, so it is kept from their first
//    keep_coflows() call on, and a table that only max-min fair allocation
//    reads pays nothing for it.
// Those are the orders and the sums a from-scratch sweep over the live rows
// would produce, so rates do not depend on the table's history. refresh()
// brings both views up to date; only the coflows and links that lost a row
// since the last refresh are listed again.
struct FlowTable {
  std::vector<int> id;
  std::vector<std::uint64_t> tag;
  std::vector<int> coflow;
  std::vector<Bytes> total;
  std::vector<Bytes> remaining;
  std::vector<double> width;
  std::vector<BytesPerSec> rate;
  std::vector<char> cross_rack;
  std::vector<int> path_links;  // kMaxPathLinks entries per row
  std::vector<int> path_count;

  // Rows, tombstones included: the bound of every per-row loop.
  std::size_t size() const { return id.size(); }
  std::size_t live() const { return size() - dead_; }
  bool alive(std::size_t f) const { return path_count[f] != 0; }
  const int* path(std::size_t f) const {
    return path_links.data() + f * kMaxPathLinks;
  }

  // A table with one row per element of `flows`, in order.
  static FlowTable of(const std::vector<Flow>& flows);

  // Appends `flow` as the last row. Its path must not be empty; the width
  // column must not change afterwards (link widths are running sums).
  void push_back(const Flow& flow);
  // Row `f` as a Flow value.
  Flow row(std::size_t f) const;

  // Turns live row `f` into a tombstone. Row numbers do not change.
  void retire(std::size_t f);
  // Drops the tombstones once they are more than a quarter of the rows,
  // renumbering the live rows in order. Call between per-row loops only.
  void compact_if_sparse();

  // Brings the per-link and per-coflow state up to date with the rows
  // retired and added since the last call; the accessors below read that
  // state.
  void refresh();
  // Links carrying a live row, in first-touch order.
  const std::vector<int>& active_links() const { return active_links_; }
  // The live rows crossing `link`, ascending (one entry per path position,
  // so a path that repeats a link lists its row twice).
  std::span<const int> link_rows(int link) const {
    return rows_of(link_entries_, links_[static_cast<std::size_t>(link)]);
  }
  // Sum of width over link_rows(link), added in row order.
  double link_width(int link) const {
    return links_[static_cast<std::size_t>(link)].width;
  }
  // Lists every live row in its coflow, and keeps doing so as rows start
  // and retire; until the first call the coflow accessors below read
  // nothing.
  void keep_coflows();
  // Live real coflows (coflow >= 0), indexed 0..coflows()-1 in ascending
  // key order, and each one's live rows, ascending.
  std::size_t coflows() const { return coflow_order_.size(); }
  int coflow_key(std::size_t k) const { return live_coflow(k).key; }
  std::span<const int> coflow_rows(std::size_t k) const {
    return rows_of(coflow_entries_, live_coflow(k));
  }
  // Live rows in no coflow (coflow < 0), ascending.
  std::span<const int> singleton_rows() const { return singletons_; }

  // Work counts: tombstone sweeps, entries re-summed because their link
  // lost a row, and membership entries listed again because their coflow
  // (or the singleton list) lost a row.
  std::uint64_t compactions() const { return compactions_; }
  std::uint64_t entries_resummed() const { return entries_resummed_; }
  std::uint64_t coflow_rows_relisted() const { return coflow_rows_relisted_; }

 private:
  // A list of rows in one of the flat pools (link_entries_,
  // coflow_entries_): a slot of `capacity` entries, of which the first
  // `count` are in use (rows retired since the last refresh() included).
  // New rows have the highest number, so a list only grows at its end and
  // stays ascending. A full slot grows in place when it ends the pool and
  // otherwise moves to the end at twice the size; compaction packs the
  // slots again, so a pool stays within a small factor of the live entries
  // without a per-list allocation.
  struct RowSlot {
    int begin = 0;
    int count = 0;
    int capacity = 0;
    char stale = 0;  // lost a row since the last refresh
  };
  struct LinkRows : RowSlot {
    // Sort key in active_links_: first row * kMaxPathLinks + position.
    int key = 0;
    char moved = 0;  // queued to take a new place in active_links_
    double width = 0;
  };
  struct CoflowRows : RowSlot {
    int key = 0;  // the coflow id
  };

  static std::span<const int> rows_of(const std::vector<int>& pool,
                                      const RowSlot& slot) {
    return {pool.data() + slot.begin, static_cast<std::size_t>(slot.count)};
  }
  const CoflowRows& live_coflow(std::size_t k) const {
    return coflows_[static_cast<std::size_t>(coflow_order_[k])];
  }
  // Drops the dead rows of rows[0, count) in place, keeping the order;
  // returns how many are left.
  int keep_live(int* rows, int count) const;
  int first_touch_key(int link, int row) const;
  // The slot of coflow `key` in coflows_, opening one if it has none. A
  // coflow keeps its slot until the refresh after it loses its last row.
  int coflow_slot(int key);
  // Appends `row` to its coflow's list, or to the singletons.
  void list_in_coflow(int row);
  void refresh_links();
  void refresh_coflows();
  void place_moved_links(bool any_left_order);
  void renumber_rows();
  void move_row(std::size_t from, std::size_t to);
  void resize(std::size_t n);

  std::size_t dead_ = 0;
  std::vector<LinkRows> links_;
  std::vector<int> link_entries_;
  std::vector<int> active_links_;
  std::vector<int> stale_links_;
  std::vector<int> moved_links_;
  // Per row: the slot in coflows_ of the row's coflow, or -1 (no coflow,
  // or not listed yet).
  std::vector<int> row_slot_;
  std::vector<CoflowRows> coflows_;
  std::vector<int> free_coflows_;  // slots of coflows_ not in use
  std::vector<int> coflow_entries_;
  std::vector<int> coflow_order_;  // live slots, ascending key
  std::vector<int> stale_coflows_;
  std::vector<int> new_coflows_;   // slots opened since the last refresh
  bool coflows_kept_ = false;
  int cached_key_ = -1;  // the coflow coflow_slot() returned last
  int cached_slot_ = -1;
  std::vector<int> singletons_;
  bool singletons_stale_ = false;
  std::vector<int> new_row_;  // compaction scratch: old row -> new row
  std::uint64_t compactions_ = 0;
  std::uint64_t entries_resummed_ = 0;
  std::uint64_t coflow_rows_relisted_ = 0;
};

class RateAllocator {
 public:
  virtual ~RateAllocator() = default;

  // Assigns the rate column for every row, respecting link capacities.
  // Flows are guaranteed a positive rate (the policies are work conserving),
  // so the simulation always makes progress.
  virtual void allocate(FlowTable& flows, const LinkSet& links) = 0;

  // The same allocation for a vector of Flow values (tests and one-off
  // callers): runs allocate() on a table built from `flows` and writes each
  // Flow::rate back.
  void allocate(std::vector<Flow>& flows, const LinkSet& links);

  virtual std::string_view name() const = 0;

  // Attaches tracing (level >= flows records allocator internals: fill
  // rounds, SEBF orderings). `clock` points at the owner's virtual-time
  // accumulator (Network::elapsed()), read at each allocate() call.
  void set_trace(const obs::TraceRecorder& trace, const double* clock) {
    trace_ = trace;
    clock_ = clock;
  }

 protected:
  double trace_now() const { return clock_ != nullptr ? *clock_ : 0.0; }

  obs::TraceRecorder trace_;
  const double* clock_ = nullptr;
};

// Width-weighted max-min fairness via progressive filling; a fluid proxy
// for per-connection TCP fairness.
class MaxMinFairAllocator : public RateAllocator {
 public:
  using RateAllocator::allocate;
  void allocate(FlowTable& flows, const LinkSet& links) override;
  std::string_view name() const override { return "tcp-maxmin"; }
};

// Varys-like coflow scheduling: Smallest Effective Bottleneck First ordering
// across coflows, minimum-allocation-for-desired-duration (MADD) rates
// within a coflow, and max-min backfilling of leftover capacity for work
// conservation.
class VarysAllocator : public RateAllocator {
 public:
  using RateAllocator::allocate;
  void allocate(FlowTable& flows, const LinkSet& links) override;
  std::string_view name() const override { return "varys"; }

 private:
  // SEBF order of the previous allocation (coflow keys, smallest-gamma
  // first), kept only to notice and trace priority inversions.
  std::vector<long> last_order_;
  std::uint64_t reorders_ = 0;
};

}  // namespace corral

#endif  // CORRAL_NET_ALLOCATOR_H_
