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
// row per flow. Network keeps its active flows here, in ascending id order,
// and the rate allocators read and write the table in place, so their inner
// loops walk dense arrays and no flow is copied per allocation.
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

  std::size_t size() const { return id.size(); }
  bool empty() const { return id.empty(); }
  const int* path(std::size_t f) const {
    return path_links.data() + f * kMaxPathLinks;
  }

  // A table with one row per element of `flows`, in order.
  static FlowTable of(const std::vector<Flow>& flows);

  // Appends `flow` as the last row. Its path must not be empty.
  void push_back(const Flow& flow);
  // Row `f` as a Flow value.
  Flow row(std::size_t f) const;

  // Stable compaction: calls keep(f) once per row, in ascending order, and
  // drops the rows for which it returns false; the others keep their
  // relative order.
  template <typename Keep>
  void retain_if(Keep keep) {
    const std::size_t n = size();
    std::size_t kept = 0;
    for (std::size_t f = 0; f < n; ++f) {
      if (!keep(f)) continue;
      if (kept != f) move_row(f, kept);
      ++kept;
    }
    if (kept != n) resize(kept);
  }

 private:
  // Inline: runs for every surviving row after the first dropped one, on
  // every completion batch.
  void move_row(std::size_t from, std::size_t to) {
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
  }
  void resize(std::size_t n);
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
