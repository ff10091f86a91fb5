// Fluid flow-level network simulation.
//
// The Network owns the set of active flows, as one structure-of-arrays
// FlowTable in ascending flow-id order, and lazily recomputes their rates in
// place with the configured RateAllocator whenever the flow set changes.
// Finished and cancelled flows leave tombstones in the table, swept in
// batches, so a completion does not move the rows that remain.
// The discrete-event simulator advances it in lockstep: query the time of
// the next flow completion, advance by at most that amount, and collect the
// flows that finished.
#ifndef CORRAL_NET_NETWORK_H_
#define CORRAL_NET_NETWORK_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "net/allocator.h"

namespace corral {

struct FlowDesc {
  int src_machine = -1;   // -1 for rack-aggregated sources
  int dst_machine = -1;
  Bytes bytes = 0;
  double width = 1.0;
  int coflow = -1;
  std::uint64_t tag = 0;
};

struct CompletedFlow {
  int id = 0;
  std::uint64_t tag = 0;
  int coflow = -1;
  Bytes bytes = 0;
  bool cross_rack = false;
};

// Work counts of one Network, for tests and profiling. They are not part of
// any simulation result or metric.
struct NetworkCounters {
  std::uint64_t reallocations = 0;  // rate allocator runs
  std::uint64_t advances = 0;       // advance() calls
  std::uint64_t rows_started = 0;   // flows started
  std::uint64_t rows_retired = 0;   // flows completed or cancelled
  std::uint64_t compactions = 0;    // tombstone sweeps of the flow table
  // Incidence entries summed again because their link lost a row.
  std::uint64_t entries_resummed = 0;
  // Coflow membership entries listed again because their coflow (or the
  // list of flows in no coflow) lost a row.
  std::uint64_t coflow_rows_relisted = 0;
};

class Network {
 public:
  Network(const ClusterConfig& config,
          std::unique_ptr<RateAllocator> allocator);

  const LinkSet& links() const { return links_; }
  const ClusterConfig& cluster() const { return config_; }
  RateAllocator& allocator() { return *allocator_; }

  // Forwards tracing to the rate allocator. `clock` points at the owning
  // simulator's virtual-time counter (read at each rate recomputation);
  // null stamps allocator events at t=0.
  void set_trace(const obs::TraceRecorder& trace, const double* clock) {
    allocator_->set_trace(trace, clock);
  }

  // Machine-to-machine flow: host_up(src) [+ rack_up/rack_down when the
  // machines are in different racks] + host_down(dst). Used for remote
  // chunk reads and replica writes. Requires src != dst and bytes > 0.
  int start_flow(const FlowDesc& desc);

  // Rack-aggregated fan-in flow: data uniformly spread over the machines of
  // `src_rack` flowing to `dst_machine` (shuffle fetch; see DESIGN.md).
  // Charges rack_up/rack_down when cross-rack, plus host_down(dst). `width`
  // should be the number of aggregated task-level transfers.
  int start_fanin_flow(int src_rack, int dst_machine, Bytes bytes,
                       double width, int coflow, std::uint64_t tag);

  // Flow from the external storage cluster (§7 "Remote storage") into
  // `dst_machine`: charges the storage interconnect, the destination rack's
  // downlink and the destination NIC. Counted as cross-rack traffic.
  int start_storage_flow(int dst_machine, Bytes bytes, double width,
                         int coflow, std::uint64_t tag);

  // Caps the storage interconnect (default: effectively unlimited).
  void set_storage_bandwidth(BytesPerSec bandwidth);

  // Cancels active flows matching `predicate` and returns them (with their
  // remaining byte counts at cancellation). Used for failure handling:
  // transfers to or from a dead machine are torn down and their tasks
  // rescheduled. Partial progress of cancelled cross-rack flows stays
  // counted in cross_rack_bytes() (those bytes really crossed the core).
  std::vector<Flow> cancel_flows_if(
      const std::function<bool(const Flow&)>& predicate);

  int active_flows() const { return static_cast<int>(flows_.live()); }
  bool idle() const { return flows_.live() == 0; }

  // The flow table, tombstone rows included (FlowTable::alive tells them
  // apart): a read-only view for tests and probes.
  const FlowTable& flows() const { return flows_; }

  // Work done so far (see NetworkCounters).
  NetworkCounters counters() const;

  // Seconds until the earliest active flow completes under current rates;
  // +infinity when idle. Triggers a rate recomputation when needed.
  Seconds time_to_next_completion();

  // Moves all flows forward by dt seconds (dt must not exceed the value
  // returned by time_to_next_completion, modulo rounding) and returns flows
  // that completed. The returned reference points at a reused internal
  // buffer: it stays valid until the next advance() call (starting or
  // cancelling flows does not touch it).
  const std::vector<CompletedFlow>& advance(Seconds dt);

  // Changes background load (Fig 12 sweeps) and forces a rate recompute.
  void set_background_fraction(double fraction);

  // Cumulative bytes moved across rack up/down links so far (the paper's
  // "data transferred across racks" metric, Fig 7a).
  Bytes cross_rack_bytes() const { return cross_rack_bytes_; }

  // Cumulative bytes that transited each link (indexed like LinkSet).
  // Dividing by capacity x elapsed time gives the link's utilization —
  // how Corral "frees up bandwidth ... for other jobs" becomes measurable.
  const std::vector<Bytes>& link_bytes() const { return link_bytes_; }

 private:
  int add_flow(Flow flow);
  void recompute_if_dirty();

  ClusterConfig config_;
  LinkSet links_;
  std::unique_ptr<RateAllocator> allocator_;
  FlowTable flows_;
  std::vector<CompletedFlow> completed_;  // reused by advance()
  std::vector<int> finished_;             // advance() scratch: rows done
  int next_flow_id_ = 0;
  bool dirty_ = false;
  NetworkCounters counters_;
  Bytes cross_rack_bytes_ = 0;
  std::vector<Bytes> link_bytes_;
};

}  // namespace corral

#endif  // CORRAL_NET_NETWORK_H_
