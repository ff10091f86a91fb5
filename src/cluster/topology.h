// Cluster topology model.
//
// The paper's clusters (§6.1) are folded-CLOS: full bisection bandwidth
// inside a rack, and a single oversubscribed uplink from each rack to a
// non-blocking core. A topology is therefore fully described by the rack
// count, machines per rack, slots per machine, per-machine NIC bandwidth and
// the rack-to-core oversubscription ratio V.
//
// Machines are identified by dense integer ids in [0, total_machines());
// racks by ids in [0, racks). Machine m lives in rack m / machines_per_rack.
#ifndef CORRAL_CLUSTER_TOPOLOGY_H_
#define CORRAL_CLUSTER_TOPOLOGY_H_

#include <string>
#include <vector>

#include "util/check.h"
#include "util/rng.h"
#include "util/units.h"

namespace corral {

// A named per-rack resource (GPUs, FPGAs, local NVMe, ...) for the
// Shafiee–Ghaderi placement constraints. The first `equipped_racks` racks
// carry `units_per_rack` units each; the rest carry none. -1 equips every
// rack. Capacities gate rack *eligibility* for jobs requesting the class
// (jobs time-share an assigned rack, so a rack serves one planned job at a
// time and eligibility is the binding constraint).
struct ResourceClassConfig {
  std::string name;
  int units_per_rack = 0;
  int equipped_racks = -1;

  // Units of this class available on rack `rack` of a `racks`-rack cluster.
  int units_on_rack(int rack, int racks) const {
    const int equipped = equipped_racks < 0 ? racks : equipped_racks;
    return rack < equipped ? units_per_rack : 0;
  }
};

struct ClusterConfig {
  int racks = 7;
  int machines_per_rack = 30;
  int slots_per_machine = 8;
  BytesPerSec nic_bandwidth = 10 * kGbps;
  // V in the paper: the ratio of intra-rack aggregate bandwidth to the
  // rack's uplink to the core. V = 5 with 30 machines and 10 Gbps NICs
  // yields the paper's 60 Gbps per-rack core connection.
  double oversubscription = 5.0;

  // Fraction of a rack uplink consumed by background transfers (§6.1 emulates
  // "up to 50% of the core bandwidth usage"). Modelled as a capacity
  // reduction on rack up/down links; see DESIGN.md.
  double background_core_fraction = 0.0;

  // Named resource classes for placement constraints (empty by default;
  // fingerprint-neutral while empty so pre-existing plans stay cached).
  std::vector<ResourceClassConfig> resource_classes;

  int total_machines() const { return racks * machines_per_rack; }
  int total_slots() const { return total_machines() * slots_per_machine; }
  int slots_per_rack() const { return machines_per_rack * slots_per_machine; }

  // Raw uplink capacity of one rack to the core (before background traffic).
  BytesPerSec rack_uplink_bandwidth() const {
    return machines_per_rack * nic_bandwidth / oversubscription;
  }

  // Uplink capacity left for foreground jobs.
  BytesPerSec effective_rack_uplink() const {
    return rack_uplink_bandwidth() * (1.0 - background_core_fraction);
  }

  // The paper's 210-machine evaluation testbed (§6.1): 7 racks x 30
  // machines, 10 Gbps NICs, 5:1 oversubscription.
  static ClusterConfig paper_testbed();

  // The 2000-machine simulation topology used for Fig 14 (§6.6): 50 racks x
  // 40 machines, 1 Gbps NICs, 20 slots per machine, 5:1 oversubscription.
  static ClusterConfig paper_simulation();
};

// A concrete cluster: the static configuration plus dynamic machine health.
// Corral's scheduler falls back to unconstrained placement when too many
// machines of an assigned rack have failed (§3.1, §7).
class ClusterTopology {
 public:
  explicit ClusterTopology(ClusterConfig config);

  const ClusterConfig& config() const { return config_; }

  int racks() const { return config_.racks; }
  int machines() const { return config_.machines_per_rack * config_.racks; }
  // The accessors below sit on the simulator's innermost loops (millions of
  // calls per bench run), so they are defined inline here.
  int rack_of(int machine) const {
    require(machine >= 0 && machine < machines(),
            "rack_of: machine id out of range");
    return machine / config_.machines_per_rack;
  }
  int first_machine_of_rack(int rack) const {
    require(rack >= 0 && rack < racks(),
            "first_machine_of_rack: rack out of range");
    return rack * config_.machines_per_rack;
  }

  void fail_machine(int machine);
  void restore_machine(int machine);
  bool is_up(int machine) const {
    require(machine >= 0 && machine < machines(),
            "is_up: machine id out of range");
    return up_[static_cast<std::size_t>(machine)];
  }
  // Number of healthy machines in `rack`.
  int healthy_in_rack(int rack) const {
    require(rack >= 0 && rack < racks(), "healthy_in_rack: rack out of range");
    return healthy_per_rack_[static_cast<std::size_t>(rack)];
  }
  // True when at least `min_fraction` of the rack's machines are healthy.
  bool rack_usable(int rack, double min_fraction) const {
    return healthy_in_rack(rack) >=
           min_fraction * static_cast<double>(config_.machines_per_rack);
  }
  // Ids of all racks passing rack_usable(min_fraction), ascending — the
  // planning universe after failures (§7 plan repair).
  std::vector<int> usable_racks(double min_fraction) const;

  // Uniformly random healthy machine of `rack` (-1: of the whole cluster)
  // other than `exclude` (-1 for none), or -1 when there is none. Makes one
  // rng.index(n) draw over the n eligible machines, and takes the draw's
  // machine in id order, unless n is 0.
  int random_healthy_machine(int rack, int exclude, Rng& rng) const;
  // Uniformly random rack other than `rack` (-1 for none) that has a
  // healthy machine, then a random healthy machine in it: one rng.index draw
  // over the eligible racks, then random_healthy_machine's. -1 (and no
  // draw) when no such rack exists.
  int random_healthy_machine_outside(int rack, Rng& rng) const;

 private:
  ClusterConfig config_;
  std::vector<bool> up_;
  std::vector<int> healthy_per_rack_;
  int live_racks_ = 0;  // racks with at least one healthy machine
};

}  // namespace corral

#endif  // CORRAL_CLUSTER_TOPOLOGY_H_
