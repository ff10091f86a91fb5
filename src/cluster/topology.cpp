#include "cluster/topology.h"

#include <numeric>

#include "util/check.h"

namespace corral {

ClusterConfig ClusterConfig::paper_testbed() {
  ClusterConfig config;
  config.racks = 7;
  config.machines_per_rack = 30;
  config.slots_per_machine = 8;
  config.nic_bandwidth = 10 * kGbps;
  config.oversubscription = 5.0;
  return config;
}

ClusterConfig ClusterConfig::paper_simulation() {
  ClusterConfig config;
  config.racks = 50;
  config.machines_per_rack = 40;
  config.slots_per_machine = 20;
  config.nic_bandwidth = 1 * kGbps;
  config.oversubscription = 5.0;
  return config;
}

ClusterTopology::ClusterTopology(ClusterConfig config) : config_(config) {
  require(config_.racks > 0, "ClusterTopology: racks must be positive");
  require(config_.machines_per_rack > 0,
          "ClusterTopology: machines_per_rack must be positive");
  require(config_.slots_per_machine > 0,
          "ClusterTopology: slots_per_machine must be positive");
  require(config_.nic_bandwidth > 0,
          "ClusterTopology: nic_bandwidth must be positive");
  require(config_.oversubscription >= 1.0,
          "ClusterTopology: oversubscription must be >= 1");
  require(config_.background_core_fraction >= 0.0 &&
              config_.background_core_fraction < 1.0,
          "ClusterTopology: background fraction must be in [0, 1)");
  for (std::size_t c = 0; c < config_.resource_classes.size(); ++c) {
    const ResourceClassConfig& cls = config_.resource_classes[c];
    require(!cls.name.empty(),
            "ClusterTopology: resource class needs a name");
    require(cls.units_per_rack >= 1,
            "ClusterTopology: resource class '" + cls.name +
                "' must carry >= 1 unit per equipped rack");
    require(cls.equipped_racks >= -1 && cls.equipped_racks <= config_.racks,
            "ClusterTopology: resource class '" + cls.name +
                "' equips more racks than exist");
    for (std::size_t other = 0; other < c; ++other) {
      require(config_.resource_classes[other].name != cls.name,
              "ClusterTopology: duplicate resource class '" + cls.name + "'");
    }
  }
  up_.assign(static_cast<std::size_t>(machines()), true);
  healthy_per_rack_.assign(static_cast<std::size_t>(racks()),
                           config_.machines_per_rack);
  live_racks_ = racks();
}

void ClusterTopology::fail_machine(int machine) {
  require(machine >= 0 && machine < machines(),
          "fail_machine: machine id out of range");
  if (up_[static_cast<std::size_t>(machine)]) {
    up_[static_cast<std::size_t>(machine)] = false;
    const auto rack = static_cast<std::size_t>(rack_of(machine));
    if (--healthy_per_rack_[rack] == 0) --live_racks_;
  }
}

void ClusterTopology::restore_machine(int machine) {
  require(machine >= 0 && machine < machines(),
          "restore_machine: machine id out of range");
  if (!up_[static_cast<std::size_t>(machine)]) {
    up_[static_cast<std::size_t>(machine)] = true;
    const auto rack = static_cast<std::size_t>(rack_of(machine));
    if (++healthy_per_rack_[rack] == 1) ++live_racks_;
  }
}

std::vector<int> ClusterTopology::usable_racks(double min_fraction) const {
  std::vector<int> usable;
  for (int r = 0; r < racks(); ++r) {
    if (rack_usable(r, min_fraction)) usable.push_back(r);
  }
  return usable;
}

int ClusterTopology::random_healthy_machine(int rack, int exclude,
                                            Rng& rng) const {
  require(rack >= -1 && rack < racks(),
          "random_healthy_machine: rack out of range");
  const int first = rack < 0 ? 0 : first_machine_of_rack(rack);
  const int size = rack < 0 ? machines() : config_.machines_per_rack;
  const int healthy = rack >= 0 ? healthy_in_rack(rack)
                                : std::accumulate(healthy_per_rack_.begin(),
                                                  healthy_per_rack_.end(), 0);
  const bool skip = exclude >= first && exclude < first + size;
  const int eligible = healthy - (skip && is_up(exclude) ? 1 : 0);
  if (eligible == 0) return -1;
  int k = static_cast<int>(rng.index(static_cast<std::size_t>(eligible)));
  if (healthy == size) {
    // Every machine is up: the k-th eligible id is arithmetic.
    return first + k + (skip && first + k >= exclude ? 1 : 0);
  }
  for (int m = first;; ++m) {
    if (m != exclude && up_[static_cast<std::size_t>(m)] && k-- == 0) {
      return m;
    }
  }
}

int ClusterTopology::random_healthy_machine_outside(int rack,
                                                    Rng& rng) const {
  const bool skip = rack >= 0 && healthy_in_rack(rack) > 0;
  const int eligible = live_racks_ - (skip ? 1 : 0);
  if (eligible == 0) return -1;
  int k = static_cast<int>(rng.index(static_cast<std::size_t>(eligible)));
  int target = k + (skip && k >= rack ? 1 : 0);
  if (live_racks_ < racks()) {
    for (target = 0;; ++target) {
      if (target != rack && healthy_in_rack(target) > 0 && k-- == 0) break;
    }
  }
  return random_healthy_machine(target, /*exclude=*/-1, rng);
}

}  // namespace corral
