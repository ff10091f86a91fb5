#include "dfs/placement.h"

#include <limits>

#include "util/check.h"

namespace corral {

std::vector<int> DefaultPlacement::place_chunk(const Dfs& dfs, int replicas,
                                               Rng& rng) {
  const ClusterTopology& topology = dfs.topology();
  std::vector<int> machines;
  machines.reserve(static_cast<std::size_t>(replicas));

  // First replica: uniformly random healthy machine, by rejection draws and,
  // should they all miss, one draw over the healthy machines.
  int first = -1;
  for (int attempt = 0; attempt < topology.machines() && first < 0;
       ++attempt) {
    const int m = static_cast<int>(rng.index(
        static_cast<std::size_t>(topology.machines())));
    if (topology.is_up(m)) first = m;
  }
  if (first < 0) first = topology.random_healthy_machine(-1, -1, rng);
  require(first >= 0, "DefaultPlacement: no healthy machine");
  machines.push_back(first);
  const int rack = topology.rack_of(first);

  // Second replica: same rack, different machine (HDFS's 2-in-one-rack rule).
  if (replicas >= 2) {
    const int same_rack = topology.random_healthy_machine(rack, first, rng);
    machines.push_back(same_rack >= 0 ? same_rack : first);
  }

  // Third and further replicas: a different rack.
  while (static_cast<int>(machines.size()) < replicas) {
    int other = topology.random_healthy_machine_outside(rack, rng);
    if (other < 0) {
      // Degenerate single-rack cluster: fall back to any distinct machine.
      other = topology.random_healthy_machine(rack, first, rng);
    }
    machines.push_back(other >= 0 ? other : first);
  }
  return machines;
}

CorralPlacement::CorralPlacement(std::vector<int> target_racks)
    : target_racks_(std::move(target_racks)) {
  require(!target_racks_.empty(),
          "CorralPlacement: target rack set must be non-empty");
}

std::vector<int> CorralPlacement::place_chunk(const Dfs& dfs, int replicas,
                                              Rng& rng) {
  const ClusterTopology& topology = dfs.topology();
  for (int r : target_racks_) {
    require(r >= 0 && r < topology.racks(),
            "CorralPlacement: rack id out of range");
  }

  // Primary replica: a randomly chosen rack from R_j (§3.1), least-loaded
  // healthy machine within it so machines inside the rack stay balanced.
  int usable = 0;
  for (int r : target_racks_) {
    if (topology.healthy_in_rack(r) > 0) ++usable;
  }
  if (usable == 0) {
    // All assigned racks are down: fall back to the default policy (§3.1:
    // "If the assigned locations are not available ... ignore the
    // guidelines").
    DefaultPlacement fallback;
    return fallback.place_chunk(dfs, replicas, rng);
  }
  auto k = rng.index(static_cast<std::size_t>(usable));
  int primary_rack = -1;
  for (auto r = target_racks_.begin(); primary_rack < 0; ++r) {
    if (topology.healthy_in_rack(*r) > 0 && k-- == 0) primary_rack = *r;
  }
  int primary = -1;
  Bytes primary_load = std::numeric_limits<Bytes>::max();
  const int first = topology.first_machine_of_rack(primary_rack);
  for (int m = first; m < first + topology.config().machines_per_rack; ++m) {
    if (topology.is_up(m) && dfs.machine_bytes(m) < primary_load) {
      primary = m;
      primary_load = dfs.machine_bytes(m);
    }
  }
  ensure(primary >= 0, "CorralPlacement: healthy rack without machines");
  std::vector<int> machines;
  machines.reserve(static_cast<std::size_t>(replicas));
  machines.push_back(primary);

  // Remaining replicas: together on the least-loaded rack other than the
  // primary's (§4.5: "greedily placing the last two data replicas on the
  // least loaded rack"), which also preserves the HDFS fault-tolerance rule
  // of keeping replicas in at least two racks.
  int spare_rack = -1;
  Bytes spare_load = std::numeric_limits<Bytes>::max();
  for (int r = 0; r < topology.racks(); ++r) {
    if (r == primary_rack || topology.healthy_in_rack(r) == 0) continue;
    if (dfs.rack_bytes(r) < spare_load) {
      spare_rack = r;
      spare_load = dfs.rack_bytes(r);
    }
  }
  while (static_cast<int>(machines.size()) < replicas) {
    int m = -1;
    if (spare_rack >= 0) {
      const int exclude = machines.size() >= 2 ? machines.back() : -1;
      m = topology.random_healthy_machine(spare_rack, exclude, rng);
    }
    if (m < 0) m = topology.random_healthy_machine(primary_rack, primary, rng);
    machines.push_back(m >= 0 ? m : primary);
  }
  return machines;
}

}  // namespace corral
