// A simulated HDFS-like distributed file system.
//
// Files are divided into chunks, each replicated `replicas` times (default
// 3). Per the paper (§2): "two of the chunks reside on the same rack, while
// the third one is on a different rack. Each chunk is placed independently
// of the other chunks." Placement is delegated to a BlockPlacementPolicy so
// Corral can pin one replica inside a job's assigned racks (§3.1) while the
// baselines use the default random policy.
#ifndef CORRAL_DFS_DFS_H_
#define CORRAL_DFS_DFS_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/topology.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/units.h"

namespace corral {

struct DfsConfig {
  int replicas = 3;
};

// Replica machines of one chunk. machines[0] is the "primary" replica — the
// one Corral's policy pins inside the job's assigned racks.
struct ChunkLocation {
  Bytes bytes = 0;
  std::vector<int> machines;
};

struct FileLayout {
  std::string name;
  Bytes bytes = 0;
  std::vector<ChunkLocation> chunks;

  // True when some replica of `chunk` lives on `machine`.
  bool chunk_on_machine(int chunk, int machine) const;
  // A replica machine of `chunk` that is up, preferring `machine` itself,
  // then its rack, then the first in replica order; -1 when every replica
  // is down or gone.
  int closest_replica(int chunk, int machine,
                      const ClusterTopology& topology) const;
};

class BlockPlacementPolicy;

// A chunk that lost a replica to a machine crash (see drop_replicas_on).
struct LostReplica {
  std::string file;
  int chunk = 0;
  Bytes bytes = 0;
  // Healthy replicas left after the drop; 0 means the data is gone.
  int remaining = 0;
};

class Dfs {
 public:
  Dfs(const ClusterTopology* topology, DfsConfig config);

  // Creates a file of `bytes` split into `num_chunks` equal chunks placed by
  // `policy`. The name must be unique. Returns the resulting layout.
  const FileLayout& write_file(const std::string& name, Bytes bytes,
                               int num_chunks, BlockPlacementPolicy& policy,
                               Rng& rng);

  bool has_file(const std::string& name) const;
  const FileLayout& file(const std::string& name) const;

  // Failure handling (§7): drops every replica stored on `machine` across
  // all files — a fail-stop crash loses the disk — and returns the chunks
  // that lost one, sorted by (file, chunk) for deterministic iteration.
  // Chunks whose last replica is dropped are left with an empty machine
  // list; readers must treat them as lost.
  std::vector<LostReplica> drop_replicas_on(int machine);

  // Adds a replica of an existing chunk on `machine` (the completion of a
  // re-replication transfer). No-op when the machine already holds one.
  void add_replica(const std::string& name, int chunk, int machine);

  const ClusterTopology& topology() const { return *topology_; }
  const DfsConfig& config() const { return config_; }

  // Stored bytes per machine / per rack (for balance metrics and
  // least-loaded placement decisions; inline for CorralPlacement's scans).
  Bytes machine_bytes(int machine) const {
    require(machine >= 0 && machine < topology_->machines(),
            "machine_bytes: id out of range");
    return machine_bytes_[static_cast<std::size_t>(machine)];
  }
  Bytes rack_bytes(int rack) const {
    require(rack >= 0 && rack < topology_->racks(),
            "rack_bytes: id out of range");
    return rack_bytes_[static_cast<std::size_t>(rack)];
  }

  // Coefficient of variation of per-rack stored bytes — the data-balance
  // metric reported in §6.2 ("Data balance").
  double rack_balance_cov() const;

 private:
  const ClusterTopology* topology_;
  DfsConfig config_;
  std::unordered_map<std::string, FileLayout> files_;
  std::vector<Bytes> machine_bytes_;
  std::vector<Bytes> rack_bytes_;
};

}  // namespace corral

#endif  // CORRAL_DFS_DFS_H_
