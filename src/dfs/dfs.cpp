#include "dfs/dfs.h"

#include <algorithm>

#include "dfs/placement.h"
#include "util/check.h"
#include "util/stats.h"

namespace corral {

bool FileLayout::chunk_on_machine(int chunk, int machine) const {
  const auto& replicas = chunks[static_cast<std::size_t>(chunk)].machines;
  return std::find(replicas.begin(), replicas.end(), machine) !=
         replicas.end();
}

int FileLayout::closest_replica(int chunk, int machine,
                                const ClusterTopology& topology) const {
  const auto& replicas = chunks[static_cast<std::size_t>(chunk)].machines;
  const int rack = topology.rack_of(machine);
  int rack_local = -1;
  int first_up = -1;
  for (int m : replicas) {
    if (!topology.is_up(m)) continue;
    if (m == machine) return m;
    if (rack_local < 0 && topology.rack_of(m) == rack) rack_local = m;
    if (first_up < 0) first_up = m;
  }
  return rack_local >= 0 ? rack_local : first_up;
}

Dfs::Dfs(const ClusterTopology* topology, DfsConfig config)
    : topology_(topology), config_(config) {
  require(topology_ != nullptr, "Dfs: topology must not be null");
  require(config_.replicas >= 1, "Dfs: at least one replica required");
  require(config_.replicas <= topology_->machines(),
          "Dfs: more replicas than machines");
  machine_bytes_.assign(static_cast<std::size_t>(topology_->machines()), 0.0);
  rack_bytes_.assign(static_cast<std::size_t>(topology_->racks()), 0.0);
}

const FileLayout& Dfs::write_file(const std::string& name, Bytes bytes,
                                  int num_chunks,
                                  BlockPlacementPolicy& policy, Rng& rng) {
  require(!name.empty(), "write_file: name must be non-empty");
  require(!has_file(name), "write_file: file already exists");
  require(bytes >= 0, "write_file: negative size");
  require(num_chunks >= 1, "write_file: need at least one chunk");

  FileLayout layout;
  layout.name = name;
  layout.bytes = bytes;
  layout.chunks.resize(static_cast<std::size_t>(num_chunks));
  const Bytes chunk_bytes = bytes / num_chunks;
  for (auto& chunk : layout.chunks) {
    chunk.bytes = chunk_bytes;
    chunk.machines = policy.place_chunk(*this, config_.replicas, rng);
    ensure(static_cast<int>(chunk.machines.size()) == config_.replicas,
           "write_file: policy returned wrong replica count");
    for (int m : chunk.machines) {
      machine_bytes_[static_cast<std::size_t>(m)] += chunk_bytes;
      rack_bytes_[static_cast<std::size_t>(topology_->rack_of(m))] +=
          chunk_bytes;
    }
  }
  auto [it, inserted] = files_.emplace(name, std::move(layout));
  ensure(inserted, "write_file: concurrent insert");
  return it->second;
}

bool Dfs::has_file(const std::string& name) const {
  return files_.contains(name);
}

const FileLayout& Dfs::file(const std::string& name) const {
  const auto it = files_.find(name);
  require(it != files_.end(), "file: no such file");
  return it->second;
}

std::vector<LostReplica> Dfs::drop_replicas_on(int machine) {
  require(machine >= 0 && machine < topology_->machines(),
          "drop_replicas_on: machine id out of range");
  std::vector<LostReplica> lost;
  const int rack = topology_->rack_of(machine);
  for (auto& [name, layout] : files_) {
    for (std::size_t c = 0; c < layout.chunks.size(); ++c) {
      ChunkLocation& chunk = layout.chunks[c];
      const auto it =
          std::find(chunk.machines.begin(), chunk.machines.end(), machine);
      if (it == chunk.machines.end()) continue;
      chunk.machines.erase(it);
      machine_bytes_[static_cast<std::size_t>(machine)] -= chunk.bytes;
      rack_bytes_[static_cast<std::size_t>(rack)] -= chunk.bytes;
      lost.push_back({name, static_cast<int>(c), chunk.bytes,
                      static_cast<int>(chunk.machines.size())});
    }
  }
  std::sort(lost.begin(), lost.end(),
            [](const LostReplica& a, const LostReplica& b) {
              if (a.file != b.file) return a.file < b.file;
              return a.chunk < b.chunk;
            });
  return lost;
}

void Dfs::add_replica(const std::string& name, int chunk, int machine) {
  const auto it = files_.find(name);
  require(it != files_.end(), "add_replica: no such file");
  require(chunk >= 0 &&
              chunk < static_cast<int>(it->second.chunks.size()),
          "add_replica: chunk index out of range");
  require(machine >= 0 && machine < topology_->machines(),
          "add_replica: machine id out of range");
  ChunkLocation& location =
      it->second.chunks[static_cast<std::size_t>(chunk)];
  if (std::find(location.machines.begin(), location.machines.end(),
                machine) != location.machines.end()) {
    return;
  }
  location.machines.push_back(machine);
  machine_bytes_[static_cast<std::size_t>(machine)] += location.bytes;
  rack_bytes_[static_cast<std::size_t>(topology_->rack_of(machine))] +=
      location.bytes;
}

double Dfs::rack_balance_cov() const {
  return coefficient_of_variation(rack_bytes_);
}

}  // namespace corral
