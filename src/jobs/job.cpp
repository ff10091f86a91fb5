#include "jobs/job.h"

#include <algorithm>

#include "util/check.h"

namespace corral {

void MapReduceSpec::validate() const {
  require(input_bytes >= 0 && shuffle_bytes >= 0 && output_bytes >= 0,
          "MapReduceSpec: data sizes must be non-negative");
  require(num_maps >= 1, "MapReduceSpec: num_maps must be >= 1");
  require(num_reduces >= 0, "MapReduceSpec: num_reduces must be >= 0");
  require(map_rate > 0 && reduce_rate > 0,
          "MapReduceSpec: processing rates must be positive");
}

void PlacementSpec::validate() const {
  require(anti_affinity >= -1,
          "PlacementSpec: anti-affinity set id must be >= -1");
  if (resource_class.empty()) {
    require(resource_units == 0,
            "PlacementSpec: resource_units requires a resource class");
  } else {
    require(resource_units >= 1,
            "PlacementSpec: resource class '" + resource_class +
                "' needs resource_units >= 1");
  }
}

JobSpec JobSpec::map_reduce(int id, std::string name, MapReduceSpec stage,
                            Seconds arrival) {
  JobSpec job;
  job.id = id;
  job.name = std::move(name);
  if (stage.name.empty()) stage.name = job.name;
  job.stages.push_back(std::move(stage));
  job.arrival = arrival;
  return job;
}

int JobSpec::max_parallelism() const {
  int widest = 0;
  for (const MapReduceSpec& s : stages) {
    widest = std::max({widest, s.num_maps, s.num_reduces});
  }
  return widest;
}

Bytes JobSpec::total_input() const {
  Bytes total = 0;
  for (std::size_t s = 0; s < stages.size(); ++s) {
    const bool source =
        std::none_of(edges.begin(), edges.end(), [s](const DagEdge& e) {
          return e.to == static_cast<int>(s);
        });
    if (source) total += stages[s].input_bytes;
  }
  return total;
}

Bytes JobSpec::total_shuffle() const {
  Bytes total = 0;
  for (const MapReduceSpec& s : stages) total += s.shuffle_bytes;
  return total;
}

Bytes JobSpec::total_output() const {
  Bytes total = 0;
  for (const MapReduceSpec& s : stages) total += s.output_bytes;
  return total;
}

int JobSpec::num_tasks() const {
  int total = 0;
  for (const MapReduceSpec& s : stages) total += s.num_maps + s.num_reduces;
  return total;
}

std::vector<int> JobSpec::source_stages() const {
  std::vector<bool> has_incoming(stages.size(), false);
  for (const DagEdge& e : edges) {
    if (e.to >= 0 && e.to < static_cast<int>(stages.size())) {
      has_incoming[static_cast<std::size_t>(e.to)] = true;
    }
  }
  std::vector<int> sources;
  for (std::size_t s = 0; s < stages.size(); ++s) {
    if (!has_incoming[s]) sources.push_back(static_cast<int>(s));
  }
  return sources;
}

void JobSpec::validate() const {
  require(!stages.empty(), "JobSpec: at least one stage required");
  require(arrival >= 0.0, "JobSpec: arrival must be non-negative");
  placement.validate();
  for (const MapReduceSpec& s : stages) s.validate();
  // Throws on cycles or bad indices.
  (void)topological_order(static_cast<int>(stages.size()), edges);
}

}  // namespace corral
