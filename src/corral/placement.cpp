#include "corral/placement.h"

#include <algorithm>
#include <numeric>
#include <string>

#include "util/check.h"

namespace corral {

std::vector<JobPlacement> resolve_placements(std::span<const JobSpec> jobs,
                                             const ClusterConfig& cluster) {
  std::vector<JobPlacement> placements;
  placements.reserve(jobs.size());
  for (const JobSpec& job : jobs) {
    const PlacementSpec& spec = job.placement;
    spec.validate();
    JobPlacement placement;
    placement.anti_affinity = spec.anti_affinity;
    placement.rack_exclusive = spec.rack_exclusive;
    placement.constrained = spec.constrained();
    placement.eligible.assign(static_cast<std::size_t>(cluster.racks), 1);
    placement.eligible_count = cluster.racks;
    if (!spec.resource_class.empty()) {
      const ResourceClassConfig* cls = nullptr;
      for (const ResourceClassConfig& candidate : cluster.resource_classes) {
        if (candidate.name == spec.resource_class) {
          cls = &candidate;
          break;
        }
      }
      require(cls != nullptr, "placement: job '" + job.name +
                                  "' requests unknown resource class '" +
                                  spec.resource_class + "'");
      require(spec.resource_units <= cls->units_per_rack,
              "placement: job '" + job.name + "' requests " +
                  std::to_string(spec.resource_units) + " units of '" +
                  spec.resource_class + "' but equipped racks carry " +
                  std::to_string(cls->units_per_rack));
      placement.eligible_count = 0;
      for (int r = 0; r < cluster.racks; ++r) {
        const bool ok =
            cls->units_on_rack(r, cluster.racks) >= spec.resource_units;
        placement.eligible[static_cast<std::size_t>(r)] = ok ? 1 : 0;
        if (ok) ++placement.eligible_count;
      }
      require(placement.eligible_count > 0,
              "placement: job '" + job.name + "' has no rack equipped with '" +
                  spec.resource_class + "'");
    }
    placements.push_back(std::move(placement));
  }
  return placements;
}

bool any_constrained(std::span<const JobSpec> jobs) {
  return std::any_of(jobs.begin(), jobs.end(), [](const JobSpec& job) {
    return job.placement.constrained();
  });
}

bool any_constrained(std::span<const JobPlacement> placements) {
  return std::any_of(
      placements.begin(), placements.end(),
      [](const JobPlacement& placement) { return placement.constrained; });
}

std::vector<JobPlacement> remap_placements(
    std::span<const JobPlacement> placements, std::span<const JobSpec> jobs,
    std::span<const int> usable_racks) {
  require(placements.size() == jobs.size(),
          "remap_placements: placements/jobs size mismatch");
  std::vector<JobPlacement> remapped;
  remapped.reserve(placements.size());
  for (std::size_t j = 0; j < placements.size(); ++j) {
    const JobPlacement& physical = placements[j];
    JobPlacement view = physical;
    view.eligible.assign(usable_racks.size(), 1);
    view.eligible_count = static_cast<int>(usable_racks.size());
    for (std::size_t v = 0; v < usable_racks.size(); ++v) {
      const auto r = static_cast<std::size_t>(usable_racks[v]);
      require(r < physical.eligible.size(),
              "remap_placements: usable rack out of range");
      if (!physical.eligible[r]) {
        view.eligible[v] = 0;
        --view.eligible_count;
      }
    }
    require(!view.constrained || view.eligible_count > 0,
            "placement: job '" + jobs[j].name +
                "' has no eligible rack in the planning view");
    remapped.push_back(std::move(view));
  }
  return remapped;
}

void RackClaims::reset(std::span<const JobPlacement> placements,
                       int num_racks) {
  placements_ = placements;
  num_racks_ = num_racks;
  constrained_ = any_constrained(placements);
  if (!constrained_) return;
  // Anti-affinity set ids are arbitrary ints; map them onto dense indices
  // of one flattened [set][rack] mask.
  set_ids_.clear();
  for (const JobPlacement& p : placements) {
    if (p.anti_affinity >= 0) set_ids_.push_back(p.anti_affinity);
  }
  std::sort(set_ids_.begin(), set_ids_.end());
  set_ids_.erase(std::unique(set_ids_.begin(), set_ids_.end()),
                 set_ids_.end());
  job_set_.clear();
  for (const JobPlacement& p : placements) {
    job_set_.push_back(
        p.anti_affinity < 0
            ? -1
            : static_cast<int>(std::lower_bound(set_ids_.begin(),
                                                set_ids_.end(),
                                                p.anti_affinity) -
                               set_ids_.begin()));
  }
  const auto racks = static_cast<std::size_t>(num_racks);
  set_rack_.assign(set_ids_.size() * racks, 0);
  rack_used_.assign(racks, 0);
  exclusive_rack_.assign(racks, 0);
}

void RackClaims::open_racks(int job, std::vector<int>& out) const {
  out.clear();
  if (!constrained_) {
    out.resize(static_cast<std::size_t>(num_racks_));
    std::iota(out.begin(), out.end(), 0);
    return;
  }
  const auto sj = static_cast<std::size_t>(job);
  const JobPlacement& pl = placements_[sj];
  const int set = job_set_[sj];
  const std::size_t row = static_cast<std::size_t>(std::max(set, 0)) *
                          static_cast<std::size_t>(num_racks_);
  for (int r = 0; r < num_racks_; ++r) {
    const auto sr = static_cast<std::size_t>(r);
    if (!pl.eligible[sr] || exclusive_rack_[sr]) continue;
    if (pl.rack_exclusive && rack_used_[sr]) continue;
    if (set >= 0 && set_rack_[row + sr]) continue;
    out.push_back(r);
  }
}

void RackClaims::claim(int job, std::span<const int> racks) {
  if (!constrained_) return;
  const auto sj = static_cast<std::size_t>(job);
  const bool exclusive = placements_[sj].rack_exclusive;
  const int set = job_set_[sj];
  const std::size_t row = static_cast<std::size_t>(std::max(set, 0)) *
                          static_cast<std::size_t>(num_racks_);
  for (int r : racks) {
    const auto sr = static_cast<std::size_t>(r);
    rack_used_[sr] = 1;
    if (exclusive) exclusive_rack_[sr] = 1;
    if (set >= 0) set_rack_[row + sr] = 1;
  }
}

void throw_unseatable(int job, int racks, std::size_t open) {
  detail::throw_invalid_argument(
      "placement: job " + std::to_string(job) + " needs " +
      std::to_string(racks) + " racks but only " + std::to_string(open) +
      " remain eligible after placement filters");
}

}  // namespace corral
