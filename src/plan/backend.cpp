#include "plan/backend.h"

#include <algorithm>
#include <array>

#include "util/check.h"

namespace corral::plan {

// Flag spellings, indexed by PlannerBackendKind's value.
constexpr std::array<std::string_view, 3> kPlannerBackendNames = {
    "corral", "dagpack", "lpround"};
static_assert(kPlannerBackendNames.size() ==
              static_cast<std::size_t>(PlannerBackendKind::kLpRound) + 1);

std::string_view CorralBackend::name() const {
  return to_string(PlannerBackendKind::kCorral);
}

ProvisionPlan CorralBackend::plan(const PlannerRequest& request) const {
  require(request.config != nullptr, "CorralBackend: config is required");
  ProvisionPlan result;
  result.backend = PlannerBackendKind::kCorral;
  result.plan =
      plan_offline(request.jobs, request.num_racks, *request.config);
  return result;
}

const PlannerBackend& planner_backend(PlannerBackendKind kind) {
  static const CorralBackend corral;
  static const DagPackBackend dagpack;
  static const LpRoundBackend lpround;
  switch (kind) {
    case PlannerBackendKind::kCorral:
      return corral;
    case PlannerBackendKind::kDagPack:
      return dagpack;
    case PlannerBackendKind::kLpRound:
      return lpround;
  }
  require(false, "planner_backend: unknown backend kind");
  return corral;  // unreachable
}

std::string_view to_string(PlannerBackendKind kind) {
  const auto index = static_cast<std::size_t>(kind);
  require(index < kPlannerBackendNames.size(),
          "to_string: unknown planner backend kind");
  return kPlannerBackendNames[index];
}

bool parse_planner_backend(std::string_view name, PlannerBackendKind* out) {
  const auto it = std::find(kPlannerBackendNames.begin(),
                            kPlannerBackendNames.end(), name);
  if (it == kPlannerBackendNames.end()) return false;
  *out = static_cast<PlannerBackendKind>(it - kPlannerBackendNames.begin());
  return true;
}

const std::vector<std::string>& planner_backend_names() {
  static const std::vector<std::string> names(kPlannerBackendNames.begin(),
                                              kPlannerBackendNames.end());
  return names;
}

}  // namespace corral::plan
