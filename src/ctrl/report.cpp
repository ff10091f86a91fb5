#include "ctrl/report.h"

#include <fstream>
#include <ostream>
#include <sstream>

#include "obs/export.h"
#include "util/check.h"
#include "util/hash.h"

namespace corral {
namespace {

const char* json_bool(bool value) { return value ? "true" : "false"; }

// Writes the ctrl report object with no trailing newline; every line after
// the opening "{" is prefixed with `indent`, so the object can be embedded
// at any nesting depth (the service report) while indent == "" reproduces
// the standalone single-tenant bytes exactly.
void write_ctrl_report_object(std::ostream& out,
                              const ControlLoopResult& result,
                              const std::string& indent) {
  using obs::format_double;
  out << "{\n" << indent << "  \"epochs\": [";
  for (std::size_t i = 0; i < result.epochs.size(); ++i) {
    const EpochReport& e = result.epochs[i];
    out << (i > 0 ? "," : "") << "\n" << indent << "    {"
        << "\"epoch\": " << e.epoch << ", \"day\": " << e.day
        << ", \"weekend\": " << json_bool(e.weekend)
        << ", \"cache_key\": \"" << hex16(e.cache_key) << '"'
        << ", \"cache_hit\": " << json_bool(e.cache_hit)
        << ", \"outage\": " << json_bool(e.outage)
        << ", \"drift_replan\": " << json_bool(e.drift_replan)
        << ", \"invalidations\": " << e.invalidations
        << ", \"planning_racks\": " << e.planning_racks
        << ", \"replan_cost_evals\": " << e.replan_cost_evals
        << ", \"rf_hits\": " << e.rf_hits
        << ", \"rf_misses\": " << e.rf_misses
        << ", \"mean_prediction_error\": "
        << format_double(e.mean_prediction_error)
        << ", \"predicted_makespan_s\": "
        << format_double(e.predicted_makespan)
        << ", \"realized_makespan_s\": " << format_double(e.realized_makespan)
        << ", \"makespan_error\": " << format_double(e.makespan_error)
        << ", \"mean_completion_error\": "
        << format_double(e.mean_completion_error)
        << ", \"jobs_failed\": " << e.jobs_failed
        << ", \"mode\": \"" << to_string(e.mode) << '"'
        << ", \"chaos_injected\": " << e.chaos_injected
        << ", \"quarantined\": " << e.quarantined
        << ", \"exec_retries\": " << e.exec_retries
        << ", \"planner_overrun\": " << json_bool(e.planner_overrun)
        << ", \"fallback_plan\": " << json_bool(e.fallback_plan)
        << ", \"stale_topology\": " << json_bool(e.stale_topology)
        << ", \"aborted\": " << json_bool(e.aborted)
        << ", \"demoted\": " << json_bool(e.demoted)
        << ", \"promoted\": " << json_bool(e.promoted) << '}';
  }
  out << (result.epochs.empty() ? "" : "\n" + indent + "  ") << "],\n"
      << indent << "  \"totals\": {"
      << "\"cache_hits\": " << result.cache.hits
      << ", \"cache_misses\": " << result.cache.misses
      << ", \"cache_invalidations\": " << result.cache.invalidations
      << ", \"cache_evictions\": " << result.cache.evictions
      << ", \"cache_corruptions\": " << result.cache.corruptions
      << ", \"rf_hits\": " << result.rf_hits
      << ", \"rf_misses\": " << result.rf_misses
      << ", \"drift_trips\": " << result.drift_trips
      << ", \"mean_prediction_error\": "
      << format_double(result.mean_prediction_error)
      << ", \"hit_rate_after_epoch_2\": "
      << format_double(result.hit_rate_after(2))
      << ", \"epochs_completed\": " << result.epochs_completed
      << ", \"epochs_aborted\": " << result.epochs_aborted
      << ", \"chaos_events\": " << result.chaos_events
      << ", \"quarantined\": " << result.quarantined
      << ", \"exec_retries\": " << result.exec_retries
      << ", \"fallbacks\": " << result.fallbacks
      << ", \"overruns\": " << result.overruns
      << ", \"stale_views\": " << result.stale_views
      << ", \"demotions\": " << result.demotions
      << ", \"promotions\": " << result.promotions
      << ", \"crashed_after\": " << result.crashed_after << "}\n"
      << indent << "}";
}

}  // namespace

void write_ctrl_report_json(std::ostream& out,
                            const ControlLoopResult& result) {
  write_ctrl_report_object(out, result, "");
  out << "\n";
}

void write_ctrl_report_json_file(const std::string& path,
                                 const ControlLoopResult& result) {
  std::ofstream out(path);
  require(out.good(), "write_ctrl_report_json_file: cannot open " + path);
  write_ctrl_report_json(out, result);
  require(out.good(),
          "write_ctrl_report_json_file: write failed for " + path);
}

std::string ctrl_report_json_string(const ControlLoopResult& result) {
  std::ostringstream out;
  write_ctrl_report_json(out, result);
  return out.str();
}

void write_service_report_json(std::ostream& out,
                               const ServiceResult& result) {
  out << "{\n  \"tenants\": [";
  for (std::size_t t = 0; t < result.tenants.size(); ++t) {
    const TenantResult& tenant = result.tenants[t];
    out << (t > 0 ? "," : "") << "\n    {\n"
        << "      \"name\": \"" << tenant.name << "\",\n"
        << "      \"priority\": " << tenant.priority << ",\n"
        << "      \"grant_changes\": " << tenant.grant_changes << ",\n"
        << "      \"report\": ";
    write_ctrl_report_object(out, tenant.loop, "      ");
    out << "\n    }";
  }
  out << (result.tenants.empty() ? "" : "\n  ")
      << "],\n  \"arbitration\": [";
  for (std::size_t i = 0; i < result.arbitration.size(); ++i) {
    const ServiceEpochArbitration& e = result.arbitration[i];
    out << (i > 0 ? "," : "") << "\n    {\"epoch\": " << e.epoch
        << ", \"usable_racks\": " << e.usable_racks
        << ", \"granted_racks\": [";
    for (std::size_t t = 0; t < e.granted_racks.size(); ++t) {
      out << (t > 0 ? ", " : "") << e.granted_racks[t];
    }
    out << "], \"grant_changed\": [";
    for (std::size_t t = 0; t < e.grant_changed.size(); ++t) {
      out << (t > 0 ? ", " : "") << json_bool(e.grant_changed[t]);
    }
    out << "]}";
  }
  out << (result.arbitration.empty() ? "" : "\n  ")
      << "],\n  \"combined\": ";
  write_ctrl_report_object(out, result.combined, "  ");
  out << ",\n  \"crashed_after\": " << result.crashed_after << "\n}\n";
}

void write_service_report_json_file(const std::string& path,
                                    const ServiceResult& result) {
  std::ofstream out(path);
  require(out.good(),
          "write_service_report_json_file: cannot open " + path);
  write_service_report_json(out, result);
  require(out.good(),
          "write_service_report_json_file: write failed for " + path);
}

std::string service_report_json_string(const ServiceResult& result) {
  std::ostringstream out;
  write_service_report_json(out, result);
  return out.str();
}

}  // namespace corral
