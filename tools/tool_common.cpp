#include "tool_common.h"

#include <charconv>
#include <ostream>
#include <system_error>

#include "exec/exec.h"
#include "obs/export.h"
#include "util/check.h"
#include "util/units.h"

namespace corral::tools {

void add_threads_flag(FlagParser& flags) {
  flags.add_int("threads", 0,
                "worker threads for planning, simulation batches and the "
                "control loop (0 = hardware concurrency); results are "
                "identical at any thread count");
}

void apply_threads_flag(const FlagParser& flags) {
  const long threads = flags.get_int("threads");
  require(threads >= 0, "--threads must be >= 0");
  if (threads > 0) {
    exec::set_default_threads(static_cast<int>(threads));
  }
}

void ToolObservability::write_outputs(std::ostream& note) const {
  if (tracer != nullptr && !trace_out.empty()) {
    obs::write_chrome_trace_file(trace_out, *tracer);
    note << "trace written to " << trace_out << "\n";
  }
  if (tracer != nullptr && !timeline_out.empty()) {
    obs::write_timeline_csv_file(timeline_out, *tracer);
    note << "timeline written to " << timeline_out << "\n";
  }
  if (metrics != nullptr && !metrics_out.empty()) {
    obs::write_metrics_json_file(metrics_out, *metrics);
    note << "metrics written to " << metrics_out << "\n";
  }
}

void add_output_flags(FlagParser& flags, const OutputFlagSet& set) {
  add_threads_flag(flags);
  if (set.trace) {
    flags.add_string("trace-out", "",
                     "write a Chrome trace-event JSON to this file (open in "
                     "chrome://tracing or ui.perfetto.dev)");
    flags.add_string("trace-level", "jobs",
                     "trace verbosity: off | jobs | tasks | flows");
    flags.add_string("timeline-out", "",
                     "write a per-span timeline CSV to this file");
    flags.add_string("metrics-out", "",
                     "write a metrics snapshot JSON to this file");
  }
  if (set.csv) {
    flags.add_string("csv", "", "write per-job results CSV to this file");
  }
}

ToolObservability apply_output_flags(const FlagParser& flags,
                                     const OutputFlagSet& set) {
  apply_threads_flag(flags);
  ToolObservability out;
  if (set.trace) {
    out.trace_out = flags.get_string("trace-out");
    out.timeline_out = flags.get_string("timeline-out");
    out.metrics_out = flags.get_string("metrics-out");
    const obs::TraceLevel level =
        obs::parse_trace_level(flags.get_string("trace-level"));
    if (!out.trace_out.empty() || !out.timeline_out.empty()) {
      obs::TracerOptions options;
      options.level = level;
      out.tracer = std::make_unique<obs::Tracer>(options);
    }
    if (!out.metrics_out.empty()) {
      out.metrics = std::make_unique<obs::MetricsRegistry>();
    }
  }
  if (set.csv) out.csv = flags.get_string("csv");
  return out;
}

void add_outage_flags(FlagParser& flags) {
  flags.add_string_list("outage",
                        "injected whole-rack outage as epoch:rack "
                        "(repeatable)");
}

std::optional<int> parse_int(std::string_view text) {
  int value = 0;
  const char* last = text.data() + text.size();
  const auto [end, error] = std::from_chars(text.data(), last, value);
  if (error != std::errc() || end != last) return std::nullopt;
  return value;
}

namespace {

// Parses one --outage value of the form "epoch:rack".
RackOutage parse_outage(const std::string& text) {
  const std::size_t colon = text.find(':');
  require(colon != std::string::npos && colon > 0 &&
              colon + 1 < text.size(),
          "--outage expects epoch:rack, got '" + text + "'");
  const std::optional<int> epoch =
      parse_int(std::string_view(text).substr(0, colon));
  require(epoch.has_value(), "--outage: bad epoch in '" + text + "'");
  const std::optional<int> rack =
      parse_int(std::string_view(text).substr(colon + 1));
  require(rack.has_value(), "--outage: bad rack in '" + text + "'");
  return RackOutage{*epoch, *rack};
}

}  // namespace

std::vector<RackOutage> outages_from_flags(const FlagParser& flags) {
  std::vector<RackOutage> outages;
  for (const std::string& token : flags.get_string_list("outage")) {
    outages.push_back(parse_outage(token));
  }
  return outages;
}

void add_cluster_flags(FlagParser& flags) {
  flags.add_int("racks", 7, "number of racks");
  flags.add_int("machines-per-rack", 30, "machines per rack");
  flags.add_int("slots-per-machine", 8, "concurrent task slots per machine");
  flags.add_double("nic-gbps", 2.5, "per-machine NIC bandwidth in Gbit/s");
  flags.add_double("oversubscription", 5.0,
                   "rack-to-core oversubscription ratio V");
  flags.add_double("background", 0.5,
                   "fraction of rack uplink consumed by background traffic");
  flags.add_string_list(
      "resource-class",
      "declare a rack resource class as name:units[:racks] — `units` per "
      "equipped rack, first `racks` racks equipped (default all); "
      "repeatable (docs/coflow.md)");
}

namespace {

// Parses one --resource-class value of the form "name:units[:racks]".
ResourceClassConfig parse_resource_class(const std::string& text) {
  const std::size_t first = text.find(':');
  require(first != std::string::npos && first > 0 && first + 1 < text.size(),
          "--resource-class expects name:units[:racks], got '" + text + "'");
  ResourceClassConfig cls;
  cls.name = text.substr(0, first);
  const std::size_t second = text.find(':', first + 1);
  const std::string units_text =
      second == std::string::npos
          ? text.substr(first + 1)
          : text.substr(first + 1, second - first - 1);
  const std::optional<int> units = parse_int(units_text);
  require(units.has_value(), "--resource-class: bad units in '" + text + "'");
  cls.units_per_rack = *units;
  if (second != std::string::npos) {
    const std::optional<int> racks = parse_int(text.substr(second + 1));
    require(racks.has_value(),
            "--resource-class: bad racks in '" + text + "'");
    cls.equipped_racks = *racks;
  }
  return cls;
}

}  // namespace

ClusterConfig cluster_from_flags(const FlagParser& flags) {
  ClusterConfig config;
  config.racks = static_cast<int>(flags.get_int("racks"));
  config.machines_per_rack =
      static_cast<int>(flags.get_int("machines-per-rack"));
  config.slots_per_machine =
      static_cast<int>(flags.get_int("slots-per-machine"));
  config.nic_bandwidth = flags.get_double("nic-gbps") * kGbps;
  config.oversubscription = flags.get_double("oversubscription");
  config.background_core_fraction = flags.get_double("background");
  for (const std::string& token : flags.get_string_list("resource-class")) {
    config.resource_classes.push_back(parse_resource_class(token));
  }
  // Constructing a topology validates every field.
  ClusterTopology validate(config);
  (void)validate;
  return config;
}

}  // namespace corral::tools
