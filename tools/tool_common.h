// Shared pieces of the CLI tools: the cluster flag block, the uniform
// output/observability flag block, and their parsing.
#ifndef CORRAL_TOOLS_TOOL_COMMON_H_
#define CORRAL_TOOLS_TOOL_COMMON_H_

#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/topology.h"
#include "ctrl/control_loop.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/flags.h"

namespace corral::tools {

// Registers --threads (0 = hardware concurrency); apply_threads_flag sets
// the exec:: default pool width from it and must run before anything
// touches exec::ThreadPool::shared() (i.e. before planning or simulating).
void add_threads_flag(FlagParser& flags);
void apply_threads_flag(const FlagParser& flags);

// Which pieces of the shared output flag block a tool registers. Every tool
// gets --threads; tools that trace (corral_plan, corral_simulate,
// corral_loop) also get --trace-out / --trace-level / --timeline-out /
// --metrics-out; tools with per-job CSV output (corral_simulate)
// additionally get --csv.
struct OutputFlagSet {
  bool trace = true;
  bool csv = false;
};

// Parsed output flags plus the (optional) tracer/metrics objects they
// enable. The tracer exists only when a trace or timeline output path was
// given; pass `tracer.get()` into SimConfig/PlannerConfig — a null tracer
// means tracing is off and costs one branch per hook.
struct ToolObservability {
  std::string trace_out;     // Chrome trace-event JSON path ("" = none)
  std::string timeline_out;  // per-span timeline CSV path
  std::string metrics_out;   // metrics snapshot JSON path
  std::string csv;           // per-job results CSV path (OutputFlagSet::csv)
  std::unique_ptr<obs::Tracer> tracer;
  std::unique_ptr<obs::MetricsRegistry> metrics;

  obs::Tracer* tracer_or_null() const { return tracer.get(); }
  obs::MetricsRegistry* metrics_or_null() const { return metrics.get(); }

  // Writes whichever of trace/timeline/metrics outputs were requested and
  // prints one "<kind> written to <path>" note per file to `note`.
  void write_outputs(std::ostream& note) const;
};

// Registers the shared output flag block (see OutputFlagSet).
void add_output_flags(FlagParser& flags, const OutputFlagSet& set = {});

// Validates and applies the shared flags: sets the exec:: pool width from
// --threads, parses --trace-level (throws std::invalid_argument on unknown
// levels) and builds the tracer/metrics objects implied by the output
// paths. Must run before planning or simulating, like apply_threads_flag.
ToolObservability apply_output_flags(const FlagParser& flags,
                                     const OutputFlagSet& set = {});

// Parses `text` as a decimal int and nothing else: no sign other than
// '-', no spaces, no trailing characters, no overflow. Every integer field
// of a compound flag value (epoch:rack, tenant:weight, name:units:racks)
// goes through it.
std::optional<int> parse_int(std::string_view text);

// Registers the rack-outage flag: --outage epoch:rack (repeatable).
void add_outage_flags(FlagParser& flags);

// Parses every --outage token, in order, into one schedule. Throws
// std::invalid_argument on malformed tokens.
std::vector<RackOutage> outages_from_flags(const FlagParser& flags);

// Registers --racks / --machines-per-rack / --slots-per-machine /
// --nic-gbps / --oversubscription / --background with testbed defaults.
void add_cluster_flags(FlagParser& flags);

// Builds a ClusterConfig from the registered flags; throws
// std::invalid_argument on out-of-range combinations.
ClusterConfig cluster_from_flags(const FlagParser& flags);

}  // namespace corral::tools

#endif  // CORRAL_TOOLS_TOOL_COMMON_H_
