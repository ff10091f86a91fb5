#include "sim/faults.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>

#include "util/check.h"
#include "util/rng.h"

namespace corral {
namespace {

// Appends one machine's alternating up/down renewal process. The first
// crash is sampled from the same exponential as later ones, so the fleet's
// failures are spread over the horizon rather than clustered at zero.
void generate_machine_process(int machine, Seconds mtbf, Seconds mttr,
                              Seconds horizon, Rng& rng,
                              std::vector<FaultEvent>& out) {
  Seconds t = rng.exponential(mtbf);
  while (t < horizon) {
    out.push_back({t, FaultType::kCrash, machine});
    if (mttr <= 0) return;  // permanent crash
    t += rng.exponential(mttr);
    if (t >= horizon) return;
    out.push_back({t, FaultType::kRecover, machine});
    t += rng.exponential(mtbf);
  }
}

}  // namespace

void FaultSchedule::validate(int num_machines) const {
  require(straggler_frac >= 0.0 && straggler_frac <= 1.0,
          "FaultSchedule: straggler_frac must be in [0, 1]");
  require(straggler_frac == 0.0 || straggler_slowdown >= 1.0,
          "FaultSchedule: straggler_slowdown must be >= 1");
  for (const FaultEvent& event : events) {
    require(event.time >= 0, "FaultSchedule: event time must be non-negative");
    require(event.machine >= 0 && event.machine < num_machines,
            "FaultSchedule: event machine out of range");
  }
}

FaultSchedule generate_fault_schedule(const ClusterConfig& cluster,
                                      const FaultModelConfig& config,
                                      std::uint64_t seed) {
  require(config.machine_mtbf >= 0 && config.machine_mttr >= 0 &&
              config.rack_mtbf >= 0 && config.rack_mttr >= 0,
          "generate_fault_schedule: MTBF/MTTR must be non-negative");
  require(config.horizon >= 0,
          "generate_fault_schedule: horizon must be non-negative");
  FaultSchedule schedule;
  schedule.straggler_frac = config.straggler_frac;
  schedule.straggler_slowdown = config.straggler_slowdown;
  schedule.validate(cluster.total_machines());

  Rng rng(seed);
  // One forked stream per machine/rack: the draw count of one process can
  // never perturb another, so schedules are stable under parameter tweaks.
  if (config.machine_mtbf > 0) {
    for (int m = 0; m < cluster.total_machines(); ++m) {
      Rng machine_rng = rng.fork();
      generate_machine_process(m, config.machine_mtbf, config.machine_mttr,
                               config.horizon, machine_rng, schedule.events);
    }
  }
  if (config.rack_mtbf > 0) {
    for (int r = 0; r < cluster.racks; ++r) {
      Rng rack_rng = rng.fork();
      std::vector<FaultEvent> rack_events;
      generate_machine_process(r, config.rack_mtbf, config.rack_mttr,
                               config.horizon, rack_rng, rack_events);
      const int first = r * cluster.machines_per_rack;
      for (const FaultEvent& event : rack_events) {
        for (int m = first; m < first + cluster.machines_per_rack; ++m) {
          schedule.events.push_back({event.time, event.type, m});
        }
      }
    }
  }
  std::sort(schedule.events.begin(), schedule.events.end(),
            [](const FaultEvent& a, const FaultEvent& b) {
              if (a.time != b.time) return a.time < b.time;
              if (a.machine != b.machine) return a.machine < b.machine;
              return static_cast<int>(a.type) < static_cast<int>(b.type);
            });
  return schedule;
}

void write_faults(std::ostream& out, const FaultSchedule& schedule) {
  out << "corral-faults v1\n";
  out.precision(17);
  out << "straggler " << schedule.straggler_frac << ' '
      << schedule.straggler_slowdown << '\n';
  for (const FaultEvent& event : schedule.events) {
    out << (event.type == FaultType::kCrash ? "crash " : "recover ")
        << event.time << ' ' << event.machine << '\n';
  }
}

FaultSchedule read_faults(std::istream& in) {
  std::string line;
  require(static_cast<bool>(std::getline(in, line)) &&
              line == "corral-faults v1",
          "read_faults: missing 'corral-faults v1' header");
  FaultSchedule schedule;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string directive;
    fields >> directive;
    if (directive == "straggler") {
      fields >> schedule.straggler_frac >> schedule.straggler_slowdown;
    } else if (directive == "crash" || directive == "recover") {
      FaultEvent event;
      event.type = directive == "crash" ? FaultType::kCrash
                                        : FaultType::kRecover;
      fields >> event.time >> event.machine;
      schedule.events.push_back(event);
    } else {
      require(false, "read_faults: unknown directive '" + directive + "'");
    }
    require(!fields.fail(), "read_faults: malformed line '" + line + "'");
  }
  return schedule;
}

FaultSchedule read_faults_file(const std::string& path) {
  std::ifstream in(path);
  require(in.good(), "read_faults_file: cannot open input file");
  return read_faults(in);
}

}  // namespace corral
