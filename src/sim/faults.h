// Fault model for the cluster simulator (§7 "Dealing with failures").
//
// A FaultSchedule is the complete, pre-materialized timeline of machine
// crash/recover events plus the straggler-injection parameters for one run.
// Pre-materializing keeps the simulator deterministic: the same seed and
// fault parameters always produce byte-identical results, regardless of how
// the simulation itself unfolds.
//
// Schedules come from three sources:
//  * generate_fault_schedule() — stochastic churn from MTBF/MTTR parameters
//    (per-machine crashes and whole-rack ToR outages), the way a production
//    trace would be synthesized;
//  * `corral-faults v1` text files (read_faults_file, corral_simulate
//    --faults);
//  * hand-written event lists in tests and drills — a permanent crash is
//    one FaultEvent{t, FaultType::kCrash, machine} with no recover.
#ifndef CORRAL_SIM_FAULTS_H_
#define CORRAL_SIM_FAULTS_H_

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "cluster/topology.h"
#include "util/units.h"

namespace corral {

enum class FaultType {
  kCrash,    // machine goes down: tasks killed, local DFS replicas lost
  kRecover,  // machine rejoins the slot pool (with an empty disk)
};

struct FaultEvent {
  Seconds time = 0;
  FaultType type = FaultType::kCrash;
  int machine = 0;
};

struct FaultSchedule {
  // Crash/recover timeline; the simulator accepts any order (its event
  // queue sorts by time), generate_fault_schedule() emits sorted events.
  std::vector<FaultEvent> events;

  // Straggler injection: each task start independently runs `slowdown`
  // times slower than modelled with probability `straggler_frac`
  // (Hadoop-style stragglers; §4.3 assumes these away for the planner,
  // which is exactly why the simulator must inject them).
  double straggler_frac = 0.0;
  double straggler_slowdown = 4.0;

  bool empty() const {
    return events.empty() && straggler_frac <= 0.0;
  }

  // Throws std::invalid_argument on out-of-range machines, negative times,
  // or malformed straggler parameters (frac outside [0,1], slowdown < 1).
  void validate(int num_machines) const;
};

struct FaultModelConfig {
  // Mean time between failures of one machine; 0 disables machine churn.
  Seconds machine_mtbf = 0;
  // Mean time to repair a crashed machine; 0 makes crashes permanent.
  Seconds machine_mttr = 0;
  // Whole-rack (ToR switch) outages: every machine of the rack crashes at
  // once and recovers together after the rack's repair time.
  Seconds rack_mtbf = 0;
  Seconds rack_mttr = 0;
  // Events are generated for [0, horizon).
  Seconds horizon = 0;
  // Copied into the schedule (see FaultSchedule).
  double straggler_frac = 0.0;
  double straggler_slowdown = 4.0;
};

// Deterministically samples a fault timeline: per-machine alternating
// exponential up-time (machine_mtbf) / down-time (machine_mttr) renewal
// processes, plus per-rack ToR outage processes expanded to whole-rack
// crash/recover pairs. Same cluster + config + seed => identical schedule.
// Events are returned sorted by time (ties by machine id).
FaultSchedule generate_fault_schedule(const ClusterConfig& cluster,
                                      const FaultModelConfig& config,
                                      std::uint64_t seed);

// Plain-text serialization, mirroring the workload trace format:
//   corral-faults v1
//   straggler <frac> <slowdown>
//   crash <time_seconds> <machine>
//   recover <time_seconds> <machine>
// so fault timelines can be versioned next to workload traces and replayed
// via corral_simulate --faults.
void write_faults(std::ostream& out, const FaultSchedule& schedule);
FaultSchedule read_faults(std::istream& in);
FaultSchedule read_faults_file(const std::string& path);

}  // namespace corral

#endif  // CORRAL_SIM_FAULTS_H_
