// Parallel simulation batches.
//
// Every bench sweep (policies x workloads, seed sweeps, MTBF sweeps, rack
// counts) runs many *independent* simulations; BatchRunner fans them across
// the exec:: pool and returns the results in submission order. Each
// simulation is deterministic given its SimConfig seed and owns every piece
// of mutable state it touches (a fresh SchedulingPolicy from the case's
// factory, the simulator's internal Rng, the per-thread allocator scratch),
// so a batch's results are byte-identical to running the cases one by one —
// at any pool width.
#ifndef CORRAL_SIM_BATCH_H_
#define CORRAL_SIM_BATCH_H_

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "sim/simulator.h"

namespace corral {

namespace exec {
class ThreadPool;
}  // namespace exec

struct BatchCase {
  // Free-form tag echoed into the result slot's label (sweep axis value,
  // policy name, ...); not interpreted by the runner.
  std::string label;
  std::vector<JobSpec> jobs;
  SimConfig config;
  // Builds this case's policy instance. Called once per run, possibly on a
  // pool worker and concurrently with other cases' factories, so captures
  // must be read-only shared state (a const PlanLookup*, value copies).
  std::function<std::unique_ptr<SchedulingPolicy>()> make_policy;
};

struct BatchResult {
  std::string label;
  SimResult result;
};

class BatchRunner {
 public:
  // nullptr = exec::ThreadPool::shared().
  explicit BatchRunner(exec::ThreadPool* pool = nullptr);

  // Attaches a tracer to every case of subsequent run() calls: case i
  // records into sink `first_sink + i` labelled "<label>" (or the policy
  // name), plus one per-run span covering 0..makespan. Sink ids depend only
  // on the case index, so merged traces stay byte-identical at any pool
  // width. Cases that already carry their own SimConfig::tracer are left
  // untouched.
  void set_tracer(obs::Tracer* tracer, int first_sink = 0);

  // Runs every case and returns results in case order. A case that throws
  // (e.g. SimulationTimeout) fails the whole batch: all cases still run to
  // completion, then the smallest-index exception is rethrown.
  std::vector<BatchResult> run(std::span<const BatchCase> cases) const;

 private:
  exec::ThreadPool* pool_;
  obs::Tracer* tracer_ = nullptr;
  int first_sink_ = 0;
};

}  // namespace corral

#endif  // CORRAL_SIM_BATCH_H_
