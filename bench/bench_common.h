// Shared configuration and helpers for the figure/table benches.
//
// Every bench binary prints the series of one paper table or figure next to
// the value the paper reports. The simulated testbed mirrors the paper's
// 210-machine cluster (§6.1): 7 racks x 30 machines, 5:1 oversubscription,
// ~50% of core bandwidth consumed by background transfers. One deliberate
// rescale: the paper's machines run 32 concurrent tasks against a 10 Gbps
// NIC; we run 8 task slots against a 2.5 Gbps NIC, preserving the
// compute-to-network balance (per-slot NIC share ~40 MB/s, on par with task
// processing rates) that makes the oversubscribed core the bottleneck,
// while keeping simulated task counts tractable. All comparisons are
// relative, as in the paper.
#ifndef CORRAL_BENCH_BENCH_COMMON_H_
#define CORRAL_BENCH_BENCH_COMMON_H_

#include <initializer_list>
#include <map>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "corral/lp_bound.h"
#include "exec/exec.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "sim/batch.h"
#include "sim/simulator.h"
#include "workload/workloads.h"

namespace corral::bench {

// The pool every bench shares for planning and simulation batches (the
// exec:: shared pool, width = hardware concurrency unless overridden via
// exec::set_default_threads before first use). All sweeps are
// byte-identical to their serial equivalents by the exec:: determinism
// contract.
exec::ThreadPool& pool();

// Environment-driven tracing for the bench binaries: when CORRAL_TRACE_OUT
// is set, every batch run through run_traced()/run_all_policies()/
// run_yarn_and_corral() records into a shared tracer (verbosity from
// CORRAL_TRACE_LEVEL, default "jobs") and the merged Chrome trace is
// written to that path at exit. Returns nullptr when tracing is off.
obs::Tracer* bench_tracer();

// BatchRunner::run on the bench pool, with the env tracer (if any)
// attached; sink ids advance with every batch so several sweeps in one
// binary land in distinct trace lanes.
std::vector<BatchResult> run_traced(std::span<const BatchCase> cases);

// The simulated 210-machine evaluation testbed.
ClusterConfig testbed();

// Simulation defaults: 50% background core usage, replicated output writes.
SimConfig default_sim(const ClusterConfig& cluster);

// The paper's workloads at evaluation scale.
std::vector<JobSpec> w1(Rng& rng, int jobs = 200);
std::vector<JobSpec> w2(Rng& rng);
std::vector<JobSpec> w3(Rng& rng, int jobs = 200);

// Plans the recurring subset of `jobs` and returns plan + lookup.
struct PlannedWorkload {
  Plan plan;
  PlanLookup lookup;
};
PlannedWorkload plan_workload(const std::vector<JobSpec>& jobs,
                              const ClusterConfig& cluster,
                              Objective objective);

// Results of running one workload under the four §6.1 policies. The four
// simulations run concurrently on the bench pool via BatchRunner.
struct PolicyComparison {
  SimResult yarn;
  SimResult corral;
  SimResult localshuffle;
  SimResult shufflewatcher;
};

PolicyComparison run_all_policies(const std::vector<JobSpec>& jobs,
                                  Objective objective, const SimConfig& sim,
                                  bool include_shufflewatcher = true);

// Runs only Yarn-CS and Corral (for the larger sweeps), batched likewise.
struct TwoPolicyComparison {
  SimResult yarn;
  SimResult corral;
};
TwoPolicyComparison run_yarn_and_corral(const std::vector<JobSpec>& jobs,
                                        Objective objective,
                                        const SimConfig& sim);

// Builds the BatchCases of run_all_policies without running them, so
// benches sweeping several workloads can fan *everything* into one batch.
// `planned` must outlive the returned cases (the policies capture its
// lookup by pointer). Case order: yarn, corral, local-shuffle, then
// shufflewatcher when included.
std::vector<BatchCase> policy_cases(const std::vector<JobSpec>& jobs,
                                    const PlannedWorkload& planned,
                                    const SimConfig& sim,
                                    const std::string& label_prefix,
                                    bool include_shufflewatcher = true);

// Percentage string for a fractional reduction, e.g. 0.31 -> "31.0%".
std::string pct(double fraction);

// Prints a CDF as `points` rows of (value, cumulative fraction).
void print_cdf(const std::string& title, const std::vector<double>& samples,
               int points = 11);

// Prints the standard bench header.
void banner(const std::string& figure, const std::string& claim);

// The command line of a bench whose one flag is --smoke (a reduced workload
// for CI); returns whether it was given. An unknown or malformed flag prints
// usage and exits 1.
bool parse_smoke_flag(int argc, char** argv);

// One value of a bench series: a number, bool, string, array or object.
class Json {
 public:
  using Member = std::pair<std::string, Json>;

  Json() = default;  // an empty array
  template <typename T>
    requires(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>)
  Json(T number) : json_(obs::format_double(static_cast<double>(number))) {}
  Json(bool flag) : json_(flag ? "true" : "false") {}
  Json(const std::string& text) : json_('"' + obs::json_escape(text) + '"') {}
  Json(const char* text) : Json(std::string(text)) {}
  // An object; members keep this order, then the order of set().
  Json(std::initializer_list<Member> members);

  void push(Json value);                   // arrays
  Json& set(std::string key, Json value);  // objects

  // The one layout of every bench file: the top level and each container
  // that holds a container put one value per line, indented two spaces per
  // level; other containers stay on one line. Non-finite numbers are null.
  std::string dump() const;

 private:
  friend void write_series(const std::string& name, const Json& series);

  void render(std::string& out, int depth) const;

  std::string json_;  // a scalar's JSON text; empty for containers
  bool object_ = false;
  std::vector<std::string> keys_;  // objects: the key of each value
  std::vector<Json> values_;
};

// Writes `value.dump()` to `path`; a failed open or write prints a one-line
// error and exits 1.
void write_json(const std::string& path, const Json& value);

// Writes the object `series` to BENCH_<name>.json behind "bench": name and a
// "manifest" of the build (build type, compiler, hardware threads), and
// prints where it went.
void write_series(const std::string& name, const Json& series);

// Strict reader for a flat object as write_json emits it: each key once,
// each value a string without escapes, a bool, null or a number. Returns
// each member's number, NaN for the other values. Throws
// std::invalid_argument naming the path and, past the first key, the key.
std::map<std::string, double> read_flat_json(const std::string& path);

}  // namespace corral::bench

#endif  // CORRAL_BENCH_BENCH_COMMON_H_
