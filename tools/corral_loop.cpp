// corral_loop: the closed-loop control plane (docs/control_plane.md).
//
// Drives N virtual days of a recurring W1-like fleet through the
// predict -> plan-cache -> execute -> measure -> replan loop and prints a
// per-epoch table: plan-cache outcome, deterministic replan cost,
// prediction error and realized-vs-predicted makespan. Everything is
// virtual-time and seed-driven, so the table, the --report-out JSON and any
// --trace-out/--metrics-out artifacts are byte-identical at any --threads.
//
// Robustness tooling (docs/control_plane.md "Failure modes and
// guardrails"): --outage epoch:rack (repeatable) injects rack outages,
// --chaos-spec/--chaos-seed injects control-plane faults, --resilience
// turns the guardrail policy on, --checkpoint-out persists the loop state
// after every epoch and --resume continues a killed run byte-identically.
//
// Multi-tenant service mode (docs/control_plane.md "Multi-tenant
// service"): --tenants N runs N independent fleets against one cluster
// with cross-tenant rack arbitration, --shards S deals their per-epoch
// work across S lanes (byte-identical at any S), --tenant-priority t:w
// weights tenant t's fair share.
//
//   corral_loop --epochs=10 --jobs=20 --outage 5:3 --report-out=loop.json
//   corral_loop --chaos-spec=spike=0.2,exec@4 --resilience --error-budget=3
//   corral_loop --checkpoint-out=loop.ckpt --chaos-spec=crash@5
//   corral_loop --resume=loop.ckpt --checkpoint-out=loop.ckpt
//   corral_loop --tenants=4 --shards=2 --tenant-priority=0:3
//   corral_loop --smoke            # tiny run for CI
#include <cstdio>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "ctrl/control_loop.h"
#include "ctrl/report.h"
#include "ctrl/service.h"
#include "net/allocator.h"
#include "plan/backend.h"
#include "tool_common.h"
#include "util/check.h"

using namespace corral;

namespace {

// "a b c": the valid values of a choice, for an error message.
std::string join(const std::vector<std::string>& names) {
  std::string joined;
  for (const std::string& name : names) {
    if (!joined.empty()) joined += ' ';
    joined += name;
  }
  return joined;
}

// Applies one "tenant:value" override of --<flag> (e.g. --tenant-planner)
// to values[tenant]. `parse` turns the value text into a value or nullopt;
// `valid` describes the accepted values. Every malformed input fails with
// a message that names the flag.
template <typename T, typename Parse>
void apply_tenant_override(const std::string& flag, const std::string& what,
                           const std::string& valid, const std::string& text,
                           std::vector<T>& values, Parse parse) {
  const std::size_t colon = text.find(':');
  require(colon != std::string::npos && colon > 0 &&
              colon + 1 < text.size(),
          "--" + flag + " expects tenant:" + what + ", got '" + text + "'");
  const std::optional<int> tenant =
      tools::parse_int(std::string_view(text).substr(0, colon));
  require(tenant.has_value(), "--" + flag + ": bad tenant in '" + text + "'");
  require(*tenant >= 0 && *tenant < static_cast<int>(values.size()),
          "--" + flag + ": tenant out of range in '" + text + "'");
  const auto value = parse(std::string_view(text).substr(colon + 1));
  require(value.has_value(), "--" + flag + ": bad " + what + " in '" + text +
                                 "' (valid: " + valid + ")");
  values[static_cast<std::size_t>(*tenant)] = *value;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags(
      "corral_loop: closed-loop control plane over the recurring-job "
      "predictor, plan cache and simulator");
  flags.add_int("epochs", 10, "virtual days to drive (must be positive)");
  flags.add_int("warmup-days", 14,
                "days of history each pipeline starts with");
  flags.add_int("jobs", 20, "recurring W1 pipelines under control");
  flags.add_double("task-scale", 0.25,
                   "W1 task-count scale (1.0 = the paper's W1)");
  flags.add_double("drift-threshold", 0.25,
                   "mean prediction error that forces a replan (must be "
                   "positive)");
  flags.add_double("quantum", 0.15,
                   "relative size-quantization bucket for cache keys");
  flags.add_int("history-window", 0,
                "rolling history window in days; 0 = unbounded");
  tools::add_outage_flags(flags);
  flags.add_int("tenants", 1,
                "independent fleets sharing the cluster through the "
                "cross-tenant rack arbiter (1 = classic single-tenant "
                "loop)");
  flags.add_int("shards", 1,
                "shard lanes the admission queue deals tenants across; "
                "results are byte-identical at any value");
  flags.add_string_list("tenant-priority",
                        "fair-share weight override as tenant:weight "
                        "(repeatable; default weight 1)");
  flags.add_string_list("tenant-planner",
                        "per-tenant planner backend override as "
                        "tenant:backend (repeatable; default --planner)");
  flags.add_string_list("tenant-net-policy",
                        "per-tenant network policy override as "
                        "tenant:policy (repeatable; default --net-policy)");
  flags.add_string("chaos-spec", "",
                   "control-plane fault schedule: kind@epoch and kind=rate "
                   "tokens, comma separated (kinds: spike nan overrun "
                   "corrupt loss stale exec crash)");
  flags.add_int("chaos-seed", 0,
                "seed for the chaos schedule; 0 derives it from --seed");
  flags.add_bool("resilience", false,
                 "enable the guardrail policy (quarantine, retries, "
                 "fallback plans, error budget)");
  flags.add_int("planner-budget", 0,
                "max planner candidate evaluations per epoch before the "
                "fallback plan kicks in; 0 = unlimited");
  flags.add_int("max-retries", 2,
                "execution retries per epoch when --resilience is on");
  flags.add_int("error-budget", 0,
                "consecutive over-threshold epochs before demoting to the "
                "reactive baseline; 0 = never demote");
  flags.add_int("promote-after", 3,
                "consecutive clean epochs before re-promoting to planned "
                "mode");
  flags.add_string("checkpoint-out", "",
                   "write a resumable checkpoint to this file after every "
                   "epoch");
  flags.add_string("resume", "",
                   "resume a previously checkpointed run from this file");
  flags.add_int("cache-capacity", 64, "max cached plans (FIFO eviction)");
  flags.add_choice("objective", {"makespan", "avg-completion"}, "makespan",
                   "planning objective");
  flags.add_choice("planner", plan::planner_backend_names(), "corral",
                   "planning backend for cache-miss replans "
                   "(docs/planners.md)");
  flags.add_choice("net-policy", net_policy_names(), "tcp",
                   "network rate-allocation policy for every epoch "
                   "simulation (docs/coflow.md)");
  flags.add_int("seed", 2015, "base seed (workload shapes and simulation)");
  flags.add_bool("smoke", false,
                 "tiny run for CI (3 epochs, 5 jobs unless overridden)");
  flags.add_string("report-out", "",
                   "write the per-epoch control report JSON to this file");
  tools::add_output_flags(flags);
  tools::add_cluster_flags(flags);
  if (!flags.parse(argc, argv, std::cerr)) return 2;

  try {
    tools::ToolObservability outputs = tools::apply_output_flags(flags);
    const bool smoke = flags.get_bool("smoke");

    ControlLoopConfig config;
    config.cluster = tools::cluster_from_flags(flags);
    config.objective = flags.get_choice("objective") == "avg-completion"
                           ? Objective::kAverageCompletionTime
                           : Objective::kMakespan;
    plan::parse_planner_backend(flags.get_choice("planner"),
                                &config.planner_backend);
    parse_net_policy(flags.get_choice("net-policy"), &config.net_policy);
    config.epochs = static_cast<int>(flags.get_int("epochs"));
    if (smoke && !flags.provided("epochs")) config.epochs = 3;
    config.warmup_days = static_cast<int>(flags.get_int("warmup-days"));
    config.drift_threshold = flags.get_double("drift-threshold");
    config.size_quantum = flags.get_double("quantum");
    config.history_window_days =
        static_cast<int>(flags.get_int("history-window"));
    config.outages = tools::outages_from_flags(flags);
    config.chaos = parse_chaos_spec(flags.get_string("chaos-spec"));
    config.chaos_seed =
        static_cast<std::uint64_t>(flags.get_int("chaos-seed"));
    config.resilience.enabled = flags.get_bool("resilience");
    config.resilience.planner_budget_evals =
        static_cast<std::size_t>(flags.get_int("planner-budget"));
    config.resilience.max_retries =
        static_cast<int>(flags.get_int("max-retries"));
    config.resilience.demote_after =
        static_cast<int>(flags.get_int("error-budget"));
    config.resilience.promote_after =
        static_cast<int>(flags.get_int("promote-after"));
    config.checkpoint_path = flags.get_string("checkpoint-out");
    config.resume_path = flags.get_string("resume");
    config.cache_capacity =
        static_cast<std::size_t>(flags.get_int("cache-capacity"));
    config.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
    config.tracer = outputs.tracer_or_null();
    config.metrics = outputs.metrics_or_null();
    config.validate();

    W1Config workload;
    workload.num_jobs = static_cast<int>(flags.get_int("jobs"));
    if (smoke && !flags.provided("jobs")) workload.num_jobs = 5;
    workload.task_scale = flags.get_double("task-scale");
    if (smoke && !flags.provided("task-scale")) workload.task_scale = 0.2;

    const int tenants = static_cast<int>(flags.get_int("tenants"));
    require(tenants >= 1, "--tenants must be >= 1");
    const int shards = static_cast<int>(flags.get_int("shards"));
    require(shards >= 1, "--shards must be >= 1");
    std::vector<int> priorities(static_cast<std::size_t>(tenants), 1);
    for (const std::string& token :
         flags.get_string_list("tenant-priority")) {
      apply_tenant_override(
          "tenant-priority", "weight", "an integer >= 1", token, priorities,
          [](std::string_view text) {
            const std::optional<int> weight = tools::parse_int(text);
            return weight.has_value() && *weight >= 1 ? weight : std::nullopt;
          });
    }
    std::vector<std::optional<PlannerBackendKind>> tenant_backends(
        static_cast<std::size_t>(tenants));
    for (const std::string& token :
         flags.get_string_list("tenant-planner")) {
      apply_tenant_override(
          "tenant-planner", "backend", join(plan::planner_backend_names()),
          token, tenant_backends, [](std::string_view text) {
            PlannerBackendKind kind = PlannerBackendKind::kCorral;
            return plan::parse_planner_backend(text, &kind)
                       ? std::optional(kind)
                       : std::nullopt;
          });
    }
    require(tenants > 1 || flags.get_string_list("tenant-planner").empty(),
            "--tenant-planner requires --tenants > 1 (use --planner)");
    std::vector<std::optional<NetPolicy>> tenant_net_policies(
        static_cast<std::size_t>(tenants));
    for (const std::string& token :
         flags.get_string_list("tenant-net-policy")) {
      apply_tenant_override(
          "tenant-net-policy", "policy", join(net_policy_names()), token,
          tenant_net_policies, [](std::string_view text) {
            NetPolicy policy = NetPolicy::kTcp;
            return parse_net_policy(text, &policy) ? std::optional(policy)
                                                   : std::nullopt;
          });
    }
    require(
        tenants > 1 || flags.get_string_list("tenant-net-policy").empty(),
        "--tenant-net-policy requires --tenants > 1 (use --net-policy)");

    if (tenants > 1) {
      ServiceConfig service;
      service.loop = config;
      service.shards = shards;
      std::vector<ServiceTenant> fleet = make_service_fleet(
          workload, config.warmup_days, config.epochs, config.seed, tenants,
          priorities);
      for (std::size_t t = 0; t < fleet.size(); ++t) {
        fleet[t].backend = tenant_backends[t];
        fleet[t].net_policy = tenant_net_policies[t];
      }
      const ServiceResult result =
          run_control_service(std::move(fleet), service);

      std::printf("tenants: %d  shards: %d  epochs: %d\n", tenants, shards,
                  config.epochs);
      std::printf("epoch usable  grants (racks per tenant, * = changed)\n");
      for (const ServiceEpochArbitration& e : result.arbitration) {
        std::printf("%5d %6d ", e.epoch, e.usable_racks);
        for (std::size_t t = 0; t < e.granted_racks.size(); ++t) {
          std::printf(" %s:%d%s", result.tenants[t].name.c_str(),
                      e.granted_racks[t], e.grant_changed[t] ? "*" : "");
        }
        std::printf("\n");
      }
      std::printf(
          "tenant  prio  grant.chg  cache h/m  hit.rate  pred.err  "
          "done/abort\n");
      for (const TenantResult& tenant : result.tenants) {
        const ControlLoopResult& loop = tenant.loop;
        std::printf("%-7s %5d %10d %5llu/%-4llu %9.2f %8.2f%% %6d/%-4d\n",
                    tenant.name.c_str(), tenant.priority,
                    tenant.grant_changes,
                    static_cast<unsigned long long>(loop.cache.hits),
                    static_cast<unsigned long long>(loop.cache.misses),
                    loop.hit_rate_after(2),
                    100.0 * loop.mean_prediction_error,
                    loop.epochs_completed, loop.epochs_aborted);
      }
      const ControlLoopResult& combined = result.combined;
      std::printf("combined: %llu/%llu cache h/m, %llu invalidations, "
                  "%.2f%% pred.err, %d/%d done/abort\n",
                  static_cast<unsigned long long>(combined.cache.hits),
                  static_cast<unsigned long long>(combined.cache.misses),
                  static_cast<unsigned long long>(
                      combined.cache.invalidations),
                  100.0 * combined.mean_prediction_error,
                  combined.epochs_completed, combined.epochs_aborted);
      if (result.crashed_after >= 0) {
        std::printf("CRASHED after epoch %d", result.crashed_after);
        if (!config.checkpoint_path.empty()) {
          std::printf(" -- resume with --resume=%s",
                      config.checkpoint_path.c_str());
        }
        std::printf("\n");
      }
      if (!flags.get_string("report-out").empty()) {
        write_service_report_json_file(flags.get_string("report-out"),
                                       result);
        std::printf("service report written to %s\n",
                    flags.get_string("report-out").c_str());
      }
      outputs.write_outputs(std::cout);
      return 0;
    }

    std::vector<RecurringPipeline> fleet = make_recurring_fleet(
        workload, config.warmup_days, config.epochs, config.seed);
    const ControlLoopResult result =
        run_control_loop(std::move(fleet), config);

    std::printf(
        "epoch day wk  mode     cache  outage drift racks evals  pred.err  "
        "planned.ms  realized.ms  failed chaos quar retry flags\n");
    for (const EpochReport& e : result.epochs) {
      std::string notes;
      if (e.planner_overrun) notes += "overrun ";
      if (e.fallback_plan) notes += "fallback ";
      if (e.stale_topology) notes += "stale ";
      if (e.aborted) notes += "ABORT ";
      if (e.demoted) notes += "demote ";
      if (e.promoted) notes += "promote ";
      if (notes.empty()) notes.push_back('-');
      std::printf(
          "%5d %4d %-3s %-8s %-6s %-6s %-5s %5d %5zu %8.2f%% %10.1fs "
          "%11.1fs %7d %5d %4d %5d %s\n",
          e.epoch, e.day, e.weekend ? "we" : "wd",
          std::string(to_string(e.mode)).c_str(),
          e.cache_hit ? "hit" : "MISS", e.outage ? "down" : "-",
          e.drift_replan ? "yes" : "-", e.planning_racks,
          e.replan_cost_evals, 100.0 * e.mean_prediction_error,
          e.predicted_makespan, e.realized_makespan, e.jobs_failed,
          e.chaos_injected, e.quarantined, e.exec_retries, notes.c_str());
    }
    std::printf("cache: %llu hits / %llu misses, %llu invalidations, "
                "%llu evictions (capacity %zu)\n",
                static_cast<unsigned long long>(result.cache.hits),
                static_cast<unsigned long long>(result.cache.misses),
                static_cast<unsigned long long>(result.cache.invalidations),
                static_cast<unsigned long long>(result.cache.evictions),
                config.cache_capacity);
    std::printf("hit rate after epoch 2:   %.2f\n", result.hit_rate_after(2));
    std::printf("response-function memo:   %llu hits / %llu misses\n",
                static_cast<unsigned long long>(result.rf_hits),
                static_cast<unsigned long long>(result.rf_misses));
    std::printf("drift trips:              %d\n", result.drift_trips);
    std::printf("mean prediction error:    %.2f%%\n",
                100.0 * result.mean_prediction_error);
    std::printf("epochs completed/aborted: %d / %d\n",
                result.epochs_completed, result.epochs_aborted);
    if (result.chaos_events > 0 || config.resilience.enabled) {
      std::printf("chaos events injected:    %d\n", result.chaos_events);
      std::printf("forecasts quarantined:    %d\n", result.quarantined);
      std::printf("exec retries:             %d\n", result.exec_retries);
      std::printf("fallback plans served:    %d\n", result.fallbacks);
      std::printf("planner overruns:         %d\n", result.overruns);
      std::printf("stale topology views:     %d\n", result.stale_views);
      std::printf("mode demotions/promotions: %d / %d\n", result.demotions,
                  result.promotions);
      std::printf("cache corruptions caught: %llu\n",
                  static_cast<unsigned long long>(result.cache.corruptions));
    }
    if (result.crashed_after >= 0) {
      std::printf("CRASHED after epoch %d", result.crashed_after);
      if (!config.checkpoint_path.empty()) {
        std::printf(" -- resume with --resume=%s",
                    config.checkpoint_path.c_str());
      }
      std::printf("\n");
    }

    if (!flags.get_string("report-out").empty()) {
      write_ctrl_report_json_file(flags.get_string("report-out"), result);
      std::printf("control report written to %s\n",
                  flags.get_string("report-out").c_str());
    }
    outputs.write_outputs(std::cout);
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
  return 0;
}
