// The multi-tenant control-plane service (docs/control_plane.md
// "Multi-tenant service"): the cross-tenant capacity arbiter, the sharded
// admission queue's byte-identity contract across (shards, threads), the
// pinned single-tenant output and the v2 service checkpoint's kill/resume
// byte identity.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "ctrl/arbiter.h"
#include "ctrl/chaos.h"
#include "ctrl/checkpoint.h"
#include "ctrl/control_loop.h"
#include "ctrl/report.h"
#include "ctrl/service.h"
#include "exec/exec.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/hash.h"

namespace corral {
namespace {

// --- cross-tenant capacity arbiter ---------------------------------------

std::vector<int> racks_0_to(int n) {
  std::vector<int> racks;
  for (int r = 0; r < n; ++r) racks.push_back(r);
  return racks;
}

TEST(CtrlArbiter, SingleTenantGetsEverything) {
  const std::vector<int> usable = racks_0_to(5);
  const std::vector<TenantClaim> claims = {{0, 1, {}}};
  const RackGrants grants = arbitrate_racks(usable, claims);
  ASSERT_EQ(grants.racks.size(), 1u);
  EXPECT_EQ(grants.racks[0], usable);
  EXPECT_EQ(grants.quotas[0], 5);
}

TEST(CtrlArbiter, WeightedQuotasFollowLargestRemainder) {
  const std::vector<int> usable = racks_0_to(10);
  const std::vector<TenantClaim> claims = {{0, 3, {}}, {1, 1, {}}};
  const RackGrants grants = arbitrate_racks(usable, claims);
  // 10 * 3/4 = 7.5 and 10 * 1/4 = 2.5: equal remainders, the tie goes to
  // the higher priority.
  EXPECT_EQ(grants.quotas[0], 8);
  EXPECT_EQ(grants.quotas[1], 2);
  EXPECT_EQ(grants.racks[0].size(), 8u);
  EXPECT_EQ(grants.racks[1].size(), 2u);
}

TEST(CtrlArbiter, GrantsAreDisjointAndCoverUsable) {
  const std::vector<int> usable = {0, 2, 3, 5, 6, 7, 9};
  const std::vector<TenantClaim> claims = {
      {0, 2, {5, 6}}, {1, 1, {0}}, {2, 1, {}}};
  const RackGrants grants = arbitrate_racks(usable, claims);
  std::vector<int> all;
  for (const std::vector<int>& grant : grants.racks) {
    all.insert(all.end(), grant.begin(), grant.end());
  }
  std::sort(all.begin(), all.end());
  EXPECT_EQ(all, usable);  // disjoint + complete: every usable rack once
}

TEST(CtrlArbiter, StickyClaimsAreHonoredFirst) {
  const std::vector<int> usable = racks_0_to(6);
  // Tenant 1 held {4, 5} last epoch; with quota 3 it keeps both and fills
  // one more from the lowest-numbered leftovers.
  const std::vector<TenantClaim> claims = {{0, 1, {0, 1, 2}},
                                           {1, 1, {4, 5}}};
  const RackGrants grants = arbitrate_racks(usable, claims);
  EXPECT_EQ(grants.racks[0], (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(grants.racks[1], (std::vector<int>{3, 4, 5}));
}

TEST(CtrlArbiter, StarvationFloorGivesEveryTenantARack) {
  const std::vector<int> usable = racks_0_to(3);
  // Weights 5:1:1 would round to 2:0:1 (or worse); the floor forces every
  // tenant to hold at least one rack.
  const std::vector<TenantClaim> claims = {
      {0, 5, {}}, {1, 1, {}}, {2, 1, {}}};
  const RackGrants grants = arbitrate_racks(usable, claims);
  for (std::size_t t = 0; t < claims.size(); ++t) {
    EXPECT_GE(grants.quotas[t], 1) << "tenant " << t;
    EXPECT_GE(grants.racks[t].size(), 1u) << "tenant " << t;
  }
}

TEST(CtrlArbiter, RejectsBadInputs) {
  const std::vector<int> usable = racks_0_to(2);
  EXPECT_THROW(arbitrate_racks(usable, {}), std::invalid_argument);
  const std::vector<TenantClaim> three = {{0, 1, {}}, {1, 1, {}},
                                          {2, 1, {}}};
  EXPECT_THROW(arbitrate_racks(usable, three), std::invalid_argument);
  const std::vector<TenantClaim> bad_priority = {{0, 0, {}}};
  EXPECT_THROW(arbitrate_racks(usable, bad_priority),
               std::invalid_argument);
  const std::vector<int> unsorted = {3, 1};
  const std::vector<TenantClaim> one = {{0, 1, {}}};
  EXPECT_THROW(arbitrate_racks(unsorted, one), std::invalid_argument);
}

// --- service fixtures ----------------------------------------------------

// Small but real: every tenant is a W1-like fleet of 2 pipelines over a
// cluster wide enough for 16 one-rack grants.
ServiceConfig service_config(int epochs, int shards) {
  ServiceConfig config;
  config.loop.cluster.racks = 18;
  config.loop.cluster.machines_per_rack = 3;
  config.loop.cluster.slots_per_machine = 4;
  config.loop.cluster.nic_bandwidth = 2.5 * kGbps;
  config.loop.epochs = epochs;
  config.loop.warmup_days = 14;
  config.shards = shards;
  return config;
}

W1Config tenant_fleet_config() {
  W1Config config;
  config.num_jobs = 2;
  config.task_scale = 0.1;
  return config;
}

struct ServiceArtifacts {
  ServiceResult result;
  std::string report_json;
  std::string trace_json;
  std::string metrics_json;
};

ServiceArtifacts run_service(ServiceConfig config, int tenants, int width,
                             std::span<const int> priorities = {},
                             std::span<const NetPolicy> net_policies = {}) {
  exec::ThreadPool pool(width);
  obs::TracerOptions options;
  options.level = obs::TraceLevel::kTasks;
  obs::Tracer tracer(options);
  obs::MetricsRegistry metrics;
  config.loop.pool = &pool;
  config.loop.tracer = &tracer;
  config.loop.metrics = &metrics;

  std::vector<ServiceTenant> fleet =
      make_service_fleet(tenant_fleet_config(), config.loop.warmup_days,
                         config.loop.epochs, config.loop.seed, tenants,
                         priorities);
  if (!net_policies.empty()) {
    // Mixed coflow policies: tenant t executes (and fingerprints) under
    // net_policies[t % size], like --tenant-net-policy in corral_loop.
    for (std::size_t t = 0; t < fleet.size(); ++t) {
      fleet[t].net_policy = net_policies[t % net_policies.size()];
    }
  }
  ServiceArtifacts artifacts;
  artifacts.result = run_control_service(std::move(fleet), config);
  artifacts.report_json = service_report_json_string(artifacts.result);
  artifacts.trace_json = obs::chrome_trace_string(tracer);
  std::ostringstream metrics_out;
  obs::write_metrics_json(metrics_out, metrics);
  artifacts.metrics_json = metrics_out.str();
  return artifacts;
}

// --- determinism across (shards, threads) --------------------------------

TEST(MultiTenantDeterminism, ByteIdenticalAcrossShardsAndThreads) {
  constexpr int kTenants = 16;
  constexpr int kEpochs = 3;
  const std::vector<int> priorities = {3, 1, 1, 1, 2, 1, 1, 1,
                                       1, 1, 1, 1, 1, 1, 1, 2};
  const ServiceArtifacts reference =
      run_service(service_config(kEpochs, /*shards=*/1), kTenants,
                  /*width=*/1, priorities);
  // The reference run must itself be meaningful: every tenant completed
  // every epoch and the weighted shares differ.
  ASSERT_EQ(reference.result.tenants.size(),
            static_cast<std::size_t>(kTenants));
  for (const TenantResult& tenant : reference.result.tenants) {
    EXPECT_EQ(tenant.loop.epochs_completed + tenant.loop.epochs_aborted,
              kEpochs)
        << tenant.name;
  }
  EXPECT_GT(reference.result.arbitration[0].granted_racks[0],
            reference.result.arbitration[0].granted_racks[1]);

  const struct {
    int shards;
    int threads;
  } grid[] = {{2, 2}, {4, 8}};
  for (const auto& point : grid) {
    const ServiceArtifacts other =
        run_service(service_config(kEpochs, point.shards), kTenants,
                    point.threads, priorities);
    EXPECT_EQ(other.report_json, reference.report_json)
        << "shards=" << point.shards << " threads=" << point.threads;
    EXPECT_EQ(other.trace_json, reference.trace_json)
        << "shards=" << point.shards << " threads=" << point.threads;
    EXPECT_EQ(other.metrics_json, reference.metrics_json)
        << "shards=" << point.shards << " threads=" << point.threads;
  }
}

// --- single-tenant output pin ---------------------------------------------

TEST(MultiTenantDeterminism, OneTenantOutputMatchesPinnedDigest) {
  // FNV-1a digests of the 1-tenant report, trace and metrics bytes for
  // this config, pinned from the build where run_control_loop still ran
  // its own epoch loop: both entry points (the run_control_loop wrapper
  // and the service) must keep reproducing them exactly.
  ServiceConfig config = service_config(/*epochs=*/4, /*shards=*/1);
  config.loop.outages = {{2, 1}};
  const std::string kReport = "6d2c67a5962fbf63";
  const std::string kTrace = "58bbc56bd08e9d1e";
  const std::string kMetrics = "f9dab01774515724";

  const ServiceArtifacts service = run_service(config, /*tenants=*/1,
                                               /*width=*/2);
  EXPECT_EQ(hex16(fnv1a(ctrl_report_json_string(service.result.combined))),
            kReport);
  EXPECT_EQ(hex16(fnv1a(service.trace_json)), kTrace);
  EXPECT_EQ(hex16(fnv1a(service.metrics_json)), kMetrics);

  exec::ThreadPool pool(2);
  obs::TracerOptions options;
  options.level = obs::TraceLevel::kTasks;
  obs::Tracer tracer(options);
  obs::MetricsRegistry metrics;
  ControlLoopConfig loop = config.loop;
  loop.pool = &pool;
  loop.tracer = &tracer;
  loop.metrics = &metrics;
  const ControlLoopResult direct = run_control_loop(
      make_recurring_fleet(tenant_fleet_config(), loop.warmup_days,
                           loop.epochs, loop.seed),
      loop);
  std::ostringstream metrics_json;
  obs::write_metrics_json(metrics_json, metrics);
  EXPECT_EQ(hex16(fnv1a(ctrl_report_json_string(direct))), kReport);
  EXPECT_EQ(hex16(fnv1a(obs::chrome_trace_string(tracer))), kTrace);
  EXPECT_EQ(hex16(fnv1a(metrics_json.str())), kMetrics);
}

// --- arbitration under outage --------------------------------------------

TEST(MultiTenantDeterminism, OutageShrinksGrantsAndRecovers) {
  ServiceConfig config = service_config(/*epochs=*/4, /*shards=*/2);
  config.loop.outages = {{1, 0}, {1, 5}};
  const ServiceArtifacts artifacts = run_service(config, /*tenants=*/4,
                                                 /*width=*/2);
  const std::vector<ServiceEpochArbitration>& log =
      artifacts.result.arbitration;
  ASSERT_EQ(log.size(), 4u);
  EXPECT_EQ(log[0].usable_racks, 18);
  EXPECT_EQ(log[1].usable_racks, 16);  // racks 0 and 5 down
  EXPECT_EQ(log[2].usable_racks, 18);  // and back
  int total_down = 0;
  for (int g : log[1].granted_racks) total_down += g;
  EXPECT_EQ(total_down, 16);  // the arbiter hands out exactly what's up
  // The outage epoch changes at least one tenant's grant (spill-over
  // replanning on the residual subcluster), and so does the recovery.
  bool changed_down = false;
  bool changed_up = false;
  for (std::size_t t = 0; t < 4; ++t) {
    changed_down = changed_down || log[1].grant_changed[t];
    changed_up = changed_up || log[2].grant_changed[t];
  }
  EXPECT_TRUE(changed_down);
  EXPECT_TRUE(changed_up);
  // Every tenant still completed every epoch on its shrunken share.
  for (const TenantResult& tenant : artifacts.result.tenants) {
    EXPECT_EQ(tenant.loop.epochs_completed, 4) << tenant.name;
  }
}

// --- service kill/resume byte identity -----------------------------------

TEST(MultiTenantDeterminism, KillAndResumeIsByteIdentical) {
  ServiceConfig config = service_config(/*epochs=*/4, /*shards=*/2);
  config.loop.chaos = parse_chaos_spec("crash@1");

  // Ground truth: the same config, never killed (crash epochs stay out of
  // the per-epoch schedule, so its epochs see identical faults).
  ServiceConfig reference_config = config;
  reference_config.loop.chaos = ChaosSpec{};
  const ServiceArtifacts reference =
      run_service(reference_config, /*tenants=*/3, /*width=*/2);

  const std::string path =
      ::testing::TempDir() + "multitenant_resume.ckpt";
  std::remove(path.c_str());

  ServiceConfig crash_leg = config;
  crash_leg.loop.checkpoint_path = path;
  const ServiceArtifacts crashed = run_service(crash_leg, /*tenants=*/3,
                                               /*width=*/2);
  ASSERT_EQ(crashed.result.crashed_after, 1);

  // The resume leg keeps the crash chaos spec (the fingerprint gate
  // demands the same regime); a crash behind the resume point never fires
  // again.
  ServiceConfig resume_leg = crash_leg;
  resume_leg.loop.resume_path = path;
  // Resume under a different execution width: still byte-identical.
  const ServiceArtifacts resumed = run_service(resume_leg, /*tenants=*/3,
                                               /*width=*/8);
  EXPECT_EQ(resumed.result.crashed_after, -1);
  EXPECT_EQ(resumed.report_json, reference.report_json);
  EXPECT_EQ(resumed.trace_json, reference.trace_json);
  EXPECT_EQ(resumed.metrics_json, reference.metrics_json);
}

// --- mixed per-tenant net policies ---------------------------------------

TEST(MultiTenantDeterminism, MixedNetPoliciesByteIdenticalAcrossShardsAndThreads) {
  // The 16-tenant determinism contract with every coflow policy in play:
  // tenants cycle tcp/varys/lp-order/sincronia, and the full artifact set
  // must stay byte-identical across (shards, threads).
  constexpr int kTenants = 16;
  constexpr int kEpochs = 3;
  const std::vector<NetPolicy> mix = {NetPolicy::kTcp, NetPolicy::kVarys,
                                      NetPolicy::kLpOrder,
                                      NetPolicy::kSincronia};
  const ServiceArtifacts reference =
      run_service(service_config(kEpochs, /*shards=*/1), kTenants,
                  /*width=*/1, {}, mix);
  ASSERT_EQ(reference.result.tenants.size(),
            static_cast<std::size_t>(kTenants));
  for (const TenantResult& tenant : reference.result.tenants) {
    EXPECT_EQ(tenant.loop.epochs_completed, kEpochs) << tenant.name;
  }
  // The policy override must actually reach the tenants' simulations: the
  // same fleet forced all-tcp reports different measurements.
  const std::vector<NetPolicy> all_tcp = {NetPolicy::kTcp};
  const ServiceArtifacts tcp_only =
      run_service(service_config(kEpochs, /*shards=*/1), kTenants,
                  /*width=*/1, {}, all_tcp);
  EXPECT_NE(reference.report_json, tcp_only.report_json);

  const struct {
    int shards;
    int threads;
  } grid[] = {{2, 2}, {4, 8}};
  for (const auto& point : grid) {
    const ServiceArtifacts other =
        run_service(service_config(kEpochs, point.shards), kTenants,
                    point.threads, {}, mix);
    EXPECT_EQ(other.report_json, reference.report_json)
        << "shards=" << point.shards << " threads=" << point.threads;
    EXPECT_EQ(other.trace_json, reference.trace_json)
        << "shards=" << point.shards << " threads=" << point.threads;
    EXPECT_EQ(other.metrics_json, reference.metrics_json)
        << "shards=" << point.shards << " threads=" << point.threads;
  }
}

TEST(MultiTenantDeterminism, MixedNetPoliciesKillAndResumeIsByteIdentical) {
  // Kill/resume under mixed net policies: the per-tenant policy is part of
  // the checkpoint fingerprint (control_loop_fingerprint mixes it), so the
  // resume leg reproduces the uncrashed run byte for byte.
  const std::vector<NetPolicy> mix = {NetPolicy::kVarys, NetPolicy::kLpOrder,
                                      NetPolicy::kSincronia};
  ServiceConfig config = service_config(/*epochs=*/4, /*shards=*/2);
  config.loop.chaos = parse_chaos_spec("crash@1");

  ServiceConfig reference_config = config;
  reference_config.loop.chaos = ChaosSpec{};
  const ServiceArtifacts reference =
      run_service(reference_config, /*tenants=*/3, /*width=*/2, {}, mix);

  const std::string path =
      ::testing::TempDir() + "multitenant_netpolicy_resume.ckpt";
  std::remove(path.c_str());

  ServiceConfig crash_leg = config;
  crash_leg.loop.checkpoint_path = path;
  const ServiceArtifacts crashed =
      run_service(crash_leg, /*tenants=*/3, /*width=*/2, {}, mix);
  ASSERT_EQ(crashed.result.crashed_after, 1);

  ServiceConfig resume_leg = crash_leg;
  resume_leg.loop.resume_path = path;
  const ServiceArtifacts resumed =
      run_service(resume_leg, /*tenants=*/3, /*width=*/8, {}, mix);
  EXPECT_EQ(resumed.result.crashed_after, -1);
  EXPECT_EQ(resumed.report_json, reference.report_json);
  EXPECT_EQ(resumed.trace_json, reference.trace_json);
  EXPECT_EQ(resumed.metrics_json, reference.metrics_json);

  // A resume under a *different* policy mix must be refused — the service
  // fingerprint (which mixes each tenant's policy) no longer matches.
  ServiceConfig mismatched = crash_leg;
  mismatched.loop.resume_path = path;
  const std::vector<NetPolicy> other_mix = {NetPolicy::kTcp};
  EXPECT_THROW(
      run_service(mismatched, /*tenants=*/3, /*width=*/2, {}, other_mix),
      std::invalid_argument);
}

// --- v2 checkpoint format ------------------------------------------------

TEST(MultiTenantDeterminism, ServiceCheckpointRoundTripsAndRejectsV1) {
  ServiceCheckpointState service;
  service.config_fingerprint = 7;
  service.next_epoch = 2;
  service.tenants.resize(2);
  service.tenants[0].pipelines.resize(1);
  service.tenants[0].pipelines[0].planning_inputs = {1.0, 2.0};
  const std::string v2 = serialize_service_checkpoint(service);

  const ServiceCheckpointState round =
      deserialize_service_checkpoint(v2);
  EXPECT_EQ(round.config_fingerprint, 7u);
  EXPECT_EQ(round.next_epoch, 2);
  ASSERT_EQ(round.tenants.size(), 2u);
  ASSERT_EQ(round.tenants[0].pipelines.size(), 1u);
  EXPECT_EQ(round.tenants[0].pipelines[0].planning_inputs[0], 1.0);
  // Round trip is byte-stable.
  EXPECT_EQ(serialize_service_checkpoint(round), v2);

  // A file of the retired v1 format fails on its magic, even re-sealed
  // with a valid checksum.
  std::string v1 = v2.substr(0, v2.rfind("checksum "));
  v1.replace(v1.find(" v2\n"), 4, " v1\n");
  v1 += "checksum " + hex16(fnv1a(v1)) + "\n";
  EXPECT_THROW(deserialize_service_checkpoint(v1), std::invalid_argument);
}

TEST(MultiTenantDeterminism, ResumeRefusesMismatchedTenantSet) {
  ServiceConfig config = service_config(/*epochs=*/3, /*shards=*/1);
  const std::string path =
      ::testing::TempDir() + "multitenant_mismatch.ckpt";
  std::remove(path.c_str());
  ServiceConfig checkpointing = config;
  checkpointing.loop.checkpoint_path = path;
  (void)run_service(checkpointing, /*tenants=*/2, /*width=*/1);

  // Different priorities => different service fingerprint => refused.
  ServiceConfig other = config;
  other.loop.resume_path = path;
  const std::vector<int> priorities = {2, 1};
  exec::ThreadPool pool(1);
  other.loop.pool = &pool;
  EXPECT_THROW(
      run_control_service(
          make_service_fleet(tenant_fleet_config(), other.loop.warmup_days,
                             other.loop.epochs, other.loop.seed, 2,
                             priorities),
          other),
      std::invalid_argument);
}

// --- config validation ---------------------------------------------------

TEST(CtrlService, ValidateRejectsTooManyTenantsForCluster) {
  ServiceConfig config = service_config(/*epochs=*/2, /*shards=*/1);
  config.loop.cluster.racks = 3;
  config.loop.outages = {{1, 0}, {1, 1}};
  // Epoch 1 leaves one usable rack for two tenants.
  EXPECT_THROW(config.validate(/*tenants=*/2), std::invalid_argument);
  EXPECT_NO_THROW(config.validate(/*tenants=*/1));
  config.shards = 0;
  EXPECT_THROW(config.validate(/*tenants=*/1), std::invalid_argument);
}

}  // namespace
}  // namespace corral
