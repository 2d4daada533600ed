// Fleet routing inside SchedulingService and the determinism contract of
// run_fleet_epoch: the hierarchical epoch is bit-identical at any worker
// count (per-shard seeds come from shard indices, never threads), a
// fan-out-unsafe preference configuration is rejected up front, epochs
// below min_streams stay bit-for-bit on the flat path, and fleet-routed
// service epochs reproduce digest-for-digest across independent services.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "core/fleet.hpp"
#include "core/report_digest.hpp"
#include "core/service.hpp"
#include "eva/workload.hpp"
#include "pref/oracle.hpp"

namespace pamo::core {
namespace {

FleetOptions small_fleet(std::uint64_t seed) {
  FleetOptions fleet;
  fleet.enabled = true;
  fleet.min_streams = 8;
  fleet.shard.target_streams = 4;
  fleet.pamo.seed = seed;
  return fleet;
}

ServiceOptions fleet_service(std::uint64_t seed) {
  ServiceOptions options;
  options.initial.init_profiles = 32;
  options.initial.init_observations = 3;
  options.initial.mc_samples = 12;
  options.initial.batch_size = 2;
  options.initial.max_iters = 3;
  options.initial.pool.num_quasi_random = 32;
  options.initial.pool.mutations_per_incumbent = 6;
  options.initial.max_pool_feasible = 32;
  options.initial.gp.mle_restarts = 1;
  options.initial.gp.mle_max_evals = 50;
  options.steady = options.initial;
  options.pref_pool_size = 14;
  options.initial_comparisons = 8;
  options.fleet = small_fleet(seed);
  options.seed = seed;
  return options;
}

TEST(ServiceFleet, FleetEpochIsBitIdenticalAcrossWorkerCounts) {
  const eva::Workload workload = eva::make_fleet_workload(20, 6, 501);
  const FleetOptions options = small_fleet(17);
  const pref::PreferenceOracle oracle(pref::BenefitFunction::uniform());

  PamoResult serial;
  FleetReport serial_report;
  {
    ThreadPool pool(1);
    ThreadPool::ScopedDefault guard(pool);
    serial = run_fleet_epoch(workload, options, oracle, &serial_report);
  }
  PamoResult wide;
  FleetReport wide_report;
  {
    ThreadPool pool(8);
    ThreadPool::ScopedDefault guard(pool);
    wide = run_fleet_epoch(workload, options, oracle, &wide_report);
  }
  ASSERT_TRUE(serial.feasible);
  ASSERT_TRUE(wide.feasible);
  EXPECT_EQ(digest_schedule(serial.best_schedule),
            digest_schedule(wide.best_schedule));
  EXPECT_EQ(serial.best_config, wide.best_config);
  ASSERT_EQ(serial.benefit_trace.size(), wide.benefit_trace.size());
  for (std::size_t i = 0; i < serial.benefit_trace.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(serial.benefit_trace[i]),
              std::bit_cast<std::uint64_t>(wide.benefit_trace[i]));
  }
  ASSERT_EQ(serial_report.shards.size(), wide_report.shards.size());
  for (std::size_t s = 0; s < serial_report.shards.size(); ++s) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(serial_report.shards[s].benefit),
              std::bit_cast<std::uint64_t>(wide_report.shards[s].benefit));
  }
}

TEST(ServiceFleet, MergedDecisionCoversFleetAndTraceIsSingleEntry) {
  const eva::Workload workload = eva::make_fleet_workload(16, 5, 502);
  const FleetOptions options = small_fleet(23);
  const pref::PreferenceOracle oracle(pref::BenefitFunction::uniform());
  FleetReport report;
  const PamoResult result = run_fleet_epoch(workload, options, oracle, &report);
  ASSERT_TRUE(result.feasible);
  EXPECT_EQ(result.best_config.size(), workload.num_streams());
  // The fleet path's signature: one merged benefit entry, not a per-BO-
  // iteration trajectory.
  EXPECT_EQ(result.benefit_trace.size(), 1u);
  EXPECT_GT(report.plan.num_shards(), 1u);
  ASSERT_EQ(report.shards.size(), report.plan.num_shards());
  for (std::size_t s = 0; s < report.shards.size(); ++s) {
    EXPECT_TRUE(report.shards[s].feasible);
    EXPECT_EQ(report.shards[s].streams, report.plan.stream_ids[s].size());
    EXPECT_EQ(report.shards[s].servers, report.plan.server_ids[s].size());
  }
}

TEST(ServiceFleet, RejectsFanOutUnsafePreferenceOptions) {
  const eva::Workload workload = eva::make_fleet_workload(16, 5, 503);
  FleetOptions options = small_fleet(29);
  // Learned preference without a frozen shared learner would train one
  // model per shard against a mutable oracle — not fan-out safe.
  options.pamo.use_true_preference = false;
  const pref::PreferenceOracle oracle(pref::BenefitFunction::uniform());
  EXPECT_THROW(run_fleet_epoch(workload, options, oracle), Error);
}

TEST(ServiceFleet, BelowMinStreamsStaysBitIdenticalToFlatService) {
  const eva::Workload workload = eva::make_workload(5, 4, 71);
  ServiceOptions with_fleet = fleet_service(3);
  with_fleet.fleet.min_streams = 100;  // never reached by 5 streams
  ServiceOptions without_fleet = fleet_service(3);
  without_fleet.fleet.enabled = false;
  SchedulingService a(workload, with_fleet);
  SchedulingService b(workload, without_fleet);
  pref::PreferenceOracle oracle_a(pref::BenefitFunction::uniform());
  pref::PreferenceOracle oracle_b(pref::BenefitFunction::uniform());
  for (int epoch = 0; epoch < 2; ++epoch) {
    const auto ra = a.run_epoch(oracle_a);
    const auto rb = b.run_epoch(oracle_b);
    EXPECT_EQ(digest_epoch(ra), digest_epoch(rb)) << "epoch " << epoch;
  }
  EXPECT_EQ(a.snapshot().dump(), b.snapshot().dump());
}

TEST(ServiceFleet, FleetRoutedEpochsReproduceAcrossServices) {
  const eva::Workload workload = eva::make_fleet_workload(12, 5, 504);
  SchedulingService a(workload, fleet_service(41));
  SchedulingService b(workload, fleet_service(41));
  pref::PreferenceOracle oracle_a(pref::BenefitFunction::uniform());
  pref::PreferenceOracle oracle_b(pref::BenefitFunction::uniform());
  for (int epoch = 0; epoch < 2; ++epoch) {
    const auto ra = a.run_epoch(oracle_a);
    const auto rb = b.run_epoch(oracle_b);
    ASSERT_TRUE(ra.feasible) << "epoch " << epoch;
    // Fleet routing engaged: single-entry merged trace, full coverage.
    EXPECT_EQ(ra.benefit_trace.size(), 1u);
    EXPECT_EQ(ra.config.size(), workload.num_streams());
    EXPECT_EQ(digest_epoch(ra), digest_epoch(rb)) << "epoch " << epoch;
  }
}

TEST(ServiceFleet, FixedParamsFleetDecisionsMatchGoldenDigests) {
  // Fleet decisions pinned across commits: a fixed-hyperparameter fleet
  // (the fleet_3k benchmark's GP setting) must keep choosing exactly these
  // schedules. A change to how the outcome GPs are computed that alters a
  // single bit of a posterior shows up here as a different digest.
  struct Golden {
    std::uint64_t seed;
    std::uint64_t digest;
  };
  const Golden goldens[] = {{7, 0x75fcad1e899fd708ULL},
                             {20241017, 0xf95a3aa93c900b06ULL}};
  for (const Golden& golden : goldens) {
    const eva::Workload workload =
        eva::make_fleet_workload(120, 12, golden.seed);
    FleetOptions options;
    options.enabled = true;
    options.shard.target_streams = 12;
    options.pamo.seed = golden.seed;
    gp::KernelParams params;
    params.log_lengthscales.assign(2, std::log(0.35));
    params.log_signal_var = std::log(1.0);
    params.log_noise_var = std::log(1e-2);
    options.pamo.gp.fixed_params = params;
    const pref::PreferenceOracle oracle(pref::BenefitFunction::uniform());
    const PamoResult result = run_fleet_epoch(workload, options, oracle);
    ASSERT_TRUE(result.feasible) << "seed " << golden.seed;
    EXPECT_EQ(digest_schedule(result.best_schedule), golden.digest)
        << "seed " << golden.seed;
  }
}

}  // namespace
}  // namespace pamo::core
