// Daemon policy: checkpoint cadence, repair-triggered checkpoints,
// pruning, the simulated clock, and resume of the cumulative state
// (ticks, digest trajectory, repair log). Bit-identical *recovery* under
// injected kills lives in integration/test_daemon_restart.cpp.
#include "core/daemon.hpp"

#include <gtest/gtest.h>
#include <stdlib.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <string>
#include <utility>

#include "ckpt/checkpoint.hpp"
#include "ckpt/codec.hpp"
#include "common/error.hpp"
#include "eva/churn.hpp"
#include "eva/clip.hpp"
#include "gp/gp_regressor.hpp"
#include "sim/fault.hpp"

namespace pamo::core {
namespace {

ServiceOptions tiny_service(std::uint64_t seed) {
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
  options.steady.init_profiles = 24;
  options.steady.max_iters = 2;
  options.pref_pool_size = 14;
  options.initial_comparisons = 8;
  options.seed = seed;
  return options;
}

std::string make_temp_dir() {
  char buf[] = "/tmp/pamo_daemon_XXXXXX";
  const char* dir = ::mkdtemp(buf);
  if (dir == nullptr) throw pamo::Error("mkdtemp failed");
  return dir;
}

class DaemonTest : public ::testing::Test {
 protected:
  void SetUp() override { dir_ = make_temp_dir(); }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  DaemonOptions daemon_options() {
    DaemonOptions options;
    options.checkpoint_dir = dir_;
    return options;
  }

  std::string dir_;
};

TEST_F(DaemonTest, CadenceControlsWhenCheckpointsLand) {
  const eva::Workload workload = eva::make_workload(4, 3, 422);
  DaemonOptions options = daemon_options();
  options.checkpoint_every = 2;
  options.keep_checkpoints = 0;  // keep everything; this test counts files
  Daemon daemon(workload, tiny_service(9), options);
  EXPECT_FALSE(daemon.resume().has_value());  // empty store = fresh start

  pref::PreferenceOracle oracle(pref::BenefitFunction::uniform());
  const auto outcomes = daemon.run(oracle, 4);
  ASSERT_EQ(outcomes.size(), 4u);
  EXPECT_FALSE(outcomes[0].checkpoint_sequence.has_value());
  ASSERT_TRUE(outcomes[1].checkpoint_sequence.has_value());
  EXPECT_FALSE(outcomes[2].checkpoint_sequence.has_value());
  ASSERT_TRUE(outcomes[3].checkpoint_sequence.has_value());
  EXPECT_EQ(daemon.store().list().size(), 2u);
  EXPECT_EQ(daemon.ticks(), 4 * options.ticks_per_epoch);
  EXPECT_EQ(daemon.epoch_digests().size(), 4u);
}

TEST_F(DaemonTest, ZeroCadenceStillCheckpointsOnRepair) {
  // Hostile plan from epoch 0 → repairs fire; with cadence disabled, the
  // only snapshots on disk are the repair-triggered ones.
  const eva::Workload workload = eva::make_workload(5, 4, 421);
  DaemonOptions options = daemon_options();
  options.checkpoint_every = 0;
  Daemon daemon(workload, tiny_service(77), options);
  sim::FaultPlan plan;
  plan.kill_server(1, 1.5, 3.0);
  plan.collapse_uplink(0, 0.5, 0.4);
  plan.slow_server(2, 1.0, 2.5, 3.5);
  plan.drop_frames(0.05, 0xD15EA5E);
  daemon.service().set_fault_plan(plan);

  pref::PreferenceOracle oracle(pref::BenefitFunction::uniform());
  const auto outcomes = daemon.run(oracle, 3);
  std::size_t repaired_epochs = 0;
  for (const auto& outcome : outcomes) {
    const bool repair_due = outcome.report.repaired || outcome.report.fallback;
    EXPECT_EQ(outcome.checkpoint_sequence.has_value(), repair_due);
    if (repair_due) ++repaired_epochs;
  }
  EXPECT_EQ(daemon.store().list().size(), repaired_epochs);
  // The hostile plan's server kill is there to make this non-vacuous.
  EXPECT_GT(repaired_epochs, 0u);
}

TEST_F(DaemonTest, CheckpointNowIsUnconditionalAndPrunes) {
  const eva::Workload workload = eva::make_workload(4, 3, 422);
  DaemonOptions options = daemon_options();
  options.checkpoint_every = 0;
  options.keep_checkpoints = 2;
  Daemon daemon(workload, tiny_service(9), options);
  EXPECT_EQ(daemon.checkpoint_now(), 1u);
  EXPECT_EQ(daemon.checkpoint_now(), 2u);
  EXPECT_EQ(daemon.checkpoint_now(), 3u);
  const auto files = daemon.store().list();
  ASSERT_EQ(files.size(), 2u);
  EXPECT_EQ(files.front(), "ckpt-00000002.json");
  EXPECT_EQ(files.back(), "ckpt-00000003.json");
}

TEST_F(DaemonTest, ResumeRestoresClockTrajectoryAndRepairLog) {
  const eva::Workload workload = eva::make_workload(5, 4, 421);
  sim::FaultPlan plan;
  plan.kill_server(1, 1.5, 3.0);

  Daemon first(workload, tiny_service(77), daemon_options());
  first.service().set_fault_plan(plan);
  pref::PreferenceOracle oracle_a(pref::BenefitFunction::uniform());
  first.run(oracle_a, 2);
  const auto digests = first.epoch_digests();
  const auto repairs = first.repair_log();
  const auto ticks = first.ticks();

  // A brand-new daemon over the same store picks the lineage back up.
  // The fault plan rides in the checkpoint — no re-install needed.
  Daemon second(workload, tiny_service(77), daemon_options());
  const auto resumed = second.resume();
  ASSERT_TRUE(resumed.has_value());
  EXPECT_EQ(second.ticks(), ticks);
  EXPECT_EQ(second.epoch_digests(), digests);
  ASSERT_EQ(second.repair_log().size(), repairs.size());
  for (std::size_t i = 0; i < repairs.size(); ++i) {
    EXPECT_EQ(second.repair_log()[i].epoch, repairs[i].epoch);
    EXPECT_EQ(second.repair_log()[i].kind, repairs[i].kind);
    EXPECT_EQ(second.repair_log()[i].detail, repairs[i].detail);
  }
  EXPECT_EQ(second.service().epochs_run(), first.service().epochs_run());
}

TEST_F(DaemonTest, ResumedDaemonContinuesTheDigestTrajectory) {
  const eva::Workload workload = eva::make_workload(4, 3, 422);

  // Uninterrupted reference: 3 epochs straight through.
  Daemon reference(workload, tiny_service(9),
                   [&] {
                     DaemonOptions o;
                     o.checkpoint_dir = dir_ + "/ref";
                     return o;
                   }());
  pref::PreferenceOracle oracle_ref(pref::BenefitFunction::uniform());
  reference.run(oracle_ref, 3);

  // Interrupted run: 2 epochs, process "dies", new daemon resumes, 1 more.
  {
    Daemon before(workload, tiny_service(9), daemon_options());
    pref::PreferenceOracle oracle(pref::BenefitFunction::uniform());
    before.run(oracle, 2);
  }
  Daemon after(workload, tiny_service(9), daemon_options());
  ASSERT_TRUE(after.resume().has_value());
  pref::PreferenceOracle oracle_resumed(pref::BenefitFunction::uniform());
  after.run(oracle_resumed, 1);

  EXPECT_EQ(after.epoch_digests(), reference.epoch_digests());
}

namespace json = obs::json;

/// Whether any object under `v` has a "lower" key outside a "sparse"
/// subtree, i.e. whether the payload stores an exact-backend factor.
bool stores_exact_factor(const json::Value& v) {
  if (v.kind() == json::Value::Kind::kArray) {
    for (const auto& item : v.items()) {
      if (stores_exact_factor(item)) return true;
    }
  } else if (v.kind() == json::Value::Kind::kObject) {
    for (const auto& [key, value] : v.members()) {
      if (key == "sparse") continue;
      if (key == "lower" || stores_exact_factor(value)) return true;
    }
  }
  return false;
}

std::size_t count_key(const json::Value& v, const std::string& name) {
  std::size_t count = 0;
  if (v.kind() == json::Value::Kind::kArray) {
    for (const auto& item : v.items()) count += count_key(item, name);
  } else if (v.kind() == json::Value::Kind::kObject) {
    for (const auto& [key, value] : v.members()) {
      count += (key == name ? 1 : 0) + count_key(value, name);
    }
  }
  return count;
}

/// The `pamo_daemon --churn` service: warm start, a bounded preference
/// pool and the admission governor.
ServiceOptions churn_service(std::uint64_t seed, std::size_t streams) {
  ServiceOptions options = tiny_service(seed);
  options.continual.warm_start = true;
  options.continual.pref_pool_cap = 24;
  options.governor.enabled = true;
  options.governor.max_streams = streams + 1;
  options.governor.hysteresis = 0.1;
  return options;
}

eva::ChurnPlan churn_plan(std::size_t epochs) {
  eva::ChurnOptions churn;
  churn.arrival_rate = 0.6;
  churn.mean_lifetime_epochs = 4.0;
  churn.diurnal_amplitude = 0.3;
  churn.diurnal_period = 6;
  churn.drift_per_epoch = 0.03;
  churn.horizon = epochs;
  churn.seed = 421 ^ 0xC0FFEEull;
  return eva::ChurnPlan(churn);
}

TEST_F(DaemonTest, ChurnCheckpointStoresNoExactFactor) {
  // Exact Cholesky factors are re-derived on restore; only the sparse
  // backend's rank-one-updated system may store one. This guards against
  // a factor creeping back into the checkpoint.
  Daemon daemon(eva::make_workload(5, 4, 421), churn_service(1, 5),
                daemon_options());
  daemon.service().set_churn_plan(churn_plan(4));
  pref::PreferenceOracle oracle(pref::BenefitFunction::uniform());
  daemon.run(oracle, 3);
  const auto loaded = daemon.store().load_newest_valid();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_FALSE(stores_exact_factor(loaded->payload));
  // Non-vacuous: the payload does hold the factored models.
  EXPECT_GE(count_key(loaded->payload, "chol"), 5u);
  EXPECT_EQ(count_key(loaded->payload, "k_chol"), 1u);
  EXPECT_EQ(count_key(loaded->payload, "b_chol"), 1u);
}

/// `payload` with every exact factor stored whole again, as checkpoints
/// written before factor re-derivation carried them. The factors come from
/// restoring the payload, so they are the ones the writer held.
json::Value with_stored_factors(const json::Value& payload,
                                const ServiceOptions& options,
                                const Daemon& restored) {
  auto stored = [](const json::Value& factor, const la::Cholesky& chol) {
    json::Value out = json::Value::object();
    out.set("lower", ckpt::codec::matrix_to_json(chol.lower()));
    out.set("jitter", factor.at("jitter"));
    return out;
  };
  json::Value result = payload;
  json::Value& service = result.at("service");
  json::Value models = json::Value::array();
  for (const auto& item : service.at("models").items()) {
    gp::GpRegressor gp(options.steady.gp);
    gp.restore(item);
    json::Value copy = item;
    copy.set("chol", stored(item.at("chol"), *gp.factor()));
    models.push_back(std::move(copy));
  }
  service.set("models", std::move(models));
  const pref::PreferenceGp& model = restored.service().learner()->model();
  json::Value& learner_model = service.at("learner").at("model");
  learner_model.set("k_chol", stored(learner_model.at("k_chol"),
                                     *model.prior_factor()));
  learner_model.set("b_chol", stored(learner_model.at("b_chol"),
                                     *model.posterior_factor()));
  return result;
}

TEST_F(DaemonTest, ResumesFromACheckpointThatStoresTheFactors) {
  const eva::Workload workload = eva::make_workload(4, 3, 422);
  const ServiceOptions service = tiny_service(9);
  auto options_at = [&](const std::string& sub) {
    DaemonOptions o = daemon_options();
    o.checkpoint_dir = dir_ + "/" + sub;
    return o;
  };
  Daemon reference(workload, service, options_at("ref"));
  pref::PreferenceOracle oracle_ref(pref::BenefitFunction::uniform());
  reference.run(oracle_ref, 3);

  {
    Daemon before(workload, service, options_at("a"));
    pref::PreferenceOracle oracle(pref::BenefitFunction::uniform());
    before.run(oracle, 2);
  }
  Daemon probe(workload, service, options_at("a"));
  ASSERT_TRUE(probe.resume().has_value());
  const json::Value payload =
      ckpt::CheckpointStore(dir_ + "/a").load_newest_valid()->payload;
  const json::Value legacy = with_stored_factors(payload, service, probe);
  ASSERT_FALSE(stores_exact_factor(payload));
  ASSERT_TRUE(stores_exact_factor(legacy));

  ckpt::CheckpointStore(dir_ + "/b").save(legacy);
  Daemon after(workload, service, options_at("b"));
  ASSERT_TRUE(after.resume().has_value());
  pref::PreferenceOracle oracle_resumed(pref::BenefitFunction::uniform());
  after.run(oracle_resumed, 1);
  EXPECT_EQ(after.epoch_digests(), reference.epoch_digests());

  // A stored factor one ULP off its re-derivation is rejected.
  json::Value off = legacy;
  json::Value& k_chol =
      off.at("service").at("learner").at("model").at("k_chol");
  la::Matrix lower = ckpt::codec::matrix_from_json(k_chol.at("lower"));
  lower(1, 0) =
      std::nextafter(lower(1, 0), std::numeric_limits<double>::max());
  k_chol.set("lower", ckpt::codec::matrix_to_json(lower));
  ckpt::CheckpointStore(dir_ + "/c").save(off);
  Daemon rejecting(workload, service, options_at("c"));
  EXPECT_THROW(rejecting.resume(), pamo::Error);
}

TEST_F(DaemonTest, RejectedRestoreLeavesServiceAndDaemonUntouched) {
  // A digest-valid payload whose last outcome GP cannot be re-factored:
  // its noise scales make K + σ²Λ indefinite at the stored jitter. The
  // failure comes at the very end of the restore, after the daemon's and
  // the service's other state decoded cleanly; none of it may land.
  const eva::Workload workload = eva::make_workload(4, 3, 422);
  Daemon live(workload, tiny_service(9), daemon_options());
  pref::PreferenceOracle oracle(pref::BenefitFunction::uniform());
  live.run(oracle, 2);
  live.checkpoint_now();
  const json::Value good = live.store().load_newest_valid()->payload;
  const std::string service_before = live.service().snapshot().dump();
  ASSERT_EQ(good.at("service").dump(), service_before);

  json::Value bad = good;
  bad.set("ticks", json::Value(std::uint64_t{123456789}));
  bad.set("epoch_digests", ckpt::codec::uints_to_json({1, 2, 3}));
  json::Value& service = bad.at("service");
  service.set("epoch", json::Value(std::uint64_t{77}));
  json::Value models = json::Value::array();
  const auto& items = service.at("models").items();
  for (std::size_t m = 0; m < items.size(); ++m) {
    json::Value item = items[m];
    if (m + 1 == items.size()) {
      std::vector<double> scales =
          ckpt::codec::doubles_from_json(item.at("noise_scale"));
      scales.back() = -1e9;
      item.set("noise_scale", ckpt::codec::doubles_to_json(scales));
    }
    models.push_back(std::move(item));
  }
  service.set("models", std::move(models));

  try {
    live.service().restore(bad.at("service"));
    ADD_FAILURE() << "service restore accepted an unfactorable model";
  } catch (const pamo::Error& e) {
    EXPECT_NE(std::string(e.what()).find("not positive definite"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(live.service().snapshot().dump(), service_before);

  const auto ticks = live.ticks();
  const auto digests = live.epoch_digests();
  const auto repairs = live.repair_log().size();
  ckpt::CheckpointStore(dir_).save(bad);  // newest, digest-valid
  EXPECT_THROW(live.resume(), pamo::Error);
  EXPECT_EQ(live.ticks(), ticks);
  EXPECT_EQ(live.epoch_digests(), digests);
  EXPECT_EQ(live.repair_log().size(), repairs);
  EXPECT_EQ(live.service().snapshot().dump(), service_before);
  live.checkpoint_now();
  EXPECT_EQ(live.store().load_newest_valid()->payload.dump(), good.dump());
}

}  // namespace
}  // namespace pamo::core
