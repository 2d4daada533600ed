// Preference-state snapshot/restore: the Laplace posterior and the
// learner's query stream survive a round-trip bit-for-bit, so a resumed
// learner asks the exact questions the uninterrupted one would have. Both
// Cholesky factors are re-derived on restore, bit for bit, including from
// snapshots written before re-derivation, which stored them.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "ckpt/codec.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "pref/learner.hpp"
#include "pref/oracle.hpp"
#include "pref/preference_gp.hpp"

namespace pamo::pref {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

std::vector<std::vector<double>> pool_5d(std::size_t n, Rng& rng) {
  std::vector<std::vector<double>> pool;
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> y(5);
    for (auto& v : y) v = rng.uniform();
    pool.push_back(std::move(y));
  }
  return pool;
}

TEST(PreferenceGpSnapshot, PosteriorIsBitIdenticalAfterRestore) {
  Rng rng(21);
  const auto points = pool_5d(12, rng);
  std::vector<ComparisonPair> pairs = {{0, 1}, {2, 3}, {4, 0}, {5, 6},
                                       {7, 2}, {8, 9}, {10, 11}};
  PreferenceGpOptions options;
  PreferenceGp original(options);
  original.fit(points, pairs);

  PreferenceGp restored(options);
  restored.restore(obs::json::Value::parse(original.snapshot().dump()));

  ASSERT_TRUE(restored.is_fit());
  EXPECT_EQ(restored.num_points(), original.num_points());
  EXPECT_EQ(restored.num_pairs(), original.num_pairs());
  Rng probe_rng(3);
  const auto probes = pool_5d(6, probe_rng);
  const auto post_a = original.posterior(probes);
  const auto post_b = restored.posterior(probes);
  for (std::size_t i = 0; i < probes.size(); ++i) {
    EXPECT_EQ(bits(post_b.mean[i]), bits(post_a.mean[i]));
    for (std::size_t j = 0; j < probes.size(); ++j) {
      EXPECT_EQ(bits(post_b.covariance(i, j)), bits(post_a.covariance(i, j)));
    }
    EXPECT_EQ(bits(restored.utility_mean(probes[i])),
              bits(original.utility_mean(probes[i])));
  }
  for (std::size_t i = 0; i < original.map_utilities().size(); ++i) {
    EXPECT_EQ(bits(restored.map_utilities()[i]),
              bits(original.map_utilities()[i]));
  }
}

TEST(PreferenceGpSnapshot, SampleJointStaysIdenticalFromEqualRngs) {
  // sample_joint consumes caller RNG state; with equal factors and equal
  // RNGs the draws must match exactly.
  Rng rng(22);
  const auto points = pool_5d(10, rng);
  std::vector<ComparisonPair> pairs = {{0, 1}, {2, 3}, {4, 5}, {6, 7}};
  PreferenceGp original;
  original.fit(points, pairs);
  PreferenceGp restored;
  restored.restore(original.snapshot());

  Rng draw_a(77);
  Rng draw_b(77);
  Rng probe_rng(5);
  const auto probes = pool_5d(4, probe_rng);
  const auto samp_a = original.sample_joint(probes, 3, draw_a);
  const auto samp_b = restored.sample_joint(probes, 3, draw_b);
  for (std::size_t i = 0; i < samp_a.rows(); ++i) {
    for (std::size_t j = 0; j < samp_a.cols(); ++j) {
      EXPECT_EQ(bits(samp_b(i, j)), bits(samp_a(i, j)));
    }
  }
}

TEST(PreferenceGpSnapshot, ContinuedUpdatesMatch) {
  Rng rng(23);
  const auto points = pool_5d(10, rng);
  std::vector<ComparisonPair> pairs = {{0, 1}, {2, 3}, {4, 5}};
  PreferenceGp uninterrupted;
  uninterrupted.fit(points, pairs);
  PreferenceGp restored;
  restored.restore(uninterrupted.snapshot());

  const auto extra = pool_5d(3, rng);
  const std::vector<ComparisonPair> extra_pairs = {{10, 2}, {11, 12}};
  uninterrupted.update(extra, extra_pairs);
  restored.update(extra, extra_pairs);

  Rng probe_rng(6);
  for (const auto& y : pool_5d(8, probe_rng)) {
    EXPECT_EQ(bits(restored.utility_mean(y)),
              bits(uninterrupted.utility_mean(y)));
  }
}

TEST(PreferenceGpSnapshot, InconsistencyStateSurvives) {
  Rng rng(24);
  const auto points = pool_5d(6, rng);
  // 0 ≻ 1 and 1 ≻ 0 directly contradict; downweighting flags both.
  std::vector<ComparisonPair> pairs = {{0, 1}, {1, 0}, {2, 3}, {4, 5}};
  PreferenceGpOptions options;
  options.downweight_inconsistent = true;
  PreferenceGp original(options);
  original.fit(points, pairs);
  ASSERT_GT(original.num_inconsistent_pairs(), 0u);

  PreferenceGp restored(options);
  restored.restore(original.snapshot());
  EXPECT_EQ(restored.num_inconsistent_pairs(),
            original.num_inconsistent_pairs());
  Rng probe_rng(8);
  for (const auto& y : pool_5d(5, probe_rng)) {
    EXPECT_EQ(bits(restored.utility_mean(y)), bits(original.utility_mean(y)));
  }
}

TEST(PreferenceGpSnapshot, UnfitModelRoundTrips) {
  PreferenceGp original;
  PreferenceGp restored;
  restored.restore(original.snapshot());
  EXPECT_FALSE(restored.is_fit());
  EXPECT_EQ(restored.num_points(), 0u);
}

TEST(PreferenceLearnerSnapshot, ResumedLearnerAsksIdenticalQueries) {
  // The resume property end-to-end: run half the comparison budget,
  // snapshot, restore into a fresh learner, run the second half on both —
  // pool, comparisons, and posterior must stay bit-identical. The oracle
  // is deterministic (no response noise), so equal queries give equal
  // answers.
  Rng rng(31);
  const auto pool = pool_5d(20, rng);
  LearnerOptions options;
  options.pairs_per_round = 40;
  PreferenceLearner uninterrupted(pool, options, 0xABC);
  PreferenceOracle oracle_a(BenefitFunction::uniform());
  uninterrupted.run(oracle_a, 5);

  PreferenceLearner restored(pool_5d(2, rng), options, 0xDEAD);  // junk init
  restored.restore(
      obs::json::Value::parse(uninterrupted.snapshot().dump()));
  EXPECT_EQ(restored.num_comparisons(), uninterrupted.num_comparisons());
  ASSERT_EQ(restored.pool().size(), uninterrupted.pool().size());

  PreferenceOracle oracle_b(BenefitFunction::uniform());
  uninterrupted.run(oracle_a, 5);
  restored.run(oracle_b, 5);

  ASSERT_EQ(restored.num_comparisons(), uninterrupted.num_comparisons());
  Rng probe_rng(9);
  for (const auto& y : pool_5d(10, probe_rng)) {
    EXPECT_EQ(bits(restored.model().utility_mean(y)),
              bits(uninterrupted.model().utility_mean(y)));
  }
  // And the learners keep agreeing after pool growth mid-resume.
  const auto grown = pool_5d(3, probe_rng);
  uninterrupted.extend_pool(grown);
  restored.extend_pool(grown);
  uninterrupted.run(oracle_a, 3);
  restored.run(oracle_b, 3);
  Rng probe2(10);
  for (const auto& y : pool_5d(6, probe2)) {
    EXPECT_EQ(bits(restored.model().utility_mean(y)),
              bits(uninterrupted.model().utility_mean(y)));
  }
}

TEST(PreferenceLearnerSnapshot, RestoreRejectsMangledSnapshots) {
  Rng rng(32);
  LearnerOptions options;
  PreferenceLearner learner(pool_5d(8, rng), options, 7);
  PreferenceOracle oracle(BenefitFunction::uniform());
  learner.run(oracle, 2);

  // A pool shrunk to one candidate can't back the recorded comparisons.
  obs::json::Value starved = learner.snapshot();
  obs::json::Value tiny_pool = obs::json::Value::array();
  tiny_pool.push_back(obs::json::Value::array());
  starved.set("pool", std::move(tiny_pool));
  PreferenceLearner victim(pool_5d(8, rng), options, 7);
  EXPECT_THROW(victim.restore(starved), pamo::Error);

  // A comparison pointing past the pool is equally rejected.
  obs::json::Value dangling = learner.snapshot();
  obs::json::Value bad_pair = obs::json::Value::array();
  bad_pair.push_back(obs::json::Value(std::uint64_t{9999}));
  bad_pair.push_back(obs::json::Value(std::uint64_t{0}));
  obs::json::Value bad_pairs = obs::json::Value::array();
  bad_pairs.push_back(std::move(bad_pair));
  dangling.set("pairs", std::move(bad_pairs));
  EXPECT_THROW(victim.restore(dangling), pamo::Error);
}

void expect_same_factor(const la::Cholesky& got, const la::Cholesky& want) {
  EXPECT_EQ(bits(got.jitter()), bits(want.jitter()));
  ASSERT_EQ(got.lower().rows(), want.lower().rows());
  ASSERT_EQ(got.lower().cols(), want.lower().cols());
  for (std::size_t i = 0; i < want.lower().data().size(); ++i) {
    ASSERT_EQ(bits(got.lower().data()[i]), bits(want.lower().data()[i]))
        << "factor entry " << i;
  }
}

TEST(PreferenceGpSnapshot, LaplaceFactorsAreRederivedBitForBit) {
  Rng rng(25);
  const auto points = pool_5d(12, rng);
  const std::vector<ComparisonPair> pairs = {{0, 1}, {2, 3}, {4, 0}, {5, 6},
                                             {7, 2}, {8, 9}, {10, 11}};
  PreferenceGp original;
  original.fit(points, pairs);
  const obs::json::Value snap = original.snapshot();
  for (const char* key : {"k_chol", "b_chol"}) {
    EXPECT_EQ(snap.at(key).find("lower"), nullptr) << key;
    EXPECT_NE(snap.at(key).find("jitter"), nullptr) << key;
  }

  PreferenceGp restored;
  restored.restore(obs::json::Value::parse(snap.dump()));
  expect_same_factor(*restored.prior_factor(), *original.prior_factor());
  expect_same_factor(*restored.posterior_factor(),
                     *original.posterior_factor());
  EXPECT_EQ(restored.snapshot().dump(), snap.dump());

  // Same update, then the same joint samples from equal RNG states.
  const auto extra = pool_5d(3, rng);
  const std::vector<ComparisonPair> extra_pairs = {{12, 1}, {13, 14}};
  original.update(extra, extra_pairs);
  restored.update(extra, extra_pairs);
  expect_same_factor(*restored.posterior_factor(),
                     *original.posterior_factor());
  Rng draw_a(88);
  Rng draw_b(88);
  Rng probe_rng(12);
  const auto probes = pool_5d(5, probe_rng);
  const la::Matrix a = original.sample_joint(probes, 4, draw_a);
  const la::Matrix b = restored.sample_joint(probes, 4, draw_b);
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    EXPECT_EQ(bits(b.data()[i]), bits(a.data()[i]));
  }
  EXPECT_EQ(restored.snapshot().dump(), original.snapshot().dump());
}

TEST(PreferenceGpSnapshot, RejectedRestoreLeavesTheModelUntouched) {
  Rng rng(26);
  PreferenceGp source;
  source.fit(pool_5d(6, rng), {{0, 1}, {2, 3}, {4, 5}});
  const obs::json::Value good = source.snapshot();

  // W with a large negative diagonal makes W + K⁻¹ indefinite at the
  // stored jitter: the second factor cannot be re-derived.
  obs::json::Value indefinite = good;
  la::Matrix w = ckpt::codec::matrix_from_json(good.at("w"));
  w(2, 2) = -1e30;
  indefinite.set("w", ckpt::codec::matrix_to_json(w));
  // A comparison pointing past the points.
  obs::json::Value dangling = good;
  obs::json::Value pair = obs::json::Value::array();
  pair.push_back(obs::json::Value(std::uint64_t{0}));
  pair.push_back(obs::json::Value(std::uint64_t{42}));
  obs::json::Value pairs = obs::json::Value::array();
  pairs.push_back(std::move(pair));
  dangling.set("pairs", std::move(pairs));
  dangling.set("pair_inv_noise", ckpt::codec::doubles_to_json({1.0}));
  // A fitted model without its first factor.
  obs::json::Value factorless = good;
  factorless.set("k_chol", obs::json::Value());

  for (const obs::json::Value& bad : {indefinite, dangling, factorless}) {
    PreferenceGp victim;
    victim.fit(pool_5d(7, rng), {{0, 1}, {1, 2}});
    const std::string before = victim.snapshot().dump();
    EXPECT_THROW(victim.restore(bad), pamo::Error);
    EXPECT_EQ(victim.snapshot().dump(), before);
  }
}

TEST(PreferenceLearnerSnapshot, RejectedRestoreLeavesTheLearnerUntouched) {
  Rng rng(33);
  LearnerOptions options;
  PreferenceLearner source(pool_5d(8, rng), options, 7);
  PreferenceOracle oracle(BenefitFunction::uniform());
  source.run(oracle, 3);
  // The pool, pairs and RNG decode cleanly; the model's second factor
  // does not re-derive. Nothing of the snapshot may land.
  obs::json::Value bad = source.snapshot();
  la::Matrix w = ckpt::codec::matrix_from_json(bad.at("model").at("w"));
  w(0, 0) = -1e30;
  bad.at("model").set("w", ckpt::codec::matrix_to_json(w));

  PreferenceLearner victim(pool_5d(6, rng), options, 9);
  victim.run(oracle, 2);
  const std::string before = victim.snapshot().dump();
  EXPECT_THROW(victim.restore(bad), pamo::Error);
  EXPECT_EQ(victim.snapshot().dump(), before);
}

obs::json::Value read_fixture(const std::string& name) {
  std::ifstream in(std::string(PAMO_TEST_FIXTURE_DIR) + "/" + name);
  EXPECT_TRUE(in.good()) << "missing fixture " << name;
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return obs::json::Value::parse(bytes.str());
}

void expect_lower_triangle(const la::Matrix& derived,
                           const la::Matrix& stored) {
  ASSERT_EQ(derived.rows(), stored.rows());
  for (std::size_t i = 0; i < stored.rows(); ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      EXPECT_EQ(bits(derived(i, j)), bits(stored(i, j)));
    }
  }
}

// tests/fixtures/pref_learner_v1.json was written by the snapshot code
// that stored both factors whole (see the fixture README for the recipe).
TEST(PreferenceLearnerSnapshot, ReadsSnapshotsThatStoredTheFactors) {
  const obs::json::Value legacy = read_fixture("pref_learner_v1.json");
  const obs::json::Value& model = legacy.at("model");
  const la::Matrix k_stored =
      ckpt::codec::matrix_from_json(model.at("k_chol").at("lower"));
  const la::Matrix b_stored =
      ckpt::codec::matrix_from_json(model.at("b_chol").at("lower"));

  Rng rng(77);
  const auto pool = pool_5d(8, rng);
  LearnerOptions options;
  options.pairs_per_round = 20;
  PreferenceLearner restored(pool, options, 1);
  restored.restore(legacy);
  expect_lower_triangle(restored.model().prior_factor()->lower(), k_stored);
  expect_lower_triangle(restored.model().posterior_factor()->lower(),
                        b_stored);

  // The re-snapshot is the stored one minus the factor bits, and the
  // fixture's recipe rerun by this build reaches exactly that state.
  obs::json::Value expected = legacy;
  for (const char* key : {"k_chol", "b_chol"}) {
    obs::json::Value factor = obs::json::Value::object();
    factor.set("jitter", model.at(key).at("jitter"));
    expected.at("model").set(key, factor);
  }
  const obs::json::Value again = restored.snapshot();
  EXPECT_EQ(again.at("model").at("k_chol").find("lower"), nullptr);
  EXPECT_EQ(again.at("model").at("b_chol").find("lower"), nullptr);
  EXPECT_EQ(again.dump(), expected.dump());
  PreferenceLearner rerun(pool, options, 31);
  PreferenceOracle oracle(BenefitFunction::uniform());
  rerun.run(oracle, 5);
  EXPECT_EQ(rerun.snapshot().dump(), expected.dump());

  // One ULP off in either stored factor is rejected without a trace.
  for (const char* key : {"k_chol", "b_chol"}) {
    la::Matrix off = ckpt::codec::matrix_from_json(model.at(key).at("lower"));
    off(5, 2) = std::nextafter(off(5, 2), std::numeric_limits<double>::max());
    obs::json::Value factor = obs::json::Value::object();
    factor.set("lower", ckpt::codec::matrix_to_json(off));
    factor.set("jitter", model.at(key).at("jitter"));
    obs::json::Value mangled = legacy;
    mangled.at("model").set(key, factor);
    PreferenceLearner victim(pool, options, 1);
    const std::string before = victim.snapshot().dump();
    EXPECT_THROW(victim.restore(mangled), pamo::Error) << key;
    EXPECT_EQ(victim.snapshot().dump(), before) << key;
  }
}

}  // namespace
}  // namespace pamo::pref
