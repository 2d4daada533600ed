// GP snapshot/restore is an exact-state transplant: the restored model
// predicts bit-identically AND *continues* bit-identically (its Cholesky
// factor is re-derived bit for bit, and its standardization and
// diagnostics are the originals, so future incremental updates take the
// same code path with the same arithmetic). The re-derivation is pinned
// for every path that produces an exact factor, and for snapshots written
// before re-derivation, which stored the factor itself.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "ckpt/codec.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "gp/gp_regressor.hpp"

namespace pamo::gp {
namespace {

std::vector<std::vector<double>> grid_inputs(std::size_t n, Rng& rng) {
  std::vector<std::vector<double>> x;
  for (std::size_t i = 0; i < n; ++i) {
    x.push_back({rng.uniform() * 4.0, rng.uniform() * 4.0});
  }
  return x;
}

std::vector<double> targets_of(const std::vector<std::vector<double>>& x,
                               Rng& rng) {
  std::vector<double> y;
  for (const auto& row : x) {
    y.push_back(row[0] * 0.7 - 0.2 * row[1] * row[1] + 0.05 * rng.normal());
  }
  return y;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(GpSnapshot, RestoredModelPredictsBitIdentically) {
  Rng rng(101);
  const auto x = grid_inputs(24, rng);
  const auto y = targets_of(x, rng);
  GpOptions options;
  options.mle_restarts = 1;
  options.mle_max_evals = 60;
  GpRegressor original(options);
  original.fit(x, y);

  GpRegressor restored(options);
  restored.restore(original.snapshot());

  ASSERT_TRUE(restored.is_fit());
  EXPECT_EQ(restored.num_points(), original.num_points());
  Rng probe_rng(7);
  for (const auto& q : grid_inputs(20, probe_rng)) {
    EXPECT_EQ(bits(restored.predict_mean(q)), bits(original.predict_mean(q)));
    EXPECT_EQ(bits(restored.predict_var(q)), bits(original.predict_var(q)));
  }
  EXPECT_EQ(bits(restored.params().log_signal_var),
            bits(original.params().log_signal_var));
  EXPECT_EQ(bits(restored.params().log_noise_var),
            bits(original.params().log_noise_var));
}

TEST(GpSnapshot, SnapshotRoundTripsThroughJsonBytes) {
  // The snapshot must survive its serialized form, not just the in-memory
  // Value tree — dump + strict parse + restore is the checkpoint path.
  Rng rng(102);
  const auto x = grid_inputs(16, rng);
  const auto y = targets_of(x, rng);
  GpOptions options;
  options.mle_restarts = 1;
  options.mle_max_evals = 40;
  GpRegressor original(options);
  original.fit(x, y);

  const std::string bytes = original.snapshot().dump();
  GpRegressor restored(options);
  restored.restore(obs::json::Value::parse(bytes));
  Rng probe_rng(9);
  for (const auto& q : grid_inputs(10, probe_rng)) {
    EXPECT_EQ(bits(restored.predict_mean(q)), bits(original.predict_mean(q)));
  }
}

TEST(GpSnapshot, ContinuedUpdatesMatchTheUninterruptedModel) {
  // The resume property: restore, then keep learning — every future
  // update must produce the same model as never having stopped.
  Rng rng(103);
  const auto x = grid_inputs(20, rng);
  const auto y = targets_of(x, rng);
  GpOptions options;
  options.mle_restarts = 1;
  options.mle_max_evals = 60;
  GpRegressor uninterrupted(options);
  uninterrupted.fit(x, y);

  GpRegressor restored(options);
  restored.restore(uninterrupted.snapshot());

  // Three rounds of fresh observations, fed to both models identically.
  Rng stream_rng(55);
  for (int round = 0; round < 3; ++round) {
    const auto x_new = grid_inputs(4, stream_rng);
    const auto y_new = targets_of(x_new, stream_rng);
    uninterrupted.update(x_new, y_new);
    restored.update(x_new, y_new);
  }
  ASSERT_EQ(restored.num_points(), uninterrupted.num_points());
  Rng probe_rng(11);
  for (const auto& q : grid_inputs(20, probe_rng)) {
    EXPECT_EQ(bits(restored.predict_mean(q)),
              bits(uninterrupted.predict_mean(q)));
    EXPECT_EQ(bits(restored.predict_var(q)),
              bits(uninterrupted.predict_var(q)));
  }
  // Same incremental-vs-rebuild path decisions on both sides.
  EXPECT_EQ(restored.diagnostics().incremental_updates,
            uninterrupted.diagnostics().incremental_updates);
  EXPECT_EQ(restored.diagnostics().incremental_fallbacks,
            uninterrupted.diagnostics().incremental_fallbacks);
}

TEST(GpSnapshot, DiagnosticsSurviveTheRoundTrip) {
  Rng rng(104);
  auto x = grid_inputs(18, rng);
  auto y = targets_of(x, rng);
  y[3] = 80.0;  // one gross outlier so robust machinery leaves a trace
  GpOptions options;
  options.mle_restarts = 1;
  options.mle_max_evals = 40;
  options.robust_noise = true;
  GpRegressor original(options);
  original.fit(x, y);

  GpRegressor restored(options);
  restored.restore(original.snapshot());
  EXPECT_EQ(restored.diagnostics().outliers_downweighted,
            original.diagnostics().outliers_downweighted);
  EXPECT_EQ(restored.diagnostics().rows_rejected,
            original.diagnostics().rows_rejected);
  EXPECT_EQ(bits(restored.diagnostics().fit_jitter),
            bits(original.diagnostics().fit_jitter));
}

TEST(GpSnapshot, UnfitModelRoundTrips) {
  GpRegressor original;
  GpRegressor restored;
  restored.restore(original.snapshot());
  EXPECT_FALSE(restored.is_fit());
}

TEST(GpSnapshot, RestoreRejectsMangledSnapshots) {
  Rng rng(105);
  const auto x = grid_inputs(12, rng);
  const auto y = targets_of(x, rng);
  GpOptions options;
  options.mle_restarts = 1;
  options.mle_max_evals = 40;
  GpRegressor original(options);
  original.fit(x, y);
  const std::string bytes = original.snapshot().dump();
  auto mangle = [&bytes](const char* key, obs::json::Value value) {
    obs::json::Value mangled = obs::json::Value::parse(bytes);
    mangled.set(key, std::move(value));
    return mangled;
  };

  // Drop rows from y only: sizes disagree.
  obs::json::Value shorter = obs::json::Value::array();
  shorter.push_back(obs::json::Value(1.0));
  // A 3x3 factor for 12 training rows.
  obs::json::Value lower = obs::json::Value::object();
  lower.set("rows", obs::json::Value(std::uint64_t{3}));
  lower.set("cols", obs::json::Value(std::uint64_t{3}));
  obs::json::Value data = obs::json::Value::array();
  for (int i = 0; i < 9; ++i) {
    data.push_back(obs::json::Value(i % 4 == 0 ? 1.0 : 0.0));
  }
  lower.set("data", std::move(data));
  obs::json::Value small_chol = obs::json::Value::object();
  small_chol.set("lower", std::move(lower));
  small_chol.set("jitter", obs::json::Value(0.0));
  // Scaling bounds with one entry for 2-D inputs.
  obs::json::Value narrow = obs::json::Value::array();
  narrow.push_back(obs::json::Value(0.0));
  const obs::json::Value mangled[] = {
      mangle("y_raw", std::move(shorter)),
      mangle("chol", std::move(small_chol)),
      mangle("x_lo", std::move(narrow)),
      mangle("alpha", obs::json::Value::array())};

  for (const obs::json::Value& snap : mangled) {
    // A fresh model must not be left half-written into a fit state.
    GpRegressor fresh(options);
    EXPECT_THROW(fresh.restore(snap), pamo::Error);
    EXPECT_FALSE(fresh.is_fit());

    // A fitted model keeps every bit of its state.
    Rng other_rng(106);
    const auto x_other = grid_inputs(10, other_rng);
    GpRegressor victim(options);
    victim.fit(x_other, targets_of(x_other, other_rng));
    const std::string before = victim.snapshot().dump();
    const double mean_before = victim.predict_mean({0.35, 0.4});
    const double var_before = victim.predict_var({0.35, 0.4});
    EXPECT_THROW(victim.restore(snap), pamo::Error);
    EXPECT_EQ(victim.snapshot().dump(), before);
    EXPECT_EQ(bits(victim.predict_mean({0.35, 0.4})), bits(mean_before));
    EXPECT_EQ(bits(victim.predict_var({0.35, 0.4})), bits(var_before));
  }
}

GpOptions quick_mle() {
  GpOptions options;
  options.mle_restarts = 1;
  options.mle_max_evals = 60;
  return options;
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

/// The snapshot stores the exact factor as its jitter alone; restoring it
/// re-derives the original factor bit for bit, and the restored model then
/// continues exactly like the original: the same update, then the same
/// joint samples from equal RNG states.
void expect_rederived_and_continuing(
    const GpRegressor& original, const GpOptions& options,
    const std::vector<std::vector<double>>& x_next,
    const std::vector<double>& y_next,
    const std::vector<std::vector<double>>& queries) {
  ASSERT_TRUE(original.factor().has_value());
  const obs::json::Value snap = original.snapshot();
  const obs::json::Value& chol = snap.at("chol");
  EXPECT_EQ(chol.find("lower"), nullptr);
  EXPECT_EQ(bits(chol.at("jitter").as_double()),
            bits(original.factor()->jitter()));

  GpRegressor restored(options);
  restored.restore(obs::json::Value::parse(snap.dump()));
  ASSERT_TRUE(restored.factor().has_value());
  expect_same_factor(*restored.factor(), *original.factor());
  EXPECT_EQ(restored.snapshot().dump(), snap.dump());

  GpRegressor uninterrupted = original;
  uninterrupted.update(x_next, y_next);
  restored.update(x_next, y_next);
  expect_same_factor(*restored.factor(), *uninterrupted.factor());
  EXPECT_EQ(restored.snapshot().dump(), uninterrupted.snapshot().dump());
  Rng draw_a(5);
  Rng draw_b(5);
  const la::Matrix a = uninterrupted.sample_joint(queries, 6, draw_a);
  const la::Matrix b = restored.sample_joint(queries, 6, draw_b);
  ASSERT_EQ(a.data().size(), b.data().size());
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    EXPECT_EQ(bits(b.data()[i]), bits(a.data()[i])) << "sample entry " << i;
  }
  EXPECT_EQ(draw_a.next_u64(), draw_b.next_u64());
}

/// Rows inside the box of `x` (midpoints of consecutive rows from
/// `first` on), so an update with them can extend the factor instead of
/// rescaling.
std::vector<std::vector<double>> midpoints(
    const std::vector<std::vector<double>>& x, std::size_t first,
    std::size_t count) {
  std::vector<std::vector<double>> out;
  for (std::size_t i = first; i < first + count; ++i) {
    out.push_back({0.5 * (x[i][0] + x[i + 1][0]),
                   0.5 * (x[i][1] + x[i + 1][1])});
  }
  return out;
}

TEST(GpFactorRederivation, ColdFitAtJitterZero) {
  Rng rng(201);
  const auto x = grid_inputs(14, rng);
  GpRegressor model(quick_mle());
  model.fit(x, targets_of(x, rng));
  ASSERT_EQ(model.factor()->jitter(), 0.0);
  const auto x_next = grid_inputs(3, rng);
  Rng probe(1);
  expect_rederived_and_continuing(model, quick_mle(), x_next,
                                  targets_of(x_next, rng),
                                  grid_inputs(8, probe));
}

TEST(GpFactorRederivation, IncrementalExtension) {
  Rng rng(202);
  const auto x = grid_inputs(12, rng);
  GpRegressor model(quick_mle());
  model.fit(x, targets_of(x, rng));
  const auto grown = midpoints(x, 0, 3);
  model.update(grown, targets_of(grown, rng));
  ASSERT_EQ(model.diagnostics().incremental_updates, 1u);
  ASSERT_EQ(model.factor()->jitter(), 0.0);
  const auto x_next = midpoints(x, 4, 3);
  Rng probe(2);
  expect_rederived_and_continuing(model, quick_mle(), x_next,
                                  targets_of(x_next, rng),
                                  grid_inputs(8, probe));
}

TEST(GpFactorRederivation, MleRebuild) {
  Rng rng(203);
  const auto x = grid_inputs(12, rng);
  GpRegressor model(quick_mle());
  model.fit(x, targets_of(x, rng));
  const auto more = grid_inputs(4, rng);
  model.update(more, targets_of(more, rng), /*reoptimize=*/true);
  const auto x_next = midpoints(x, 0, 2);
  Rng probe(3);
  expect_rederived_and_continuing(model, quick_mle(), x_next,
                                  targets_of(x_next, rng),
                                  grid_inputs(8, probe));
}

TEST(GpFactorRederivation, JitterLadderOnDuplicatedInputs) {
  // Noise-free duplicated inputs make the training covariance exactly
  // singular: only a jittered factor exists, found by the ladder.
  GpOptions options;
  KernelParams params;
  params.log_lengthscales.assign(2, std::log(0.5));
  params.log_signal_var = 0.0;
  params.log_noise_var = -800.0;  // exp() == 0
  options.fixed_params = params;
  Rng rng(204);
  auto x = grid_inputs(8, rng);
  const auto copies = x;
  x.insert(x.end(), copies.begin(), copies.end());
  GpRegressor model(options);
  model.fit(x, targets_of(x, rng));
  ASSERT_GT(model.factor()->jitter(), 0.0);
  Rng probe(4);
  expect_rederived_and_continuing(model, options, copies,
                                  targets_of(copies, rng),
                                  grid_inputs(8, probe));
}

TEST(GpFactorRederivation, RobustReweightingUnderHardenedOptions) {
  GpOptions options;
  KernelParams params;
  params.log_lengthscales.assign(2, std::log(1.0));
  params.log_signal_var = 0.0;
  params.log_noise_var = std::log(1e-2);
  options.fixed_params = params;
  options.reject_nonfinite = true;
  options.robust_noise = true;
  Rng rng(205);
  const auto x = grid_inputs(16, rng);
  auto y = targets_of(x, rng);
  y[4] = 60.0;  // a gross outlier: its noise scale gets inflated
  GpRegressor model(options);
  model.fit(x, y);
  ASSERT_GT(model.diagnostics().outliers_downweighted, 0u);
  const auto x_next = grid_inputs(3, rng);
  Rng probe(5);
  expect_rederived_and_continuing(model, options, x_next,
                                  targets_of(x_next, rng),
                                  grid_inputs(8, probe));
}

TEST(GpFactorRederivation, DriftInflatedNoiseScales) {
  GpOptions options = quick_mle();
  options.drift_cusum_h = 3.0;
  auto rows = [](double jump, std::size_t count, double x0,
                 std::vector<std::vector<double>>* xs,
                 std::vector<double>* ys) {
    xs->clear();
    ys->clear();
    for (std::size_t i = 0; i < count; ++i) {
      const double x = x0 + 0.05 * static_cast<double>(i);
      xs->push_back({x});
      ys->push_back(std::sin(x) + jump + 0.1 * std::sin(37.0 * x * x + 1.7));
    }
  };
  std::vector<std::vector<double>> xs;
  std::vector<double> ys;
  rows(0.0, 14, 0.0, &xs, &ys);
  GpRegressor model(options);
  model.fit(xs, ys);
  for (int batch = 0; batch < 6 && model.diagnostics().drift_fires == 0;
       ++batch) {
    rows(3.0, 3, 0.1 + 0.15 * batch, &xs, &ys);
    model.update(xs, ys);
  }
  ASSERT_GE(model.diagnostics().drift_fires, 1u);
  rows(3.0, 2, 0.33, &xs, &ys);
  expect_rederived_and_continuing(model, options, xs, ys,
                                  {{0.1}, {0.35}, {0.5}, {0.62}});
}

TEST(GpFactorRederivation, SharedFactorOfAMultiOutputModel) {
  // Five outputs share one factor; restore_outputs re-derives it once.
  GpOptions options;
  KernelParams params;
  params.log_lengthscales.assign(2, std::log(0.4));
  params.log_signal_var = 0.0;
  params.log_noise_var = std::log(1e-2);
  options.fixed_params = params;
  constexpr std::size_t kOutputs = 5;
  Rng rng(206);
  const auto x = grid_inputs(14, rng);
  std::vector<std::vector<double>> y;
  for (std::size_t c = 0; c < kOutputs; ++c) y.push_back(targets_of(x, rng));
  GpRegressor bank(options, kOutputs);
  bank.fit_outputs(x, y);

  std::vector<obs::json::Value> snaps;
  for (std::size_t c = 0; c < kOutputs; ++c) {
    snaps.push_back(obs::json::Value::parse(bank.snapshot(c).dump()));
    EXPECT_EQ(snaps.back().at("chol").find("lower"), nullptr);
  }
  GpRegressor restored(options, kOutputs);
  restored.restore_outputs(snaps);
  expect_same_factor(*restored.factor(), *bank.factor());

  const auto x_next = midpoints(x, 0, 3);
  std::vector<std::vector<double>> y_next;
  for (std::size_t c = 0; c < kOutputs; ++c) {
    y_next.push_back(targets_of(x_next, rng));
  }
  bank.update_outputs(x_next, y_next);
  restored.update_outputs(x_next, y_next);
  expect_same_factor(*restored.factor(), *bank.factor());
  Rng probe(6);
  const auto queries = grid_inputs(7, probe);
  for (std::size_t c = 0; c < kOutputs; ++c) {
    EXPECT_EQ(restored.snapshot(c).dump(), bank.snapshot(c).dump());
    Rng draw_a(50 + c);
    Rng draw_b(50 + c);
    const la::Matrix a = bank.sample_joint(queries, 4, draw_a, c);
    const la::Matrix b = restored.sample_joint(queries, 4, draw_b, c);
    for (std::size_t i = 0; i < a.data().size(); ++i) {
      EXPECT_EQ(bits(b.data()[i]), bits(a.data()[i]));
    }
  }
}

TEST(GpFactorRederivation, SparseBackendStillStoresItsFactors) {
  // B is rank-one updated, which a refactorization matches only to ~1e-9,
  // so the inducing-point system keeps storing Lm and Lb whole.
  GpOptions options = quick_mle();
  options.backend = GpBackend::kInducing;
  options.inducing_points = 6;
  Rng rng(207);
  const auto x = grid_inputs(14, rng);
  GpRegressor model(options);
  model.fit(x, targets_of(x, rng));
  const obs::json::Value snap = model.snapshot();
  EXPECT_EQ(snap.at("chol").kind(), obs::json::Value::Kind::kNull);
  const obs::json::Value& sparse = snap.at("sparse");
  EXPECT_NE(sparse.at("lm").find("lower"), nullptr);
  EXPECT_NE(sparse.at("lb").find("lower"), nullptr);
  GpRegressor restored(options);
  restored.restore(obs::json::Value::parse(snap.dump()));
  EXPECT_EQ(restored.snapshot().dump(), snap.dump());
}

TEST(GpFactorRederivation, RejectsAFactorThatDoesNotExistAtItsJitter) {
  Rng rng(208);
  const auto x = grid_inputs(10, rng);
  GpRegressor original(quick_mle());
  original.fit(x, targets_of(x, rng));
  obs::json::Value snap = original.snapshot();
  // A large negative noise scale makes K + σ²Λ indefinite at jitter 0.
  std::vector<double> scales(x.size(), 1.0);
  scales.back() = -1e9;
  snap.set("noise_scale", ckpt::codec::doubles_to_json(scales));

  GpRegressor victim(quick_mle());
  Rng other(209);
  const auto x_other = grid_inputs(9, other);
  victim.fit(x_other, targets_of(x_other, other));
  const std::string before = victim.snapshot().dump();
  EXPECT_THROW(victim.restore(snap), pamo::Error);
  EXPECT_EQ(victim.snapshot().dump(), before);
}

obs::json::Value read_fixture(const std::string& name) {
  std::ifstream in(std::string(PAMO_TEST_FIXTURE_DIR) + "/" + name);
  EXPECT_TRUE(in.good()) << "missing fixture " << name;
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return obs::json::Value::parse(bytes.str());
}

/// The fixture's "chol" with `lower` swapped for `lower` (same layout as the
/// snapshots that stored the factor: lower first, then jitter).
obs::json::Value with_lower(const obs::json::Value& chol,
                            const la::Matrix& lower) {
  obs::json::Value out = obs::json::Value::object();
  out.set("lower", ckpt::codec::matrix_to_json(lower));
  out.set("jitter", chol.at("jitter"));
  return out;
}

// tests/fixtures/gp_regressor_v1.json was written by the snapshot code
// that stored the whole factor: 10 rows fit cold, 2 in-box rows added by an
// incremental update (see the fixture README for the recipe).
TEST(GpFactorRederivation, ReadsSnapshotsThatStoredTheFactor) {
  const obs::json::Value legacy = read_fixture("gp_regressor_v1.json");
  const la::Matrix stored =
      ckpt::codec::matrix_from_json(legacy.at("chol").at("lower"));
  ASSERT_EQ(stored.rows(), 12u);

  GpRegressor restored(quick_mle());
  restored.restore(legacy);
  ASSERT_TRUE(restored.factor().has_value());
  const la::Matrix& derived = restored.factor()->lower();
  ASSERT_EQ(derived.rows(), stored.rows());
  for (std::size_t i = 0; i < stored.rows(); ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      EXPECT_EQ(bits(derived(i, j)), bits(stored(i, j)));
    }
  }

  // The re-snapshot is the stored one minus the factor bits.
  obs::json::Value expected = legacy;
  obs::json::Value chol = obs::json::Value::object();
  chol.set("jitter", legacy.at("chol").at("jitter"));
  expected.set("chol", chol);
  const obs::json::Value again = restored.snapshot();
  EXPECT_EQ(again.at("chol").find("lower"), nullptr);
  EXPECT_EQ(again.dump(), expected.dump());

  // The fixture's recipe, rerun by this build, reaches the same state.
  Rng rng(2024);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (std::size_t i = 0; i < 12; ++i) {
    const double a =
        i < 10 ? rng.uniform() * 4.0 : 0.5 * (x[i - 10][0] + x[i - 9][0]);
    const double b =
        i < 10 ? rng.uniform() * 4.0 : 0.5 * (x[i - 10][1] + x[i - 9][1]);
    x.push_back({a, b});
    y.push_back(a * 0.7 - 0.2 * b * b + 0.05 * rng.normal());
  }
  GpRegressor rerun(quick_mle());
  rerun.fit({x.begin(), x.begin() + 10}, {y.begin(), y.begin() + 10});
  rerun.update({x.begin() + 10, x.end()}, {y.begin() + 10, y.end()});
  EXPECT_EQ(rerun.snapshot().dump(), expected.dump());

  // One ULP off anywhere in the stored lower triangle is rejected, and
  // the restoring model keeps every bit of its state.
  for (const auto& [i, j] : {std::pair<std::size_t, std::size_t>{0, 0},
                            {7, 3}, {11, 11}}) {
    la::Matrix off = stored;
    off(i, j) = std::nextafter(off(i, j), std::numeric_limits<double>::max());
    obs::json::Value mangled = legacy;
    mangled.set("chol", with_lower(legacy.at("chol"), off));
    GpRegressor victim(quick_mle());
    Rng other(210);
    const auto x_other = grid_inputs(9, other);
    victim.fit(x_other, targets_of(x_other, other));
    const std::string before = victim.snapshot().dump();
    EXPECT_THROW(victim.restore(mangled), pamo::Error);
    EXPECT_EQ(victim.snapshot().dump(), before);
  }
}

}  // namespace
}  // namespace pamo::gp
