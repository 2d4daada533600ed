// GP snapshot/restore is an exact-state transplant: the restored model
// predicts bit-identically AND *continues* bit-identically (its Cholesky
// factors, standardization, and diagnostics are the originals, so future
// incremental updates take the same code path with the same arithmetic).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

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

}  // namespace
}  // namespace pamo::gp
