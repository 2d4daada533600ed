// The shared outcome bank: under fixed hyperparameters OutcomeModels holds
// the five metrics as one 5-output GP (one factor, one posterior
// workspace). These tests pin it bit for bit against five standalone
// single-output GpRegressors fed the same rows — the layout it replaces —
// through fit, incremental updates, an out-of-box rebuild, a jittered
// factor from duplicated inputs and a constant-target metric; and they
// check the layout rule, value semantics of copies, and all-or-nothing
// restores.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/outcome_models.hpp"
#include "gp/gp_regressor.hpp"

namespace pamo::core {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

gp::GpOptions fixed_options(double log_noise_var = std::log(1e-2)) {
  gp::GpOptions options;
  gp::KernelParams params;
  params.log_lengthscales.assign(2, std::log(0.35));
  params.log_signal_var = std::log(1.0);
  params.log_noise_var = log_noise_var;
  options.fixed_params = params;
  return options;
}

std::vector<double> input_of(const eva::StreamConfig& c) {
  return {static_cast<double>(c.resolution), static_cast<double>(c.fps)};
}

/// Synthetic profiles: smooth surfaces plus noise, power held constant so
/// one metric takes the y_std fallback of a constant target.
struct Profiles {
  std::vector<eva::StreamConfig> configs;
  std::vector<eva::StreamMeasurement> measurements;
};

Profiles profiles(const std::vector<eva::StreamConfig>& knobs, std::size_t n,
                  std::uint64_t seed) {
  Rng rng(seed);
  Profiles p;
  for (std::size_t i = 0; i < n; ++i) {
    const eva::StreamConfig c = knobs[rng.uniform_index(knobs.size())];
    const double r = c.resolution / 1920.0;
    const double f = c.fps / 30.0;
    eva::StreamMeasurement m;
    m.accuracy = 0.3 + 0.5 * r - 0.05 * f + 0.01 * rng.normal();
    m.bandwidth_mbps = 8.0 * r * f + 0.2 * rng.normal();
    m.compute_tflops = 2.0 * r * r * f + 0.05 * rng.normal();
    m.power_watts = 7.5;
    m.proc_time = 0.02 + 0.05 * r + 0.002 * rng.normal();
    p.configs.push_back(c);
    p.measurements.push_back(m);
  }
  return p;
}

double metric_value(const eva::StreamMeasurement& m, std::size_t metric) {
  const double values[kNumMetrics] = {m.accuracy, m.bandwidth_mbps,
                                      m.compute_tflops, m.power_watts,
                                      m.proc_time};
  return values[metric];
}

/// Five single-output GPs built the way the per-metric layout builds them.
class Standalone {
 public:
  explicit Standalone(const gp::GpOptions& options) {
    for (std::size_t m = 0; m < kNumMetrics; ++m) {
      gp::GpOptions o = options;
      o.seed = options.seed + m;
      gps_.emplace_back(o);
    }
  }

  void feed(const Profiles& p, bool fit) {
    std::vector<std::vector<double>> x;
    for (const auto& c : p.configs) x.push_back(input_of(c));
    for (std::size_t m = 0; m < kNumMetrics; ++m) {
      std::vector<double> y;
      for (const auto& meas : p.measurements) {
        y.push_back(metric_value(meas, m));
      }
      if (fit) {
        gps_[m].fit(x, y);
      } else {
        gps_[m].update(x, y);
      }
    }
  }

  [[nodiscard]] const gp::GpRegressor& operator[](std::size_t m) const {
    return gps_[m];
  }

  [[nodiscard]] obs::json::Value snapshot() const {
    obs::json::Value arr = obs::json::Value::array();
    for (const auto& g : gps_) arr.push_back(g.snapshot());
    return arr;
  }

 private:
  std::vector<gp::GpRegressor> gps_;
};

void expect_same_diagnostics(const gp::GpFitDiagnostics& a,
                             const gp::GpFitDiagnostics& b) {
  EXPECT_EQ(a.rows_rejected, b.rows_rejected);
  EXPECT_EQ(a.outliers_downweighted, b.outliers_downweighted);
  EXPECT_EQ(a.cholesky_recoveries, b.cholesky_recoveries);
  EXPECT_EQ(bits(a.fit_jitter), bits(b.fit_jitter));
  EXPECT_EQ(bits(a.posterior_jitter), bits(b.posterior_jitter));
  EXPECT_EQ(a.incremental_updates, b.incremental_updates);
  EXPECT_EQ(a.incremental_fallbacks, b.incremental_fallbacks);
  EXPECT_EQ(a.drift_fires, b.drift_fires);
  EXPECT_EQ(a.drift_downweighted, b.drift_downweighted);
  EXPECT_EQ(bits(a.drift_score), bits(b.drift_score));
}

/// Every observable of the bank equals the standalone GPs', bit for bit.
void expect_bank_matches(const OutcomeModels& bank, const Standalone& solo,
                         std::uint64_t sample_seed, const std::string& stage) {
  SCOPED_TRACE(stage);
  const std::vector<eva::StreamConfig>& grid = bank.grid();
  std::vector<std::vector<double>> grid_inputs;
  for (const auto& c : grid) grid_inputs.push_back(input_of(c));

  const la::Matrix table = bank.mean_grid_table();
  for (std::size_t m = 0; m < kNumMetrics; ++m) {
    for (std::size_t g = 0; g < grid.size(); ++g) {
      const double expected = solo[m].predict_mean(grid_inputs[g]);
      ASSERT_EQ(bits(bank.mean(static_cast<Metric>(m), grid[g])),
                bits(expected))
          << "metric " << m << " grid " << g;
      ASSERT_EQ(bits(table(m, g)), bits(expected));
    }
  }

  // Equal RNG states in, equal tables and equal RNG states out: the bank
  // draws metric-major then sample-major, as five sample_joint calls do.
  Rng bank_rng(sample_seed);
  Rng solo_rng(sample_seed);
  const std::size_t samples = 12;
  const std::vector<la::Matrix> tables =
      bank.sample_grid_tables(samples, bank_rng);
  ASSERT_EQ(tables.size(), kNumMetrics);
  gp::GpFitDiagnostics solo_total;
  for (std::size_t m = 0; m < kNumMetrics; ++m) {
    const la::Matrix expected =
        solo[m].sample_joint(grid_inputs, samples, solo_rng);
    ASSERT_EQ(tables[m].rows(), expected.rows());
    ASSERT_EQ(tables[m].cols(), expected.cols());
    for (std::size_t i = 0; i < expected.data().size(); ++i) {
      ASSERT_EQ(bits(tables[m].data()[i]), bits(expected.data()[i]))
          << "metric " << m << " entry " << i;
    }
    const gp::GpFitDiagnostics d = solo[m].diagnostics();
    solo_total.rows_rejected += d.rows_rejected;
    solo_total.outliers_downweighted += d.outliers_downweighted;
    solo_total.cholesky_recoveries += d.cholesky_recoveries;
    solo_total.fit_jitter = std::max(solo_total.fit_jitter, d.fit_jitter);
    solo_total.posterior_jitter =
        std::max(solo_total.posterior_jitter, d.posterior_jitter);
    solo_total.incremental_updates += d.incremental_updates;
    solo_total.incremental_fallbacks += d.incremental_fallbacks;
    solo_total.drift_fires += d.drift_fires;
    solo_total.drift_downweighted += d.drift_downweighted;
    solo_total.drift_score = std::max(solo_total.drift_score, d.drift_score);
  }
  EXPECT_EQ(bank_rng.next_u64(), solo_rng.next_u64());
  expect_same_diagnostics(bank.diagnostics(), solo_total);
  EXPECT_EQ(bank.num_points(), solo[0].num_points());
  EXPECT_EQ(bank.snapshot().dump(), solo.snapshot().dump());
}

TEST(OutcomeBank, LayoutFollowsTheGpOptions) {
  const eva::ConfigSpace space = eva::ConfigSpace::standard();
  EXPECT_EQ(OutcomeModels(space, fixed_options()).num_models(), 1u);

  // Everything that can make the five solved systems differ keeps five
  // independent GPs: MLE, hardened telemetry, drift, the sparse backend.
  EXPECT_EQ(OutcomeModels(space, gp::GpOptions{}).num_models(), kNumMetrics);
  gp::GpOptions rejecting = fixed_options();
  rejecting.reject_nonfinite = true;
  EXPECT_EQ(OutcomeModels(space, rejecting).num_models(), kNumMetrics);
  gp::GpOptions robust = fixed_options();
  robust.robust_noise = true;
  EXPECT_EQ(OutcomeModels(space, robust).num_models(), kNumMetrics);
  gp::GpOptions drifting = fixed_options();
  drifting.drift_cusum_h = 2.0;
  EXPECT_EQ(OutcomeModels(space, drifting).num_models(), kNumMetrics);
  gp::GpOptions sparse = fixed_options();
  sparse.backend = gp::GpBackend::kInducing;
  EXPECT_EQ(OutcomeModels(space, sparse).num_models(), kNumMetrics);

  // A multi-output GP refuses options whose systems would differ.
  EXPECT_THROW(gp::GpRegressor(gp::GpOptions{}, kNumMetrics), Error);
  EXPECT_THROW(gp::GpRegressor(robust, 2), Error);
}

TEST(OutcomeBank, MatchesFiveStandaloneGpsThroughUpdatesAndRebuilds) {
  const eva::ConfigSpace space = eva::ConfigSpace::standard();
  const gp::GpOptions options = fixed_options();
  OutcomeModels bank(space, options);
  ASSERT_EQ(bank.num_models(), 1u);
  Standalone solo(options);

  // Start inside a sub-box of the knob space so a later row can fall
  // outside it.
  std::vector<eva::StreamConfig> inner;
  for (const auto& c : bank.grid()) {
    if (c.resolution <= 1440 && c.fps <= 15) inner.push_back(c);
  }
  const Profiles first = profiles(inner, 24, 1);
  bank.fit(first.configs, first.measurements);
  solo.feed(first, /*fit=*/true);
  expect_bank_matches(bank, solo, 100, "fit");

  for (std::uint64_t round = 0; round < 3; ++round) {
    const Profiles more = profiles(inner, 12, 10 + round);
    bank.update(more.configs, more.measurements);
    solo.feed(more, /*fit=*/false);
    expect_bank_matches(bank, solo, 200 + round, "incremental update");
  }
  EXPECT_EQ(bank.diagnostics().incremental_updates, 3 * kNumMetrics);

  // A 1920p row grows the input box: the scaling of every old row changes
  // and the update falls back to a full rebuild.
  const Profiles wider = profiles(bank.grid(), 12, 20);
  bool outside = false;
  for (const auto& c : wider.configs) outside |= c.resolution > 1440;
  ASSERT_TRUE(outside);
  bank.update(wider.configs, wider.measurements);
  solo.feed(wider, /*fit=*/false);
  expect_bank_matches(bank, solo, 300, "out-of-box rebuild");
  EXPECT_EQ(bank.diagnostics().incremental_fallbacks, kNumMetrics);

  for (std::uint64_t round = 0; round < 2; ++round) {
    const Profiles more = profiles(bank.grid(), 12, 30 + round);
    bank.update(more.configs, more.measurements);
    solo.feed(more, /*fit=*/false);
    expect_bank_matches(bank, solo, 400 + round, "updates after rebuild");
  }
}

TEST(OutcomeBank, MatchesStandaloneGpsOnAJitteredFactor) {
  // Noise-free duplicated inputs make the training covariance exactly
  // singular: the factor needs jitter, which also rules out extending it,
  // so every update rebuilds.
  const eva::ConfigSpace space = eva::ConfigSpace::standard();
  const gp::GpOptions options = fixed_options(-800.0);  // exp() == 0
  OutcomeModels bank(space, options);
  ASSERT_EQ(bank.num_models(), 1u);
  Standalone solo(options);
  const std::vector<eva::StreamConfig> few = {
      {480, 5}, {960, 10}, {1440, 15}, {1920, 30}};
  const Profiles first = profiles(few, 16, 3);
  bank.fit(first.configs, first.measurements);
  solo.feed(first, /*fit=*/true);
  expect_bank_matches(bank, solo, 500, "jittered fit");
  EXPECT_GT(bank.diagnostics().fit_jitter, 0.0);

  const Profiles more = profiles(few, 8, 4);
  bank.update(more.configs, more.measurements);
  solo.feed(more, /*fit=*/false);
  expect_bank_matches(bank, solo, 600, "jittered update");
  EXPECT_EQ(bank.diagnostics().incremental_updates, 0u);
  EXPECT_EQ(bank.diagnostics().incremental_fallbacks, kNumMetrics);
}

TEST(OutcomeBank, PosteriorJitterIsKeptPerOutput) {
  // Duplicated query points make every posterior covariance singular. Each
  // output's covariance is scaled by its own y_std², so each needs its own
  // repair jitter — exactly the one a standalone GP records.
  const gp::GpOptions options = fixed_options();
  const std::vector<std::vector<double>> x = {
      {0.0, 0.0}, {1.0, 0.5}, {0.5, 1.0}, {1.0, 1.0}, {0.2, 0.7}, {0.8, 0.1}};
  std::vector<std::vector<double>> y(3);
  for (const auto& row : x) {
    y[0].push_back(row[0] + row[1]);
    y[1].push_back(100.0 * row[0] * row[1]);
    y[2].push_back(0.01 * (row[0] - row[1]));
  }
  gp::GpRegressor shared(options, 3);
  shared.fit_outputs(x, y);
  const std::vector<std::vector<double>> query = {
      {0.3, 0.3}, {0.3, 0.3}, {0.3, 0.3}, {0.9, 0.6}, {0.9, 0.6}};
  Rng shared_rng(9);
  std::vector<la::Matrix> z;
  for (std::size_t c = 0; c < 3; ++c) {
    la::Matrix zc(4, query.size());
    for (double& v : zc.data()) v = shared_rng.normal();
    z.push_back(std::move(zc));
  }
  const std::vector<la::Matrix> samples =
      shared.sample_outputs_given(query, z);
  for (std::size_t c = 0; c < 3; ++c) {
    gp::GpRegressor solo(options);
    solo.fit(x, y[c]);
    const la::Matrix expected = solo.sample_joint_given(query, z[c]);
    for (std::size_t i = 0; i < expected.data().size(); ++i) {
      ASSERT_EQ(bits(samples[c].data()[i]), bits(expected.data()[i]));
    }
    EXPECT_GT(solo.diagnostics().posterior_jitter, 0.0);
    EXPECT_EQ(bits(shared.diagnostics(c).posterior_jitter),
              bits(solo.diagnostics().posterior_jitter));
    EXPECT_EQ(shared.snapshot(c).dump(), solo.snapshot().dump());
  }
  EXPECT_NE(bits(shared.diagnostics(0).posterior_jitter),
            bits(shared.diagnostics(1).posterior_jitter));
}

TEST(OutcomeBank, CopiesShareNoMutableState) {
  const eva::ConfigSpace space = eva::ConfigSpace::standard();
  OutcomeModels original(space, fixed_options());
  const Profiles first = profiles(original.grid(), 30, 5);
  original.fit(first.configs, first.measurements);
  Rng warm(1);
  (void)original.sample_grid_tables(8, warm);  // populate the workspace

  const std::string snapshot_before = original.snapshot().dump();
  const la::Matrix means_before = original.mean_grid_table();
  Rng rng_before(2);
  const std::vector<la::Matrix> tables_before =
      original.sample_grid_tables(8, rng_before);

  // Copy-construct and copy-assign (the warm-start transplant), then grow
  // and sample the copies: their factor, workspace and jitter move on.
  OutcomeModels constructed = original;
  OutcomeModels assigned(space, fixed_options());
  assigned = original;
  for (OutcomeModels* copy : {&constructed, &assigned}) {
    const Profiles more = profiles(copy->grid(), 12, 6);
    copy->update(more.configs, more.measurements);
    Rng rng(3);
    (void)copy->sample_grid_tables(8, rng);
    EXPECT_NE(copy->snapshot().dump(), snapshot_before);
  }

  EXPECT_EQ(original.snapshot().dump(), snapshot_before);
  const la::Matrix means_after = original.mean_grid_table();
  for (std::size_t i = 0; i < means_before.data().size(); ++i) {
    ASSERT_EQ(bits(means_after.data()[i]), bits(means_before.data()[i]));
  }
  Rng rng_after(2);
  const std::vector<la::Matrix> tables_after =
      original.sample_grid_tables(8, rng_after);
  for (std::size_t m = 0; m < kNumMetrics; ++m) {
    for (std::size_t i = 0; i < tables_before[m].data().size(); ++i) {
      ASSERT_EQ(bits(tables_after[m].data()[i]),
                bits(tables_before[m].data()[i]));
    }
  }
}

TEST(OutcomeBank, RestoresFromPerMetricSnapshotsAllOrNothing) {
  // Five standalone GP snapshots (the per-metric checkpoint layout) load
  // into the bank and continue bit-identically; five that do not describe
  // one shared system are rejected without touching the bank.
  const eva::ConfigSpace space = eva::ConfigSpace::standard();
  const gp::GpOptions options = fixed_options();
  OutcomeModels bank(space, options);
  Standalone solo(options);
  const Profiles first = profiles(bank.grid(), 20, 7);
  solo.feed(first, /*fit=*/true);

  bank.restore(solo.snapshot());
  expect_bank_matches(bank, solo, 700, "restored");
  const Profiles more = profiles(bank.grid(), 12, 8);
  bank.update(more.configs, more.measurements);
  solo.feed(more, /*fit=*/false);
  expect_bank_matches(bank, solo, 800, "restored then updated");

  const std::string before = bank.snapshot().dump();
  Standalone other(options);
  other.feed(profiles(bank.grid(), 20, 9), /*fit=*/true);
  obs::json::Value torn = obs::json::Value::array();
  for (std::size_t m = 0; m < kNumMetrics; ++m) {
    torn.push_back(m == 3 ? other[m].snapshot() : solo[m].snapshot());
  }
  EXPECT_THROW(bank.restore(torn), Error);
  EXPECT_EQ(bank.snapshot().dump(), before);

  // A malformed metric fails the whole restore in the per-metric layout
  // too.
  gp::GpOptions mle;
  mle.mle_restarts = 1;
  mle.mle_max_evals = 30;
  OutcomeModels per_metric(space, mle);
  ASSERT_EQ(per_metric.num_models(), kNumMetrics);
  per_metric.fit(first.configs, first.measurements);
  const std::string per_metric_before = per_metric.snapshot().dump();
  obs::json::Value mangled =
      obs::json::Value::parse(per_metric.snapshot().dump());
  obs::json::Value broken = obs::json::Value::array();
  for (std::size_t m = 0; m < kNumMetrics; ++m) {
    obs::json::Value item = mangled.items()[m];
    if (m == 4) item.set("alpha", obs::json::Value::array());
    broken.push_back(std::move(item));
  }
  OutcomeModels target(space, mle);
  target.fit(more.configs, more.measurements);
  const std::string target_before = target.snapshot().dump();
  EXPECT_THROW(target.restore(broken), Error);
  EXPECT_EQ(target.snapshot().dump(), target_before);
  EXPECT_NE(target_before, per_metric_before);
}

TEST(OutcomeBank, SharedFactorIsRederivedOnRestore) {
  // The bank's snapshot stores its one shared factor as a jitter; a
  // restored bank re-derives it and then updates and samples exactly like
  // the bank that never stopped.
  const eva::ConfigSpace space = eva::ConfigSpace::standard();
  const gp::GpOptions options = fixed_options();
  OutcomeModels bank(space, options);
  ASSERT_EQ(bank.num_models(), 1u);
  const Profiles first = profiles(bank.grid(), 20, 11);
  bank.fit(first.configs, first.measurements);
  const obs::json::Value snap = bank.snapshot();
  for (const auto& item : snap.items()) {
    EXPECT_EQ(item.at("chol").find("lower"), nullptr);
  }

  OutcomeModels restored(space, options);
  restored.restore(obs::json::Value::parse(snap.dump()));
  EXPECT_EQ(restored.snapshot().dump(), snap.dump());
  const Profiles more = profiles(bank.grid(), 10, 12);
  bank.update(more.configs, more.measurements);
  restored.update(more.configs, more.measurements);
  EXPECT_EQ(restored.diagnostics().incremental_updates,
            bank.diagnostics().incremental_updates);
  Rng rng_a(13);
  Rng rng_b(13);
  const auto tables_a = bank.sample_grid_tables(8, rng_a);
  const auto tables_b = restored.sample_grid_tables(8, rng_b);
  ASSERT_EQ(tables_a.size(), tables_b.size());
  for (std::size_t m = 0; m < tables_a.size(); ++m) {
    ASSERT_EQ(tables_a[m].data().size(), tables_b[m].data().size());
    for (std::size_t i = 0; i < tables_a[m].data().size(); ++i) {
      ASSERT_EQ(bits(tables_b[m].data()[i]), bits(tables_a[m].data()[i]))
          << "metric " << m << " entry " << i;
    }
  }
  EXPECT_EQ(rng_a.next_u64(), rng_b.next_u64());
  EXPECT_EQ(restored.snapshot().dump(), bank.snapshot().dump());
}

}  // namespace
}  // namespace pamo::core
