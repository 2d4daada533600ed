#include "core/outcome_models.hpp"

#include <algorithm>

#include "common/contracts.hpp"
#include "common/error.hpp"
#include "common/thread_pool.hpp"

namespace pamo::core {

namespace {

double metric_of(const eva::StreamMeasurement& m, Metric metric) {
  switch (metric) {
    case Metric::kAccuracy: return m.accuracy;
    case Metric::kBandwidth: return m.bandwidth_mbps;
    case Metric::kCompute: return m.compute_tflops;
    case Metric::kPower: return m.power_watts;
    case Metric::kProcTime: return m.proc_time;
  }
  return 0.0;
}

std::vector<std::vector<double>> inputs_of(
    const std::vector<eva::StreamConfig>& configs) {
  std::vector<std::vector<double>> inputs;
  inputs.reserve(configs.size());
  for (const auto& c : configs) {
    inputs.push_back({static_cast<double>(c.resolution),
                      static_cast<double>(c.fps)});
  }
  return inputs;
}

/// One target column per metric.
std::vector<std::vector<double>> targets_of(
    const std::vector<eva::StreamMeasurement>& measurements) {
  std::vector<std::vector<double>> targets(kNumMetrics);
  for (std::size_t m = 0; m < kNumMetrics; ++m) {
    targets[m].reserve(measurements.size());
    for (const auto& meas : measurements) {
      targets[m].push_back(metric_of(meas, static_cast<Metric>(m)));
    }
  }
  return targets;
}

}  // namespace

OutcomeModels::OutcomeModels(const eva::ConfigSpace& space,
                             gp::GpOptions gp_options) {
  for (auto r : space.resolutions()) {
    for (auto s : space.fps_knobs()) {
      grid_.push_back({r, s});
      grid_inputs_.push_back({static_cast<double>(r), static_cast<double>(s)});
    }
  }
  if (gp::outputs_share_system(gp_options)) {
    // The five metric GPs would factor one matrix: hold them as one GP.
    models_.emplace_back(gp_options, kNumMetrics);
  } else {
    models_.reserve(kNumMetrics);
    for (std::size_t m = 0; m < kNumMetrics; ++m) {
      gp::GpOptions options = gp_options;
      options.seed = gp_options.seed + m;  // decorrelate MLE restarts
      models_.emplace_back(options);
    }
  }
  PAMO_ENSURES(grid_.size() == space.resolutions().size() *
                                   space.fps_knobs().size() &&
                   (models_.size() == 1 || models_.size() == kNumMetrics),
               "outcome models must cover the full knob grid, one GP per "
               "metric or one shared by all");
}

const gp::GpRegressor& OutcomeModels::model_of(std::size_t metric) const {
  return models_.size() == 1 ? models_.front() : models_[metric];
}

std::size_t OutcomeModels::output_of(std::size_t metric) const {
  return models_.size() == 1 ? metric : 0;
}

void OutcomeModels::fit(const std::vector<eva::StreamConfig>& configs,
                        const std::vector<eva::StreamMeasurement>& measurements) {
  PAMO_CHECK(configs.size() == measurements.size(),
             "configs/measurements size mismatch");
  PAMO_CHECK(configs.size() >= 2, "outcome models need >= 2 profiles");
  std::vector<std::vector<double>> inputs = inputs_of(configs);
  std::vector<std::vector<double>> targets = targets_of(measurements);
  if (models_.size() == 1) {
    models_.front().fit_outputs(std::move(inputs), std::move(targets));
    return;
  }
  // The five metric fits are independent (per-model options carry their
  // own MLE seed and no model touches another's state), so fan them out.
  parallel_for(kNumMetrics, [&](std::size_t m) {
    models_[m].fit(inputs, std::move(targets[m]));
  });
}

void OutcomeModels::update(
    const std::vector<eva::StreamConfig>& configs,
    const std::vector<eva::StreamMeasurement>& measurements) {
  PAMO_CHECK(configs.size() == measurements.size(),
             "configs/measurements size mismatch");
  PAMO_CHECK(is_fit(), "update before fit");
  const std::vector<std::vector<double>> inputs = inputs_of(configs);
  const std::vector<std::vector<double>> targets = targets_of(measurements);
  if (models_.size() == 1) {
    models_.front().update_outputs(inputs, targets, /*reoptimize=*/false);
    return;
  }
  parallel_for(kNumMetrics, [&](std::size_t m) {
    models_[m].update(inputs, targets[m], /*reoptimize=*/false);
  });
}

bool OutcomeModels::is_fit() const {
  return !models_.empty() && models_.front().is_fit();
}

double OutcomeModels::mean(Metric metric,
                           const eva::StreamConfig& config) const {
  const auto m = static_cast<std::size_t>(metric);
  return model_of(m).predict_mean({static_cast<double>(config.resolution),
                                   static_cast<double>(config.fps)},
                                  output_of(m));
}

std::size_t OutcomeModels::grid_index(const eva::StreamConfig& config) const {
  for (std::size_t i = 0; i < grid_.size(); ++i) {
    if (grid_[i] == config) return i;
  }
  throw Error("configuration is not on the knob grid");
}

std::vector<la::Matrix> OutcomeModels::sample_grid_tables(
    std::size_t num_samples, Rng& rng) const {
  PAMO_CHECK(is_fit(), "sample before fit");
  // Pre-draw every standard normal serially, in exactly the order the
  // historical metric-by-metric loop consumed `rng` (metric-major, then
  // sample-major); the per-metric colouring transforms are deterministic
  // and run concurrently without touching the stream.
  const std::size_t g = grid_inputs_.size();
  std::vector<la::Matrix> normals;
  normals.reserve(kNumMetrics);
  for (std::size_t m = 0; m < kNumMetrics; ++m) {
    la::Matrix z(num_samples, g);
    for (std::size_t s = 0; s < num_samples; ++s) {
      for (std::size_t i = 0; i < g; ++i) z(s, i) = rng.normal();
    }
    normals.push_back(std::move(z));
  }
  if (models_.size() == 1) {
    return models_.front().sample_outputs_given(grid_inputs_, normals);
  }
  std::vector<la::Matrix> tables(kNumMetrics);
  parallel_for(kNumMetrics, [&](std::size_t m) {
    tables[m] = models_[m].sample_joint_given(grid_inputs_, normals[m]);
  });
  return tables;
}

std::size_t OutcomeModels::num_points() const {
  std::size_t most = 0;
  for (const auto& model : models_) {
    most = std::max(most, model.num_points());
  }
  return most;
}

gp::GpFitDiagnostics OutcomeModels::diagnostics() const {
  PAMO_CHECK(models_.size() == 1 || models_.size() == kNumMetrics,
             "diagnostics over a partially constructed model set");
  gp::GpFitDiagnostics total;
  for (std::size_t m = 0; m < kNumMetrics; ++m) {
    const gp::GpFitDiagnostics d = model_of(m).diagnostics(output_of(m));
    total.rows_rejected += d.rows_rejected;
    total.outliers_downweighted += d.outliers_downweighted;
    total.cholesky_recoveries += d.cholesky_recoveries;
    total.fit_jitter = std::max(total.fit_jitter, d.fit_jitter);
    total.posterior_jitter =
        std::max(total.posterior_jitter, d.posterior_jitter);
    total.incremental_updates += d.incremental_updates;
    total.incremental_fallbacks += d.incremental_fallbacks;
    total.drift_fires += d.drift_fires;
    total.drift_downweighted += d.drift_downweighted;
    total.drift_score = std::max(total.drift_score, d.drift_score);
  }
  return total;
}

// pamo-analyze: snapshot(OutcomeModels)
obs::json::Value OutcomeModels::snapshot() const {
  // Metric order in either layout: the outputs of the shared GP, or the
  // single output of each per-metric GP.
  obs::json::Value arr = obs::json::Value::array();
  for (const auto& model : models_) {
    for (std::size_t c = 0; c < model.num_outputs(); ++c) {
      arr.push_back(model.snapshot(c));
    }
  }
  return arr;
}

// pamo-analyze: snapshot(OutcomeModels)
void OutcomeModels::restore(const obs::json::Value& snap) {
  const std::vector<obs::json::Value>& metrics = snap.items();
  PAMO_CHECK(metrics.size() == kNumMetrics,
             "outcome-model snapshot metric count mismatch");
  // Restore into copies and commit only when every metric decoded: each
  // GpRegressor::restore is all or nothing, and so is the bank.
  std::vector<gp::GpRegressor> next = models_;
  if (next.size() == 1) {
    next.front().restore_outputs(metrics);
  } else {
    for (std::size_t m = 0; m < kNumMetrics; ++m) next[m].restore(metrics[m]);
  }
  models_ = std::move(next);
}

la::Matrix OutcomeModels::mean_grid_table() const {
  PAMO_CHECK(is_fit(), "mean table before fit");
  la::Matrix table(kNumMetrics, grid_.size());
  parallel_for(kNumMetrics, [&](std::size_t m) {
    for (std::size_t g = 0; g < grid_.size(); ++g) {
      table(m, g) = model_of(m).predict_mean(grid_inputs_[g], output_of(m));
    }
  });
  return table;
}

}  // namespace pamo::core
