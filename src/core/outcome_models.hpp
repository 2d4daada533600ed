// The five per-objective outcome models f = [f_acc, f_com, f_net, f_eng,
// f_lct] of Algorithm 2, realized as Gaussian processes over the 2-D
// (resolution, fps) knob space (the Figure 8 protocol: one model per
// metric, trained on pooled noisy per-stream profiles; clip-to-clip
// variation is absorbed as observation noise).
//
// Layout: when the GP options make the five solved systems identical by
// construction (gp::outputs_share_system: fixed hyperparameters, exact
// backend, no per-metric row reweighting), the bank is one 5-output GP
// that factors the shared training covariance once; otherwise it is five
// independent single-output GPs. Both layouts give bit-identical means,
// samples, diagnostics and snapshots (see DESIGN.md, "Outcome bank").
//
// Because the knob sets are small, the models expose *joint posterior
// samples over the whole knob grid*: one (S × |grid|) table per metric.
// Evaluating any candidate joint configuration under MC scenario s is then
// a table lookup per stream — this is what makes qNEI over hundreds of
// pool candidates affordable.
#pragma once

#include <cstdint>
#include <vector>

#include "eva/config.hpp"
#include "eva/profiler.hpp"
#include "gp/gp_regressor.hpp"
#include "obs/json.hpp"

namespace pamo::core {

/// Metric indices inside the model bank (order is internal).
enum class Metric : std::size_t {
  kAccuracy = 0,
  kBandwidth = 1,
  kCompute = 2,
  kPower = 3,
  kProcTime = 4,
};
inline constexpr std::size_t kNumMetrics = 5;

class OutcomeModels {
 public:
  explicit OutcomeModels(const eva::ConfigSpace& space,
                         gp::GpOptions gp_options = {});

  /// Fit all five metrics from profiled (config, measurement) pairs.
  void fit(const std::vector<eva::StreamConfig>& configs,
           const std::vector<eva::StreamMeasurement>& measurements);

  /// Append new profiles; hyperparameters are kept (cheap refit).
  void update(const std::vector<eva::StreamConfig>& configs,
              const std::vector<eva::StreamMeasurement>& measurements);

  [[nodiscard]] bool is_fit() const;

  /// Training points held by the largest metric GP. Every metric is fed
  /// the same rows: in the shared layout they are one input set, and in
  /// the per-metric layout the counts differ only when a hardened GP
  /// rejected non-finite rows of one metric.
  [[nodiscard]] std::size_t num_points() const;

  /// GPs behind the five metrics: 1 in the shared layout (one 5-output
  /// GP), kNumMetrics in the per-metric layout.
  [[nodiscard]] std::size_t num_models() const { return models_.size(); }

  /// Posterior mean of a metric at one configuration.
  [[nodiscard]] double mean(Metric metric,
                            const eva::StreamConfig& config) const;

  /// Index of a configuration in the knob grid.
  [[nodiscard]] std::size_t grid_index(const eva::StreamConfig& config) const;
  [[nodiscard]] const std::vector<eva::StreamConfig>& grid() const {
    return grid_;
  }

  /// Joint posterior sample tables over the knob grid: result[m] is an
  /// (S × |grid|) matrix for metric m. Samples of different metrics are
  /// independent; within a metric, samples are jointly drawn over the grid.
  [[nodiscard]] std::vector<la::Matrix> sample_grid_tables(
      std::size_t num_samples, Rng& rng) const;

  /// Posterior-mean table over the grid (one row per metric).
  [[nodiscard]] la::Matrix mean_grid_table() const;

  /// Robustness diagnostics aggregated across the five metrics (counts
  /// summed, jitters maxed; a shared-layout event counts once per metric,
  /// as it would in five independent GPs).
  [[nodiscard]] gp::GpFitDiagnostics diagnostics() const;

  /// Serialize all five metrics as five single-output GP snapshots, in
  /// either layout (grid geometry is derived from the ConfigSpace at
  /// construction and is not serialized).
  [[nodiscard]] obs::json::Value snapshot() const;

  /// Rebuild the five metrics from snapshot(), into either layout. Must be
  /// constructed with the same ConfigSpace and GpOptions as the
  /// snapshotted instance. All or nothing: a rejected snapshot throws
  /// pamo::Error and leaves every metric unchanged.
  void restore(const obs::json::Value& snap);

 private:
  // grid_/grid_inputs_ are derived from the ConfigSpace in the ctor
  // (pure function of the workload, not learned state).
  // pamo-analyze: allow(snapshot-coverage)
  std::vector<eva::StreamConfig> grid_;
  // pamo-analyze: allow(snapshot-coverage)
  std::vector<std::vector<double>> grid_inputs_;
  /// The GP holding `metric`, and the metric's output index in it.
  [[nodiscard]] const gp::GpRegressor& model_of(std::size_t metric) const;
  [[nodiscard]] std::size_t output_of(std::size_t metric) const;

  // One 5-output GP (shared layout) or one GP per metric.
  std::vector<gp::GpRegressor> models_;
};

}  // namespace pamo::core
