// Exact Gaussian process regression with MLE hyperparameters.
//
// Targets are standardized internally (zero mean, unit variance); inputs
// are min-max scaled to [0, 1] per dimension so that lengthscale priors and
// boxes are dimensionless. Hyperparameters are fit by multi-start
// Nelder–Mead on the negative log marginal likelihood. predict() returns
// the posterior on the original target scale.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "gp/kernel.hpp"
#include "la/cholesky.hpp"
#include "obs/json.hpp"

namespace pamo::gp {

/// Inference backend of a GpRegressor.
enum class GpBackend {
  /// Exact GP: O(n³) factorization (O(n²) incremental extension), the
  /// paper's regressor. The default; every pre-existing code path is
  /// bit-for-bit unchanged under it.
  kExact,
  /// Inducing-point approximation (Deterministic Training Conditional):
  /// inference runs through m = min(GpOptions::inducing_points, n)
  /// inducing inputs (a strided subset of the training rows), so the
  /// per-prediction and per-update cost is bounded by m — O(m²n) for a
  /// full solve, O(m² + mn) per incremental update — instead of growing
  /// as n³. With m == n the DTC posterior coincides analytically with the
  /// exact GP; with m < n it is an approximation whose error contract is
  /// pinned by tests/gp/test_gp_sparse.cpp. Unsupported combinations
  /// (robust_noise) are rejected at fit() time.
  kInducing,
};

struct GpOptions {
  KernelType kernel = KernelType::kMatern52;
  /// Number of Nelder–Mead restarts for hyperparameter MLE.
  std::size_t mle_restarts = 4;
  std::size_t mle_max_evals = 300;
  /// If set, skip MLE and use these hyperparameters as-is.
  std::optional<KernelParams> fixed_params;
  /// Lower bound for the noise variance (standardized target scale).
  double min_noise_var = 1e-6;
  /// Hyperparameter MLE runs on at most this many (strided) training
  /// points; exact inference still uses all of them. The marginal
  /// likelihood is O(n³) per evaluation, so this caps fit cost on large
  /// training sets. 0 disables subsampling.
  std::size_t mle_subsample = 220;
  /// When true, non-finite (NaN/Inf) training rows are dropped and counted
  /// in diagnostics() instead of failing the fit — at least 2 finite rows
  /// must remain. When false, fit()/update() reject non-finite data with a
  /// clear precondition error.
  bool reject_nonfinite = false;
  /// Outlier-robust fitting: after the standard solve, training points
  /// whose standardized residual exceeds `robust_threshold` get their
  /// observation-noise variance inflated proportionally and the linear
  /// algebra is re-solved (iteratively reweighted noise). A heavy-tailed
  /// outlier is then explained as noise instead of bending the posterior
  /// mean. No-op (bit-for-bit) when no residual crosses the threshold.
  bool robust_noise = false;
  std::size_t robust_rounds = 3;
  double robust_threshold = 3.0;
  /// Cap on the per-point noise-variance inflation factor.
  double robust_inflation_cap = 1e4;
  /// PSD-repair jitter cap for posterior covariance sampling
  /// (sample_joint); the jitter actually applied is recorded in
  /// diagnostics().posterior_jitter.
  double posterior_max_jitter = 1e-2;
  /// O(n²) hot path for the decision loop: update() extends the cached
  /// Cholesky factor by the new rows instead of refactorizing, and
  /// posterior() keeps a cross-covariance workspace that is reused (and
  /// incrementally extended) across calls over the same query set. Both
  /// are bit-for-bit identical to the full recomputation and fall back to
  /// it automatically whenever exactness cannot be guaranteed — see
  /// diagnostics().incremental_fallbacks for when that happens.
  bool incremental = true;
  /// Inference backend (see GpBackend). Hyperparameter MLE is shared by
  /// both backends: it always runs on the exact marginal likelihood of an
  /// mle_subsample-strided subset, so switching the backend changes the
  /// inference cost model, never the hyperparameter search.
  GpBackend backend = GpBackend::kExact;
  /// Inducing-point budget m for GpBackend::kInducing. The inducing set
  /// is a deterministic strided subset of the (scaled) training rows,
  /// re-selected on every full solve and frozen across incremental
  /// updates (that freeze is what keeps updates O(m² + mn)).
  std::size_t inducing_points = 64;
  /// Drift detection for continual learning: a CUSUM statistic over the
  /// standardized prediction residuals of incoming update() rows, scored
  /// against the posterior *before* they are incorporated. Each row
  /// contributes max(0, S + |z| − k) to the running score S; when S
  /// exceeds `drift_cusum_h` the detector fires: every pre-existing
  /// training row's noise variance is inflated by
  /// `drift_forget_inflation` (selective forgetting — stale observations
  /// are down-weighted, never evicted) and the system is re-solved
  /// *without* re-optimizing hyperparameters. A fire with `reoptimize`
  /// requested still runs the full MLE rebuild (which supersedes the
  /// forgetting). drift_cusum_h == 0 disables the detector entirely
  /// (default; bit-for-bit no-op).
  double drift_cusum_h = 0.0;
  /// CUSUM drift allowance k: |z| below it decays the score. The default
  /// sits above the folded-normal mean E|z| ≈ 0.8, so a stationary stream
  /// decays the score instead of creeping it upward.
  double drift_cusum_k = 1.0;
  /// Noise-variance inflation applied to pre-drift rows on a fire
  /// (bounded by robust_inflation_cap).
  double drift_forget_inflation = 4.0;
  std::uint64_t seed = 0xC0FFEE;
};

/// Robustness bookkeeping of the most recent fit (reset by fit(),
/// accumulated across update() calls).
struct GpFitDiagnostics {
  /// Non-finite training rows dropped by sanitization.
  std::size_t rows_rejected = 0;
  /// Training points whose noise variance the robust fit inflated.
  std::size_t outliers_downweighted = 0;
  /// Cholesky failures recovered by re-factorizing with a wider jitter cap.
  std::size_t cholesky_recoveries = 0;
  /// Largest diagonal jitter added to the training-covariance factorization.
  double fit_jitter = 0.0;
  /// Largest jitter used to repair a sampled posterior covariance.
  double posterior_jitter = 0.0;
  /// update() calls served by the O(n²) incremental factor extension.
  std::size_t incremental_updates = 0;
  /// Incremental-eligible update() calls that fell back to a full rebuild
  /// (hyperparameter re-optimization, robust noise, prior jitter, a grown
  /// input box, or a non-PD extension).
  std::size_t incremental_fallbacks = 0;
  /// Drift-detector (CUSUM) fires since the last fit().
  std::size_t drift_fires = 0;
  /// Training rows down-weighted by drift forgetting (cumulative over
  /// fires; a row hit twice counts twice).
  std::size_t drift_downweighted = 0;
  /// Current CUSUM score (resets to 0 on a fire).
  double drift_score = 0.0;
};

struct Posterior {
  la::Vector mean;
  la::Matrix covariance;  // full joint covariance (noise-free latent)
};

/// Whether k target columns fit on one input set solve k copies of one
/// linear system under `options`: fixed hyperparameters on the exact
/// backend, with every per-column reweighting of the rows (robust noise,
/// non-finite row dropping, drift forgetting) off. Only then may a
/// GpRegressor carry more than one output.
[[nodiscard]] bool outputs_share_system(const GpOptions& options);

/// Exact (or inducing-point) GP over one input set with k >= 1 target
/// columns ("outputs"). The inputs, hyperparameters, noise scales, Cholesky
/// factor and posterior workspace are held once; each output has its own
/// standardization, alpha, posterior-jitter diagnostic and posterior
/// covariance. Every output's arithmetic is operation-for-operation that of
/// a single-output GpRegressor fed the same column, so a k-output model is
/// bit-identical to k independent ones while factoring and extending the
/// training covariance, and building the posterior cross-covariances, once.
/// Output-indexed members default to output 0, the only one of a
/// single-output model.
class GpRegressor {
 public:
  /// `outputs` > 1 requires outputs_share_system(options).
  explicit GpRegressor(GpOptions options = {}, std::size_t outputs = 1);

  /// Fit a single-output model to (x, y). Requires at least 2 points; all
  /// rows must share one dimension. Refitting replaces previous data.
  void fit(std::vector<std::vector<double>> x, std::vector<double> y);

  /// fit() for every output at once: y[c] holds output c's targets, one per
  /// row of x.
  void fit_outputs(std::vector<std::vector<double>> x,
                   std::vector<std::vector<double>> y);

  /// Add observations to a single-output model and refit the linear
  /// algebra. Hyperparameters are re-optimized only when `reoptimize` is
  /// true (it is the expensive part).
  void update(const std::vector<std::vector<double>>& x,
              const std::vector<double>& y, bool reoptimize = false);

  /// update() for every output at once (y[c] as in fit_outputs).
  void update_outputs(const std::vector<std::vector<double>>& x,
                      const std::vector<std::vector<double>>& y,
                      bool reoptimize = false);

  [[nodiscard]] bool is_fit() const { return !x_.empty(); }
  [[nodiscard]] std::size_t num_points() const { return x_.size(); }
  [[nodiscard]] std::size_t num_outputs() const { return columns_.size(); }
  [[nodiscard]] std::size_t dim() const { return dim_; }
  [[nodiscard]] const KernelParams& params() const { return params_; }
  /// The exact backend's factor of the training covariance (empty when
  /// unfit or under GpBackend::kInducing).
  [[nodiscard]] const std::optional<la::Cholesky>& factor() const {
    return chol_;
  }

  /// Robustness bookkeeping of one output since the last fit(). Everything
  /// but posterior_jitter is shared by the outputs; posterior_jitter is
  /// additionally updated by sample_joint (hence mutable state).
  [[nodiscard]] GpFitDiagnostics diagnostics(std::size_t output = 0) const;

  /// Posterior mean at one point (original target scale).
  [[nodiscard]] double predict_mean(const std::vector<double>& x,
                                    std::size_t output = 0) const;

  /// Posterior variance of the latent function at one point (original
  /// target scale, without observation noise).
  [[nodiscard]] double predict_var(const std::vector<double>& x,
                                   std::size_t output = 0) const;

  /// Joint posterior over a set of points.
  [[nodiscard]] Posterior posterior(const std::vector<std::vector<double>>& x,
                                    std::size_t output = 0) const;

  /// Draw `num_samples` joint samples of the latent function at `x`.
  /// Result is (num_samples × x.size()).
  [[nodiscard]] la::Matrix sample_joint(
      const std::vector<std::vector<double>>& x, std::size_t num_samples,
      Rng& rng, std::size_t output = 0) const;

  /// sample_joint with the standard normals supplied by the caller: row s
  /// of `z` (num_samples × x.size()) drives sample s. Lets callers pre-draw
  /// the randomness serially in a fixed order and run the deterministic
  /// colouring transform in parallel — sample_joint(x, S, rng) is exactly
  /// sample_joint_given(x, z) with z filled row-major from `rng`.
  [[nodiscard]] la::Matrix sample_joint_given(
      const std::vector<std::vector<double>>& x, const la::Matrix& z,
      std::size_t output = 0) const;

  /// sample_joint_given for every output over one query set: z[c] drives
  /// output c, and result[c] equals sample_joint_given(x, z[c], c). The
  /// outputs' colouring transforms run in parallel.
  [[nodiscard]] std::vector<la::Matrix> sample_outputs_given(
      const std::vector<std::vector<double>>& x,
      const std::vector<la::Matrix>& z) const;

  /// Log marginal likelihood of the standardized data under `params`.
  [[nodiscard]] double log_marginal_likelihood(const KernelParams& params,
                                               std::size_t output = 0) const;

  /// Serialize the complete fitted state of one output — training data,
  /// scaling, hyperparameters, the jitter of the Cholesky factor, alpha,
  /// the robust-noise scales, diagnostics counters, and the factor epoch —
  /// as deterministic JSON, byte-identical to the snapshot of a
  /// single-output model fed that output's column. The exact factor itself
  /// is re-derived on restore (bit-identical: it is a pure function of the
  /// stored inputs, hyperparameters, noise scales and jitter); the sparse
  /// backend's factors are stored whole. The mutable posterior workspace
  /// is a pure cache and is not serialized (recomputing it is
  /// bit-identical).
  [[nodiscard]] obs::json::Value snapshot(std::size_t output = 0) const;

  /// Rebuild a single-output model from snapshot(). The regressor must have
  /// been constructed with the same GpOptions as the snapshotted one;
  /// after restore, every prediction, sample, and incremental update is
  /// bit-for-bit identical to the original instance's. A malformed or
  /// inconsistent snapshot throws pamo::Error and leaves this model
  /// untouched.
  void restore(const obs::json::Value& snap);

  /// restore() for every output: snaps[c] is output c's snapshot(), and
  /// all of them must describe one shared system (same inputs, factor,
  /// noise scales and shared diagnostics). All or nothing, like restore().
  void restore_outputs(std::span<const obs::json::Value> snaps);

 private:
  /// Cross-covariance workspace reused by posterior() across calls over
  /// the same query set. `key` fingerprints the scaled query rows (with an
  /// exact row comparison against `xs` to rule out hash collisions);
  /// `factor_epoch` ties V to the factor it was computed against, and
  /// `train_rows` lets an incrementally-extended factor extend k_cross, V
  /// and VᵀV by the new training rows instead of recomputing them. Every
  /// member is shared by the outputs.
  struct PosteriorWorkspace {
    bool valid = false;
    std::uint64_t key = 0;
    std::uint64_t factor_epoch = 0;
    std::size_t train_rows = 0;
    std::vector<std::vector<double>> xs;  // scaled query rows
    la::Matrix k_cross;                   // n × m, K*ᵀ (training-row major)
    la::Matrix k_test;                    // m × m
    la::Matrix v;                         // n × m, V = L⁻¹ K*ᵀ
    la::Matrix vtv;                       // m × m, VᵀV
  };

  /// Fitted state of the kInducing backend (absent under kExact). All of
  /// it lives in standardized-target / scaled-input space, like the exact
  /// factorization it replaces. D below is the per-row noise σ²·λ_i
  /// (noise_scale_), so drift forgetting flows through the sparse solve
  /// the same way it flows through the exact one.
  struct SparseState {
    std::vector<std::vector<double>> z;  // inducing rows (scaled inputs)
    std::optional<la::Cholesky> lm;      // chol(Kmm [+ ladder jitter])
    std::optional<la::Cholesky> lb;      // chol(B), B = Kmm_j + Kmn D⁻¹ Knm
    la::Matrix kmn;                      // m × n cross-covariance
    la::Vector b;                        // Kmn D⁻¹ y
    la::Vector alpha;                    // B⁻¹ b
  };

  /// Everything that depends on one output's target values.
  struct Column {
    std::vector<double> y_raw;  // original scale
    double y_mean = 0.0, y_std = 1.0;
    std::vector<double> y;  // standardized
    la::Vector alpha;       // (K + σ²Λ)⁻¹ y (exact backend)
    // Largest jitter used to repair this output's sampled posterior
    // covariance (GpFitDiagnostics::posterior_jitter).
    mutable double posterior_jitter = 0.0;
  };

  void rebuild(bool optimize_hyperparams);
  /// O(n²) update: extend the cached factor by the last `new_rows` rows of
  /// x_raw_ and every column's y_raw. Returns false when the extension
  /// would not be bit-identical to a full rebuild (see
  /// GpOptions::incremental); the fitted state is untouched then.
  bool try_incremental_update(std::size_t new_rows);
  /// Bring workspace_ up to date for the scaled query rows `xs`.
  void refresh_posterior_workspace(std::vector<std::vector<double>>&& xs) const;
  /// Joint posterior of every output over `x` (result[c] is output c's):
  /// scale the rows, then refresh the one workspace (or route to the
  /// sparse backend).
  [[nodiscard]] std::vector<Posterior> posteriors(
      const std::vector<std::vector<double>>& x) const;
  /// Colour the standard normals `z` with a posterior of `column`.
  [[nodiscard]] la::Matrix colour(const Posterior& post, const la::Matrix& z,
                                  const Column& column) const;
  /// Redo the min-max input scaling over every raw row.
  void rescale_inputs();
  /// Re-standardize every column's targets over every raw row.
  void standardize_targets();
  /// Factorize K(x_, x_) + σ²·diag(noise_scale_) and solve every column
  /// for its alpha, recovering from Cholesky failures by widening the
  /// jitter cap. Routes to solve_sparse() under GpBackend::kInducing.
  void solve_system();
  /// kInducing: select the inducing set from the current training rows and
  /// solve the DTC system (Lm, B, b, alpha) from scratch in O(m²n).
  void solve_sparse();
  /// kInducing O(m² + mn) update: fold the last `new_rows` rows into the
  /// frozen inducing system via rank-one factor updates of B. Returns
  /// false when the sparse state is missing (callers then re-solve).
  bool try_sparse_update(std::size_t new_rows);
  /// DTC joint posterior over scaled query rows (standardized scale
  /// handled by the caller-facing posterior()).
  [[nodiscard]] Posterior sparse_posterior(
      const std::vector<std::vector<double>>& xs) const;
  /// Sparse-system snapshot codec (gp_snapshot.cpp).
  static obs::json::Value sparse_to_json(const SparseState& s);
  static SparseState sparse_from_json(const obs::json::Value& v);
  /// Decode one output's snapshot into this (freshly constructed) model's
  /// shared state and first column; unchecked (see restore_outputs).
  void restore_column(const obs::json::Value& snap);
  /// Throw unless the decoded state is internally consistent: every array
  /// sized to the training set, every row `dim` wide, and a stored exact
  /// factor (`has_factor`) present exactly when the exact backend is fit.
  void validate_restored(bool has_factor) const;
  /// K(x_, x_) + σ²·diag(noise_scale_): the matrix the exact factor
  /// factors, whether built by solve_system() or grown by extend().
  [[nodiscard]] la::Matrix training_covariance() const;
  /// The solved system covers every kept training row (postcondition of
  /// fit()/update(), backend-independent).
  [[nodiscard]] bool solved_over_all_rows() const;
  /// One pass of iteratively reweighted noise: inflate noise_scale_ for
  /// points with large standardized residuals, then re-solve. Returns
  /// false (leaving the solve untouched, bit-for-bit) when no residual
  /// crosses the threshold.
  bool reweight_outliers();
  /// Selective refit after a drift fire: redo the input scaling and target
  /// standardization over all rows and re-solve with the *current*
  /// noise_scale_ (extended by 1.0 for the `new_rows` fresh rows), so the
  /// forgetting survives. Hyperparameters are never re-optimized here —
  /// skipping the MLE is exactly the cost the detector avoids.
  void refit_keep_noise(std::size_t new_rows);
  /// Drop rows with a non-finite input or target in any column
  /// (reject_nonfinite; returns how many) or reject them loudly.
  std::size_t sanitize(std::vector<std::vector<double>>& x,
                       std::vector<std::vector<double>>& y) const;
  [[nodiscard]] double lml_on(const std::vector<std::vector<double>>& xs,
                              const std::vector<double>& ys,
                              const KernelParams& params) const;
  [[nodiscard]] std::vector<double> scale_input(
      const std::vector<double>& x) const;

  // Construction-time configuration, re-supplied by the ctor on restore.
  // pamo-analyze: allow(snapshot-coverage)
  GpOptions options_;
  std::size_t dim_ = 0;

  // Raw training inputs (original scale) and their min-max scaling.
  std::vector<std::vector<double>> x_raw_;
  std::vector<double> x_lo_, x_hi_;

  // Scaled training inputs and the shared fitted state.
  std::vector<std::vector<double>> x_;
  KernelParams params_;
  std::optional<la::Cholesky> chol_;
  // kInducing backend state (absent under kExact; exactly one of chol_
  // and sparse_ is populated after a fit).
  std::optional<SparseState> sparse_;
  // Per-output targets and solves; never empty.
  std::vector<Column> columns_;

  // Per-point noise-variance inflation factors (≥ 1; 1 when the robust
  // fit is off or the point is an inlier).
  std::vector<double> noise_scale_;
  // Running CUSUM score of the drift detector (see GpOptions).
  double drift_cusum_ = 0.0;
  // Shared diagnostics; posterior_jitter is kept per column instead.
  GpFitDiagnostics diagnostics_;

  // Bumped by every full refactorization (solve_system); incremental
  // factor extensions keep it, which is what lets the posterior workspace
  // extend its V rows instead of starting over.
  std::uint64_t factor_epoch_ = 0;
  // Prediction scratch: contents are dead between calls.
  // pamo-analyze: allow(snapshot-coverage)
  mutable PosteriorWorkspace workspace_;
};

}  // namespace pamo::gp
