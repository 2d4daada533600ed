#include "gp/gp_regressor.hpp"

#include <cmath>
#include <cstring>
#include <limits>

#include "common/contracts.hpp"
#include "common/error.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "obs/obs.hpp"
#include "opt/nelder_mead.hpp"

namespace pamo::gp {

namespace {

constexpr double kLog2Pi = 1.8378770664093454835606594728112;

/// FNV-1a over the bit patterns of a query set; fingerprints the posterior
/// workspace (backed by an exact row comparison, so collisions only cost a
/// recompute, never a wrong reuse).
std::uint64_t fingerprint_rows(const std::vector<std::vector<double>>& xs) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xffULL;
      h *= 1099511628211ULL;
    }
  };
  mix(xs.size());
  for (const auto& row : xs) {
    for (const double d : row) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &d, sizeof(bits));
      mix(bits);
    }
  }
  return h;
}

}  // namespace

bool outputs_share_system(const GpOptions& options) {
  return options.fixed_params.has_value() &&
         options.backend == GpBackend::kExact && !options.robust_noise &&
         !options.reject_nonfinite && !(options.drift_cusum_h > 0.0);
}

GpRegressor::GpRegressor(GpOptions options, std::size_t outputs)
    : options_(std::move(options)), columns_(outputs) {
  PAMO_CHECK(outputs >= 1, "a GP needs at least one output");
  PAMO_CHECK(outputs == 1 || outputs_share_system(options_),
             "several GP outputs share one system only under fixed "
             "hyperparameters on the exact backend, with robust noise, "
             "non-finite row dropping and drift detection off");
}

std::vector<double> GpRegressor::scale_input(
    const std::vector<double>& x) const {
  PAMO_CHECK(x.size() == dim_, "input dimension mismatch");
  std::vector<double> scaled(dim_);
  for (std::size_t i = 0; i < dim_; ++i) {
    const double width = x_hi_[i] - x_lo_[i];
    scaled[i] = width > 0 ? (x[i] - x_lo_[i]) / width : 0.0;
  }
  return scaled;
}

GpFitDiagnostics GpRegressor::diagnostics(std::size_t output) const {
  PAMO_CHECK(output < columns_.size(), "GP output index out of range");
  GpFitDiagnostics d = diagnostics_;
  d.posterior_jitter = columns_[output].posterior_jitter;
  return d;
}

bool GpRegressor::solved_over_all_rows() const {
  if (sparse_.has_value()) return sparse_->kmn.cols() == x_raw_.size();
  for (const Column& col : columns_) {
    if (col.alpha.size() != x_raw_.size()) return false;
  }
  return true;
}

std::size_t GpRegressor::sanitize(std::vector<std::vector<double>>& x,
                                  std::vector<std::vector<double>>& y) const {
  auto row_finite = [&](std::size_t i) {
    for (const auto& col : y) {
      if (!std::isfinite(col[i])) return false;
    }
    for (const double v : x[i]) {
      if (!std::isfinite(v)) return false;
    }
    return true;
  };
  if (!options_.reject_nonfinite) {
    for (std::size_t i = 0; i < x.size(); ++i) {
      PAMO_CHECK(row_finite(i),
                 "non-finite observation (NaN/Inf) in GP training data; set "
                 "GpOptions::reject_nonfinite to drop such rows");
    }
    return 0;
  }
  std::size_t kept = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (!row_finite(i)) continue;
    if (kept != i) {
      x[kept] = std::move(x[i]);
      for (auto& col : y) col[kept] = col[i];
    }
    ++kept;
  }
  const std::size_t rejected = x.size() - kept;
  x.resize(kept);
  for (auto& col : y) col.resize(kept);
  return rejected;
}

void GpRegressor::fit(std::vector<std::vector<double>> x,
                      std::vector<double> y) {
  std::vector<std::vector<double>> columns;
  columns.push_back(std::move(y));
  fit_outputs(std::move(x), std::move(columns));
}

void GpRegressor::fit_outputs(std::vector<std::vector<double>> x,
                              std::vector<std::vector<double>> y) {
  PAMO_SPAN("gp.fit");
  PAMO_COUNT("gp.fits", 1);
  PAMO_CHECK(y.size() == columns_.size(), "one target column per GP output");
  for (const auto& col : y) {
    PAMO_CHECK(x.size() == col.size(), "x/y size mismatch");
  }
  const std::size_t rejected = sanitize(x, y);
  PAMO_CHECK(x.size() >= 2, "GP fit requires at least 2 finite points");
  const std::size_t dim = x.front().size();
  PAMO_CHECK(dim >= 1, "GP inputs must have dimension >= 1");
  for (const auto& row : x) {
    PAMO_CHECK(row.size() == dim, "ragged input matrix");
  }
  PAMO_CHECK(options_.backend == GpBackend::kExact || !options_.robust_noise,
             "robust_noise requires the exact backend (the IRLS residuals "
             "are defined against the full factorization)");
  // The data is accepted: start afresh. A fit rejected by the checks
  // above leaves a fitted model as it was.
  diagnostics_ = {};
  diagnostics_.rows_rejected = rejected;
  for (Column& col : columns_) col.posterior_jitter = 0.0;
  drift_cusum_ = 0.0;
  noise_scale_.clear();
  dim_ = dim;
  x_raw_ = std::move(x);
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    columns_[c].y_raw = std::move(y[c]);
  }
  rebuild(/*optimize_hyperparams=*/!options_.fixed_params.has_value());
  PAMO_ENSURES(is_fit() && solved_over_all_rows(),
               "fit leaves a solved system over every kept row");
}

void GpRegressor::update(const std::vector<std::vector<double>>& x,
                         const std::vector<double>& y, bool reoptimize) {
  update_outputs(x, {y}, reoptimize);
}

void GpRegressor::update_outputs(const std::vector<std::vector<double>>& x,
                                 const std::vector<std::vector<double>>& y,
                                 bool reoptimize) {
  PAMO_SPAN("gp.update");
  PAMO_COUNT("gp.updates", 1);
  PAMO_CHECK(is_fit(), "update before fit");
  PAMO_CHECK(y.size() == columns_.size(), "one target column per GP output");
  for (const auto& col : y) {
    PAMO_CHECK(x.size() == col.size(), "x/y size mismatch");
  }
  std::vector<std::vector<double>> xs = x;
  std::vector<std::vector<double>> ys = y;
  for (const auto& row : xs) {
    PAMO_CHECK(row.size() == dim_, "input dimension mismatch");
  }
  diagnostics_.rows_rejected += sanitize(xs, ys);
  const bool want_mle = reoptimize && !options_.fixed_params.has_value();
  if (xs.empty() && !want_mle) {
    // Nothing new and no re-optimization: the solved system already is
    // exactly what a rebuild over the unchanged data would produce.
    return;
  }
  // Drift detection: score incoming rows against the posterior *before*
  // they are incorporated. A fire down-weights every pre-existing row and
  // forces a re-solve (never an MLE refit), so a content shift gets
  // explained by fresh data instead of averaged into a stale posterior.
  // The detector implies a single output (outputs_share_system).
  bool drift_fired = false;
  if (options_.drift_cusum_h > 0.0 && !xs.empty()) {
    const Column& col = columns_.front();
    const double noise_raw =
        std::exp(params_.log_noise_var) * col.y_std * col.y_std;
    for (std::size_t i = 0; i < xs.size(); ++i) {
      const double mu = predict_mean(xs[i]);
      const double var = predict_var(xs[i]) + noise_raw;
      const double z = (ys.front()[i] - mu) / std::sqrt(std::max(var, 1e-12));
      drift_cusum_ = std::max(
          0.0, drift_cusum_ + std::fabs(z) - options_.drift_cusum_k);
    }
    if (drift_cusum_ > options_.drift_cusum_h) {
      drift_fired = true;
      ++diagnostics_.drift_fires;
      for (double& scale : noise_scale_) {
        scale = std::min(options_.robust_inflation_cap,
                         scale * options_.drift_forget_inflation);
      }
      diagnostics_.drift_downweighted += noise_scale_.size();
      drift_cusum_ = 0.0;
    }
    diagnostics_.drift_score = drift_cusum_;
  }
  // The factor extension is exact only when the solved system is a pure
  // function of the appended rows: hyperparameters kept, robust noise off
  // (reweighting re-solves over all rows), a jitter-free factor (the
  // ladder restarts from zero on a full rebuild), and every new input
  // inside the training box, so the min-max scaling of old rows — and with
  // it the entire existing system — is unchanged.
  auto inside_box = [this](const std::vector<std::vector<double>>& rows) {
    for (const auto& row : rows) {
      for (std::size_t d = 0; d < dim_; ++d) {
        if (row[d] < x_lo_[d] || row[d] > x_hi_[d]) return false;
      }
    }
    return true;
  };
  const bool eligible = options_.incremental && !want_mle && !drift_fired &&
                        !options_.robust_noise && chol_.has_value() &&
                        chol_->jitter() == 0.0 &&  // pamo-analyze: allow(float-eq)
                        !xs.empty() && inside_box(xs);
  // The sparse system's inducing set and input scaling are frozen across
  // incremental updates; a drift fire or an out-of-box row re-solves (and
  // re-selects the inducing set) from scratch instead.
  const bool sparse_eligible = options_.incremental && !want_mle &&
                               !drift_fired && sparse_.has_value() &&
                               !xs.empty() && inside_box(xs);
  const std::size_t new_rows = xs.size();
  for (auto& row : xs) x_raw_.push_back(std::move(row));
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    columns_[c].y_raw.insert(columns_[c].y_raw.end(), ys[c].begin(),
                             ys[c].end());
  }
  if (eligible && try_incremental_update(new_rows)) {
    ++diagnostics_.incremental_updates;
  } else if (sparse_eligible && try_sparse_update(new_rows)) {
    ++diagnostics_.incremental_updates;
  } else if (drift_fired && !want_mle) {
    // Selective forgetting: the inflated noise scales must survive, so a
    // plain rebuild (which resets them) is off the table.
    refit_keep_noise(new_rows);
  } else {
    if (options_.incremental && !want_mle) ++diagnostics_.incremental_fallbacks;
    rebuild(want_mle);
  }
  PAMO_ENSURES(solved_over_all_rows(),
               "update leaves a solved system over every kept row");
}

bool GpRegressor::try_incremental_update(std::size_t new_rows) {
  const std::size_t n_old = x_.size();
  std::vector<std::vector<double>> scaled;
  scaled.reserve(new_rows);
  for (std::size_t i = 0; i < new_rows; ++i) {
    scaled.push_back(scale_input(x_raw_[n_old + i]));
  }

  const la::Matrix cross = kernel_cross(options_.kernel, params_, scaled, x_);
  la::Matrix corner = kernel_matrix(options_.kernel, params_, scaled);
  const double noise = std::exp(params_.log_noise_var);
  for (std::size_t i = 0; i < new_rows; ++i) {
    corner(i, i) += noise;  // fresh rows always have noise_scale 1
  }
  if (!chol_->extend(cross, corner)) return false;

  for (auto& row : scaled) x_.push_back(std::move(row));
  noise_scale_.insert(noise_scale_.end(), new_rows, 1.0);

  // Re-standardize the targets over the grown set — exactly the rebuild
  // arithmetic — and re-solve against the extended factor: O(n) + O(n²)
  // per output against the rebuild's O(n³) refactorization.
  standardize_targets();
  for (Column& col : columns_) col.alpha = chol_->solve(col.y);
  return true;
}

void GpRegressor::rescale_inputs() {
  x_lo_.assign(dim_, std::numeric_limits<double>::max());
  x_hi_.assign(dim_, std::numeric_limits<double>::lowest());
  for (const auto& row : x_raw_) {
    for (std::size_t i = 0; i < dim_; ++i) {
      x_lo_[i] = std::min(x_lo_[i], row[i]);
      x_hi_[i] = std::max(x_hi_[i], row[i]);
    }
  }
  x_.clear();
  x_.reserve(x_raw_.size());
  for (const auto& row : x_raw_) x_.push_back(scale_input(row));
}

void GpRegressor::standardize_targets() {
  for (Column& col : columns_) {
    const std::size_t n = col.y_raw.size();
    col.y_mean = mean_of(col.y_raw);
    col.y_std = stddev_of(col.y_raw);
    // Constant targets: keep the scale sane.
    if (col.y_std < 1e-12) col.y_std = 1.0;
    col.y.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      col.y[i] = (col.y_raw[i] - col.y_mean) / col.y_std;
    }
  }
}

void GpRegressor::rebuild(bool optimize_hyperparams) {
  PAMO_SPAN("gp.rebuild");
  PAMO_COUNT("gp.rebuilds", 1);
  const std::size_t n = x_raw_.size();
  rescale_inputs();
  standardize_targets();

  if (options_.fixed_params.has_value()) {
    params_ = *options_.fixed_params;
    PAMO_CHECK(params_.dim() == dim_, "fixed hyperparameter dim mismatch");
  } else if (optimize_hyperparams || params_.dim() != dim_) {
    // MLE over [lengthscales, signal var, noise var] in log space. Free
    // hyperparameters imply a single output (outputs_share_system).
    const std::vector<double>& y = columns_.front().y;
    opt::Box box;
    const std::size_t p = dim_ + 2;
    box.lo.assign(p, 0.0);
    box.hi.assign(p, 0.0);
    for (std::size_t i = 0; i < dim_; ++i) {
      box.lo[i] = std::log(0.03);  // inputs are scaled to [0,1]
      box.hi[i] = std::log(10.0);
    }
    box.lo[dim_] = std::log(0.05);  // signal variance (standardized y)
    box.hi[dim_] = std::log(20.0);
    box.lo[dim_ + 1] = std::log(options_.min_noise_var);
    box.hi[dim_ + 1] = std::log(1.0);

    // MLE on a strided subsample when the training set is large — the
    // marginal likelihood is O(n³) per evaluation.
    std::vector<std::vector<double>> mle_x;
    std::vector<double> mle_y;
    const std::size_t cap = options_.mle_subsample;
    if (cap > 0 && n > cap) {
      const double stride = static_cast<double>(n) / static_cast<double>(cap);
      for (std::size_t i = 0; i < cap; ++i) {
        const auto idx = static_cast<std::size_t>(
            static_cast<double>(i) * stride);
        mle_x.push_back(x_[idx]);
        mle_y.push_back(y[idx]);
      }
    } else {
      mle_x = x_;
      mle_y = y;
    }
    auto objective = [&](const std::vector<double>& packed) {
      const KernelParams candidate = KernelParams::unpack(packed, dim_);
      return -lml_on(mle_x, mle_y, candidate);
    };

    KernelParams init;
    init.log_lengthscales.assign(dim_, std::log(0.3));
    init.log_signal_var = 0.0;
    init.log_noise_var = std::log(1e-2);
    const std::vector<double> x0 = init.pack();

    opt::NelderMeadOptions nm;
    nm.max_evals = options_.mle_max_evals;
    const opt::OptResult best = opt::multistart_minimize(
        objective, box, options_.mle_restarts, options_.seed, &x0, nm);
    params_ = KernelParams::unpack(best.x, dim_);
  }

  if (options_.drift_cusum_h > 0.0 && noise_scale_.size() <= n) {
    // Drift downweights are not re-derivable from the data (unlike robust
    // outlier weights), so a full rebuild keeps them and extends with 1.0
    // for the fresh rows. fit() clears the scales first: a refit is a
    // fresh start.
    noise_scale_.resize(n, 1.0);
  } else {
    noise_scale_.assign(n, 1.0);
  }
  solve_system();
  if (options_.robust_noise) {
    for (std::size_t round = 0; round < options_.robust_rounds; ++round) {
      if (!reweight_outliers()) break;
    }
  }
}

void GpRegressor::refit_keep_noise(std::size_t new_rows) {
  PAMO_SPAN("gp.refit_keep_noise");
  // Same scaling/standardization arithmetic as rebuild(), over all rows.
  rescale_inputs();
  standardize_targets();
  noise_scale_.insert(noise_scale_.end(), new_rows, 1.0);
  PAMO_CHECK(noise_scale_.size() == x_raw_.size(),
             "noise scales cover every row");
  solve_system();
  if (options_.robust_noise) {
    for (std::size_t round = 0; round < options_.robust_rounds; ++round) {
      if (!reweight_outliers()) break;
    }
  }
}

void GpRegressor::solve_system() {
  if (options_.backend == GpBackend::kInducing) {
    solve_sparse();
    return;
  }
  const la::Matrix k = training_covariance();
  // Degrade to a wider jitter cap instead of throwing: a near-singular
  // training covariance (duplicated inputs, heavily inflated outlier rows)
  // yields a smoother posterior rather than a dead learner.
  constexpr double kJitterLadder[] = {1e-4, 1e-2, 1.0};
  constexpr std::size_t kAttempts = 3;
  for (std::size_t attempt = 0;; ++attempt) {
    try {
      chol_.emplace(k, kJitterLadder[attempt]);
      break;
    } catch (const Error&) {
      if (attempt + 1 >= kAttempts) throw;
      ++diagnostics_.cholesky_recoveries;
    }
  }
  diagnostics_.fit_jitter = std::max(diagnostics_.fit_jitter, chol_->jitter());
  for (Column& col : columns_) col.alpha = chol_->solve(col.y);
  ++factor_epoch_;  // full refactorization: cached V rows are now stale
}

la::Matrix GpRegressor::training_covariance() const {
  la::Matrix k = kernel_matrix(options_.kernel, params_, x_);
  const double noise = std::exp(params_.log_noise_var);
  for (std::size_t i = 0; i < x_.size(); ++i) {
    k(i, i) += noise * noise_scale_[i];
  }
  return k;
}

bool GpRegressor::reweight_outliers() {
  // Robust noise implies a single output (outputs_share_system).
  const la::Vector& alpha = columns_.front().alpha;
  const double noise = std::exp(params_.log_noise_var);
  bool changed = false;
  for (std::size_t i = 0; i < x_.size(); ++i) {
    const double var_i = noise * noise_scale_[i];
    // At the training points the posterior mean is y − Σnoise·α, so the
    // residual is var_i·α_i and its standardized form is √var_i·α_i.
    const double z = std::sqrt(var_i) * alpha[i];
    if (std::fabs(z) <= options_.robust_threshold) continue;
    const double ratio = std::fabs(z) / options_.robust_threshold;
    const double target = std::min(options_.robust_inflation_cap,
                                   noise_scale_[i] * ratio * ratio);
    if (target > noise_scale_[i]) {
      // Scale is exactly 1.0 until the first inflation: this counts each
      // point at most once across the reweighting rounds.
      if (noise_scale_[i] == 1.0) ++diagnostics_.outliers_downweighted;  // pamo-analyze: allow(float-eq)
      noise_scale_[i] = target;
      changed = true;
    }
  }
  if (changed) solve_system();
  return changed;
}

double GpRegressor::lml_on(const std::vector<std::vector<double>>& xs,
                           const std::vector<double>& ys,
                           const KernelParams& params) const {
  la::Matrix k = kernel_matrix(options_.kernel, params, xs);
  k.add_diagonal(std::exp(params.log_noise_var));
  try {
    const la::Cholesky chol(k);
    const la::Vector alpha = chol.solve(ys);
    const double fit_term = la::dot(ys, alpha);
    const auto n = static_cast<double>(xs.size());
    return -0.5 * (fit_term + chol.log_det() + n * kLog2Pi);
  } catch (const Error&) {
    return -std::numeric_limits<double>::max();
  }
}

double GpRegressor::log_marginal_likelihood(const KernelParams& params,
                                            std::size_t output) const {
  PAMO_CHECK(!x_.empty(), "log_marginal_likelihood before fit");
  PAMO_CHECK(output < columns_.size(), "GP output index out of range");
  return lml_on(x_, columns_[output].y, params);
}

double GpRegressor::predict_mean(const std::vector<double>& x,
                                 std::size_t output) const {
  PAMO_CHECK(is_fit(), "predict before fit");
  PAMO_CHECK(output < columns_.size(), "GP output index out of range");
  const std::vector<double> xs = scale_input(x);
  const Column& col = columns_[output];
  double sum = 0.0;
  if (sparse_.has_value()) {
    for (std::size_t j = 0; j < sparse_->z.size(); ++j) {
      sum += kernel_value(options_.kernel, params_, xs, sparse_->z[j]) *
             sparse_->alpha[j];
    }
  } else {
    for (std::size_t i = 0; i < x_.size(); ++i) {
      sum += kernel_value(options_.kernel, params_, xs, x_[i]) * col.alpha[i];
    }
  }
  return col.y_mean + col.y_std * sum;
}

double GpRegressor::predict_var(const std::vector<double>& x,
                                std::size_t output) const {
  PAMO_CHECK(is_fit(), "predict before fit");
  PAMO_CHECK(output < columns_.size(), "GP output index out of range");
  const std::vector<double> xs = scale_input(x);
  const double prior = std::exp(params_.log_signal_var);
  const double y_std = columns_[output].y_std;
  if (sparse_.has_value()) {
    const std::size_t m = sparse_->z.size();
    la::Vector kstar(m);
    for (std::size_t j = 0; j < m; ++j) {
      kstar[j] = kernel_value(options_.kernel, params_, xs, sparse_->z[j]);
    }
    // DTC: k** − k*ₘ Kmm⁻¹ kₘ* + k*ₘ B⁻¹ kₘ*.
    const la::Vector v1 = sparse_->lm->solve_lower(kstar);
    const la::Vector v2 = sparse_->lb->solve_lower(kstar);
    const double var = prior - la::dot(v1, v1) + la::dot(v2, v2);
    return std::max(0.0, var) * y_std * y_std;
  }
  la::Vector kstar(x_.size());
  for (std::size_t i = 0; i < x_.size(); ++i) {
    kstar[i] = kernel_value(options_.kernel, params_, xs, x_[i]);
  }
  const la::Vector v = chol_->solve_lower(kstar);
  const double var = prior - la::dot(v, v);
  return std::max(0.0, var) * y_std * y_std;
}

void GpRegressor::refresh_posterior_workspace(
    std::vector<std::vector<double>>&& xs) const {
  const std::size_t n = x_.size();
  const std::uint64_t key = fingerprint_rows(xs);
  const bool same_query = options_.incremental && workspace_.valid &&
                          workspace_.key == key && workspace_.xs == xs;
  if (same_query && workspace_.factor_epoch == factor_epoch_ &&
      workspace_.train_rows <= n) {
    if (workspace_.train_rows == n) return;  // fully current
    // The factor was extended in place since the workspace was built:
    // append the new rows of K*ᵀ, continue the forward substitution for
    // the new rows of V, and add their outer products to VᵀV. Existing
    // entries are untouched and every new term lands in the order a full
    // recompute accumulates it, so the result is bit-identical to
    // recomputing against the grown set.
    const std::size_t m = xs.size();
    const std::size_t n_prev = workspace_.train_rows;
    const la::Matrix& l = chol_->lower();
    la::Matrix& k_cross = workspace_.k_cross;
    la::Matrix& v = workspace_.v;
    const la::Matrix fresh = kernel_cross(
        options_.kernel, params_, workspace_.xs,
        {x_.begin() + static_cast<std::ptrdiff_t>(n_prev), x_.end()});
    k_cross.append_rows(n - n_prev);
    v.append_rows(n - n_prev);
    for (std::size_t j = n_prev; j < n; ++j) {
      for (std::size_t c = 0; c < m; ++c) k_cross(j, c) = fresh(c, j - n_prev);
    }
    for (std::size_t i = n_prev; i < n; ++i) {
      for (std::size_t c = 0; c < m; ++c) {
        double sum = k_cross(i, c);
        for (std::size_t k = 0; k < i; ++k) sum -= l(i, k) * v(k, c);
        v(i, c) = sum / l(i, i);
      }
    }
    // matmul_blocked(Vᵀ, V) sums each entry over training rows ascending,
    // skipping exact-zero left factors; continue those sums.
    la::Matrix& vtv = workspace_.vtv;
    for (std::size_t r = n_prev; r < n; ++r) {
      for (std::size_t i = 0; i < m; ++i) {
        const double vri = v(r, i);
        if (vri == 0.0) continue;  // pamo-analyze: allow(float-eq)
        for (std::size_t j = 0; j < m; ++j) vtv(i, j) += vri * v(r, j);
      }
    }
    workspace_.train_rows = n;
    return;
  }
  // Full recompute (new query set, disabled cache, or a refactorized
  // system). k_test depends only on the query rows but is rebuilt here
  // anyway — it is the cheap part, and this keeps the workspace an
  // all-or-nothing snapshot.
  workspace_.k_cross =
      kernel_cross(options_.kernel, params_, xs, x_).transposed();
  workspace_.k_test = kernel_matrix(options_.kernel, params_, xs);
  workspace_.v = chol_->solve_lower(workspace_.k_cross);
  // The blocked product accumulates r-ascending per element, so VᵀV is
  // exactly symmetric and matches the naive triangle loop term-for-term.
  workspace_.vtv = la::matmul_blocked(workspace_.v.transposed(), workspace_.v);
  workspace_.xs = std::move(xs);
  workspace_.key = key;
  workspace_.factor_epoch = factor_epoch_;
  workspace_.train_rows = n;
  workspace_.valid = true;
}

std::vector<Posterior> GpRegressor::posteriors(
    const std::vector<std::vector<double>>& x) const {
  PAMO_SPAN("gp.posterior");
  PAMO_COUNT("gp.posteriors", 1);
  PAMO_CHECK(is_fit(), "posterior before fit");
  const std::size_t m = x.size();
  PAMO_CHECK(m > 0, "posterior over an empty set");
  std::vector<std::vector<double>> xs;
  xs.reserve(m);
  for (const auto& row : x) xs.push_back(scale_input(row));
  std::vector<Posterior> posts;
  posts.reserve(columns_.size());
  if (sparse_.has_value()) {
    posts.push_back(sparse_posterior(xs));
  } else {
    refresh_posterior_workspace(std::move(xs));
    const PosteriorWorkspace& ws = workspace_;
    const std::size_t n = x_.size();
    for (const Column& col : columns_) {
      // Each mean entry sums its training rows ascending, as a dot product
      // would; the rows stream through K*ᵀ contiguously.
      Posterior post;
      la::Vector sums(m, 0.0);
      for (std::size_t j = 0; j < n; ++j) {
        const double a = col.alpha[j];
        for (std::size_t i = 0; i < m; ++i) sums[i] += ws.k_cross(j, i) * a;
      }
      post.mean.resize(m);
      for (std::size_t i = 0; i < m; ++i) {
        post.mean[i] = col.y_mean + col.y_std * sums[i];
      }
      // cov = K** - K*ᵀ (K + σ²I)⁻¹ K* = K** - VᵀV with V = L⁻¹ K*ᵀ.
      post.covariance = la::Matrix(m, m);
      const double scale2 = col.y_std * col.y_std;
      for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < m; ++j) {
          post.covariance(i, j) = (ws.k_test(i, j) - ws.vtv(i, j)) * scale2;
        }
      }
      posts.push_back(std::move(post));
    }
  }
  for (const Posterior& post : posts) {
    PAMO_ENSURES(post.mean.size() == m && post.covariance.rows() == m &&
                     post.covariance.cols() == m,
                 "posterior is square over the query set");
  }
  return posts;
}

Posterior GpRegressor::posterior(const std::vector<std::vector<double>>& x,
                                 std::size_t output) const {
  PAMO_CHECK(output < columns_.size(), "GP output index out of range");
  return std::move(posteriors(x)[output]);
}

la::Matrix GpRegressor::sample_joint(const std::vector<std::vector<double>>& x,
                                     std::size_t num_samples, Rng& rng,
                                     std::size_t output) const {
  PAMO_EXPECTS(num_samples > 0, "sample_joint of zero samples");
  // Draw every normal serially in sample-major order — the exact sequence
  // the historical all-serial loop consumed — then run the deterministic
  // colouring transform (possibly in parallel) on top.
  la::Matrix z(num_samples, x.size());
  for (std::size_t s = 0; s < num_samples; ++s) {
    for (std::size_t i = 0; i < x.size(); ++i) z(s, i) = rng.normal();
  }
  return sample_joint_given(x, z, output);
}

la::Matrix GpRegressor::sample_joint_given(
    const std::vector<std::vector<double>>& x, const la::Matrix& z,
    std::size_t output) const {
  PAMO_EXPECTS(z.rows() > 0, "sample_joint of zero samples");
  PAMO_CHECK(z.cols() == x.size(), "normals/query-set size mismatch");
  return colour(posterior(x, output), z, columns_[output]);
}

std::vector<la::Matrix> GpRegressor::sample_outputs_given(
    const std::vector<std::vector<double>>& x,
    const std::vector<la::Matrix>& z) const {
  PAMO_CHECK(z.size() == columns_.size(), "one normal table per GP output");
  for (const la::Matrix& zc : z) {
    PAMO_EXPECTS(zc.rows() > 0, "sample_joint of zero samples");
    PAMO_CHECK(zc.cols() == x.size(), "normals/query-set size mismatch");
  }
  const std::vector<Posterior> posts = posteriors(x);
  // Each output's transform reads only its own posterior and normals and
  // writes only its own table and posterior_jitter.
  std::vector<la::Matrix> samples(columns_.size());
  parallel_for(columns_.size(), [&](std::size_t c) {
    samples[c] = colour(posts[c], z[c], columns_[c]);
  });
  return samples;
}

la::Matrix GpRegressor::colour(const Posterior& post, const la::Matrix& z,
                               const Column& column) const {
  const std::size_t m = post.mean.size();
  const std::size_t num_samples = z.rows();
  // Small jitter for numerical PSD-ness of the posterior covariance.
  const la::Cholesky chol(post.covariance, options_.posterior_max_jitter);
  column.posterior_jitter = std::max(column.posterior_jitter, chol.jitter());
  la::Matrix samples(num_samples, m);
  // Each sample is a pure function of its own z row, L, and the mean:
  // rows are written disjointly and in a fixed per-row order, so the
  // fan-out is bit-identical at any thread count. The grain keeps small
  // batches (the common tiny-grid case) entirely inline.
  const std::size_t grain = std::max<std::size_t>(1, 32768 / (m * m + 1));
  parallel_for(
      num_samples,
      [&](std::size_t s) {
        for (std::size_t i = 0; i < m; ++i) {
          double sum = post.mean[i];
          for (std::size_t j = 0; j <= i; ++j) {
            sum += chol.lower()(i, j) * z(s, j);
          }
          samples(s, i) = sum;
        }
      },
      grain);
  return samples;
}

}  // namespace pamo::gp
