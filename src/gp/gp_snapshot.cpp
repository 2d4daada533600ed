// GpRegressor checkpoint serialization (see gp_regressor.hpp).
//
// The snapshot carries the fitted state rather than refitting on restore:
// a refit would redo the jitter ladder and MLE from scratch, and any
// difference in that path (a different recovery jitter, another Nelder–
// Mead tie) would silently fork the BO trajectory after resume.
//
// The exact backend's Cholesky factor is the one part of that state that
// is stored as its recipe, not its bits: {"jitter": j}. It is a pure
// function of what the snapshot already holds — every exact factor equals
// la::Cholesky::at_jitter(training_covariance(), j), whether solve_system()
// built it (the ladder stops at j and at_jitter repeats that attempt's
// arithmetic) or Cholesky::extend() grew it (jitter 0 only, with the
// arithmetic of a from-scratch factorization). restore_outputs() re-derives
// it once per shared system. Re-deriving at the stored jitter also keeps
// incremental-update eligibility, which requires jitter == 0. Snapshots
// written before this format carry the factor as `lower`; it must equal the
// re-derivation bit for bit or the snapshot is rejected.
//
// The sparse backend stores its factors whole: B is rank-one updated,
// which matches a refactorization only to ~1e-9.
#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <utility>

#include "ckpt/codec.hpp"
#include "common/error.hpp"
#include "gp/gp_regressor.hpp"

namespace pamo::gp {

namespace json = obs::json;
namespace codec = ckpt::codec;

namespace {

// pamo-analyze: snapshot(KernelParams)
json::Value params_to_json(const KernelParams& params) {
  json::Value obj = json::Value::object();
  obj.set("log_lengthscales", codec::doubles_to_json(params.log_lengthscales));
  obj.set("log_signal_var", json::Value(params.log_signal_var));
  obj.set("log_noise_var", json::Value(params.log_noise_var));
  return obj;
}

// pamo-analyze: snapshot(KernelParams)
KernelParams params_from_json(const json::Value& v) {
  KernelParams params;
  params.log_lengthscales = codec::doubles_from_json(v.at("log_lengthscales"));
  params.log_signal_var = v.at("log_signal_var").as_double();
  params.log_noise_var = v.at("log_noise_var").as_double();
  return params;
}

// pamo-analyze: snapshot(GpFitDiagnostics)
json::Value diagnostics_to_json(const GpFitDiagnostics& d) {
  json::Value obj = json::Value::object();
  obj.set("rows_rejected", json::Value(std::uint64_t{d.rows_rejected}));
  obj.set("outliers_downweighted",
          json::Value(std::uint64_t{d.outliers_downweighted}));
  obj.set("cholesky_recoveries",
          json::Value(std::uint64_t{d.cholesky_recoveries}));
  obj.set("fit_jitter", json::Value(d.fit_jitter));
  obj.set("posterior_jitter", json::Value(d.posterior_jitter));
  obj.set("incremental_updates",
          json::Value(std::uint64_t{d.incremental_updates}));
  obj.set("incremental_fallbacks",
          json::Value(std::uint64_t{d.incremental_fallbacks}));
  obj.set("drift_fires", json::Value(std::uint64_t{d.drift_fires}));
  obj.set("drift_downweighted",
          json::Value(std::uint64_t{d.drift_downweighted}));
  obj.set("drift_score", json::Value(d.drift_score));
  return obj;
}

// pamo-analyze: snapshot(GpFitDiagnostics)
GpFitDiagnostics diagnostics_from_json(const json::Value& v) {
  GpFitDiagnostics d;
  d.rows_rejected = static_cast<std::size_t>(v.at("rows_rejected").as_uint());
  d.outliers_downweighted =
      static_cast<std::size_t>(v.at("outliers_downweighted").as_uint());
  d.cholesky_recoveries =
      static_cast<std::size_t>(v.at("cholesky_recoveries").as_uint());
  d.fit_jitter = v.at("fit_jitter").as_double();
  d.posterior_jitter = v.at("posterior_jitter").as_double();
  d.incremental_updates =
      static_cast<std::size_t>(v.at("incremental_updates").as_uint());
  d.incremental_fallbacks =
      static_cast<std::size_t>(v.at("incremental_fallbacks").as_uint());
  // Drift counters postdate the first snapshot format; absent keys read as
  // zero so old checkpoints stay loadable (backward-readable addition).
  if (const json::Value* fires = v.find("drift_fires")) {
    d.drift_fires = static_cast<std::size_t>(fires->as_uint());
  }
  if (const json::Value* rows = v.find("drift_downweighted")) {
    d.drift_downweighted = static_cast<std::size_t>(rows->as_uint());
  }
  if (const json::Value* score = v.find("drift_score")) {
    d.drift_score = score->as_double();
  }
  return d;
}

}  // namespace

// pamo-analyze: snapshot(SparseState)
json::Value GpRegressor::sparse_to_json(const SparseState& s) {
  json::Value obj = json::Value::object();
  obj.set("z", codec::rows_to_json(s.z));
  obj.set("lm", codec::cholesky_to_json(s.lm));
  obj.set("lb", codec::cholesky_to_json(s.lb));
  obj.set("kmn", codec::matrix_to_json(s.kmn));
  obj.set("b", codec::doubles_to_json(s.b));
  obj.set("alpha", codec::doubles_to_json(s.alpha));
  return obj;
}

// pamo-analyze: snapshot(SparseState)
GpRegressor::SparseState GpRegressor::sparse_from_json(const json::Value& v) {
  SparseState s;
  s.z = codec::rows_from_json(v.at("z"));
  s.lm = codec::cholesky_from_json(v.at("lm"));
  s.lb = codec::cholesky_from_json(v.at("lb"));
  s.kmn = codec::matrix_from_json(v.at("kmn"));
  s.b = codec::doubles_from_json(v.at("b"));
  s.alpha = codec::doubles_from_json(v.at("alpha"));
  return s;
}

// pamo-analyze: snapshot(GpRegressor, Column)
json::Value GpRegressor::snapshot(std::size_t output) const {
  PAMO_CHECK(output < columns_.size(), "GP output index out of range");
  const Column& col = columns_[output];
  PAMO_CHECK(x_.size() == col.y.size() && x_raw_.size() == col.y_raw.size(),
             "GP snapshot over inconsistent training arrays");
  GpFitDiagnostics diagnostics = diagnostics_;
  diagnostics.posterior_jitter = col.posterior_jitter;  // kept per output
  json::Value obj = json::Value::object();
  obj.set("dim", json::Value(std::uint64_t{dim_}));
  obj.set("x_raw", codec::rows_to_json(x_raw_));
  obj.set("y_raw", codec::doubles_to_json(col.y_raw));
  obj.set("x_lo", codec::doubles_to_json(x_lo_));
  obj.set("x_hi", codec::doubles_to_json(x_hi_));
  obj.set("y_mean", json::Value(col.y_mean));
  obj.set("y_std", json::Value(col.y_std));
  obj.set("x", codec::rows_to_json(x_));
  obj.set("y", codec::doubles_to_json(col.y));
  obj.set("params", params_to_json(params_));
  obj.set("chol", codec::factor_to_json(chol_));
  obj.set("alpha", codec::doubles_to_json(col.alpha));
  obj.set("noise_scale", codec::doubles_to_json(noise_scale_));
  obj.set("diagnostics", diagnostics_to_json(diagnostics));
  obj.set("factor_epoch", json::Value(factor_epoch_));
  obj.set("drift_cusum", json::Value(drift_cusum_));
  if (sparse_.has_value()) obj.set("sparse", sparse_to_json(*sparse_));
  return obj;
}

// pamo-analyze: snapshot(GpRegressor, Column)
void GpRegressor::restore_column(const json::Value& snap) {
  Column& col = columns_.front();
  dim_ = static_cast<std::size_t>(snap.at("dim").as_uint());
  x_raw_ = codec::rows_from_json(snap.at("x_raw"));
  col.y_raw = codec::doubles_from_json(snap.at("y_raw"));
  x_lo_ = codec::doubles_from_json(snap.at("x_lo"));
  x_hi_ = codec::doubles_from_json(snap.at("x_hi"));
  col.y_mean = snap.at("y_mean").as_double();
  col.y_std = snap.at("y_std").as_double();
  x_ = codec::rows_from_json(snap.at("x"));
  col.y = codec::doubles_from_json(snap.at("y"));
  params_ = params_from_json(snap.at("params"));
  col.alpha = codec::doubles_from_json(snap.at("alpha"));
  noise_scale_ = codec::doubles_from_json(snap.at("noise_scale"));
  diagnostics_ = diagnostics_from_json(snap.at("diagnostics"));
  col.posterior_jitter = diagnostics_.posterior_jitter;  // kept per output
  diagnostics_.posterior_jitter = 0.0;
  factor_epoch_ = snap.at("factor_epoch").as_uint();
  // Backward-readable addition: pre-drift snapshots carry no CUSUM state.
  const json::Value* cusum = snap.find("drift_cusum");
  drift_cusum_ = cusum ? cusum->as_double() : 0.0;
  // Backward-readable addition: exact-backend snapshots carry no sparse
  // system (the key is emitted only when the state exists).
  const json::Value* sparse = snap.find("sparse");
  sparse_ = sparse ? std::optional<SparseState>(sparse_from_json(*sparse))
                   : std::nullopt;
}

namespace {

/// What every output of one shared system has in common, as bytes: the
/// snapshot without its targets, standardization and alpha, and with the
/// per-output posterior jitter cleared.
std::string shared_part(const json::Value& snap) {
  json::Value shared = json::Value::object();
  for (const auto& [key, value] : snap.members()) {
    if (key == "y_raw" || key == "y_mean" || key == "y_std" || key == "y" ||
        key == "alpha" || key == "diagnostics") {
      continue;
    }
    shared.set(key, value);
  }
  GpFitDiagnostics diagnostics = diagnostics_from_json(snap.at("diagnostics"));
  diagnostics.posterior_jitter = 0.0;
  shared.set("diagnostics", diagnostics_to_json(diagnostics));
  return shared.dump();
}

}  // namespace

void GpRegressor::validate_restored(bool has_factor) const {
  const std::size_t n = x_.size();
  auto dim_wide = [this](const std::vector<std::vector<double>>& rows) {
    return std::all_of(rows.begin(), rows.end(),
                       [this](const auto& row) { return row.size() == dim_; });
  };
  PAMO_CHECK(x_raw_.size() == n && noise_scale_.size() == n,
             "GP snapshot is internally inconsistent: training arrays "
             "disagree in length");
  PAMO_CHECK(x_lo_.size() == dim_ && x_hi_.size() == dim_ &&
                 dim_wide(x_raw_) && dim_wide(x_),
             "GP snapshot rows and scaling bounds must have dim entries");
  for (const Column& col : columns_) {
    PAMO_CHECK(col.y_raw.size() == n && col.y.size() == n,
               "GP snapshot targets disagree with the training inputs");
  }
  if (!is_fit()) {
    PAMO_CHECK(!has_factor && !sparse_.has_value(),
               "unfitted GP snapshot must not carry a factorization");
    return;
  }
  PAMO_CHECK(params_.dim() == dim_, "GP snapshot hyperparameter dim mismatch");
  if (!sparse_.has_value()) {
    PAMO_CHECK(has_factor, "fitted GP snapshot must carry its factorization");
    for (const Column& col : columns_) {
      PAMO_CHECK(col.alpha.size() == n,
                 "fitted GP snapshot must carry alpha over every row");
    }
    return;
  }
  const SparseState& s = *sparse_;
  const std::size_t m = s.z.size();
  PAMO_CHECK(columns_.size() == 1 && !has_factor &&
                 s.lm.has_value() && s.lb.has_value() &&
                 s.lm->lower().rows() == m && s.lb->lower().rows() == m &&
                 s.kmn.rows() == m && s.kmn.cols() == n && s.b.size() == m &&
                 s.alpha.size() == m && dim_wide(s.z),
             "sparse GP snapshot must carry a complete inducing system");
}

// pamo-analyze: snapshot(GpRegressor)
void GpRegressor::restore(const json::Value& snap) {
  restore_outputs(std::span<const json::Value>(&snap, 1));
}

// pamo-analyze: snapshot(GpRegressor, Column)
void GpRegressor::restore_outputs(std::span<const json::Value> snaps) {
  PAMO_CHECK(snaps.size() == columns_.size(), "one snapshot per GP output");
  // Decode and check everything into a scratch model, then commit: a
  // rejected snapshot leaves this model exactly as it was.
  GpRegressor next(options_, columns_.size());
  next.restore_column(snaps[0]);
  const std::string shared = snaps.size() > 1 ? shared_part(snaps[0]) : "";
  for (std::size_t c = 1; c < snaps.size(); ++c) {
    PAMO_CHECK(shared_part(snaps[c]) == shared,
               "GP output snapshots do not describe one shared system");
    GpRegressor other(options_);
    other.restore_column(snaps[c]);
    next.columns_[c] = std::move(other.columns_.front());
  }
  // Every output shares the factor (shared_part compared "chol"), so it is
  // re-derived once, from inputs validate_restored() has sized.
  const auto factor = codec::factor_from_json(snaps[0].at("chol"));
  next.validate_restored(factor.has_value());
  if (factor.has_value()) {
    next.chol_ = codec::rederive_factor(next.training_covariance(), *factor);
  }
  // The posterior workspace of `next` is empty: a cache keyed to the live
  // factor is never carried across a restore.
  *this = std::move(next);
}

}  // namespace pamo::gp
