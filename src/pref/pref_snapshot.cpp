// Preference-stack checkpoint serialization (PreferenceGp +
// PreferenceLearner; see the headers).
//
// Both restores are exact-state transplants, not refits: the Laplace
// iteration is warm-start path-dependent (its Newton trajectory depends on
// the g_map it starts from), so re-running it on restore could land on a
// bitwise-different MAP. Carrying g_map, W and the per-pair weights across
// makes the restored posterior — and every EUBO score computed from it —
// identical to the uninterrupted instance's. The two Cholesky factors are
// not stored, only their jitters: chol(K + εI) is a pure function of the
// points and kernel parameters, and chol(W + K⁻¹) of W and that first
// factor, so both are re-derived at the stored jitters with laplace()'s
// own arithmetic (prior_covariance, posterior_precision) and come back
// bit-identical. Snapshots written before this format carry the factors as
// `lower`; each must equal its re-derivation bit for bit.
#include <utility>

#include "ckpt/codec.hpp"
#include "common/error.hpp"
#include "pref/learner.hpp"
#include "pref/preference_gp.hpp"

namespace pamo::pref {

namespace json = obs::json;
namespace codec = ckpt::codec;

namespace {

json::Value pairs_to_json(const std::vector<ComparisonPair>& pairs) {
  json::Value arr = json::Value::array();
  for (const auto& [winner, loser] : pairs) {
    json::Value pair = json::Value::array();
    pair.push_back(json::Value(static_cast<std::uint64_t>(winner)));
    pair.push_back(json::Value(static_cast<std::uint64_t>(loser)));
    arr.push_back(std::move(pair));
  }
  return arr;
}

std::vector<ComparisonPair> pairs_from_json(const json::Value& v) {
  std::vector<ComparisonPair> out;
  out.reserve(v.items().size());
  for (const auto& item : v.items()) {
    PAMO_CHECK(item.items().size() == 2,
               "comparison pair snapshot must have two indices");
    out.emplace_back(static_cast<std::size_t>(item.items()[0].as_uint()),
                     static_cast<std::size_t>(item.items()[1].as_uint()));
  }
  return out;
}

}  // namespace

// pamo-analyze: snapshot(PreferenceGp)
json::Value PreferenceGp::snapshot() const {
  json::Value obj = json::Value::object();
  json::Value params = json::Value::object();
  params.set("log_lengthscales",
             codec::doubles_to_json(params_.log_lengthscales));
  params.set("log_signal_var", json::Value(params_.log_signal_var));
  params.set("log_noise_var", json::Value(params_.log_noise_var));
  obj.set("params", std::move(params));
  obj.set("points", codec::rows_to_json(points_));
  obj.set("pairs", pairs_to_json(pairs_));
  obj.set("pair_inv_noise", codec::doubles_to_json(pair_inv_noise_));
  obj.set("num_inconsistent",
          json::Value(static_cast<std::uint64_t>(num_inconsistent_)));
  obj.set("g_map", codec::doubles_to_json(g_map_));
  obj.set("w", codec::matrix_to_json(w_));
  obj.set("k_chol", codec::factor_to_json(k_chol_));
  obj.set("b_chol", codec::factor_to_json(b_chol_));
  obj.set("kinv_g", codec::doubles_to_json(kinv_g_));
  return obj;
}

void PreferenceGp::validate_restored(bool has_k_factor,
                                     bool has_b_factor) const {
  const std::size_t n = points_.size();
  PAMO_CHECK(g_map_.size() == n && pair_inv_noise_.size() == pairs_.size(),
             "preference snapshot is internally inconsistent");
  for (const auto& [winner, loser] : pairs_) {
    PAMO_CHECK(winner < n && loser < n,
               "preference snapshot pair index out of range");
  }
  if (!is_fit()) {
    PAMO_CHECK(!has_k_factor && !has_b_factor,
               "unfitted preference snapshot must not carry factors");
    return;
  }
  for (const auto& point : points_) {
    PAMO_CHECK(point.size() == params_.log_lengthscales.size(),
               "preference snapshot points disagree with the kernel dim");
  }
  PAMO_CHECK(w_.rows() == n && w_.cols() == n && kinv_g_.size() == n,
             "preference snapshot posterior arrays disagree with the points");
  PAMO_CHECK(has_k_factor && has_b_factor,
             "fitted preference snapshot must carry both factors");
}

// pamo-analyze: snapshot(PreferenceGp)
void PreferenceGp::restore(const json::Value& snap) {
  // Decode, check and re-derive into a scratch model, then commit: a
  // rejected snapshot leaves this model exactly as it was.
  PreferenceGp next(options_);
  const json::Value& params = snap.at("params");
  next.params_.log_lengthscales =
      codec::doubles_from_json(params.at("log_lengthscales"));
  next.params_.log_signal_var = params.at("log_signal_var").as_double();
  next.params_.log_noise_var = params.at("log_noise_var").as_double();
  next.points_ = codec::rows_from_json(snap.at("points"));
  next.pairs_ = pairs_from_json(snap.at("pairs"));
  next.pair_inv_noise_ = codec::doubles_from_json(snap.at("pair_inv_noise"));
  next.num_inconsistent_ =
      static_cast<std::size_t>(snap.at("num_inconsistent").as_uint());
  next.g_map_ = codec::doubles_from_json(snap.at("g_map"));
  next.w_ = codec::matrix_from_json(snap.at("w"));
  const auto k_factor = codec::factor_from_json(snap.at("k_chol"));
  const auto b_factor = codec::factor_from_json(snap.at("b_chol"));
  next.kinv_g_ = codec::doubles_from_json(snap.at("kinv_g"));
  next.validate_restored(k_factor.has_value(), b_factor.has_value());
  if (next.is_fit()) {
    next.k_chol_ =
        codec::rederive_factor(next.prior_covariance(), *k_factor);
    next.b_chol_ =
        codec::rederive_factor(next.posterior_precision(next.w_), *b_factor);
  }
  *this = std::move(next);
}

// pamo-analyze: snapshot(PreferenceLearner)
json::Value PreferenceLearner::snapshot() const {
  json::Value obj = json::Value::object();
  obj.set("pool", codec::rows_to_json(pool_));
  obj.set("pairs", pairs_to_json(pairs_));
  obj.set("rng", codec::rng_to_json(rng_));
  obj.set("model", model_.snapshot());
  return obj;
}

// pamo-analyze: snapshot(PreferenceLearner)
void PreferenceLearner::restore(const json::Value& snap) {
  // Decode everything into locals and a scratch model, then commit: a
  // rejected snapshot leaves this learner exactly as it was.
  auto pool = codec::rows_from_json(snap.at("pool"));
  PAMO_CHECK(pool.size() >= 2, "learner snapshot needs >= 2 candidates");
  auto pairs = pairs_from_json(snap.at("pairs"));
  for (const auto& [winner, loser] : pairs) {
    PAMO_CHECK(winner < pool.size() && loser < pool.size(),
               "learner snapshot pair index out of range");
  }
  Rng rng = codec::rng_from_json(snap.at("rng"));
  PreferenceGp model(options_.model);
  model.restore(snap.at("model"));
  pool_ = std::move(pool);
  pairs_ = std::move(pairs);
  rng_ = rng;
  model_ = std::move(model);
}

}  // namespace pamo::pref
