// Shared JSON codec helpers for checkpoint snapshots.
//
// Every snapshot()/restore() pair across the learning stack speaks the
// same primitives: bit-exact doubles (obs::json's to_chars round-trip),
// length-preserving arrays, row-major matrices, Cholesky factors (stored
// as a jitter and re-derived on restore where that is bit-exact), and the
// two special cases the deterministic exporter cannot express directly —
// infinity (encoded as null; sim::FaultPlan's kNever) and raw RNG state.
// Header-only so the libraries that snapshot (gp, pref, eva, core) pick
// these up without a link-order knot.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "la/cholesky.hpp"
#include "la/matrix.hpp"
#include "obs/json.hpp"

namespace pamo::ckpt {

namespace codec {

inline obs::json::Value doubles_to_json(const std::vector<double>& values) {
  obs::json::Value arr = obs::json::Value::array();
  for (double v : values) arr.push_back(obs::json::Value(v));
  return arr;
}

inline std::vector<double> doubles_from_json(const obs::json::Value& v) {
  std::vector<double> out;
  out.reserve(v.items().size());
  for (const auto& item : v.items()) out.push_back(item.as_double());
  return out;
}

inline obs::json::Value rows_to_json(
    const std::vector<std::vector<double>>& rows) {
  obs::json::Value arr = obs::json::Value::array();
  for (const auto& row : rows) arr.push_back(doubles_to_json(row));
  return arr;
}

inline std::vector<std::vector<double>> rows_from_json(
    const obs::json::Value& v) {
  std::vector<std::vector<double>> out;
  out.reserve(v.items().size());
  for (const auto& item : v.items()) out.push_back(doubles_from_json(item));
  return out;
}

inline obs::json::Value uints_to_json(const std::vector<std::size_t>& values) {
  obs::json::Value arr = obs::json::Value::array();
  for (std::size_t v : values) {
    arr.push_back(obs::json::Value(static_cast<std::uint64_t>(v)));
  }
  return arr;
}

inline std::vector<std::size_t> uints_from_json(const obs::json::Value& v) {
  std::vector<std::size_t> out;
  out.reserve(v.items().size());
  for (const auto& item : v.items()) {
    out.push_back(static_cast<std::size_t>(item.as_uint()));
  }
  return out;
}

// pamo-analyze: snapshot(Matrix)
inline obs::json::Value matrix_to_json(const la::Matrix& m) {
  obs::json::Value obj = obs::json::Value::object();
  obj.set("rows", obs::json::Value(static_cast<std::uint64_t>(m.rows())));
  obj.set("cols", obs::json::Value(static_cast<std::uint64_t>(m.cols())));
  obj.set("data", doubles_to_json(m.data()));
  return obj;
}

// pamo-analyze: snapshot(Matrix)
inline la::Matrix matrix_from_json(const obs::json::Value& v) {
  const auto rows = static_cast<std::size_t>(v.at("rows").as_uint());
  const auto cols = static_cast<std::size_t>(v.at("cols").as_uint());
  la::Matrix m(rows, cols);
  const auto data = doubles_from_json(v.at("data"));
  PAMO_CHECK(data.size() == rows * cols, "matrix snapshot size mismatch");
  m.data() = data;
  return m;
}

/// Optional Cholesky stored whole: null when absent, {lower, jitter}
/// otherwise. Only for factors that cannot be re-derived bit for bit from
/// the rest of a snapshot — the sparse GP backend's rank-one-updated B and
/// its companion Kmm factor. Exact factors go through factor_to_json.
// pamo-analyze: snapshot(Cholesky)
inline obs::json::Value cholesky_to_json(
    const std::optional<la::Cholesky>& chol) {
  if (!chol.has_value()) return obs::json::Value();
  obs::json::Value obj = obs::json::Value::object();
  obj.set("lower", matrix_to_json(chol->lower()));
  obj.set("jitter", obs::json::Value(chol->jitter()));
  return obj;
}

// pamo-analyze: snapshot(Cholesky)
inline std::optional<la::Cholesky> cholesky_from_json(
    const obs::json::Value& v) {
  if (v.kind() == obs::json::Value::Kind::kNull) return std::nullopt;
  return la::Cholesky::from_parts(matrix_from_json(v.at("lower")),
                                  v.at("jitter").as_double());
}

/// A Cholesky factor that restore re-derives instead of reading back: the
/// factor is a pure function of state its snapshot already stores (the
/// matrix it factors), so only the jitter it was factored at is kept.
/// Snapshots written before re-derivation also carry the factor itself as
/// `lower`; it is read so restore can check it against the re-derivation.
struct FactorRecord {
  double jitter = 0.0;
  std::optional<la::Matrix> lower;  // present in older snapshots only
};

/// Optional re-derivable factor: null when absent, {jitter} otherwise.
inline obs::json::Value factor_to_json(
    const std::optional<la::Cholesky>& chol) {
  if (!chol.has_value()) return obs::json::Value();
  obs::json::Value obj = obs::json::Value::object();
  obj.set("jitter", obs::json::Value(chol->jitter()));
  return obj;
}

inline std::optional<FactorRecord> factor_from_json(
    const obs::json::Value& v) {
  if (v.kind() == obs::json::Value::Kind::kNull) return std::nullopt;
  FactorRecord record;
  record.jitter = v.at("jitter").as_double();
  // Backward-readable: older snapshots stored the whole factor.
  if (const obs::json::Value* lower = v.find("lower")) {
    record.lower = matrix_from_json(*lower);
  }
  return record;
}

/// Factor `a` at exactly the recorded jitter (la::Cholesky::at_jitter).
/// Throws pamo::Error when `a` is not positive definite there, or when a
/// stored factor differs from the re-derived one in any bit of its lower
/// triangle (the strict upper triangle is ignored, as by every solve).
inline la::Cholesky rederive_factor(const la::Matrix& a,
                                    const FactorRecord& record) {
  la::Cholesky chol = la::Cholesky::at_jitter(a, record.jitter);
  if (record.lower.has_value()) {
    const la::Matrix& stored = *record.lower;
    const la::Matrix& derived = chol.lower();
    bool same = stored.rows() == derived.rows() &&
                stored.cols() == derived.cols();
    for (std::size_t i = 0; same && i < derived.rows(); ++i) {
      for (std::size_t j = 0; same && j <= i; ++j) {
        same = std::bit_cast<std::uint64_t>(stored(i, j)) ==
               std::bit_cast<std::uint64_t>(derived(i, j));
      }
    }
    PAMO_CHECK(same, "stored Cholesky factor differs from its re-derivation");
  }
  return chol;
}

/// A double that may be +infinity (sim::FaultPlan::kNever): null encodes
/// infinity, every finite value round-trips through the exact formatter.
inline obs::json::Value time_to_json(double t) {
  if (std::isinf(t)) return obs::json::Value();
  return obs::json::Value(t);
}

inline double time_from_json(const obs::json::Value& v) {
  if (v.kind() == obs::json::Value::Kind::kNull) {
    return std::numeric_limits<double>::infinity();
  }
  return v.as_double();
}

// pamo-analyze: snapshot(RngState)
inline obs::json::Value rng_to_json(const Rng& rng) {
  const RngState state = rng.state();
  obs::json::Value obj = obs::json::Value::object();
  obs::json::Value words = obs::json::Value::array();
  for (std::uint64_t s : state.s) words.push_back(obs::json::Value(s));
  obj.set("s", words);
  obj.set("spare", obs::json::Value(state.spare));
  obj.set("has_spare", obs::json::Value(state.has_spare));
  return obj;
}

// pamo-analyze: snapshot(RngState)
inline Rng rng_from_json(const obs::json::Value& v) {
  RngState state;
  const auto& words = v.at("s").items();
  PAMO_CHECK(words.size() == 4, "RNG snapshot must carry 4 state words");
  for (std::size_t i = 0; i < 4; ++i) state.s[i] = words[i].as_uint();
  state.spare = v.at("spare").as_double();
  state.has_spare = v.at("has_spare").as_bool();
  return Rng::from_state(state);
}

}  // namespace codec

}  // namespace pamo::ckpt
