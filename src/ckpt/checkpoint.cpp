#include "ckpt/checkpoint.hpp"

#include <algorithm>
#include <utility>

#include "ckpt/atomic_io.hpp"
#include "ckpt/digest.hpp"
#include "common/error.hpp"

namespace pamo::ckpt {

namespace json = obs::json;

namespace {

constexpr const char* kFilePrefix = "ckpt-";
constexpr const char* kFileSuffix = ".json";

std::string file_name(std::uint64_t sequence) {
  std::string digits = std::to_string(sequence);
  PAMO_CHECK(digits.size() <= 8, "checkpoint sequence overflow");
  return kFilePrefix + std::string(8 - digits.size(), '0') + digits +
         kFileSuffix;
}

/// Sequence parsed from a store file name; nullopt for foreign files.
std::optional<std::uint64_t> sequence_of(const std::string& name) {
  const std::string prefix(kFilePrefix);
  const std::string suffix(kFileSuffix);
  if (name.size() != prefix.size() + 8 + suffix.size()) return std::nullopt;
  if (name.compare(0, prefix.size(), prefix) != 0) return std::nullopt;
  if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return std::nullopt;
  }
  std::uint64_t seq = 0;
  for (std::size_t i = prefix.size(); i < prefix.size() + 8; ++i) {
    if (name[i] < '0' || name[i] > '9') return std::nullopt;
    seq = seq * 10 + static_cast<std::uint64_t>(name[i] - '0');
  }
  return seq;
}

}  // namespace

std::string encode_checkpoint(std::uint64_t sequence,
                              const json::Value& payload) {
  // The bytes of an envelope object {schema, sequence, payload_digest,
  // payload} dumped whole, with the payload dumped once and spliced in.
  const std::string payload_bytes = payload.dump();
  std::string out;
  out.reserve(payload_bytes.size() + 128);
  out += "{\"schema\":";
  out += json::Value(kCheckpointSchema).dump();
  out += ",\"sequence\":";
  out += json::Value(sequence).dump();
  out += ",\"payload_digest\":\"";
  out += to_hex(fnv1a_bytes(payload_bytes));
  out += "\",\"payload\":";
  out += payload_bytes;
  out += '}';
  return out;
}

Envelope decode_checkpoint(const std::string& bytes) {
  json::Value doc = json::Value::parse(bytes);
  PAMO_CHECK(doc.at("schema").as_string() == kCheckpointSchema,
             "unsupported checkpoint schema");
  Envelope out;
  out.sequence = doc.at("sequence").as_uint();
  out.payload = std::move(doc.at("payload"));
  const std::string& expected = doc.at("payload_digest").as_string();
  // The digest covers the payload's canonical re-serialization, so a
  // payload that parses but does not re-dump to the hashed bytes fails.
  const std::string actual = to_hex(fnv1a_bytes(out.payload.dump()));
  PAMO_CHECK(actual == expected,
             "checkpoint payload digest mismatch (torn or corrupt file)");
  return out;
}

CheckpointStore::CheckpointStore(std::string dir) : dir_(std::move(dir)) {
  PAMO_CHECK(!dir_.empty(), "checkpoint store requires a directory");
  ensure_directory(dir_);
}

std::string CheckpointStore::path_of(const std::string& file) const {
  return dir_ + "/" + file;
}

std::vector<std::string> CheckpointStore::list() const {
  std::vector<std::string> out;
  for (const auto& name : list_files_sorted(dir_)) {
    if (sequence_of(name).has_value()) out.push_back(name);
  }
  return out;  // zero-padded names: lexicographic == numeric order
}

std::uint64_t CheckpointStore::save(const json::Value& payload) {
  std::uint64_t next = 1;
  const auto names = list();
  if (!names.empty()) next = *sequence_of(names.back()) + 1;
  write_file_atomic(path_of(file_name(next)), encode_checkpoint(next, payload));
  return next;
}

std::optional<CheckpointStore::Loaded> CheckpointStore::load_newest_valid()
    const {
  const auto names = list();
  for (auto it = names.rbegin(); it != names.rend(); ++it) {
    const auto bytes = read_file(path_of(*it));
    if (!bytes.has_value()) continue;  // raced away; fall back further
    try {
      Envelope env = decode_checkpoint(*bytes);
      return Loaded{env.sequence, std::move(env.payload), *it};
    } catch (const Error&) {
      // Torn or corrupt — exactly what the newest file looks like after a
      // mid-write crash. Fall back to the next older snapshot.
      continue;
    }
  }
  return std::nullopt;
}

std::vector<CheckpointStore::Verified> CheckpointStore::verify_all() const {
  std::vector<Verified> out;
  for (const auto& name : list()) {
    Verified v;
    v.file = name;
    const auto bytes = read_file(path_of(name));
    if (!bytes.has_value()) {
      v.error = "unreadable";
    } else {
      try {
        v.sequence = decode_checkpoint(*bytes).sequence;
        v.valid = true;
      } catch (const Error& e) {
        v.error = e.what();
      }
    }
    out.push_back(std::move(v));
  }
  return out;
}

void CheckpointStore::prune(std::size_t keep) {
  PAMO_CHECK(keep >= 1, "prune must keep at least one snapshot");
  // Every file is read and hashed on every call; only bytes a full decode
  // in this store accepted before skip the decode. The memo is rebuilt
  // from this pass, so deleted, vanished or failing files drop out of it.
  std::map<std::string, ContentKey> accepted;
  std::vector<std::string> valid;
  for (const auto& name : list()) {
    const auto bytes = read_file(path_of(name));
    if (!bytes.has_value()) continue;  // unreadable counts as corrupt
    const ContentKey key{bytes->size(), fnv1a_bytes(*bytes)};
    const auto memo = accepted_.find(name);
    if (memo == accepted_.end() || memo->second != key) {
      try {
        (void)decode_checkpoint(*bytes);
      } catch (const Error&) {
        continue;  // corrupt: never counted, never deleted
      }
    }
    valid.push_back(name);
    accepted.emplace(name, key);
  }
  for (std::size_t i = 0; i + keep < valid.size(); ++i) {
    remove_file(path_of(valid[i]));
    accepted.erase(valid[i]);
  }
  accepted_ = std::move(accepted);
}

}  // namespace pamo::ckpt
