// Versioned, digest-guarded checkpoint envelope and an on-disk store.
//
// A checkpoint file is one deterministic JSON document:
//
//   {"schema":"pamo.checkpoint.v1","sequence":N,
//    "payload_digest":"<16 hex FNV-1a of payload bytes>","payload":{...}}
//
// The digest is computed over payload.dump() — the exact bytes between
// the envelope braces — so any torn write, bit rot, or hand truncation is
// detected at decode time. The payload itself is caller-defined (the
// daemon stores a pamo.service_state.v1 document).
//
// CheckpointStore lays snapshots out as `ckpt-<seq, 8 digits>.json` in one
// directory, written through ckpt::write_file_atomic. Recovery policy:
// the newest file that decodes cleanly wins; corrupt/torn files (including
// the stray .tmp of an interrupted write) are skipped, never deleted by
// the loader — pruning only ever removes *older valid* snapshots, so a
// bad newest file always leaves its predecessor to fall back to.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace pamo::ckpt {

inline constexpr const char* kCheckpointSchema = "pamo.checkpoint.v1";

struct Envelope {
  std::uint64_t sequence = 0;
  obs::json::Value payload;
};

/// Serialize an envelope around `payload` (deterministic bytes).
[[nodiscard]] std::string encode_checkpoint(std::uint64_t sequence,
                                            const obs::json::Value& payload);

/// Strict decode + schema check + digest verification; throws pamo::Error
/// on malformed JSON, wrong schema, or a digest mismatch.
[[nodiscard]] Envelope decode_checkpoint(const std::string& bytes);

class CheckpointStore {
 public:
  /// Opens (creating if needed) the store directory.
  explicit CheckpointStore(std::string dir);

  [[nodiscard]] const std::string& dir() const { return dir_; }

  /// Write `payload` as the next snapshot (sequence = newest on disk + 1,
  /// corrupt files included so a bad file never gets silently shadowed by
  /// sequence reuse). Returns the sequence written. Crash-consistent: a
  /// death anywhere inside leaves every previous snapshot readable.
  std::uint64_t save(const obs::json::Value& payload);

  struct Loaded {
    std::uint64_t sequence = 0;
    obs::json::Value payload;
    std::string file;  // name inside dir()
  };

  /// Newest snapshot that decodes cleanly; nullopt when none does (or the
  /// directory is empty). Corrupt newer files are skipped, not removed.
  [[nodiscard]] std::optional<Loaded> load_newest_valid() const;

  /// All snapshot file names, sorted ascending by sequence.
  [[nodiscard]] std::vector<std::string> list() const;

  /// Decode result of every snapshot file (for --verify-ckpt): file name
  /// plus either the sequence or the decode error.
  struct Verified {
    std::string file;
    bool valid = false;
    std::uint64_t sequence = 0;
    std::string error;  // set when !valid
  };
  [[nodiscard]] std::vector<Verified> verify_all() const;

  /// Delete older *valid* snapshots so at most `keep` valid ones remain.
  /// Corrupt files and anything at or above the newest valid sequence are
  /// never touched. Validity is decided on the current bytes of every
  /// file: a file whose bytes (size + FNV-1a) equal bytes that a full
  /// decode_checkpoint in an earlier prune of this store accepted is not
  /// decoded again; any other file is.
  void prune(std::size_t keep);

 private:
  /// Identity of a file's bytes: size plus FNV-1a over all of them.
  struct ContentKey {
    std::uint64_t size = 0;
    std::uint64_t hash = 0;
    bool operator==(const ContentKey&) const = default;
  };

  [[nodiscard]] std::string path_of(const std::string& file) const;

  std::string dir_;
  // prune's memo: file name -> bytes a full decode accepted. Written only
  // after a passing decode_checkpoint, never by save().
  std::map<std::string, ContentKey> accepted_;
};

}  // namespace pamo::ckpt
