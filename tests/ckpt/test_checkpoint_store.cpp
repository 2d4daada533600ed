// Envelope integrity and store recovery policy: digests catch tampering,
// the newest *valid* snapshot wins, corrupt files are skipped but never
// silently shadowed or deleted.
#include "ckpt/checkpoint.hpp"

#include <gtest/gtest.h>
#include <stdlib.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "ckpt/atomic_io.hpp"
#include "ckpt/killpoint.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"

namespace pamo::ckpt {
namespace {

namespace json = obs::json;

std::string make_temp_dir() {
  char buf[] = "/tmp/pamo_ckpt_store_XXXXXX";
  const char* dir = ::mkdtemp(buf);
  if (dir == nullptr) throw pamo::Error("mkdtemp failed");
  return dir;
}

json::Value payload_with(std::uint64_t marker) {
  json::Value payload = json::Value::object();
  payload.set("marker", json::Value(marker));
  json::Value nested = json::Value::array();
  nested.push_back(json::Value(1.5));
  nested.push_back(json::Value(false));
  payload.set("nested", std::move(nested));
  return payload;
}

void clobber(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.is_open()) << path;
  out << bytes;
}

class CheckpointStoreTest : public ::testing::Test {
 protected:
  void SetUp() override { dir_ = make_temp_dir(); }
  void TearDown() override {
    disarm_kill();
    std::filesystem::remove_all(dir_);
  }
  std::string dir_;
};

TEST_F(CheckpointStoreTest, EncodeDecodeRoundTrips) {
  const std::string bytes = encode_checkpoint(7, payload_with(42));
  const Envelope envelope = decode_checkpoint(bytes);
  EXPECT_EQ(envelope.sequence, 7u);
  EXPECT_EQ(envelope.payload.dump(), payload_with(42).dump());
}

TEST_F(CheckpointStoreTest, DecodeRejectsTamperedBytes) {
  std::string bytes = encode_checkpoint(1, payload_with(42));
  // Flip one payload character (42 -> 43): digest must catch it.
  const std::size_t pos = bytes.rfind("42");
  ASSERT_NE(pos, std::string::npos);
  bytes[pos + 1] = '3';
  EXPECT_THROW((void)decode_checkpoint(bytes), pamo::Error);
  // Truncation and garbage are equally rejected.
  const std::string whole = encode_checkpoint(1, payload_with(42));
  EXPECT_THROW((void)decode_checkpoint(whole.substr(0, whole.size() / 2)),
               pamo::Error);
  EXPECT_THROW((void)decode_checkpoint("not json at all"), pamo::Error);
  EXPECT_THROW((void)decode_checkpoint(R"({"schema":"other.v9"})"),
               pamo::Error);
}

TEST_F(CheckpointStoreTest, SaveAssignsIncreasingSequences) {
  CheckpointStore store(dir_);
  EXPECT_EQ(store.save(payload_with(1)), 1u);
  EXPECT_EQ(store.save(payload_with(2)), 2u);
  EXPECT_EQ(store.save(payload_with(3)), 3u);
  const auto files = store.list();
  ASSERT_EQ(files.size(), 3u);
  EXPECT_EQ(files.front(), "ckpt-00000001.json");
  EXPECT_EQ(files.back(), "ckpt-00000003.json");
  const auto newest = store.load_newest_valid();
  ASSERT_TRUE(newest.has_value());
  EXPECT_EQ(newest->sequence, 3u);
  EXPECT_EQ(newest->payload.at("marker").as_uint(), 3u);
}

TEST_F(CheckpointStoreTest, EmptyStoreLoadsNothing) {
  CheckpointStore store(dir_);
  EXPECT_FALSE(store.load_newest_valid().has_value());
  EXPECT_TRUE(store.list().empty());
  EXPECT_TRUE(store.verify_all().empty());
}

TEST_F(CheckpointStoreTest, CorruptNewestFallsBackToPreviousValid) {
  CheckpointStore store(dir_);
  store.save(payload_with(1));
  store.save(payload_with(2));
  clobber(dir_ + "/ckpt-00000002.json", "{\"schema\":\"pamo.checkpoint.v1\"");
  const auto loaded = store.load_newest_valid();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->sequence, 1u);
  EXPECT_EQ(loaded->payload.at("marker").as_uint(), 1u);

  const auto verified = store.verify_all();
  ASSERT_EQ(verified.size(), 2u);
  EXPECT_TRUE(verified[0].valid);
  EXPECT_FALSE(verified[1].valid);
  EXPECT_FALSE(verified[1].error.empty());
}

TEST_F(CheckpointStoreTest, TruncatedNewestFallsBack) {
  CheckpointStore store(dir_);
  store.save(payload_with(1));
  const std::string newest = dir_ + "/ckpt-00000002.json";
  store.save(payload_with(2));
  const auto whole = read_file(newest);
  ASSERT_TRUE(whole.has_value());
  clobber(newest, whole->substr(0, whole->size() / 3));  // torn tail
  const auto loaded = store.load_newest_valid();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->sequence, 1u);
}

TEST_F(CheckpointStoreTest, SequenceNeverShadowsACorruptFile) {
  CheckpointStore store(dir_);
  store.save(payload_with(1));
  store.save(payload_with(2));
  clobber(dir_ + "/ckpt-00000002.json", "garbage");
  // The next save must advance past the corrupt sequence, not overwrite
  // it — the bad file stays as evidence.
  EXPECT_EQ(store.save(payload_with(3)), 3u);
  const auto loaded = store.load_newest_valid();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->sequence, 3u);
  const auto verified = store.verify_all();
  ASSERT_EQ(verified.size(), 3u);
  EXPECT_FALSE(verified[1].valid);
}

TEST_F(CheckpointStoreTest, PruneKeepsNewestValidAndAllCorrupt) {
  CheckpointStore store(dir_);
  for (std::uint64_t i = 1; i <= 5; ++i) store.save(payload_with(i));
  clobber(dir_ + "/ckpt-00000003.json", "garbage");
  store.prune(2);
  const auto files = store.list();
  // Valid 4 and 5 survive (keep=2), corrupt 3 is never touched; 1 and 2
  // (older valid) are gone.
  ASSERT_EQ(files.size(), 3u);
  EXPECT_EQ(files[0], "ckpt-00000003.json");
  EXPECT_EQ(files[1], "ckpt-00000004.json");
  EXPECT_EQ(files[2], "ckpt-00000005.json");
  EXPECT_THROW(store.prune(0), pamo::Error);
}

TEST_F(CheckpointStoreTest, StrayTempFilesAreIgnoredByTheStore) {
  CheckpointStore store(dir_);
  store.save(payload_with(1));
  // Simulate an interrupted save: a torn temp next to the real snapshot.
  arm_kill("ckpt.write.partial");
  EXPECT_THROW(store.save(payload_with(2)), InjectedKill);
  disarm_kill();
  EXPECT_EQ(store.list().size(), 1u);  // the temp is not a snapshot
  const auto loaded = store.load_newest_valid();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->sequence, 1u);
  // And the store recovers: the next save lands cleanly.
  EXPECT_EQ(store.save(payload_with(2)), 2u);
}

TEST_F(CheckpointStoreTest, EnvelopeBytesArePinned) {
  // The envelope is written in one pass around the payload's bytes; it
  // must stay byte-identical to dumping the whole envelope as one object,
  // or every checkpoint on disk changes.
  json::Value payload = json::Value::object();
  payload.set("kind", json::Value("golden"));
  payload.set("count", json::Value(std::uint64_t{18446744073709551615ull}));
  json::Value xs = json::Value::array();
  for (const double d : {0.1, -0.0, 1e308, 5e-324, 9007199254740993.0, 1.0}) {
    xs.push_back(json::Value(d));
  }
  payload.set("xs", std::move(xs));
  json::Value flags = json::Value::object();
  flags.set("on", json::Value(true));
  flags.set("off", json::Value(false));
  flags.set("none", json::Value());
  payload.set("flags", std::move(flags));
  payload.set("text", json::Value("q\"b\\n\n\t\x01\xc3\xa9"));
  payload.set("empty", json::Value::array());

  const std::string bytes = encode_checkpoint(7, payload);
  EXPECT_EQ(bytes,
            "{\"schema\":\"pamo.checkpoint.v1\",\"sequence\":7,"
            "\"payload_digest\":\"9ecca11a92f7a99b\",\"payload\":{"
            "\"kind\":\"golden\",\"count\":18446744073709551615,"
            "\"xs\":[0.1,-0,1e+308,5e-324,9007199254740992,1],"
            "\"flags\":{\"on\":true,\"off\":false,\"none\":null},"
            "\"text\":\"q\\\"b\\\\n\\n\\t\\u0001\xc3\xa9\","
            "\"empty\":[]}}");

  json::Value envelope = json::Value::object();
  envelope.set("schema", json::Value(kCheckpointSchema));
  envelope.set("sequence", json::Value(std::uint64_t{7}));
  envelope.set("payload_digest", json::Value("9ecca11a92f7a99b"));
  envelope.set("payload", payload);
  EXPECT_EQ(bytes, envelope.dump());
  EXPECT_EQ(decode_checkpoint(bytes).payload.dump(), payload.dump());
}

TEST_F(CheckpointStoreTest, DeeplyNestedNewestIsSkippedNotFatal) {
  // Regression: a snapshot nested deeper than the parser's limit used to
  // crash every reader of the store (SIGSEGV) instead of being skipped.
  CheckpointStore store(dir_);
  store.save(payload_with(1));
  store.save(payload_with(2));
  const std::string hostile = dir_ + "/ckpt-00000003.json";
  clobber(hostile, std::string(100000, '['));
  EXPECT_THROW((void)decode_checkpoint(*read_file(hostile)), pamo::Error);

  const auto loaded = store.load_newest_valid();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->sequence, 2u);
  const auto verified = store.verify_all();
  ASSERT_EQ(verified.size(), 3u);
  EXPECT_FALSE(verified[2].valid);

  store.prune(1);
  const auto files = store.list();
  ASSERT_EQ(files.size(), 2u);
  EXPECT_EQ(files[0], "ckpt-00000002.json");
  EXPECT_EQ(files[1], "ckpt-00000003.json");  // kept as evidence
  EXPECT_EQ(store.save(payload_with(4)), 4u);  // never shadowed
}

// ---- prune re-verification: a retained file is trusted only for the
// exact bytes a full decode accepted ----

/// Saves 1..3 and prunes with room for all of them, so every file has
/// been accepted by a full decode once.
void seed_accepted_store(CheckpointStore& store) {
  for (std::uint64_t i = 1; i <= 3; ++i) store.save(payload_with(i));
  store.prune(3);
  ASSERT_EQ(store.list().size(), 3u);
}

std::vector<std::string> valid_files(const CheckpointStore& store) {
  std::vector<std::string> out;
  for (const auto& v : store.verify_all()) {
    if (v.valid) out.push_back(v.file);
  }
  return out;
}

TEST_F(CheckpointStoreTest, PruneRedecodesAFileFlippedInPlace) {
  CheckpointStore store(dir_);
  seed_accepted_store(store);
  const std::string path = dir_ + "/ckpt-00000002.json";
  std::string bytes = *read_file(path);
  const std::size_t pos = bytes.find("\"marker\":2");
  ASSERT_NE(pos, std::string::npos);
  bytes[pos + 9] = '7';  // same size, still well-formed JSON
  clobber(path, bytes);
  EXPECT_EQ(valid_files(store),
            (std::vector<std::string>{"ckpt-00000001.json",
                                      "ckpt-00000003.json"}));
  store.save(payload_with(4));
  store.prune(2);
  // Valid 3 and 4 kept; the flipped 2 is corrupt, so it is neither counted
  // towards keep nor deleted; valid 1 goes.
  EXPECT_EQ(store.list(), (std::vector<std::string>{"ckpt-00000002.json",
                                                    "ckpt-00000003.json",
                                                    "ckpt-00000004.json"}));
}

TEST_F(CheckpointStoreTest, PruneRedecodesATruncatedFile) {
  CheckpointStore store(dir_);
  seed_accepted_store(store);
  const std::string path = dir_ + "/ckpt-00000003.json";
  const std::string bytes = *read_file(path);
  clobber(path, bytes.substr(0, bytes.size() - 1));
  store.prune(1);
  // The torn newest file is not valid, so valid 2 is the one kept.
  EXPECT_EQ(store.list(), (std::vector<std::string>{"ckpt-00000002.json",
                                                    "ckpt-00000003.json"}));
  EXPECT_EQ(valid_files(store),
            (std::vector<std::string>{"ckpt-00000002.json"}));
}

TEST_F(CheckpointStoreTest, PruneRedecodesAReplacedFile) {
  CheckpointStore store(dir_);
  seed_accepted_store(store);
  // A different valid checkpoint (same size) under an accepted name is
  // valid on its own merits; a corrupt one with the old size is not.
  clobber(dir_ + "/ckpt-00000002.json", encode_checkpoint(2, payload_with(9)));
  const std::string old_bytes = *read_file(dir_ + "/ckpt-00000001.json");
  std::string corrupt = encode_checkpoint(3, payload_with(8));
  corrupt.back() = ']';
  clobber(dir_ + "/ckpt-00000003.json", corrupt);
  store.prune(1);
  EXPECT_EQ(store.list(), (std::vector<std::string>{"ckpt-00000002.json",
                                                    "ckpt-00000003.json"}));
  const auto loaded = store.load_newest_valid();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->payload.at("marker").as_uint(), 9u);
  // Bytes accepted under one name are decoded afresh under another (they
  // are a valid envelope, so 3 now counts and 2 is the older one pruned).
  clobber(dir_ + "/ckpt-00000003.json", old_bytes);
  store.prune(1);
  EXPECT_EQ(store.list(), (std::vector<std::string>{"ckpt-00000003.json"}));
}

TEST_F(CheckpointStoreTest, PruneAgreesWithVerifyAllUnderSeededMutations) {
  CheckpointStore store(dir_);
  Rng rng(0xC4EC4);
  std::uint64_t marker = 0;
  const auto path_of = [&](const std::string& name) {
    return dir_ + "/" + name;
  };
  for (int round = 0; round < 300; ++round) {
    while (store.list().size() < 3) store.save(payload_with(++marker));
    const auto names = store.list();
    const std::string victim = names[rng.uniform_index(names.size())];
    std::string bytes = read_file(path_of(victim)).value_or("");
    switch (rng.uniform_index(6)) {
      case 0:  // in-place, same-size byte flip
        if (!bytes.empty()) {
          const std::size_t at = rng.uniform_index(bytes.size());
          bytes[at] = static_cast<char>(bytes[at] ^
                                        (1 + rng.uniform_index(255)));
        }
        clobber(path_of(victim), bytes);
        break;
      case 1:  // truncation
        clobber(path_of(victim), bytes.substr(0, rng.uniform_index(
                                                     bytes.size() + 1)));
        break;
      case 2:  // a different valid checkpoint under the same name
        clobber(path_of(victim), encode_checkpoint(rng.uniform_index(99),
                                                   payload_with(++marker)));
        break;
      case 3:  // another file's bytes under this name
        clobber(path_of(victim),
                read_file(path_of(names[rng.uniform_index(names.size())]))
                    .value_or(""));
        break;
      case 4:  // a new snapshot
        if (names.size() < 5) store.save(payload_with(++marker));
        break;
      default:  // untouched: the memo's fast path
        break;
    }
    const std::size_t keep = 1 + rng.uniform_index(3);
    const auto before = store.verify_all();
    std::vector<std::string> valid;
    std::set<std::string> expected;
    for (const auto& v : before) {
      expected.insert(v.file);
      if (v.valid) valid.push_back(v.file);
    }
    for (std::size_t i = 0; i + keep < valid.size(); ++i) {
      expected.erase(valid[i]);
    }
    store.prune(keep);
    const auto after = store.list();
    // Exactly the oldest valid files beyond `keep` are gone: nothing
    // verify_all rejects is deleted, and min(keep, #valid) valid remain.
    ASSERT_EQ(std::set<std::string>(after.begin(), after.end()), expected)
        << "round " << round;
    ASSERT_EQ(valid_files(store).size(), std::min(keep, valid.size()))
        << "round " << round;
  }
}

}  // namespace
}  // namespace pamo::ckpt
