#include "core/daemon.hpp"

#include <utility>
#include <vector>

#include "ckpt/codec.hpp"
#include "ckpt/killpoint.hpp"
#include "common/contracts.hpp"
#include "common/error.hpp"
#include "core/report_digest.hpp"

namespace pamo::core {

namespace json = obs::json;
namespace codec = ckpt::codec;

namespace {
constexpr const char* kDaemonStateKind = "pamo.daemon_state.v1";
}  // namespace

Daemon::Daemon(eva::Workload workload, ServiceOptions service_options,
               DaemonOptions options)
    : service_(std::move(workload), std::move(service_options)),
      store_(options.checkpoint_dir),
      options_(std::move(options)) {}

std::optional<std::uint64_t> Daemon::resume() {
  auto loaded = store_.load_newest_valid();
  if (!loaded.has_value()) return std::nullopt;
  daemon_restore(loaded->payload);
  return loaded->sequence;
}

Daemon::EpochOutcome Daemon::step(pref::PreferenceOracle& oracle) {
  // Dying here loses nothing durable: everything since the last
  // checkpoint is exactly the window a restart replays.
  ckpt::kill_point("daemon.epoch.begin");

  EpochOutcome outcome;
  outcome.report = service_.run_epoch(oracle);
  ticks_ += options_.ticks_per_epoch;
  outcome.digest = digest_epoch(outcome.report);
  epoch_digests_.push_back(outcome.digest);
  for (const auto& repair : outcome.report.repairs) {
    repair_log_.push_back({outcome.report.epoch, repair.kind, repair.detail});
  }
  for (const auto& action : outcome.report.governor_actions) {
    governor_log_.push_back(action);
  }
  ++epochs_since_checkpoint_;

  // The epoch exists in memory only; dying here must replay it with a
  // bit-identical result from the previous checkpoint.
  ckpt::kill_point("daemon.epoch.pre_commit");

  const bool cadence_due = options_.checkpoint_every > 0 &&
                           epochs_since_checkpoint_ >= options_.checkpoint_every;
  const bool repair_due = options_.checkpoint_after_repair &&
                          (outcome.report.repaired || outcome.report.fallback);
  if (cadence_due || repair_due) {
    outcome.checkpoint_sequence = checkpoint_now();
  }

  // The checkpoint (when due) is durable; dying here must resume *past*
  // this epoch, not replay it.
  ckpt::kill_point("daemon.epoch.committed");
  PAMO_ENSURES(!outcome.checkpoint_sequence.has_value() ||
                   epochs_since_checkpoint_ == 0,
               "a committed checkpoint must reset the cadence counter");
  return outcome;
}

std::vector<Daemon::EpochOutcome> Daemon::run(pref::PreferenceOracle& oracle,
                                              std::size_t epochs) {
  std::vector<EpochOutcome> outcomes;
  outcomes.reserve(epochs);
  for (std::size_t i = 0; i < epochs; ++i) outcomes.push_back(step(oracle));
  return outcomes;
}

std::uint64_t Daemon::checkpoint_now() {
  const std::uint64_t sequence = store_.save(daemon_snapshot());
  if (options_.keep_checkpoints > 0) store_.prune(options_.keep_checkpoints);
  epochs_since_checkpoint_ = 0;
  return sequence;
}

json::Value Daemon::daemon_snapshot() const {
  json::Value state = json::Value::object();
  state.set("kind", json::Value(kDaemonStateKind));
  state.set("ticks", json::Value(ticks_));
  state.set("epoch_digests", codec::uints_to_json(epoch_digests_));
  json::Value repairs = json::Value::array();
  for (const auto& entry : repair_log_) {
    json::Value repair = json::Value::object();
    repair.set("epoch", json::Value(std::uint64_t{entry.epoch}));
    repair.set("kind",
               json::Value(std::uint64_t{static_cast<unsigned>(entry.kind)}));
    repair.set("detail", json::Value(entry.detail));
    repairs.push_back(std::move(repair));
  }
  state.set("repair_log", std::move(repairs));
  // Only present once the governor has acted: churn-free daemons keep
  // writing byte-identical (pre-governor) checkpoints.
  if (!governor_log_.empty()) {
    json::Value actions = json::Value::array();
    for (const auto& entry : governor_log_) {
      json::Value action = json::Value::object();
      action.set("epoch", json::Value(std::uint64_t{entry.epoch}));
      action.set("stream", json::Value(entry.stream));
      action.set("decision",
                 json::Value(std::uint64_t{
                     static_cast<unsigned>(entry.decision)}));
      action.set("detail", json::Value(entry.detail));
      actions.push_back(std::move(action));
    }
    state.set("governor_log", std::move(actions));
  }
  state.set("service", service_.snapshot());
  return state;
}

void Daemon::daemon_restore(const json::Value& state) {
  PAMO_CHECK(state.at("kind").as_string() == kDaemonStateKind,
             "unsupported daemon-state snapshot kind");
  // Decode into locals, let the service restore (all or nothing), then
  // commit: a rejected snapshot leaves this daemon exactly as it was.
  const std::uint64_t ticks = state.at("ticks").as_uint();
  std::vector<std::uint64_t> epoch_digests =
      codec::uints_from_json(state.at("epoch_digests"));
  std::vector<RepairLogEntry> repair_log;
  for (const auto& item : state.at("repair_log").items()) {
    RepairLogEntry entry;
    entry.epoch = static_cast<std::size_t>(item.at("epoch").as_uint());
    entry.kind = static_cast<RepairKind>(item.at("kind").as_uint());
    entry.detail = item.at("detail").as_string();
    repair_log.push_back(std::move(entry));
  }
  std::vector<GovernorAction> governor_log;
  if (const json::Value* actions = state.find("governor_log")) {
    for (const auto& item : actions->items()) {
      GovernorAction entry;
      entry.epoch = static_cast<std::size_t>(item.at("epoch").as_uint());
      entry.stream = item.at("stream").as_uint();
      entry.decision =
          static_cast<GovernorDecision>(item.at("decision").as_uint());
      entry.detail = item.at("detail").as_string();
      governor_log.push_back(std::move(entry));
    }
  }
  service_.restore(state.at("service"));
  ticks_ = ticks;
  epoch_digests_ = std::move(epoch_digests);
  repair_log_ = std::move(repair_log);
  governor_log_ = std::move(governor_log);
  epochs_since_checkpoint_ = 0;
}

}  // namespace pamo::core
