// SchedulingService checkpoint serialization — the `pamo.service_state.v1`
// payload the daemon stores inside every `pamo.checkpoint.v1` envelope.
//
// What must be carried for bit-identical resume, and why:
//   * epoch_ — every per-epoch seed derives from (options.seed, epoch);
//   * the preference learner — pool, asked comparisons, the pair-selection
//     RNG mid-stream, and the exact Laplace posterior (a refit could land
//     on a bitwise-different MAP);
//   * telemetry-corruption dynamic state — the stuck-at memory repeats
//     *previous* readings, which a fresh model would not know;
//   * the fault plan — so a resumed daemon validates under the same
//     environment without re-configuration;
//   * last_good_ — the fallback decision for infeasible epochs, replayed
//     verbatim (hence the full split-stream schedule, not just knobs);
//   * the retained outcome models — the learned response surfaces
//     (training rows, factors, diagnostics) the ROADMAP's warm-start
//     work builds on.
// The workload itself is NOT serialized — it is the environment, not
// learned state — but a fingerprint of it guards restore against feeding
// a snapshot to a service built over a different workload.
#include <utility>

#include "ckpt/codec.hpp"
#include "ckpt/digest.hpp"
#include "common/contracts.hpp"
#include "common/error.hpp"
#include "core/service.hpp"

namespace pamo::core {

namespace json = obs::json;
namespace codec = ckpt::codec;

namespace {

constexpr const char* kServiceStateKind = "pamo.service_state.v1";

/// Fingerprint of the environment: stream/server counts, uplinks, knob
/// sets, and probes of every clip's response surfaces (the coefficients
/// are private; probing a few (r, s) points pins them just as hard).
std::uint64_t workload_fingerprint(const eva::Workload& workload) {
  ckpt::Fnv1a d;
  d.mix(std::uint64_t{workload.num_streams()});
  d.mix(std::uint64_t{workload.num_servers()});
  d.mix_all(workload.uplink_mbps);
  d.mix(std::uint64_t{workload.space.resolutions().size()});
  for (auto r : workload.space.resolutions()) d.mix(std::uint64_t{r});
  d.mix(std::uint64_t{workload.space.fps_knobs().size()});
  for (auto s : workload.space.fps_knobs()) d.mix(std::uint64_t{s});
  for (const auto& clip : workload.clips) {
    d.mix(clip.id());
    d.mix(clip.accuracy(640.0, 15.0));
    d.mix(clip.bits_per_frame(640.0));
    d.mix(clip.proc_time(640.0));
    d.mix(clip.power_watts(640.0, 15.0));
    d.mix(clip.compute_tflops(640.0, 15.0));
  }
  return d.value();
}

json::Value config_to_json(const eva::JointConfig& config) {
  json::Value arr = json::Value::array();
  for (const auto& c : config) {
    json::Value knobs = json::Value::array();
    knobs.push_back(json::Value(std::uint64_t{c.resolution}));
    knobs.push_back(json::Value(std::uint64_t{c.fps}));
    arr.push_back(std::move(knobs));
  }
  return arr;
}

eva::JointConfig config_from_json(const json::Value& v) {
  eva::JointConfig config;
  for (const auto& item : v.items()) {
    PAMO_CHECK(item.items().size() == 2,
               "stream config snapshot must have two knobs");
    eva::StreamConfig c;
    c.resolution = static_cast<std::uint32_t>(item.items()[0].as_uint());
    c.fps = static_cast<std::uint32_t>(item.items()[1].as_uint());
    config.push_back(c);
  }
  return config;
}

// pamo-analyze: snapshot(ScheduleResult)
json::Value schedule_to_json(const sched::ScheduleResult& schedule) {
  json::Value obj = json::Value::object();
  obj.set("feasible", json::Value(schedule.feasible));
  json::Value streams = json::Value::array();
  for (const auto& s : schedule.streams) {
    json::Value stream = json::Value::object();
    stream.set("parent", json::Value(std::uint64_t{s.parent}));
    stream.set("period_ticks", json::Value(s.period_ticks));
    stream.set("proc_time", json::Value(s.proc_time));
    stream.set("bits_per_frame", json::Value(s.bits_per_frame));
    stream.set("resolution", json::Value(std::uint64_t{s.resolution}));
    streams.push_back(std::move(stream));
  }
  obj.set("streams", std::move(streams));
  obj.set("assignment", codec::uints_to_json(schedule.assignment));
  obj.set("phase", codec::doubles_to_json(schedule.phase));
  obj.set("uplink_per_parent",
          codec::doubles_to_json(schedule.uplink_per_parent));
  obj.set("latency_per_parent",
          codec::doubles_to_json(schedule.latency_per_parent));
  obj.set("comm_cost", json::Value(schedule.comm_cost));
  return obj;
}

// pamo-analyze: snapshot(ScheduleResult)
sched::ScheduleResult schedule_from_json(const json::Value& v) {
  sched::ScheduleResult schedule;
  schedule.feasible = v.at("feasible").as_bool();
  for (const auto& item : v.at("streams").items()) {
    sched::PeriodicStream s;
    s.parent = static_cast<std::size_t>(item.at("parent").as_uint());
    s.period_ticks = item.at("period_ticks").as_uint();
    s.proc_time = item.at("proc_time").as_double();
    s.bits_per_frame = item.at("bits_per_frame").as_double();
    s.resolution = static_cast<std::uint32_t>(item.at("resolution").as_uint());
    schedule.streams.push_back(s);
  }
  schedule.assignment = codec::uints_from_json(v.at("assignment"));
  schedule.phase = codec::doubles_from_json(v.at("phase"));
  schedule.uplink_per_parent =
      codec::doubles_from_json(v.at("uplink_per_parent"));
  schedule.latency_per_parent =
      codec::doubles_from_json(v.at("latency_per_parent"));
  schedule.comm_cost = v.at("comm_cost").as_double();
  PAMO_CHECK(schedule.assignment.size() == schedule.streams.size() &&
                 schedule.phase.size() == schedule.streams.size(),
             "schedule snapshot is internally inconsistent");
  return schedule;
}

// pamo-analyze: snapshot(FaultPlan)
json::Value fault_plan_to_json(const sim::FaultPlan& plan) {
  json::Value obj = json::Value::object();
  json::Value crashes = json::Value::array();
  for (const auto& c : plan.crashes()) {
    json::Value crash = json::Value::object();
    crash.set("server", json::Value(std::uint64_t{c.server}));
    crash.set("at", json::Value(c.at));
    crash.set("recovery", codec::time_to_json(c.recovery));
    crashes.push_back(std::move(crash));
  }
  obj.set("crashes", std::move(crashes));
  json::Value collapses = json::Value::array();
  for (const auto& c : plan.collapses()) {
    json::Value collapse = json::Value::object();
    collapse.set("server", json::Value(std::uint64_t{c.server}));
    collapse.set("at", json::Value(c.at));
    collapse.set("until", codec::time_to_json(c.until));
    collapse.set("factor", json::Value(c.factor));
    collapses.push_back(std::move(collapse));
  }
  obj.set("collapses", std::move(collapses));
  json::Value slowdowns = json::Value::array();
  for (const auto& s : plan.slowdowns()) {
    json::Value slow = json::Value::object();
    slow.set("server", json::Value(std::uint64_t{s.server}));
    slow.set("at", json::Value(s.at));
    slow.set("until", codec::time_to_json(s.until));
    slow.set("factor", json::Value(s.factor));
    slowdowns.push_back(std::move(slow));
  }
  obj.set("slowdowns", std::move(slowdowns));
  obj.set("frame_loss_prob", json::Value(plan.frame_loss_prob()));
  obj.set("frame_loss_seed", json::Value(plan.frame_loss_seed()));
  return obj;
}

// pamo-analyze: snapshot(FaultPlan)
sim::FaultPlan fault_plan_from_json(const json::Value& v) {
  sim::FaultPlan plan;
  for (const auto& item : v.at("crashes").items()) {
    plan.kill_server(static_cast<std::size_t>(item.at("server").as_uint()),
                     item.at("at").as_double(),
                     codec::time_from_json(item.at("recovery")));
  }
  for (const auto& item : v.at("collapses").items()) {
    plan.collapse_uplink(static_cast<std::size_t>(item.at("server").as_uint()),
                         item.at("at").as_double(),
                         item.at("factor").as_double(),
                         codec::time_from_json(item.at("until")));
  }
  for (const auto& item : v.at("slowdowns").items()) {
    plan.slow_server(static_cast<std::size_t>(item.at("server").as_uint()),
                     item.at("at").as_double(), item.at("factor").as_double(),
                     codec::time_from_json(item.at("until")));
  }
  const double loss = v.at("frame_loss_prob").as_double();
  if (loss > 0.0) plan.drop_frames(loss, v.at("frame_loss_seed").as_uint());
  return plan;
}

}  // namespace

// pamo-analyze: snapshot(SchedulingService)
json::Value SchedulingService::snapshot() const {
  json::Value state = json::Value::object();
  state.set("kind", json::Value(kServiceStateKind));
  state.set("epoch", json::Value(std::uint64_t{epoch_}));
  state.set("workload_fingerprint",
            json::Value(workload_fingerprint(workload_)));
  state.set("learner", learner_ ? learner_->snapshot() : json::Value());
  state.set("telemetry", telemetry_ ? telemetry_->snapshot() : json::Value());
  state.set("fault_plan",
            fault_plan_ ? fault_plan_to_json(*fault_plan_) : json::Value());
  if (last_good_.has_value()) {
    json::Value last_good = json::Value::object();
    last_good.set("config", config_to_json(last_good_->config));
    last_good.set("schedule", schedule_to_json(last_good_->schedule));
    state.set("last_good", std::move(last_good));
  } else {
    state.set("last_good", json::Value());
  }
  state.set("models",
            retained_models_ ? retained_models_->snapshot() : json::Value());
  // Churn/governor state is emitted only when the feature is in use, so a
  // churn-free service's snapshot stays byte-identical to pre-churn
  // builds (and old readers never see unknown keys).
  if (churn_.enabled()) state.set("churn", churn_.snapshot());
  if (options_.governor.enabled) state.set("governor", governor_.snapshot());
  PAMO_ENSURES(state.find("kind") != nullptr &&
                   state.find("workload_fingerprint") != nullptr,
               "service snapshot must be self-describing so restore() can "
               "reject mismatched state");
  return state;
}

// pamo-analyze: snapshot(SchedulingService)
void SchedulingService::restore(const json::Value& state) {
  PAMO_CHECK(state.at("kind").as_string() == kServiceStateKind,
             "unsupported service-state snapshot kind");
  PAMO_CHECK(
      state.at("workload_fingerprint").as_uint() ==
          workload_fingerprint(workload_),
      "service snapshot was taken over a different workload");
  // Decode every part into locals and commit only once all of them have
  // decoded and validated — the outcome models, which re-derive their
  // factors, come last: a rejected snapshot leaves this service exactly as
  // it was.
  const auto epoch = static_cast<std::size_t>(state.at("epoch").as_uint());

  std::optional<pref::PreferenceLearner> learner;
  const json::Value& learner_state = state.at("learner");
  if (learner_state.kind() != json::Value::Kind::kNull) {
    // Construct over the snapshot pool (the ctor's cold refit is then
    // overwritten by the exact posterior transplant in restore()).
    // "pool" lives inside the learner sub-object and is written by
    // PreferenceLearner::snapshot(), not by this encoder.
    // pamo-analyze: allow(snapshot-coverage)
    learner.emplace(codec::rows_from_json(learner_state.at("pool")),
                    options_.initial.pref_learner, options_.seed + 0xB01);
    learner->restore(learner_state);
  }

  std::optional<eva::TelemetryCorruption> telemetry;
  const json::Value& telemetry_state = state.at("telemetry");
  if (telemetry_state.kind() != json::Value::Kind::kNull) {
    telemetry.emplace();
    telemetry->restore(telemetry_state);
  }

  std::optional<sim::FaultPlan> fault_plan;
  const json::Value& fault_plan_state = state.at("fault_plan");
  if (fault_plan_state.kind() != json::Value::Kind::kNull) {
    fault_plan = fault_plan_from_json(fault_plan_state);
  }

  std::optional<LastGood> last_good;
  const json::Value& last_good_state = state.at("last_good");
  if (last_good_state.kind() != json::Value::Kind::kNull) {
    last_good = LastGood{config_from_json(last_good_state.at("config")),
                         schedule_from_json(last_good_state.at("schedule"))};
  }

  // Optional (post-v1 but version-compatible) churn/governor state: old
  // snapshots simply lack the keys and restore to the features-off state.
  eva::ChurnPlan churn;
  const json::Value* churn_state = state.find("churn");
  if (churn_state != nullptr &&
      churn_state->kind() != json::Value::Kind::kNull) {
    churn = eva::ChurnPlan::restore(*churn_state);
  }
  AdmissionGovernor governor(options_.governor);
  const json::Value* governor_state = state.find("governor");
  if (governor_state != nullptr &&
      governor_state->kind() != json::Value::Kind::kNull) {
    governor.restore(*governor_state);
  }

  std::optional<OutcomeModels> models;
  const json::Value& models_state = state.at("models");
  if (models_state.kind() != json::Value::Kind::kNull) {
    // The bank must carry the GpOptions it was actually fit under. The
    // scheduler hardens its options when telemetry corruption is active
    // (reject_nonfinite, robust_noise), and warm-started epochs transplant
    // this bank back into a scheduler and *update* it — restoring it with
    // the unhardened options would make the first post-resume update throw
    // on a NaN profile the live lineage silently drops.
    PamoOptions bank_options = epoch <= 1 ? options_.initial : options_.steady;
    if (telemetry.has_value()) bank_options.telemetry = &*telemetry;
    bank_options = PamoScheduler::harden(std::move(bank_options));
    models.emplace(workload_.space, bank_options.gp);
    models->restore(models_state);
  }

  epoch_ = epoch;
  learner_ = std::move(learner);
  telemetry_ = std::move(telemetry);
  fault_plan_ = std::move(fault_plan);
  last_good_ = std::move(last_good);
  churn_ = std::move(churn);
  governor_ = std::move(governor);
  retained_models_ = std::move(models);
}

}  // namespace pamo::core
