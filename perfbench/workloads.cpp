// The three benchmark workloads.
//
//   fleet_3k        core::run_fleet_epoch over 3000 streams / 300 servers:
//                   the hierarchical path (sharding, small incremental GPs,
//                   zero-jitter placement, pool fan-out).
//   daemon_churn    core::Daemon on the four-server testbed under stream
//                   churn, warm-started, checkpointing after every epoch:
//                   the production loop.
//   service_faults  cold SchedulingService epochs under a seeded fault plan,
//                   a latency SLO and corrupted telemetry: full MLE fits,
//                   the hardened GP, repair and repeated validation sims.
//
// The last two step four independent instances round robin (see below).
// Every input is a pure function of the run seed. Each epoch is timed
// around the public calls only, inside the benchmark's own obs spans
// (bench.*, recorded only in the traced pass); scoring and checks run after
// the timer stops, with obs paused so the traced pass counts only the
// program's own work.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>

#include "bench.hpp"
#include "ckpt/checkpoint.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/daemon.hpp"
#include "core/evaluation.hpp"
#include "core/fleet.hpp"
#include "core/report_digest.hpp"
#include "core/service.hpp"
#include "eva/churn.hpp"
#include "eva/workload.hpp"
#include "pref/oracle.hpp"
#include "sched/constraints.hpp"
#include "sched/stream.hpp"
#include "sim/simulator.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using namespace pamo;

/// Turns obs off for out-of-timer work (scoring, checks) and restores it.
class ObsPause {
 public:
  ObsPause() : was_(obs::enabled()) { obs::set_enabled(false); }
  ~ObsPause() { obs::set_enabled(was_); }
  ObsPause(const ObsPause&) = delete;
  ObsPause& operator=(const ObsPause&) = delete;

 private:
  bool was_;
};

/// Per-purpose seed derived from the run seed (never the run seed itself,
/// so two purposes never share a stream).
std::uint64_t derive(std::uint64_t seed, std::uint64_t purpose) {
  return Rng(seed).fork(purpose).next_u64();
}

/// Const1, Const2 and Theorem 1 per server group of an emitted schedule.
void check_schedule(const eva::Workload& workload,
                    const sched::ScheduleResult& schedule,
                    const std::string& what) {
  require(schedule.feasible, what + ": schedule is infeasible");
  require(schedule.assignment.size() == schedule.streams.size(),
          what + ": assignment does not cover the split streams");
  const std::size_t servers = workload.num_servers();
  const TickClock& clock = workload.space.clock();
  std::vector<std::vector<sched::PeriodicStream>> groups(servers);
  for (std::size_t i = 0; i < schedule.streams.size(); ++i) {
    require(schedule.assignment[i] < servers,
            what + ": stream assigned outside the cluster");
    groups[schedule.assignment[i]].push_back(schedule.streams[i]);
  }
  require(sched::const1_holds(schedule.streams, schedule.assignment, servers,
                              clock),
          what + ": Const1 violated");
  require(sched::const2_holds(schedule.streams, schedule.assignment, servers,
                              clock),
          what + ": Const2 violated");
  for (const auto& group : groups) {
    require(sched::theorem1_condition(group, clock),
            what + ": Theorem 1 condition violated");
  }
}

/// Frame conservation of one validation simulation.
void check_sim(const sim::SimReport& report, const std::string& what) {
  require(report.total_emitted == report.total_frames + report.total_dropped,
          what + ": frames not conserved (emitted != served + dropped)");
}

/// Final decision of a service epoch: the repaired one when repaired.
struct Decision {
  const eva::JointConfig* config;
  const sched::ScheduleResult* schedule;
  const sim::SimReport* sim;
};

Decision final_decision(const core::SchedulingService::EpochReport& report) {
  if (report.repaired) {
    return {&report.repaired_config, &report.repaired_schedule,
            &report.post_repair_sim};
  }
  return {&report.config, &report.schedule, &report.sim};
}

/// Score and check one service epoch against the workload it decided for.
void score_service_epoch(const eva::Workload& workload,
                         const core::SchedulingService::EpochReport& report,
                         EpochSample& sample) {
  sample.failed = !report.feasible || report.fallback;
  sample.oracle_queries = report.oracle_queries;
  sample.health = report.health.learning;
  check_sim(report.sim, "validation sim");
  if (report.feasible) check_schedule(workload, report.schedule, "emitted");
  if (report.repaired) {
    check_sim(report.post_repair_sim, "post-repair sim");
    check_schedule(workload, report.repaired_schedule, "repaired");
  }
  const Decision decision = final_decision(report);
  sample.frames_emitted = decision.sim->total_emitted;
  sample.frames_missed =
      decision.sim->slo_violations + decision.sim->total_dropped;
  if (sample.failed) return;
  const auto norm = eva::OutcomeNormalizer::for_workload(workload);
  const auto score =
      core::evaluate_solution(workload, *decision.config, *decision.schedule,
                              norm, pref::BenefitFunction::uniform());
  if (score) {
    sample.scored = true;
    sample.benefit_loss = -score->benefit;
  }
}

std::string read_bytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  require(static_cast<bool>(in), "cannot read " + path.string());
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string ckpt_file(const fs::path& dir, std::uint64_t sequence) {
  char name[32];
  std::snprintf(name, sizeof(name), "ckpt-%08llu.json",
                static_cast<unsigned long long>(sequence));
  return (dir / name).string();
}

// ---- fleet_3k --------------------------------------------------------------

class FleetWorkload final : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    seed_ = seed;
    workload_ = eva::make_fleet_workload(3000, 300, seed);
    norm_.emplace(eva::OutcomeNormalizer::for_workload(workload_));
    epoch_ = 0;
    digests_.clear();
    run(options(0));  // discarded cold epoch
  }

  EpochSample epoch() override {
    const core::FleetOptions opts = options(++epoch_);
    EpochSample sample;
    const double start = now_ms();
    core::PamoResult result;
    {
      obs::Span span("bench.epoch");
      result = run(opts);
    }
    sample.ms = now_ms() - start;

    ObsPause pause;
    sample.oracle_queries = result.oracle_queries;
    sample.health = result.health;
    sample.digest = core::digest_schedule(result.best_schedule);
    digests_.push_back(sample.digest);
    if (!result.feasible) {
      sample.failed = true;
      return sample;
    }
    check_cover(result);
    check_schedule(workload_, result.best_schedule, "fleet merge");
    const sim::SimReport report =
        sim::simulate(workload_, result.best_schedule);
    check_sim(report, "fleet validation sim");
    sample.frames_emitted = report.total_emitted;
    sample.frames_missed = report.slo_violations + report.total_dropped;
    const auto score =
        core::evaluate_solution(workload_, result.best_config,
                                result.best_schedule, *norm_,
                                pref::BenefitFunction::uniform());
    if (score) {
      sample.scored = true;
      sample.benefit_loss = -score->benefit;
    }
    return sample;
  }

  void verify(LayerExtras& /*extras*/, bool replay_workers) override {
    if (!replay_workers) return;
    // The first timed epochs again on the other worker count: the merged
    // schedule must be bit-identical.
    ObsPause pause;
    const std::size_t workers = ThreadPool::current().size() == 1 ? 2 : 1;
    ThreadPool pool(workers);
    ThreadPool::ScopedDefault guard(pool);
    for (std::size_t e = 0; e < std::min<std::size_t>(2, digests_.size());
         ++e) {
      const core::PamoResult again = run(options(e + 1));
      require(core::digest_schedule(again.best_schedule) == digests_[e],
              "fleet schedule digest differs between worker counts");
    }
  }

 private:
  core::FleetOptions options(std::size_t epoch) const {
    core::FleetOptions f;
    f.enabled = true;
    f.shard.target_streams = 12;
    f.pamo.seed = derive(seed_, 1000 + epoch);
    // Fixed kernel hyperparameters (no per-shard MLE), as ext_fleet_scale.
    gp::KernelParams params;
    params.log_lengthscales.assign(2, std::log(0.35));
    params.log_signal_var = std::log(1.0);
    params.log_noise_var = std::log(1e-2);
    f.pamo.gp.fixed_params = params;
    return f;
  }

  core::PamoResult run(const core::FleetOptions& opts) const {
    const pref::PreferenceOracle oracle(pref::BenefitFunction::uniform());
    return core::run_fleet_epoch(workload_, opts, oracle);
  }

  /// The merge covers every parent stream exactly once: the merged
  /// sub-streams are exactly the split of the merged configuration.
  void check_cover(const core::PamoResult& result) const {
    const std::size_t n = workload_.num_streams();
    require(result.best_config.size() == n,
            "fleet merge: configuration does not cover every stream");
    std::vector<std::size_t> expected(n, 0);
    for (const auto& s : sched::split_streams(workload_, result.best_config)) {
      ++expected[s.parent];
    }
    std::vector<std::size_t> merged(n, 0);
    for (const auto& s : result.best_schedule.streams) {
      require(s.parent < n, "fleet merge: unknown parent stream");
      ++merged[s.parent];
    }
    require(merged == expected,
            "fleet merge: a parent stream is missing or duplicated");
  }

  std::uint64_t seed_ = 0;
  eva::Workload workload_;
  std::optional<eva::OutcomeNormalizer> norm_;
  std::size_t epoch_ = 0;
  std::vector<std::uint64_t> digests_;
};

// ---- daemon_churn and service_faults ---------------------------------------
//
// Both run four independent systems, each on its own testbed, and step
// them round robin: one closed loop, one epoch at a time, whose numbers do
// not hinge on a single generated cluster.

constexpr std::size_t kInstances = 4;

class DaemonWorkload final : public Workload {
 public:
  explicit DaemonWorkload(std::string scratch) : scratch_(std::move(scratch)) {}

  void setup(std::uint64_t seed) override {
    instances_.clear();
    next_ = 0;
    for (std::size_t i = 0; i < kInstances; ++i) {
      Instance& in = instances_.emplace_back();
      in.seed = derive(seed, 100 + i);
      in.base = eva::make_workload(8, 4, in.seed);
      in.plan = eva::ChurnPlan(churn_options(in.seed));
      in.dir = fresh_dir("daemon-" + std::to_string(i));
      in.daemon = make_daemon(in, in.dir, /*cadence=*/0);
      in.oracle.emplace(pref::BenefitFunction::uniform());
      in.daemon->step(*in.oracle);  // discarded cold epoch
      in.last_sequence = in.daemon->checkpoint_now();
    }
    prefix_bytes_.clear();
    replay_.reset();
  }

  EpochSample epoch() override {
    Instance& in = instances_[next_++ % kInstances];
    if (&in == &instances_[0] && prefix_bytes_.empty()) capture_prefix();
    EpochSample sample;
    const double start = now_ms();
    core::Daemon::EpochOutcome outcome;
    double step_end = 0.0;
    {
      obs::Span span("bench.epoch");
      {
        obs::Span step("bench.daemon_step");
        outcome = in.daemon->step(*in.oracle);
      }
      step_end = now_ms();
      obs::Span checkpoint("bench.checkpoint_now");
      in.last_sequence = in.daemon->checkpoint_now();
    }
    const double end = now_ms();
    sample.ms = end - start;
    sample.service_ms = step_end - start;
    sample.checkpoint_ms = end - step_end;

    ObsPause pause;
    if (&in == &instances_[0] && prefix_bytes_.size() < kPrefix) {
      capture_prefix();
    }
    const eva::Workload offered =
        in.plan.offered_workload(in.base, outcome.report.epoch);
    score_service_epoch(offered, outcome.report, sample);
    sample.digest = outcome.digest;
    last_ = &in;
    return sample;
  }

  void verify(LayerExtras& extras, bool /*replay_workers*/) override {
    ObsPause pause;
    // Resume: fresh daemons over each store (timed); the last one of each
    // replays the next epoch against the original daemon.
    for (Instance& in : instances_) {
      std::unique_ptr<core::Daemon> fresh;
      for (int i = 0; i < 2; ++i) {
        fresh = make_daemon(in, in.dir, 0);
        const double start = now_ms();
        std::optional<std::uint64_t> sequence;
        {
          obs::Span span("bench.resume");
          sequence = fresh->resume();
        }
        extras.resume_ms.push_back(now_ms() - start);
        require(sequence == in.last_sequence,
                "resume did not load the newest checkpoint");
      }
      pref::PreferenceOracle replay_oracle = *in.oracle;
      const std::uint64_t replayed = fresh->step(replay_oracle).digest;
      const std::uint64_t original = in.daemon->step(*in.oracle).digest;
      require(replayed == original,
              "resumed daemon replays the next epoch with a different digest");
    }

    // Checkpoint after each step() from outside == checkpoint cadence 1:
    // same bytes on the prefix.
    const std::string ref_dir = fresh_dir("daemon-ref");
    {
      auto ref = make_daemon(instances_[0], ref_dir, /*cadence=*/1);
      pref::PreferenceOracle ref_oracle(pref::BenefitFunction::uniform());
      for (std::size_t i = 0; i < prefix_bytes_.size(); ++i) {
        const auto outcome = ref->step(ref_oracle);
        require(outcome.checkpoint_sequence == i + 1,
                "cadence-1 daemon skipped a checkpoint");
        require(read_bytes(ckpt_file(ref_dir, i + 1)) == prefix_bytes_[i],
                "explicit checkpoint_now() bytes differ from cadence 1");
      }
    }
    fs::remove_all(ref_dir);
  }

  void replay_layers(LayerExtras& extras) override {
    ObsPause pause;
    const ckpt::CheckpointStore store(last_->dir);
    double start = now_ms();
    auto loaded = store.load_newest_valid();
    extras.load_ms.push_back(now_ms() - start);
    require(loaded.has_value(), "no valid checkpoint to replay");
    extras.checkpoint_bytes.push_back(static_cast<double>(
        fs::file_size(fs::path(last_->dir) / loaded->file)));
    if (!replay_) replay_.emplace(fresh_dir("daemon-replay"));
    start = now_ms();
    replay_->save(loaded->payload);
    extras.save_ms.push_back(now_ms() - start);
    start = now_ms();
    replay_->prune(core::DaemonOptions{}.keep_checkpoints);
    extras.prune_ms.push_back(now_ms() - start);
  }

  void teardown() override {
    for (const Instance& in : instances_) fs::remove_all(in.dir);
    instances_.clear();
    if (replay_) fs::remove_all(replay_->dir());
    replay_.reset();
  }

 private:
  static constexpr std::size_t kPrefix = 2;  // cold epoch + first timed

  struct Instance {
    std::uint64_t seed = 0;
    eva::Workload base;
    eva::ChurnPlan plan;
    std::string dir;
    std::unique_ptr<core::Daemon> daemon;
    std::optional<pref::PreferenceOracle> oracle;
    std::uint64_t last_sequence = 0;
  };

  static eva::ChurnOptions churn_options(std::uint64_t seed) {
    eva::ChurnOptions churn;
    churn.arrival_rate = 0.6;
    churn.mean_lifetime_epochs = 4.0;
    churn.diurnal_amplitude = 0.3;
    churn.diurnal_period = 6;
    churn.drift_per_epoch = 0.03;
    churn.horizon = 100000;
    churn.seed = derive(seed, 2);
    churn.drift_seed = derive(seed, 3);
    churn.clip_seed = derive(seed, 4);
    return churn;
  }

  static std::unique_ptr<core::Daemon> make_daemon(const Instance& in,
                                                   const std::string& dir,
                                                   std::size_t cadence) {
    core::ServiceOptions service;
    service.continual.warm_start = true;
    service.continual.pref_pool_cap = 40;  // above the 28-point anchor pool
    service.seed = derive(in.seed, 1);
    core::DaemonOptions options;
    options.checkpoint_dir = dir;
    options.checkpoint_every = cadence;
    options.checkpoint_after_repair = cadence != 0;
    auto daemon = std::make_unique<core::Daemon>(in.base, service, options);
    daemon->service().set_churn_plan(in.plan);
    return daemon;
  }

  std::string fresh_dir(const std::string& stem) const {
    const fs::path dir = fs::path(scratch_) / stem;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
  }

  void capture_prefix() {
    prefix_bytes_.push_back(
        read_bytes(ckpt_file(instances_[0].dir, prefix_bytes_.size() + 1)));
  }

  std::string scratch_;
  std::vector<Instance> instances_;
  std::size_t next_ = 0;
  const Instance* last_ = nullptr;
  std::vector<std::string> prefix_bytes_;  // instance 0's first checkpoints
  std::optional<ckpt::CheckpointStore> replay_;
};

class ServiceFaultsWorkload final : public Workload {
 public:
  // The testbeds are fixed; the run seed draws everything that happens on
  // them (faults, telemetry corruption, every epoch's seed). Cost per epoch
  // here depends strongly on the cluster drawn, so with seed-drawn testbeds
  // the tail latency measured which clusters came up, not the code.
  static constexpr std::uint64_t kTestbedSeed = 4100;

  void setup(std::uint64_t seed) override {
    instances_.clear();
    next_ = 0;
    for (std::size_t i = 0; i < kInstances; ++i) {
      const std::uint64_t s = derive(seed, 100 + i);
      Instance& in = instances_.emplace_back();
      in.workload = eva::make_workload(8, 4, kTestbedSeed + i);
      core::ServiceOptions options;
      options.resilience.slo_latency = kSloSeconds;
      // Bounded preference pool, as a long-running service needs:
      // unbounded, the in-loop comparisons grow the preference GP every
      // epoch and the epoch cost with it.
      options.continual.pref_pool_cap = 40;
      options.seed = derive(s, 1);
      in.service =
          std::make_unique<core::SchedulingService>(in.workload, options);
      in.service->set_fault_plan(fault_plan(s));
      eva::TelemetryCorruptionOptions corruption;
      corruption.nan_rate = 0.02;
      corruption.inf_rate = 0.01;
      corruption.outlier_rate = 0.05;
      corruption.stuck_rate = 0.03;
      corruption.drop_rate = 0.02;
      corruption.seed = derive(s, 2);
      in.service->set_telemetry_corruption(corruption);
      in.oracle.emplace(pref::BenefitFunction::uniform());
      in.service->run_epoch(*in.oracle);  // discarded cold epoch
    }
  }

  EpochSample epoch() override {
    Instance& in = instances_[next_++ % kInstances];
    EpochSample sample;
    const double start = now_ms();
    core::SchedulingService::EpochReport report;
    {
      obs::Span span("bench.epoch");
      report = in.service->run_epoch(*in.oracle);
    }
    sample.ms = now_ms() - start;
    sample.service_ms = sample.ms;

    ObsPause pause;
    score_service_epoch(in.workload, report, sample);
    sample.digest = core::digest_epoch(report);
    return sample;
  }

  void verify(LayerExtras& /*extras*/, bool /*replay_workers*/) override {}

 private:
  static constexpr double kSloSeconds = 0.5;

  struct Instance {
    eva::Workload workload;
    std::unique_ptr<core::SchedulingService> service;
    std::optional<pref::PreferenceOracle> oracle;
  };

  /// A crash with recovery, an uplink collapse, a straggler and 5% frame
  /// loss, on distinct servers drawn from the seed.
  static sim::FaultPlan fault_plan(std::uint64_t seed) {
    Rng rng(derive(seed, 3));
    std::vector<std::size_t> servers{0, 1, 2, 3};
    rng.shuffle(servers);
    sim::FaultPlan plan;
    const double crash_at = rng.uniform(1.0, 2.0);
    plan.kill_server(servers[0], crash_at, crash_at + 1.5);
    plan.collapse_uplink(servers[1], rng.uniform(0.3, 1.0), 0.4);
    const double slow_at = rng.uniform(0.5, 1.5);
    plan.slow_server(servers[2], slow_at, 2.5, slow_at + 2.5);
    plan.drop_frames(0.05, rng.next_u64());
    return plan;
  }

  std::vector<Instance> instances_;
  std::size_t next_ = 0;
};

}  // namespace

bool known_workload(const std::string& name) {
  return name == "fleet_3k" || name == "daemon_churn" ||
         name == "service_faults";
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const std::string& scratch) {
  if (name == "fleet_3k") return std::make_unique<FleetWorkload>();
  if (name == "daemon_churn") return std::make_unique<DaemonWorkload>(scratch);
  if (name == "service_faults") {
    return std::make_unique<ServiceFaultsWorkload>();
  }
  throw std::invalid_argument("unknown workload " + name);
}

}  // namespace perfbench
