// pamo_perfbench — one workload of the PaMO benchmark, end to end or
// layer by layer.
//
//   pamo_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--scratch DIR] [--git-describe TEXT]
//
// --trace 0 (end to end): set up three times (setup_s is the median), then
// run closed-loop epochs on a pool of W = min(4, hardware threads) workers
// for S seconds, with obs off. --trace 1 (layer by layer): a traced pass on
// one worker for 0.4·S seconds, then the same number of epochs untraced on
// one worker and untraced on W workers, each after its own set-up.
//
// Every decision is checked (Const1/Const2/Theorem 1, fleet merge cover,
// frame conservation, worker-count and resume-replay digests) before any
// number is printed; a failed check exits 1 with "correct": false. Output:
// a header line, one human-readable line per metric, and as the last line
// one JSON object {"correct", "attempted", "failed", "metrics"}.
#include <sys/resource.h>
#include <sys/vfs.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "common/thread_pool.hpp"
#include "obs/obs.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

/// Tail percentile reported beside the median (see README.md): the
/// highest percentile with at least ten epochs beyond it on every
/// workload's shortest run.
constexpr double kTailPercentile = 75.0;
/// Epochs an end-to-end run times at least, so the tail percentile has
/// ten epochs beyond it even when --seconds runs out first.
constexpr std::size_t kMinTimedEpochs = 40;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string scratch = ".bench_build/scratch";
  std::size_t workers = 0;  // min(4, hardware threads)
  std::string git_describe = "unknown";
};

[[noreturn]] void usage(const std::string& message) {
  std::cerr << "pamo_perfbench: " << message << "\n"
            << "usage: pamo_perfbench --workload fleet_3k|daemon_churn|"
               "service_faults --seed N --seconds S --trace 0|1\n"
            << "         [--scratch DIR] [--git-describe TEXT]\n";
  std::exit(2);
}

std::uint64_t parse_uint(const std::string& flag, const std::string& text) {
  std::size_t used = 0;
  unsigned long long value = 0;
  try {
    value = std::stoull(text, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used == 0 || used != text.size()) usage("bad value for " + flag);
  return value;
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = parse_uint(flag, value);
    } else if (flag == "--seconds") {
      args.seconds = static_cast<double>(parse_uint(flag, value));
    } else if (flag == "--trace") {
      args.trace = static_cast<int>(parse_uint(flag, value));
    } else if (flag == "--scratch") {
      args.scratch = value;
    } else if (flag == "--git-describe") {
      args.git_describe = value;
    } else {
      usage("unknown argument " + flag);
    }
  }
  if (!known_workload(args.workload)) usage("unknown workload");
  if (args.seconds < 1.0) usage("--seconds must be at least 1");
  if (args.trace != 0 && args.trace != 1) usage("--trace must be 0 or 1");
  args.workers = std::min<std::size_t>(
      4, std::max(1u, std::thread::hardware_concurrency()));
  return args;
}

// ---- statistics ------------------------------------------------------------

/// Linear-interpolated percentile (p in [0, 100]) of a non-empty sample.
double percentile(std::vector<double> values, double p) {
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double median(const std::vector<double>& values) {
  return values.empty() ? 0.0 : percentile(values, 50.0);
}

double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (const double v : values) total += v;
  return total;
}

double mean(const std::vector<double>& values) {
  return values.empty() ? 0.0
                        : sum(values) / static_cast<double>(values.size());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string filesystem_of(const std::string& path) {
  struct statfs info{};
  if (statfs(path.c_str(), &info) != 0) return "unknown";
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x6969: return "nfs";
    case 0x65735546: return "fuse";
    default: {
      char hex[24];
      std::snprintf(hex, sizeof(hex), "0x%lx",
                    static_cast<unsigned long>(info.f_type));
      return hex;
    }
  }
}

// ---- output ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char text[40];
  std::snprintf(text, sizeof(text), "%.17g", v);
  return text;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? ", " : "") << json_string(metrics[i].name) << ": {\"value\": "
        << json_number(metrics[i].value) << ", \"unit\": "
        << json_string(metrics[i].unit) << "}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

// ---- passes ----------------------------------------------------------------

struct Pass {
  std::vector<EpochSample> samples;
  std::vector<double> setup_s;
  LayerExtras extras;
  TraceSummary trace;
  pamo::obs::MetricsSnapshot counters;
};

struct PassPlan {
  std::size_t workers = 1;
  std::size_t setups = 1;
  double seconds = 0.0;       // run for this long ...
  std::size_t epochs = 0;     // ... or exactly this many epochs when > 0
  std::size_t min_epochs = 1;  // time-limited passes run at least this many
  bool traced = false;
  bool verify = false;
  bool replay_workers = false;
};

Pass run_pass(const Args& args, const PassPlan& plan) {
  pamo::ThreadPool pool(plan.workers);
  pamo::ThreadPool::ScopedDefault guard(pool);
  Pass pass;
  std::unique_ptr<Workload> workload;
  for (std::size_t i = 0; i < plan.setups; ++i) {
    if (workload) workload->teardown();
    const double start = now_ms();
    workload = make_workload(args.workload, args.scratch);
    workload->setup(args.seed);
    pass.setup_s.push_back((now_ms() - start) / 1000.0);
  }
  if (plan.traced) {
    pamo::obs::set_enabled(true);
    pamo::obs::reset();
  }
  const double deadline = now_ms() + plan.seconds * 1000.0;
  while (plan.epochs > 0
             ? pass.samples.size() < plan.epochs
             : pass.samples.size() < plan.min_epochs || now_ms() < deadline) {
    pass.samples.push_back(workload->epoch());
    if (plan.traced) workload->replay_layers(pass.extras);
  }
  if (plan.traced) {
    pass.trace = summarize_spans("bench.epoch");
    pass.counters = pamo::obs::MetricsRegistry::global().snapshot();
    pamo::obs::set_enabled(false);
  }
  if (plan.verify) workload->verify(pass.extras, plan.replay_workers);
  workload->teardown();
  return pass;
}

std::vector<double> epoch_ms(const Pass& pass) {
  std::vector<double> ms;
  for (const auto& s : pass.samples) ms.push_back(s.ms);
  return ms;
}

std::size_t failed_epochs(const Pass& pass) {
  std::size_t failed = 0;
  for (const auto& s : pass.samples) failed += s.failed ? 1 : 0;
  return failed;
}

std::string tail_name() {
  return "epoch_ms_p" + std::to_string(static_cast<int>(kTailPercentile));
}

/// End-to-end metrics of an untraced pass.
std::vector<Metric> end_to_end(const Pass& pass) {
  const std::vector<double> ms = epoch_ms(pass);
  const std::size_t n = ms.size();
  std::vector<double> loss;
  std::uint64_t emitted = 0, missed = 0;
  for (const auto& s : pass.samples) {
    if (s.scored) loss.push_back(s.benefit_loss);
    emitted += s.frames_emitted;
    missed += s.frames_missed;
  }
  const double miss_rate =
      emitted ? static_cast<double>(missed) / static_cast<double>(emitted)
              : 0.0;
  return {
      {"setup_s", median(pass.setup_s), "s", pass.setup_s.size()},
      {"epoch_ms_p50", percentile(ms, 50.0), "ms", n},
      {tail_name(), percentile(ms, kTailPercentile), "ms", n},
      {"benefit_loss_mean", mean(loss), "U", loss.size()},
      {"slo_attainment", 1.0 - miss_rate, "ratio", n},
      {"peak_rss_mb", peak_rss_mb(), "MB", 1},
  };
}

std::uint64_t counter(const pamo::obs::MetricsSnapshot& snapshot,
                      const std::string& name) {
  for (const auto& [key, value] : snapshot.counters) {
    if (key == name) return value;
  }
  return 0;
}

/// Per-layer metrics: self times and counts per traced epoch from the
/// traced pass, p50 timings from the untraced W-worker pass.
std::vector<Metric> per_layer(const Pass& traced, const Pass& serial,
                              const Pass& wide) {
  const double epochs = static_cast<double>(traced.samples.size());
  const std::size_t n = traced.samples.size();
  const TraceSummary& t = traced.trace;
  std::vector<Metric> out;
  double attributed = 0.0;
  auto self = [&](const std::string& span, const std::string& name) {
    const double ms = t.self_ms(span) / epochs;
    attributed += ms;
    out.push_back({name, ms, "ms/epoch", n});
  };
  auto count = [&](const std::string& key, const std::string& name) {
    out.push_back({name, static_cast<double>(counter(traced.counters, key)) /
                             epochs,
                   "count/epoch", n});
  };
  auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };

  const double serial_p50 = median(epoch_ms(serial));
  const double wide_p50 = median(epoch_ms(wide));
  out.push_back({"common.pool_speedup", ratio(serial_p50, wide_p50), "x", n});

  self("gp.fit", "gp.fit.self_ms");
  count("gp.fits", "gp.fits");
  self("gp.update", "gp.update.self_ms");
  self("gp.rebuild", "gp.rebuild.self_ms");
  count("gp.updates", "gp.updates");
  const double updates =
      static_cast<double>(counter(traced.counters, "gp.updates"));
  const double update_rebuilds = static_cast<double>(t.calls("gp.rebuild"));
  out.push_back({"gp.rebuilds", update_rebuilds / epochs, "count/epoch", n});
  out.push_back({"gp.incremental_ratio",
                 ratio(updates - update_rebuilds, updates), "ratio", n});
  self("gp.posterior", "gp.posterior.self_ms");
  count("gp.posteriors", "gp.posteriors");
  self("pamo.scenario_sweep", "pamo.scenario_sweep.self_ms");
  count("pamo.scenario_cells", "pamo.scenario_cells");
  self("pamo.bo_iteration", "pamo.bo_iteration.self_ms");
  count("bo.iterations", "bo.iterations");
  self("pamo.phase1_warm_start", "pamo.phase1_warm_start.self_ms");
  self("pamo.phase2_preference", "pamo.phase2_preference.self_ms");
  self("fleet.shard_epoch", "fleet.shard_epoch.self_ms");
  out.push_back({"fleet.shards",
                 ratio(static_cast<double>(t.calls("fleet.shard_epoch")),
                       epochs),
                 "count/epoch", n});
  self("sched.make_shard_plan", "sched.make_shard_plan.self_ms");
  self("bo.acquisition", "bo.acquisition.self_ms");
  count("bo.candidates_scored", "bo.candidates_scored");
  self("sched.zero_jitter", "sched.zero_jitter.self_ms");
  count("sched.zero_jitter_calls", "sched.zero_jitter_calls");
  const double placements = static_cast<double>(
      counter(traced.counters, "sched.zero_jitter_calls"));
  const double infeasible = static_cast<double>(
      counter(traced.counters, "sched.zero_jitter_infeasible"));
  out.push_back({"sched.zero_jitter.feasible_ratio",
                 ratio(placements - infeasible, placements), "ratio", n});
  self("service.attempt_repair", "service.attempt_repair.self_ms");
  count("service.repairs_applied", "service.repairs_applied");
  self("sim.simulate", "sim.simulate.self_ms");
  count("sim.runs", "sim.runs");
  count("sim.frames_served", "sim.frames_served");
  count("sim.frames_dropped", "sim.frames_dropped");
  count("sim.slo_violations", "sim.slo_violations");
  self("bench.checkpoint_now", "ckpt.checkpoint.self_ms");

  // Health counters of the learning stack, from the epoch reports.
  auto health = [&](auto field, const std::string& name) {
    double total = 0.0;
    for (const auto& s : traced.samples) {
      total += static_cast<double>(s.health.*field);
    }
    out.push_back({name, total / epochs, "count/epoch", n});
  };
  health(&pamo::core::LearningHealth::samples_rejected, "gp.samples_rejected");
  health(&pamo::core::LearningHealth::cholesky_recoveries,
         "gp.cholesky_recoveries");
  health(&pamo::core::LearningHealth::iteration_failures,
         "bo.iteration_failures");

  double queries = 0.0;
  for (const auto& s : wide.samples) {
    queries += static_cast<double>(s.oracle_queries);
  }
  out.push_back({"pref.oracle_queries_per_epoch",
                 ratio(queries, static_cast<double>(wide.samples.size())),
                 "count/epoch", wide.samples.size()});

  std::vector<double> service_ms, checkpoint_ms;
  for (const auto& s : wide.samples) {
    service_ms.push_back(s.service_ms);
    checkpoint_ms.push_back(s.checkpoint_ms);
  }
  out.push_back({"service.run_epoch_ms_p50", median(service_ms), "ms/epoch",
                 service_ms.size()});
  out.push_back({"ckpt.checkpoint_ms_p50", median(checkpoint_ms), "ms/epoch",
                 checkpoint_ms.size()});
  out.push_back({"ckpt.bytes", mean(traced.extras.checkpoint_bytes), "B",
                 traced.extras.checkpoint_bytes.size()});
  out.push_back({"ckpt.save_ms", median(traced.extras.save_ms), "ms/epoch",
                 traced.extras.save_ms.size()});
  out.push_back({"ckpt.prune_ms", median(traced.extras.prune_ms), "ms/epoch",
                 traced.extras.prune_ms.size()});
  out.push_back({"ckpt.load_ms", median(traced.extras.load_ms), "ms/epoch",
                 traced.extras.load_ms.size()});
  out.push_back({"ckpt.resume_ms_p50", median(wide.extras.resume_ms),
                 "ms/resume", wide.extras.resume_ms.size()});

  const double traced_epoch = t.root_ms / epochs;
  out.push_back({"unattributed_ms", traced_epoch - attributed, "ms/epoch", n});
  out.push_back({"trace.epoch_ms", traced_epoch, "ms/epoch", n});
  // Same epochs on the same single worker, traced and untraced.
  out.push_back({"obs.overhead_pct",
                 (ratio(sum(epoch_ms(traced)), sum(epoch_ms(serial))) - 1.0) *
                     100.0,
                 "%", n});
  out.push_back({"obs.events_dropped", static_cast<double>(t.events_dropped),
                 "count", 1});
  return out;
}

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#else
constexpr const char* kCompiler = "gcc " __VERSION__;
#endif

void print_header(const Args& args, std::size_t timed_epochs) {
  std::ostringstream out;
  out << "{\"header\": {\"workload\": " << json_string(args.workload)
      << ", \"seed\": " << args.seed << ", \"trace\": " << args.trace
      << ", \"seconds\": " << json_number(args.seconds)
      << ", \"timed_epochs\": " << timed_epochs
      << ", \"workers\": " << args.workers
      << ", \"hardware_threads\": " << std::thread::hardware_concurrency()
      << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
      << ", \"compiler\": " << json_string(kCompiler)
      << ", \"git_describe\": " << json_string(args.git_describe)
      << ", \"checkpoint_fs\": " << json_string(filesystem_of(args.scratch))
      << "}}";
  std::cout << out.str() << "\n";
}

/// How much of the epoch the daemon's checkpoint takes (untraced epochs).
void print_checkpoint_share(const Pass& pass) {
  std::vector<double> checkpoint;
  for (const auto& s : pass.samples) checkpoint.push_back(s.checkpoint_ms);
  const double epoch_p50 = median(epoch_ms(pass));
  const double checkpoint_p50 = median(checkpoint);
  if (checkpoint_p50 <= 0.0) return;
  std::printf("epoch_ms_p50 %.1f ms, of which ckpt.checkpoint_ms_p50 %.1f ms "
              "(%.0f%%)\n",
              epoch_p50, checkpoint_p50, 100.0 * checkpoint_p50 / epoch_p50);
}

void print_metrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("metric %-36s %14.4f %-6s n=%zu\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
}

int run(const Args& args) {
  fs::create_directories(args.scratch);
  std::vector<Metric> metrics;
  std::size_t attempted = 0, failed = 0;
  try {
    if (args.trace == 0) {
      PassPlan plan;
      plan.workers = args.workers;
      plan.setups = 3;
      plan.seconds = args.seconds;
      plan.min_epochs = kMinTimedEpochs;
      plan.verify = true;
      plan.replay_workers = true;
      const Pass pass = run_pass(args, plan);
      attempted = pass.samples.size();
      failed = failed_epochs(pass);
      metrics = end_to_end(pass);
      print_header(args, attempted);
      print_checkpoint_share(pass);
    } else {
      PassPlan traced;
      traced.seconds = 0.4 * args.seconds;
      traced.traced = true;
      const Pass a = run_pass(args, traced);
      PassPlan serial;
      serial.epochs = a.samples.size();
      const Pass b = run_pass(args, serial);
      PassPlan wide = serial;
      wide.workers = args.workers;
      wide.verify = true;
      const Pass c = run_pass(args, wide);
      // Same seed, same epochs: every epoch must be bit-identical across
      // the traced 1-worker, untraced 1-worker and W-worker passes.
      for (std::size_t e = 0; e < a.samples.size(); ++e) {
        require(a.samples[e].digest == b.samples[e].digest &&
                    a.samples[e].digest == c.samples[e].digest,
                "epoch digest differs between passes (obs or worker count)");
      }
      attempted = a.samples.size() + b.samples.size() + c.samples.size();
      failed = failed_epochs(a) + failed_epochs(b) + failed_epochs(c);
      metrics = per_layer(a, b, c);
      print_header(args, a.samples.size());
      print_checkpoint_share(c);
      std::printf("traced self time per epoch by span (ms):\n");
      for (const LayerTime& layer : a.trace.layers) {
        std::printf("  %-40s %12.3f  calls/epoch %10.1f\n", layer.name.c_str(),
                    layer.self_ms / static_cast<double>(a.samples.size()),
                    static_cast<double>(layer.calls) /
                        static_cast<double>(a.samples.size()));
      }
    }
  } catch (const CheckFailed& e) {
    std::cerr << "pamo_perfbench: correctness check failed: " << e.what()
              << "\n";
    print_result(false, std::max<std::size_t>(attempted, 1), failed, {});
    return 1;
  }
  print_metrics(metrics);
  print_result(true, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse_args(argc, argv);
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::cerr << "pamo_perfbench: " << e.what() << "\n";
    return 1;
  }
}
