// obs_smoke — run one small scheduling epoch with observability enabled
// and print the resulting obs::EpochRecord JSON to stdout (or a file).
//
//   obs_smoke [OUT.json]    (--help prints usage; any other option or a
//                            second path is a usage error, exit 2)
//
// This is the producer half of the CI observability gate: its output is
// fed to `pamo_trace --check`, which validates the record's internal
// consistency (span algebra, histogram sums, frame conservation).
#include <fstream>
#include <iostream>
#include <string>

#include "common/error.hpp"
#include "core/obs_export.hpp"
#include "core/service.hpp"
#include "eva/workload.hpp"
#include "obs/epoch_record.hpp"
#include "obs/obs.hpp"
#include "pref/oracle.hpp"

namespace {

// Trimmed budgets so the smoke epoch runs in seconds, mirroring the
// service test fixture: large enough to exercise GP fits, acquisition
// scoring, the scenario sweep, scheduling and simulation.
pamo::core::ServiceOptions smoke_options(std::uint64_t seed) {
  pamo::core::ServiceOptions options;
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
  options.pref_pool_size = 14;
  options.initial_comparisons = 8;
  options.seed = seed;
  return options;
}

constexpr const char* kUsage =
    "usage: obs_smoke [OUT.json]\n"
    "  Run one trimmed scheduling epoch with observability enabled and\n"
    "  write its EpochRecord JSON to OUT.json (default: stdout).\n";

}  // namespace

int main(int argc, char** argv) {
  // Every argument is checked before the epoch runs, so a typo never
  // costs an epoch or leaves a stray output file behind.
  const char* out_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::cout << kUsage;
      return 0;
    }
    if (arg.rfind('-', 0) == 0) {
      std::cerr << "obs_smoke: unknown option '" << arg << "'\n" << kUsage;
      return 2;
    }
    if (out_path != nullptr) {
      std::cerr << "obs_smoke: more than one output path\n" << kUsage;
      return 2;
    }
    out_path = argv[i];
  }
  try {
    pamo::core::SchedulingService service(pamo::eva::make_workload(5, 4, 201),
                                          smoke_options(1));
    pamo::pref::PreferenceOracle oracle(
        pamo::pref::BenefitFunction::uniform());

    pamo::obs::ScopedEnable obs_scope;  // resets metrics/spans on entry
    const auto report = service.run_epoch(oracle);
    const pamo::obs::EpochRecord record =
        pamo::core::export_epoch_record(report);
    const std::string json = pamo::obs::to_json(record);

    if (out_path != nullptr) {
      std::ofstream out(out_path, std::ios::binary);
      if (!out) throw pamo::Error(std::string("obs_smoke: cannot write ") +
                                  out_path);
      out << json << "\n";
      std::cerr << "obs_smoke: wrote " << out_path << " ("
                << record.spans.stats.size() << " span paths)\n";
    } else {
      std::cout << json << "\n";
    }
    return 0;
  } catch (const pamo::Error& e) {
    std::cerr << "obs_smoke: " << e.what() << "\n";
    return 1;
  }
}
