// Shared types of the PaMO benchmark program (pamo_perfbench).
//
// A workload is one closed loop of scheduling epochs: the next epoch starts
// when the previous one returns. Each Workload owns its inputs (generated
// from the run seed), times only the calls an operator would wait on, and
// scores and checks every decision outside the timed region. A failed
// check throws CheckFailed; the run then prints no numbers.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/pamo.hpp"
#include "obs/obs.hpp"

namespace perfbench {

/// A correctness check failed; the run is invalid.
struct CheckFailed : std::runtime_error {
  using std::runtime_error::runtime_error;
};

inline void require(bool ok, const std::string& what) {
  if (!ok) throw CheckFailed(what);
}

inline double now_ms() {
  const auto t = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration<double, std::milli>(t).count();
}

/// What one epoch produced, as the run aggregates it.
struct EpochSample {
  double ms = 0.0;                // wall-clock of the timed region
  double service_ms = 0.0;        // inside Daemon::step / run_epoch
  double checkpoint_ms = 0.0;     // daemon_churn: checkpoint_now() share
  bool failed = false;            // infeasible or fell back
  bool scored = false;            // evaluate_solution produced a score
  double benefit_loss = 0.0;      // −U of Eq. 13 (distance to utopia)
  std::uint64_t frames_emitted = 0;
  std::uint64_t frames_missed = 0;  // over the SLO + dropped
  std::size_t oracle_queries = 0;
  pamo::core::LearningHealth health;  // what the learning stack absorbed
  std::uint64_t digest = 0;       // schedule or epoch digest
};

/// Numbers only some workloads have; zero where a workload has no such
/// layer.
struct LayerExtras {
  std::vector<double> resume_ms;      // daemon: fresh Daemon::resume()
  std::vector<double> save_ms;        // replayed CheckpointStore::save
  std::vector<double> prune_ms;       // replayed CheckpointStore::prune
  std::vector<double> load_ms;        // replayed load_newest_valid
  std::vector<double> checkpoint_bytes;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Generate inputs from `seed`, construct the system and run the
  /// discarded cold epoch. Called with the run's ThreadPool installed.
  virtual void setup(std::uint64_t seed) = 0;

  /// One closed-loop epoch: time it, then score and check its decision.
  virtual EpochSample epoch() = 0;

  /// Checks that need the loop to have run: resume replay, and — when
  /// `replay_workers` — worker-count equivalence by re-running the first
  /// timed epochs on another pool size. May add timings to `extras`.
  virtual void verify(LayerExtras& extras, bool replay_workers) = 0;

  /// Traced pass only: replay layer calls (checkpoint save/prune/load) on
  /// the state the last epoch left behind.
  virtual void replay_layers(LayerExtras& /*extras*/) {}

  /// Release files the workload wrote.
  virtual void teardown() {}
};

/// The three benchmark workloads. `scratch` is a directory the workload
/// may write into (checkpoint stores).
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const std::string& scratch);
bool known_workload(const std::string& name);

// ---- Traced-pass accounting ------------------------------------------------

/// Self time (span total minus its direct children) and call count of
/// every span leaf name, summed over all paths under `root`.
struct LayerTime {
  std::string name;
  double self_ms = 0.0;
  std::uint64_t calls = 0;
};

struct TraceSummary {
  double root_ms = 0.0;            // total of the root span (all epochs)
  std::uint64_t root_calls = 0;    // traced epochs
  std::vector<LayerTime> layers;   // sorted by name
  std::uint64_t events_dropped = 0;

  [[nodiscard]] double self_ms(const std::string& name) const;
  [[nodiscard]] std::uint64_t calls(const std::string& name) const;
};

/// Fold obs::span_snapshot() into per-name self times under `root`.
TraceSummary summarize_spans(const std::string& root);

}  // namespace perfbench
