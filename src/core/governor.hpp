// Admission/degradation governor — graceful overload handling for stream
// churn.
//
// When the offered load exceeds what the cluster can place feasibly, the
// paper's optimizer has no answer: every candidate joint configuration is
// infeasible and the epoch collapses into the last-known-good fallback.
// The governor sits in front of the optimizer and decides, per epoch,
// which offered streams are *admitted* (scheduled this epoch), *deferred*
// (queued for a backoff retry), or *shed* (dropped), in marginal-benefit
// order at the knob floor — so overload degrades total benefit smoothly
// instead of collapsing.
//
// State machine per stream:
//
//            offered                 capacity               retry due,
//              │                    available │             capacity ok
//              ▼                              ▼                 │
//   ┌─────┐  admit   ┌──────────┐  release  ┌──────────┐  admit │
//   │ new ├─────────▶│ admitted ├──────────▶│ departed │◀───────┤
//   └──┬──┘          └────┬─────┘ (departs) └──────────┘        │
//      │ no headroom      │ overload                       ┌────┴────┐
//      ▼                  ▼ (worst score first)            │deferred │
//   ┌──────────┐  retry budget exhausted   ┌──────┐        └────▲────┘
//   │ deferred ├──────────────────────────▶│ shed │             │
//   └────┬─────┘                           └──────┘    backoff  │
//        └─────────────────────────────────────────────────────-┘
//
// Hysteresis: incumbents are kept while total floor load fits max_load;
// newcomers (and retries) are admitted only below max_load·(1−hysteresis),
// so the admitted set does not flap at the capacity boundary. Every
// admit/defer/shed/release decision is logged as a structured
// GovernorAction (the churn-side sibling of the RepairAction log), and
// mutations of the admitted set always emit their action first — enforced
// by the `governor-action` pamo_analyze rule.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "eva/workload.hpp"
#include "obs/json.hpp"

namespace pamo::core {

enum class GovernorDecision {
  kAdmit,    // stream joins this epoch's scheduled set
  kDefer,    // arrival queued for a backoff retry
  kShed,     // dropped: overload or exhausted retry budget
  kRelease,  // departed stream released its admission
};

[[nodiscard]] const char* governor_decision_name(GovernorDecision decision);

/// One structured admission decision, logged alongside RepairActions.
struct GovernorAction {
  std::size_t epoch = 0;
  std::uint64_t stream = 0;
  GovernorDecision decision = GovernorDecision::kAdmit;
  std::string detail;
};

struct GovernorOptions {
  /// Master switch; a disabled governor admits everything and logs nothing
  /// (the service then behaves bit-for-bit as if it had no governor).
  bool enabled = false;
  /// Capacity threshold: the admitted set's total knob-floor load (as a
  /// fraction of fleet capacity) may not exceed this.
  double max_load = 1.0;
  /// Newcomer headroom: a new or retried stream is admitted only while
  /// total load stays within max_load·(1 − hysteresis); incumbents are
  /// shed only when load exceeds max_load itself. The gap prevents
  /// admit/shed flapping at the capacity boundary.
  double hysteresis = 0.1;
  /// Hard cap on admitted streams (0 = unlimited).
  std::size_t max_streams = 0;
  /// Deferred arrivals retry with exponential backoff (1, 2, 4, …
  /// epochs); after this many failed attempts the stream is shed.
  std::size_t max_defer_retries = 3;
};

/// One epoch's admission decision set. Accounting invariant:
/// admitted_count + deferred + shed == offered.
struct GovernorPlan {
  /// Indices into the offered workload's clips, ascending — the stream
  /// order the scheduler sees.
  std::vector<std::size_t> admitted;
  std::vector<GovernorAction> actions;
  std::size_t offered = 0;
  std::size_t admitted_count = 0;
  std::size_t deferred = 0;
  std::size_t shed = 0;
  /// Knob-floor load of the full offered set / the admitted subset, as
  /// fractions of fleet capacity.
  double offered_load = 0.0;
  double admitted_load = 0.0;
};

class AdmissionGovernor {
 public:
  AdmissionGovernor() = default;
  explicit AdmissionGovernor(GovernorOptions options);

  [[nodiscard]] const GovernorOptions& options() const { return options_; }

  /// Decide admissions for the `offered` workload at `epoch`. Stateful
  /// across epochs: incumbents enjoy hysteresis, deferred arrivals wait
  /// out their backoff, shed streams stay shed, departures release their
  /// slots. Epochs must be planned in nondecreasing order.
  GovernorPlan plan_epoch(std::size_t epoch, const eva::Workload& offered);

  [[nodiscard]] std::size_t num_admitted() const { return admitted_.size(); }
  [[nodiscard]] std::size_t num_deferred() const { return deferred_.size(); }
  [[nodiscard]] std::size_t num_shed() const { return shed_.size(); }

  /// Serialize the governor's cross-epoch state (admitted set, retry
  /// queue, shed set) — the options are construction-time configuration.
  [[nodiscard]] obs::json::Value snapshot() const;
  void restore(const obs::json::Value& snap);

 private:
  struct Deferred {
    std::uint64_t stream = 0;
    std::size_t retries = 0;     // failed admission attempts so far
    std::size_t next_retry = 0;  // epoch of the next attempt
  };

  static void record_action(GovernorPlan& plan, std::size_t epoch,
                            std::uint64_t stream, GovernorDecision decision,
                            std::string detail);

  // Construction-time configuration, re-supplied by the ctor on restore;
  // not learned state. pamo-analyze: allow(snapshot-coverage)
  GovernorOptions options_;
  std::vector<std::uint64_t> admitted_;  // stream ids, sorted
  std::vector<Deferred> deferred_;       // sorted by stream id
  std::vector<std::uint64_t> shed_;      // stream ids, sorted
};

}  // namespace pamo::core
