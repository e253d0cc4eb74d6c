#ifndef TARPIT_SIM_ACCESS_SIMULATION_H_
#define TARPIT_SIM_ACCESS_SIMULATION_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/clock.h"
#include "common/stats.h"
#include "core/delay_engine.h"
#include "core/popularity_delay.h"
#include "stats/count_tracker.h"

namespace tarpit {

/// Lightweight harness for the access-popularity scheme: a virtual
/// clock, a count tracker, the learned delay policy, and a delay
/// engine, with no storage underneath. This is how the paper's own
/// evaluation works -- delays are accounted analytically from learned
/// counts; only the overhead experiment (Table 5) touches a real
/// database.
class AccessDelaySimulation {
 public:
  AccessDelaySimulation(uint64_t universe_size, double decay_per_request,
                        PopularityDelayParams params);

  /// Serves one legitimate request: records the access (learning), then
  /// charges the delay and serves it on the virtual clock. Returns
  /// seconds charged.
  double ServeRequest(int64_t key);

  /// Replays a request stream, collecting per-request delays into
  /// `sketch` (optional).
  void ServeTrace(const std::vector<int64_t>& keys,
                  QuantileSketch* sketch);

  /// Applies an out-of-band decay (e.g., weekly boundary).
  void ApplyDecayFactor(double factor) {
    tracker_->ApplyDecayFactor(factor);
  }

  /// Total delay an adversary would face extracting keys 1..N with the
  /// learned counts *frozen* (the paper's measurement: "we computed the
  /// delay that would be imposed on an adversary ... by examining the
  /// access counts after the trace was replayed").
  double ExtractionDelayFrozen() const;

  /// Per-key frozen delays (for staleness/completion-time analysis).
  std::vector<double> FrozenDelays() const;

  /// Extraction where the adversary's own queries feed the tracker
  /// (each key's count rises as it is stolen). Mutates learned state.
  double ExtractionDelayLive();

  CountTracker* tracker() { return tracker_.get(); }
  const PopularityDelayPolicy* policy() const { return policy_.get(); }
  DelayEngine* engine() { return engine_.get(); }
  VirtualClock* clock() { return &clock_; }
  uint64_t universe_size() const { return tracker_->universe_size(); }

 private:
  VirtualClock clock_;
  std::unique_ptr<CountTracker> tracker_;
  std::unique_ptr<PopularityDelayPolicy> policy_;
  std::unique_ptr<DelayEngine> engine_;
};

}  // namespace tarpit

#endif  // TARPIT_SIM_ACCESS_SIMULATION_H_
