#ifndef TARPIT_CORE_DELAY_ENGINE_H_
#define TARPIT_CORE_DELAY_ENGINE_H_

#include <cstdint>

#include "common/stats.h"
#include "core/delay_policy.h"

namespace tarpit {

/// The one place a per-tuple delay is charged: applies a DelayPolicy,
/// escalates it by the principal's factor, and keeps the accounting.
/// Clock-free -- the caller serves what Charge returns (one stall per
/// statement), so a k-tuple answer costs exactly the sum it accounts.
class DelayEngine {
 public:
  /// `policy` is not owned and must outlive the engine.
  explicit DelayEngine(const DelayPolicy* policy) : policy_(policy) {}

  /// Delay that retrieving `key` would cost right now (no side
  /// effects).
  double Peek(int64_t key) const { return policy_->DelayFor(key); }

  /// Computes and records the delay for one tuple retrieval:
  /// policy->DelayFor(key) * factor, where `factor` is the principal's
  /// coverage x reputation escalation. A factor below 1 counts as 1,
  /// so the charge is never below the base policy's. Returns the
  /// seconds the caller must serve.
  double Charge(int64_t key, double factor = 1.0);

  const DelayPolicy* policy() const { return policy_; }

  /// Total seconds of delay charged so far.
  double total_delay_seconds() const { return total_delay_; }
  uint64_t charges() const { return charges_; }
  /// Distribution of per-tuple charged delays. Bounded: a long-running
  /// server's accounting must not grow with request count (exact up to
  /// the reservoir's 4,096 samples).
  const BoundedQuantileSketch& delay_sketch() const { return sketch_; }

 private:
  const DelayPolicy* policy_;
  double total_delay_ = 0.0;
  uint64_t charges_ = 0;
  BoundedQuantileSketch sketch_;
};

}  // namespace tarpit

#endif  // TARPIT_CORE_DELAY_ENGINE_H_
