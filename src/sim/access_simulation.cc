#include "sim/access_simulation.h"

namespace tarpit {

AccessDelaySimulation::AccessDelaySimulation(
    uint64_t universe_size, double decay_per_request,
    PopularityDelayParams params) {
  tracker_ = std::make_unique<CountTracker>(universe_size,
                                            decay_per_request);
  policy_ =
      std::make_unique<PopularityDelayPolicy>(tracker_.get(), params);
  engine_ = std::make_unique<DelayEngine>(policy_.get());
}

double AccessDelaySimulation::ServeRequest(int64_t key) {
  tracker_->Record(key);
  const double d = engine_->Charge(key);
  clock_.SleepForSeconds(d);
  return d;
}

void AccessDelaySimulation::ServeTrace(const std::vector<int64_t>& keys,
                                       QuantileSketch* sketch) {
  for (int64_t key : keys) {
    const double d = ServeRequest(key);
    if (sketch != nullptr) sketch->Add(d);
  }
}

double AccessDelaySimulation::ExtractionDelayFrozen() const {
  double total = 0.0;
  const uint64_t n = tracker_->universe_size();
  for (uint64_t key = 1; key <= n; ++key) {
    total += policy_->DelayFor(static_cast<int64_t>(key));
  }
  return total;
}

std::vector<double> AccessDelaySimulation::FrozenDelays() const {
  const uint64_t n = tracker_->universe_size();
  std::vector<double> delays;
  delays.reserve(n);
  for (uint64_t key = 1; key <= n; ++key) {
    delays.push_back(policy_->DelayFor(static_cast<int64_t>(key)));
  }
  return delays;
}

double AccessDelaySimulation::ExtractionDelayLive() {
  double total = 0.0;
  const uint64_t n = tracker_->universe_size();
  for (uint64_t key = 1; key <= n; ++key) {
    total += ServeRequest(static_cast<int64_t>(key));
  }
  return total;
}

}  // namespace tarpit
