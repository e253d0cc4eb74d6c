#include "core/delay_engine.h"

#include <algorithm>

namespace tarpit {

double DelayEngine::Charge(int64_t key, double factor) {
  const double d = policy_->DelayFor(key) * std::max(1.0, factor);
  total_delay_ += d;
  ++charges_;
  sketch_.Add(d);
  return d;
}

}  // namespace tarpit
