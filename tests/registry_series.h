#ifndef TARPIT_TESTS_REGISTRY_SERIES_H_
#define TARPIT_TESTS_REGISTRY_SERIES_H_

// Reads one series of a MetricRegistry for the test suites. Every
// event count the engine keeps lives in exactly one registry series,
// so suites attach a registry and assert on the series (sums over a
// series' label sets use RegistrySnapshot::Total).

#include <cstdint>
#include <string_view>

#include "obs/metrics.h"

namespace tarpit {

/// Current value of one counter or gauge series; -1 when the series was
/// never registered, so a count asserted to be 0 cannot pass because
/// its instrument is missing.
inline int64_t SeriesValue(const obs::MetricRegistry& registry,
                           std::string_view name,
                           const obs::Labels& labels = {}) {
  const obs::RegistrySnapshot snap = registry.Snapshot();
  const obs::MetricSnapshot* m = snap.Find(name, labels);
  return m == nullptr ? -1 : m->value;
}

}  // namespace tarpit

#endif  // TARPIT_TESTS_REGISTRY_SERIES_H_
