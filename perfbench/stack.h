#ifndef TARPIT_PERFBENCH_STACK_H_
#define TARPIT_PERFBENCH_STACK_H_

// The production stack every workload runs against, stood up in
// process: a ConcurrentProtectedDatabase at its defaults with async
// stalls on, the WAL on and unsynced, a MetricRegistry attached, one
// ReputationStore wired into both the database and the server, and
// (for wire workloads) a TarpitServer on loopback.

#include <cstdint>
#include <memory>
#include <string>

#include "common/clock.h"
#include "common/result.h"
#include "core/concurrent_db.h"
#include "defense/reputation.h"
#include "net/server.h"
#include "obs/metrics.h"

namespace perfbench {

struct StackConfig {
  /// Rows 1..rows, row k = (k, OutputChecker::LoadedValue(k)).
  uint64_t rows = 0;
  /// true: popularity policy capped at 0 s, so every charge is zero, and
  /// a TarpitServer on 127.0.0.1 (4 event loops). false: the shipped
  /// tarpit_server policy (scale 0.05 s, bounds [0.02 s, 5 s]) and no
  /// server, for in-process stalls.
  bool wire = true;
};

class Stack {
 public:
  /// Opens a fresh database under `dir` (wiped first), creates and
  /// bulk-loads the table, checkpoints, and starts the server.
  static tarpit::Result<std::unique_ptr<Stack>> Open(const std::string& dir,
                                                     const StackConfig& config);
  /// Stops the server, closes the database, removes `dir`.
  ~Stack();

  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  tarpit::ConcurrentProtectedDatabase* db() { return db_.get(); }
  tarpit::ReputationStore& reputation() { return reputation_; }
  tarpit::obs::MetricRegistry& registry() { return registry_; }
  tarpit::Clock* clock() { return &clock_; }
  /// Null unless config().wire.
  tarpit::net::TarpitServer* server() { return server_.get(); }
  const StackConfig& config() const { return config_; }
  const tarpit::PopularityDelayParams& policy() const { return policy_; }

 private:
  Stack(std::string dir, StackConfig config);

  std::string dir_;
  StackConfig config_;
  tarpit::PopularityDelayParams policy_;
  tarpit::obs::MetricRegistry registry_;
  tarpit::RealClock clock_;
  tarpit::ReputationStore reputation_;
  std::unique_ptr<tarpit::ConcurrentProtectedDatabase> db_;
  std::unique_ptr<tarpit::net::TarpitServer> server_;
};

}  // namespace perfbench

#endif  // TARPIT_PERFBENCH_STACK_H_
