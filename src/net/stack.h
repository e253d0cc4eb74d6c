#ifndef TARPIT_NET_STACK_H_
#define TARPIT_NET_STACK_H_

#include <memory>
#include <string>

#include "common/clock.h"
#include "common/result.h"
#include "core/concurrent_db.h"
#include "core/protected_db.h"
#include "defense/reputation.h"
#include "net/server.h"
#include "obs/metrics.h"

namespace tarpit {
namespace net {

/// What a served stack is built from. The defaults are tarpit_server's
/// flag defaults. The stack sets the wiring fields itself: the door's
/// async_stalls, and the metrics and reputation pointers of the
/// database, the door, the server and the store. Open refuses options
/// that set any of those pointers.
struct TarpitStackOptions {
  TarpitStackOptions();

  /// Database directory. Empty: a fresh temporary directory, removed
  /// when the stack closes.
  std::string dir;
  /// Rows bulk-loaded into `items`: row k = (k, k * 0.5), k = 1..rows.
  int rows = 4096;
  /// The served table's delay policy (default: access popularity,
  /// scale 0.05 s, bounds [0.02 s, 5 s]).
  ProtectedDatabaseOptions database;
  ConcurrentDatabaseOptions door;
  /// Default accept delay 0.5 s; ports default to kernel-assigned.
  TarpitServerOptions server;
  ReputationOptions reputation;
};

/// The production stack, assembled in one place: one MetricRegistry,
/// one ReputationStore publishing to it, a ConcurrentProtectedDatabase
/// with async stalls that escalates by that store, and a TarpitServer
/// over the door that feeds the same store. The database holds one
/// `items (id INT PRIMARY KEY, v DOUBLE)` table, bulk-loaded and
/// checkpointed before the server starts.
class TarpitStack {
 public:
  static Result<std::unique_ptr<TarpitStack>> Open(
      TarpitStackOptions options = {});
  /// Stops the server, then closes the database (the order
  /// TarpitServer::Stop requires), then removes a temporary directory.
  ~TarpitStack();

  TarpitStack(const TarpitStack&) = delete;
  TarpitStack& operator=(const TarpitStack&) = delete;

  ConcurrentProtectedDatabase* db() { return db_.get(); }
  /// Started by Open. Stop() may be called early (it is idempotent);
  /// the database stays open until the stack is destroyed.
  TarpitServer* server() { return server_.get(); }
  ReputationStore& reputation() { return reputation_; }
  obs::MetricRegistry& metrics() { return metrics_; }
  Clock* clock() { return &clock_; }

 private:
  TarpitStack(std::string dir, bool temp_dir, ReputationOptions reputation);

  std::string dir_;
  bool temp_dir_;
  RealClock clock_;
  obs::MetricRegistry metrics_;
  ReputationStore reputation_;
  std::unique_ptr<ConcurrentProtectedDatabase> db_;
  std::unique_ptr<TarpitServer> server_;
};

}  // namespace net
}  // namespace tarpit

#endif  // TARPIT_NET_STACK_H_
