#ifndef TARPIT_CORE_PROTECTED_DB_H_
#define TARPIT_CORE_PROTECTED_DB_H_

#include <memory>
#include <string>

#include "common/clock.h"
#include "common/result.h"
#include "common/status.h"
#include "core/delay_engine.h"
#include "core/delay_ledger.h"
#include "core/popularity_delay.h"
#include "core/combined_delay.h"
#include "core/update_delay.h"
#include "sql/executor.h"
#include "sql/plan_cache.h"
#include "stats/count_cache.h"
#include "stats/count_tracker.h"
#include "stats/update_tracker.h"
#include "storage/database.h"

namespace tarpit {

/// How retrieval delays are assigned.
enum class DelayMode {
  kNone,              // Pass-through (baseline for the overhead bench).
  kAccessPopularity,  // Paper section 2: inverse learned popularity.
  kUpdateRate,        // Paper section 3: inverse learned update rate.
  kCombinedMax,       // max(access, update): cheap only for tuples that
                      // are both popular AND frequently updated, so
                      // neither missing skew leaves a hole.
};

/// Stable lowercase identifier ("none", "access-popularity", ...);
/// used as the `policy` metric label.
const char* DelayModeName(DelayMode mode);

struct ProtectedDatabaseOptions {
  DelayMode mode = DelayMode::kAccessPopularity;
  PopularityDelayParams popularity;
  UpdateDelayParams update;
  /// Decay delta applied per request to the access counts.
  double decay_per_request = 1.0;
  /// N for rank purposes; 0 infers the protected table's row count at
  /// open time (and tracks inserts/deletes thereafter).
  uint64_t universe_size = 0;
  /// Persist per-tuple counts through a write-behind cache into a side
  /// table `<name>__counts` (the configuration measured by the paper's
  /// Table 5 overhead experiment).
  bool persist_counts = false;
  size_t count_cache_capacity = 1024;
  /// Who serves a statement's charge. False: the database sleeps the
  /// statement's whole charge once, before returning. True: it only
  /// accounts the charge and its caller serves `delay_seconds`
  /// (ConcurrentProtectedDatabase stalls outside its locks; discrete-
  /// event simulations and QueryGate::ExecuteSqlAsync park it).
  bool defer_delay_sleep = false;
  /// Persist cumulative charged-delay totals to
  /// `<dir>/<table>.delay_ledger` so the delay debt survives a crash —
  /// without it an extractor could reset its accumulated bill (and the
  /// operator's accounting) by killing the process. Recovery adopts the
  /// last intact snapshot and truncates any torn tail.
  bool persist_delay_ledger = false;
  /// Append an (unsynced) ledger snapshot every N charges; 0 snapshots
  /// only at Checkpoint. Synced snapshots always happen at Checkpoint.
  uint64_t delay_ledger_snapshot_every = 256;
  /// Entries in the statement-text -> parsed AST + access plan cache
  /// that lets repeated statements skip lexer -> parser -> planner.
  /// 0 disables the cache (every ExecuteSql parses from scratch).
  size_t plan_cache_capacity = 256;
  TableOptions table_options;
  /// When non-null, storage (buffer pools, WAL) and the count cache
  /// publish instruments here; also copied into
  /// table_options.metrics at open. Must outlive the database.
  obs::MetricRegistry* metrics = nullptr;
};

/// Operational snapshot of a protected database (observability for
/// dashboards and the shell's .stats command).
struct ProtectedDatabaseMetrics {
  uint64_t universe_size = 0;
  uint64_t total_requests = 0;
  uint64_t distinct_keys_seen = 0;
  uint64_t delays_charged = 0;
  double total_delay_seconds = 0;
  double median_delay_seconds = 0;
  double p99_delay_seconds = 0;
  uint64_t count_cache_hits = 0;
  uint64_t count_cache_misses = 0;
  uint64_t count_cache_backing_writes = 0;
  std::string policy_name;

  std::string ToString() const;
};

/// A query result annotated with the delay that was charged for it.
struct ProtectedResult {
  QueryResult result;
  double delay_seconds = 0;
};

/// The full system of the paper: a relational database whose front door
/// charges every tuple retrieval a strategically computed delay.
/// Reads record accesses (learning the popularity distribution) and are
/// delayed; writes record update events (feeding the update-rate
/// scheme) and are not delayed. Multi-tuple results are charged the sum
/// of their per-tuple delays, exactly the paper's aggregation model.
///
/// Every read entry point takes the principal's escalation `factor`
/// (coverage x reputation; 1.0 for none): each tuple is charged
/// base x factor once, through the one DelayEngine, and the statement's
/// sum is accounted, ledgered and served once.
class ProtectedDatabase {
 public:
  /// Opens the database in `dir` and protects `table_name` (which must
  /// exist unless it is created through this interface afterwards).
  /// `clock` drives delay serving and must outlive the instance.
  static Result<std::unique_ptr<ProtectedDatabase>> Open(
      const std::string& dir, const std::string& table_name, Clock* clock,
      ProtectedDatabaseOptions options = {});

  ProtectedDatabase(const ProtectedDatabase&) = delete;
  ProtectedDatabase& operator=(const ProtectedDatabase&) = delete;

  /// Executes one SQL statement with delay protection. Consults the
  /// plan cache (when enabled) so repeated statement texts skip the
  /// lexer -> parser -> planner pipeline entirely.
  Result<ProtectedResult> ExecuteSql(const std::string& sql,
                                     double factor = 1.0);

  /// Executes an already-compiled statement. The cached access plan is
  /// used only when its schema-version stamp still matches the live
  /// database (fails closed to a fresh planning pass otherwise). DDL
  /// statements invalidate the plan cache after executing.
  Result<ProtectedResult> ExecutePrepared(const PreparedStatement& prepared,
                                          double factor = 1.0);

  /// Executes a parsed statement with delay protection, optionally with
  /// a pre-validated SELECT access plan.
  Result<ProtectedResult> ExecuteStatement(
      const Statement& stmt, const AccessPlan* select_plan_hint = nullptr,
      double factor = 1.0);

  /// Convenience single-tuple retrieval (the paper's canonical query).
  Result<ProtectedResult> GetByKey(int64_t key, double factor = 1.0);

  /// Delay that retrieving `key` would cost right now.
  double PeekDelay(int64_t key) const { return engine_->Peek(key); }

  /// Snapshot hook for concurrent front doors: the delay the active
  /// policy charges for `key` given an externally supplied snapshot of
  /// its *access* popularity. Does not touch the access tracker, so
  /// concurrent sessions can compute (and then serve) their stalls in
  /// parallel from read-mostly snapshots. For update-rate-based modes
  /// the update tracker is read directly, which is safe whenever
  /// writers are excluded (the concurrent wrapper's DDL/writer path is
  /// exclusive). Mutates nothing.
  double DelayForAccessStats(const PopularityStats& stats,
                             int64_t key) const;

  /// Concurrent-write seam: the update-rate side of the bookkeeping
  /// that ExecuteStatement performs after a committed mutation (the
  /// access-tracker side goes through the concurrent wrapper's spine).
  /// `logical_rows` is the caller-maintained row count — the version
  /// store makes NumRows() stale between commits — and `touched_keys`
  /// are Record()ed exactly as the serial path would. The caller must
  /// exclude concurrent readers of the update tracker / policy.
  void RecordWriteForConcurrent(Statement::Kind kind,
                                uint64_t logical_rows,
                                const std::vector<int64_t>& touched_keys);

  /// Point-in-time operational metrics.
  ProtectedDatabaseMetrics Metrics() const;

  /// Bulk-load path: inserts without delay accounting or update
  /// tracking (for experiment setup).
  Status BulkLoadRow(const Row& row);

  /// Flushes dirty pages, count cache, and truncates WALs. Also
  /// appends a synced delay-ledger snapshot when the ledger is enabled.
  Status Checkpoint();

  /// Absolute totals charged outside this engine (the concurrent front
  /// door's accounting stripes). Every later ledger snapshot -- the
  /// next Checkpoint's and each cadence one -- carries them.
  void ReportExternalCharges(double delay_seconds, uint64_t charges) {
    external_delay_ = delay_seconds;
    external_charges_ = charges;
  }

  /// Charged-delay totals carried over from before the last restart
  /// (zero unless persist_delay_ledger recovered a snapshot). Metrics()
  /// already folds these into delays_charged / total_delay_seconds.
  double ledger_base_delay_seconds() const { return ledger_base_delay_; }
  uint64_t ledger_base_charges() const { return ledger_base_charges_; }
  const DelayLedger& delay_ledger() const { return delay_ledger_; }

  CountTracker* access_tracker() { return access_tracker_.get(); }
  UpdateTracker* update_tracker() { return update_tracker_.get(); }
  DelayEngine* engine() { return engine_.get(); }
  Database* raw_database() { return db_.get(); }
  Table* table() { return table_; }
  CountCache* count_cache() { return count_cache_.get(); }
  /// Null when plan_cache_capacity == 0.
  PlanCache* plan_cache() { return plan_cache_.get(); }
  const ProtectedDatabaseOptions& options() const { return options_; }
  Clock* clock() const { return clock_; }

 private:
  ProtectedDatabase(ProtectedDatabaseOptions options, Clock* clock)
      : options_(options), clock_(clock) {}

  Status Init(const std::string& dir, const std::string& table_name);

  /// The statement exit: charges every key (base x factor), ledgers
  /// the charges on the cadence, and -- unless defer_delay_sleep --
  /// serves their sum as one stall. Returns the seconds charged.
  double ChargeAndServe(const std::vector<int64_t>& keys, double factor);

  /// Appends an absolute snapshot of the engine's totals plus the
  /// reported external ones. No-op when the ledger is disabled.
  Status SnapshotDelayLedger(bool sync);

  ProtectedDatabaseOptions options_;
  Clock* clock_;
  std::unique_ptr<Database> db_;
  Table* table_ = nullptr;          // Borrowed from db_.
  Table* counts_table_ = nullptr;   // Borrowed; only if persist_counts.
  std::unique_ptr<Executor> executor_;
  std::unique_ptr<PlanCache> plan_cache_;
  std::unique_ptr<CountTracker> access_tracker_;
  std::unique_ptr<UpdateTracker> update_tracker_;
  std::unique_ptr<CountCache> count_cache_;
  std::unique_ptr<DelayPolicy> policy_;
  // Sub-policies owned when mode == kCombinedMax.
  std::unique_ptr<DelayPolicy> access_subpolicy_;
  std::unique_ptr<UpdateDelayPolicy> update_subpolicy_;
  UpdateDelayPolicy* update_policy_ = nullptr;  // Borrowed view.
  std::unique_ptr<DelayEngine> engine_;
  DelayLedger delay_ledger_;
  double ledger_base_delay_ = 0;
  uint64_t ledger_base_charges_ = 0;
  // Engine charges at the last snapshot: the cadence counts engine
  // charges only.
  uint64_t ledger_last_snapshot_charges_ = 0;
  double external_delay_ = 0;
  uint64_t external_charges_ = 0;
  int64_t open_time_micros_ = 0;
  std::string protected_table_name_;
};

}  // namespace tarpit

#endif  // TARPIT_CORE_PROTECTED_DB_H_
