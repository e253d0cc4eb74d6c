#ifndef TARPIT_CORE_CONCURRENT_DB_H_
#define TARPIT_CORE_CONCURRENT_DB_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/stats.h"
#include "core/delay_scheduler.h"
#include "core/protected_db.h"
#include "core/resource_governor.h"
#include "obs/event_ring.h"
#include "obs/metrics.h"
#include "obs/risk.h"
#include "obs/trace.h"
#include "stats/concurrent_count_tracker.h"
#include "storage/mvcc.h"
#include "storage/value.h"

namespace tarpit {

/// How the concurrent front door schedules query computation.
enum class ConcurrencyMode {
  /// The seed behavior: every query computes under ONE global mutex
  /// (stalls are still served outside it). Kept as the baseline the
  /// scaling bench compares against.
  kGlobalLock,
  /// Lock-striped point-retrieval path: GetByKey runs under a shared
  /// "DDL" lock plus per-stripe locks, with stats through the
  /// concurrency-safe ConcurrentCountTracker and delays computed from
  /// read-mostly snapshots. Mutating SQL takes the DDL lock
  /// exclusively.
  kSharded,
};

/// Caller-attributed principal for a request entering the concurrent
/// front door. The door does no registration or rate limiting (that is
/// the QueryGate's job); given a principal it escalates the charged
/// delay by the principal's reputation penalty and feeds served
/// accesses back as breadth observations. Principal-less entry points
/// behave exactly as before.
struct RequestPrincipal {
  uint64_t identity = 0;
  /// The identity's /24 network (Identity::Subnet24() at the gate).
  uint32_t subnet24 = 0;
};

/// Tuning knobs for the sharded path.
struct ConcurrentDatabaseOptions {
  ConcurrencyMode mode = ConcurrencyMode::kSharded;
  /// Lock stripes for the GetByKey row cache (keyed by tuple key).
  size_t num_shards = 16;
  /// Stripes for the concurrent stats spine.
  size_t stats_shards = 16;
  /// Requests a stats stripe batches before merging into the rank
  /// index (the epoch; bounds rank/f_max staleness).
  size_t epoch_batch = 64;
  /// When false, delays are computed and accounted but not slept --
  /// for benches/simulations that measure rather than stall.
  bool serve_delays = true;
  /// Reclaim cadence: fold reclaimable versions into base storage
  /// every N published commits (0 disables the commit trigger)...
  size_t mvcc_reclaim_every_commits = 64;
  /// ...and/or whenever this much injected-clock time has passed since
  /// the last pass (0 disables the time trigger). Both zero = versions
  /// are folded only at drain points (SELECT barriers, checkpoints,
  /// DDL fences). Driven by the injected Clock, never the wall clock,
  /// so VirtualClock tests reclaim deterministically.
  int64_t mvcc_reclaim_interval_micros = 0;
  /// Async stall scheduling: stalls park on a DelayScheduler (timer
  /// wheel + one driver thread) instead of blocking the calling thread,
  /// so a fixed thread budget carries tens of thousands of
  /// concurrently-stalled sessions. The *Async entry points complete
  /// via callback on stall expiry. Off by default: the stall is slept
  /// inline on the submitting thread, and the *Async entry points
  /// complete there once it has passed. Blocking GetByKey/ExecuteSql
  /// wait on the same completion either way.
  bool async_stalls = false;
  /// Wheel geometry used when async_stalls is on.
  /// With a VirtualClock the wheel fires instantly (simulation mode).
  DelaySchedulerOptions scheduler;
  /// Per-principal delay escalation seam (the defense layer's
  /// ReputationStore is the implementation). Not owned; must outlive
  /// the database and be safe from concurrent request threads. Null
  /// disables reputation here; requests without a RequestPrincipal are
  /// never escalated either way. Escalation happens in the COMPUTE
  /// phase, before the stall is served or parked, so what is served is
  /// the post-escalation delay.
  PrincipalPenalty* reputation = nullptr;
  /// Overload governor (shed-before-collapse), typically shared with
  /// the QueryGate. When set, every stall is admitted against the
  /// parked-stall budgets before it is served (parked on the wheel or
  /// slept inline) and released when it ends; refusals complete with
  /// Status::Overloaded AFTER the delay charge was recorded in the
  /// compute phase, so shed extraction-suspects still pay their
  /// accounting/reputation penalty. The MVCC write path additionally
  /// consults CheckWrite against the WAL-backlog and live-version
  /// budgets at submit time. Not owned; must outlive the database.
  /// Null disables governing (seed behavior).
  ResourceGovernor* governor = nullptr;
  /// When non-null the front door publishes request/cancellation
  /// counters, row-cache counters, and the per-policy delay-charged
  /// histogram here, and propagates the registry down to the inner
  /// database (storage, count cache) and the delay scheduler at Open.
  /// Must outlive the database.
  obs::MetricRegistry* metrics = nullptr;
  /// When non-null every request carries a RequestTrace through
  /// admit -> stats -> delay-compute -> park -> complete and reports
  /// it here on completion. Must outlive the database.
  obs::TraceSink* trace_sink = nullptr;
  /// When non-null the front door appends forensic events the
  /// perimeter audit trail never sees: governor sheds (kOverloadShed),
  /// cancelled parked stalls (kCancelled), and the crash-recovery work
  /// observed at Open (kRecovery, one event per nonzero recovery
  /// counter). Not owned; must outlive the database.
  obs::DefenseEventRing* event_ring = nullptr;
  /// When non-null, principal-attributed requests feed the
  /// extraction-risk scorer (one ObserveQuery per served tuple --
  /// breadth + rate learning). Purely observational, independent of
  /// `reputation`. Not owned; must outlive the database.
  obs::RiskScorer* risk = nullptr;
};

/// Thread-safe front door over a ProtectedDatabase.
///
/// Locking model (lock order: ddl -> writer -> stats spine ->
/// update-stats -> storage; stripe locks and page latches are leaves):
///  * GetByKey (the extraction-critical path) holds `ddl_mu_` SHARED,
///    pins a snapshot epoch and resolves the row through the MVCC
///    version chains, then a lock-striped read-through row cache, then
///    base storage (`storage_mu_` SHARED: the sharded buffer pool and
///    per-page latches make concurrent read-only storage access safe),
///    records the access in a ConcurrentCountTracker, computes its
///    delay from a read-mostly PopularityStats snapshot, and serves
///    the stall OUTSIDE every lock -- concurrent sessions stall in
///    parallel, the paper's section 2.4 parallel-attack semantics.
///    Readers never take `writer_mu_`: in steady state they never
///    block on writers.
///  * Eligible DML (INSERT, pk-equality UPDATE/DELETE on the protected
///    table) holds `ddl_mu_` SHARED and funnels through a write
///    batcher: one leader at a time holds `writer_mu_`, executes the
///    queued statements as version-store commits (WAL record at commit
///    time, base image deferred to the reclaimer), publishes each
///    commit epoch, and mirrors the serial path's tracker bookkeeping
///    under the spine / `update_stats_mu_`.
///  * SELECT statements hold `ddl_mu_` shared plus `writer_mu_` (a
///    base-storage scan cannot see unreclaimed versions, so the
///    version store is drained first and held empty across the scan)
///    and still serialize on the stats spine (the inner tracker and
///    delay engine are single-threaded). Statement texts resolve
///    through the inner plan cache, so the classification parse is the
///    only parse and repeats skip compilation entirely.
///  * Storage WRITERS inside the shared-lock region (the stats flush
///    hook pushing merged deltas into the persistent count cache) take
///    `storage_mu_` EXCLUSIVE. The MVCC reclaimer writes base pages
///    under `storage_mu_` SHARED plus per-page latches (serialized
///    against other base writers by `writer_mu_`).
///  * Ineligible mutating statements (DDL, range DML), bulk loads and
///    checkpoints hold `ddl_mu_` EXCLUSIVE -- which guarantees no
///    snapshot is pinned -- drain the version store (the DDL fence),
///    then run against exact base state and invalidate the row caches.
///
/// Use a RealClock: VirtualClock is not synchronized and only makes
/// sense on a single timeline anyway.
class ConcurrentProtectedDatabase {
 public:
  /// Opens the wrapped database; forces defer_delay_sleep so stalls
  /// happen outside the locks.
  static Result<std::unique_ptr<ConcurrentProtectedDatabase>> Open(
      const std::string& dir, const std::string& table_name, Clock* clock,
      ProtectedDatabaseOptions options = {},
      ConcurrentDatabaseOptions concurrent_options = {});

  ~ConcurrentProtectedDatabase();

  ConcurrentProtectedDatabase(const ConcurrentProtectedDatabase&) = delete;
  ConcurrentProtectedDatabase& operator=(
      const ConcurrentProtectedDatabase&) = delete;

  /// Executes one statement. SELECTs run concurrently with GetByKey
  /// traffic; eligible DML commits through the MVCC write path, other
  /// mutating statements are exclusive. The stall is served outside
  /// all locks (slept inline, or parked on the wheel when async_stalls
  /// is on); the blocking entry points wait on the async completion.
  Result<ProtectedResult> ExecuteSql(const std::string& sql);

  /// Single-tuple retrieval on the striped path (kSharded) or under
  /// the global mutex (kGlobalLock).
  Result<ProtectedResult> GetByKey(int64_t key);

  /// Principal-attributed variants: the charged delay is escalated by
  /// the principal's reputation penalty (when options.reputation is
  /// set) and the served tuples feed its breadth learning. Identical
  /// to the plain entry points when reputation is off.
  Result<ProtectedResult> ExecuteSql(const std::string& sql,
                                     const RequestPrincipal& who);
  Result<ProtectedResult> GetByKey(int64_t key,
                                   const RequestPrincipal& who);

  /// Completion callback for the async entry points. Runs on the
  /// scheduler's driver thread when a parked stall expires or is
  /// cancelled, so it must be short: it must not block or wait on
  /// another stall (e.g. call a blocking entry point). A zero
  /// charge and a perimeter / storage error (nothing to stall for)
  /// complete inline on the submitting thread, before the entry point
  /// returns: a caller must not hold a lock across the call that its
  /// callback takes. A parked request cancelled by CancelSession or
  /// shutdown completes with Status::Cancelled -- the tuple is
  /// withheld because its delay was never served.
  using AsyncCompletion = std::function<void(Result<ProtectedResult>)>;

  /// Admit -> compute delay under the stripe locks -> park on the
  /// wheel -> complete on expiry. The calling thread returns as soon
  /// as the computation is done; no thread is held for the stall.
  /// `session` groups the parked stall for CancelSession (0 = none).
  /// Without async_stalls the stall is slept inline on the calling
  /// thread, then `done` fires there.
  void GetByKeyAsync(int64_t key, AsyncCompletion done,
                     StallGroup session = 0);
  void ExecuteSqlAsync(const std::string& sql, AsyncCompletion done,
                       StallGroup session = 0);

  /// Principal-attributed async variants: the PARKED stall already
  /// includes the reputation escalation (escalation happens in the
  /// compute phase).
  void GetByKeyAsync(int64_t key, const RequestPrincipal& who,
                     AsyncCompletion done, StallGroup session = 0);
  void ExecuteSqlAsync(const std::string& sql,
                       const RequestPrincipal& who, AsyncCompletion done,
                       StallGroup session = 0);

  /// Cancels every stall parked under `session` (SessionManager
  /// eviction hooks call this); each completes with Status::Cancelled.
  /// Returns the number cancelled. No-op when async_stalls is off.
  size_t CancelSession(StallGroup session);

  /// The wheel, for observability (null unless async_stalls).
  DelayScheduler* delay_scheduler() { return scheduler_.get(); }

  Status BulkLoadRow(const Row& row);
  Status Checkpoint();

  /// Merges all pending stats-stripe deltas into the rank index so the
  /// inner tracker reflects every completed request. Call before
  /// inspecting the inner database from a quiesced state.
  void QuiesceStats();

  /// Point-in-time metrics across both execution paths. Sharded
  /// GetByKey accounting (which bypasses the inner DelayEngine) is
  /// folded in; quantiles come from the dominant path's sketch.
  ProtectedDatabaseMetrics Metrics();

  /// Access to the wrapped instance for setup/inspection. NOT
  /// thread-safe; use only while no queries are in flight -- enforced
  /// in debug builds by an in-flight-queries assert. Also quiesces
  /// pending stats so the inner trackers are coherent.
  ProtectedDatabase* unsafe_inner();

  /// Queries currently computing (excludes stall serving). Exposed so
  /// tests can assert the debug guard's invariant.
  int in_flight_queries() const {
    return in_flight_.load(std::memory_order_relaxed);
  }

  /// Observability for the scaling bench. Event counts (row-cache
  /// hits and misses, write batches, DDL fences, MVCC versions and
  /// pins) are series in `metrics`.
  uint64_t stats_epoch_flushes() const {
    return stats_tracker_ ? stats_tracker_->epoch_flushes() : 0;
  }
  const ConcurrentDatabaseOptions& concurrent_options() const {
    return concurrent_options_;
  }
  ConcurrentCountTracker* concurrent_access_tracker() {
    return stats_tracker_.get();
  }

  /// MVCC observability.
  EpochManager* epoch_manager() { return &epoch_mgr_; }
  VersionStore* version_store() { return &version_store_; }
  /// Published version-store commits (one per lowered DML statement).
  uint64_t mvcc_commits() const {
    return mvcc_commits_.load(std::memory_order_relaxed);
  }
  /// Logical row count of the protected table: base rows plus the
  /// unreclaimed version-store effects (NumRows() alone goes stale
  /// between a commit and its reclaim).
  uint64_t logical_rows() const {
    return logical_rows_.load(std::memory_order_relaxed);
  }

 private:
  struct RowStripe {
    std::mutex mu;
    std::unordered_map<int64_t, Row> rows;
  };
  /// Per-stripe delay accounting so the hot path shares no accounting
  /// cache line; merged on Metrics(). The sketch is a bounded
  /// reservoir: a long-running server's accounting must not grow with
  /// request count (the unbounded QuantileSketch is for experiment
  /// harnesses that reset between runs).
  struct AcctStripe {
    std::mutex mu;
    double total_delay = 0.0;
    uint64_t charges = 0;
    BoundedQuantileSketch sketch;
  };

  /// One queued write awaiting the batch leader. Lives on the
  /// submitting thread's stack; the submitter blocks until `done`, so
  /// the pointed-to statement outlives the op.
  struct WriteOp {
    const Statement* stmt = nullptr;
    Result<ProtectedResult> result = Status::Internal("unset");
    // Atomic so followers can poll it without batch_mu_; the leader
    // still stores it under batch_mu_ (then notifies) so the cv
    // fallback has no missed-wakeup window.
    std::atomic<bool> done{false};
  };

  ConcurrentProtectedDatabase(std::unique_ptr<ProtectedDatabase> inner,
                              ConcurrentDatabaseOptions concurrent_options);

  size_t RowStripeFor(int64_t key) const;
  // Compute phase only (admit + delay accounting, no stall served).
  // `tr` is the request's trace (null when tracing is off); `who` is
  // the attributed principal (null for the principal-less entry
  // points).
  Result<ProtectedResult> ComputeGetByKey(int64_t key,
                                          obs::RequestTrace* tr,
                                          const RequestPrincipal* who);
  Result<ProtectedResult> ComputeExecuteSql(const std::string& sql,
                                            obs::RequestTrace* tr,
                                            const RequestPrincipal* who);
  Result<ProtectedResult> GetByKeyGlobal(int64_t key,
                                         obs::RequestTrace* tr,
                                         const RequestPrincipal* who);
  Result<ProtectedResult> GetByKeySharded(int64_t key,
                                          obs::RequestTrace* tr,
                                          const RequestPrincipal* who);
  Result<ProtectedResult> ExecuteSqlGlobal(const std::string& sql,
                                           obs::RequestTrace* tr,
                                           const RequestPrincipal* who);
  Result<ProtectedResult> ExecuteSqlSharded(const std::string& sql,
                                            obs::RequestTrace* tr,
                                            const RequestPrincipal* who);
  /// Pre-access penalty factor for `who` (1.0 when reputation is off
  /// or `who` is null). Same no-retroactive-penalty rule as the gate:
  /// the factor is read before this request's accesses are observed.
  double ReputationFactor(const RequestPrincipal* who) const;
  /// Feeds one served access into the reputation store (no-op when
  /// reputation is off / `who` null). `universe_n` from the
  /// thread-safe tracker.
  void ReputationObserve(const RequestPrincipal* who, int64_t key,
                         uint64_t universe_n);
  /// Counts an escalated charge in the reputation metric. The factor
  /// itself went into the charge (the inner DelayEngine's, or the
  /// sharded point get's product), so there is nothing to account.
  void CountEscalation(const ProtectedResult& r, double factor);
  void InvalidateRowCaches();
  /// Drops the cached row for `key` (commit precision invalidation;
  /// whole-cache invalidation stays on the DDL path).
  void EraseCachedRow(int64_t key);
  /// Installs (overwriting) the freshly reclaimed base image for
  /// `key`, keeping the cache warm across a reclaim pass. Only legal
  /// when no active snapshot could see an older image -- i.e. from
  /// the reclaimer, whose boundary already proves that.
  void RefillCachedRow(int64_t key, const Row& row);
  /// True when `stmt` can run on the MVCC write path: a non-EXPLAIN
  /// INSERT into the protected table, or an UPDATE/DELETE on it whose
  /// WHERE clause is a pk-equality against an integer literal.
  /// Everything else takes the exclusive fallback. Call under at least
  /// a shared `ddl_mu_` (reads the table's schema).
  bool CanLowerDml(const Statement& stmt) const;
  /// Group commit: queues the statement and either leads (drains the
  /// queue under `writer_mu_`, one commit epoch per statement, then
  /// runs the reclaim cadence) or waits for a leader to execute it.
  Result<ProtectedResult> SubmitWrite(const Statement& stmt);
  /// Executes one lowered DML statement as one version-store commit.
  /// Requires `writer_mu_`. Mirrors the serial executor exactly: same
  /// errors, same partial-prefix INSERT persistence, same tracker
  /// bookkeeping (skipped on error), no charged delay for writes.
  Result<ProtectedResult> ExecuteMvccStatement(const Statement& stmt);
  /// Folds versions with begin <= `boundary` into base storage.
  /// Requires `writer_mu_`.
  Status ReclaimVersions(uint64_t boundary);
  /// Runs the commit-count / injected-clock reclaim cadence. Requires
  /// `writer_mu_`; failures park in `deferred_mvcc_status_`.
  void MaybeReclaim();
  /// Empties the version store completely: waits until every pinned
  /// snapshot has caught up to the newest epoch (pins are short-lived
  /// -- they cover one row resolution, never a stall), then reclaims
  /// at the current epoch. Requires `writer_mu_`.
  Status DrainVersions();
  /// Starts a trace span for one request. Returns null (tracing off)
  /// or `tr` initialized with a fresh id and start stamp.
  obs::RequestTrace* BeginTrace(obs::RequestTrace* tr, const char* op,
                                int64_t key, StallGroup session);
  /// Stamps the end of the span, records request metrics
  /// (delay-charged histogram, cancellation counter), and reports the
  /// trace to the sink. Safe with tr == null (metrics still recorded).
  void EndRequest(obs::RequestTrace* tr,
                  const Result<ProtectedResult>& r, bool cancelled);
  /// Blocking entry points: FinishAsync, then wait for its completion.
  Result<ProtectedResult> FinishBlocking(Result<ProtectedResult> r,
                                         obs::RequestTrace* tr);
  /// The door's only stall service. Admits the stall with the
  /// governor, serves it (parked on the wheel, or slept inline without
  /// async_stalls), then ends the request and fires `done` with the
  /// result -- or with Overloaded (shed) or Cancelled (session
  /// eviction, shutdown). Errors from the compute phase complete at
  /// once. The charge stays on the books in every case.
  void FinishAsync(Result<ProtectedResult> r, AsyncCompletion done,
                   StallGroup session, obs::RequestTrace* tr);

  std::unique_ptr<ProtectedDatabase> inner_;
  ConcurrentDatabaseOptions concurrent_options_;

  // kGlobalLock state.
  std::mutex mutex_;

  // kSharded state. storage_mu_ is reader-writer: read-only storage
  // access (GetByKey misses, SELECT scans) holds it shared -- the
  // sharded buffer pool makes that safe -- while in-region storage
  // writers (count-cache flush hook) hold it exclusive. Mutating SQL
  // excludes everything via ddl_mu_ and needs no storage lock.
  // Members written on every request or commit (these locks,
  // in_flight_) start their own cache lines, apart from each other and
  // from what every request only reads (the epoch manager, the
  // instrument pointers), so deleting or adding a member cannot move
  // them onto a shared line (false sharing showed in perfbench's
  // hot_get and cold_mixed).
  alignas(64) std::shared_mutex ddl_mu_;
  alignas(64) std::shared_mutex storage_mu_;
  /// Serializes version-store commits, reclamation and drains against
  /// each other, and (held across the scan) pins SELECTs to a drained
  /// store. Order: ddl_mu_ -> writer_mu_ -> spine -> update_stats_mu_
  /// -> storage_mu_. GetByKey never takes it.
  alignas(64) std::mutex writer_mu_;
  /// Guards the inner update tracker / update policy: the commit
  /// leader and SELECTs write them exclusively, GetByKey's
  /// DelayForAccessStats reads them shared -- but only in the modes
  /// that consult update stats at all (cached in the flag below), so
  /// access-only reads never touch this (global) lock.
  std::shared_mutex update_stats_mu_;
  bool reads_need_update_stats_ = false;
  /// True iff the configured policy's delay actually consumes
  /// popularity rank (rank^beta with beta != 0): when false, the
  /// sharded read path asks the stats spine for a rank-free snapshot
  /// and the treap never appears on the read path.
  bool reads_need_rank_ = true;
  alignas(64) EpochManager epoch_mgr_;
  VersionStore version_store_;
  std::atomic<uint64_t> logical_rows_{0};
  std::atomic<uint64_t> mvcc_commits_{0};
  // Reclaim cadence + deferred-failure state. Guarded by writer_mu_.
  uint64_t commits_since_reclaim_ = 0;
  int64_t last_reclaim_micros_ = 0;
  Status deferred_mvcc_status_ = Status::OK();
  // Write batcher (leader/follower combining). Guarded by batch_mu_.
  std::mutex batch_mu_;
  std::condition_variable batch_cv_;
  std::deque<WriteOp*> batch_queue_;
  bool batch_leader_active_ = false;
  std::unique_ptr<ConcurrentCountTracker> stats_tracker_;
  std::vector<std::unique_ptr<RowStripe>> row_stripes_;
  std::vector<std::unique_ptr<AcctStripe>> acct_stripes_;
  alignas(64) std::atomic<int> in_flight_{0};

  /// Emits one forensic event (no-op when the ring is off).
  void EmitEvent(obs::DefenseEventType type, uint64_t principal,
                 double magnitude, int64_t arg);

  // Registry-owned instruments (null when metrics are off) and the
  // trace terminal (null when tracing is off).
  alignas(64) obs::DefenseEventRing* events_ = nullptr;
  obs::TraceSink* sink_ = nullptr;
  obs::Counter* m_requests_ = nullptr;
  obs::Counter* m_cancelled_ = nullptr;
  obs::Counter* m_row_hits_ = nullptr;
  obs::Counter* m_row_misses_ = nullptr;
  obs::Counter* m_rep_escalated_ = nullptr;
  obs::Histogram* m_delay_charged_ns_ = nullptr;
  // MVCC / write-path instruments (null when metrics are off).
  obs::Counter* m_mvcc_reclaim_passes_ = nullptr;
  obs::Counter* m_write_batches_ = nullptr;
  obs::Counter* m_ddl_fences_ = nullptr;
  obs::Gauge* m_mvcc_live_versions_ = nullptr;
  obs::Gauge* m_mvcc_commit_epoch_ = nullptr;
  obs::Gauge* m_mvcc_min_active_ = nullptr;
  obs::Histogram* m_write_batch_ops_ = nullptr;
  // First error from the flush hook pushing merged deltas into the
  // persistent count cache; surfaced at Checkpoint. Guarded by
  // storage_mu_ (the hook holds it).
  Status deferred_count_cache_status_ = Status::OK();

  // Async stall scheduling (only when async_stalls). Declared last so
  // it is destroyed first; the destructor additionally shuts it down
  // (cancelling parked stalls) before anything else is torn down.
  std::unique_ptr<DelayScheduler> scheduler_;
};

}  // namespace tarpit

#endif  // TARPIT_CORE_CONCURRENT_DB_H_
