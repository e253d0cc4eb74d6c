#include "core/concurrent_db.h"

#include <algorithm>
#include <cassert>
#include <condition_variable>
#include <thread>
#include <utility>

#include "common/failpoint.h"
#include "sql/parser.h"

namespace tarpit {

namespace {

/// Per-stripe row-cache bound; a stripe is dropped wholesale when it
/// fills (crude but O(1) and correct -- invalidation also clears).
constexpr size_t kRowCacheCapacityPerShard = size_t{1} << 14;

/// Lock stripes in the version store (chain map shards). Every
/// GetByKey probes a stripe, so striping scales with the read side,
/// not the (single-leader) write side.
constexpr size_t kVersionStoreStripes = 64;

/// splitmix64 finalizer (keys are often sequential).
uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// RAII in-flight-queries marker backing the unsafe_inner() debug
/// guard: covers the computation phase (not the stall).
class InFlightMark {
 public:
  explicit InFlightMark(std::atomic<int>* counter) : counter_(counter) {
    counter_->fetch_add(1, std::memory_order_relaxed);
  }
  ~InFlightMark() { counter_->fetch_sub(1, std::memory_order_relaxed); }

 private:
  std::atomic<int>* counter_;
};

bool IsMutatingStatement(const Statement& stmt) {
  return stmt.kind != Statement::Kind::kSelect;
}

/// Matches `pk = <int literal>` (either operand order). Anything else
/// -- ranges, AND chains, other columns, non-integer literals -- is
/// not a single-key write and stays on the exclusive fallback.
bool PkEqLiteral(const Expr* where, const std::string& pk_name,
                 int64_t* key) {
  if (where == nullptr || where->kind != Expr::Kind::kBinary ||
      where->op != BinaryOp::kEq) {
    return false;
  }
  const Expr* col = where->lhs.get();
  const Expr* lit = where->rhs.get();
  if (col == nullptr || lit == nullptr) return false;
  if (col->kind == Expr::Kind::kLiteral &&
      lit->kind == Expr::Kind::kColumn) {
    std::swap(col, lit);
  }
  if (col->kind != Expr::Kind::kColumn ||
      lit->kind != Expr::Kind::kLiteral) {
    return false;
  }
  if (col->column != pk_name || !lit->literal.is_int()) return false;
  *key = lit->literal.AsInt();
  return true;
}

/// Accumulates wall (or virtual) time into a trace's phase buckets
/// between Mark calls; every operation is a no-op for untraced
/// requests.
class PhaseMarker {
 public:
  PhaseMarker(obs::RequestTrace* tr, Clock* clock)
      : tr_(tr),
        clock_(clock),
        last_(tr != nullptr ? clock->NowMicros() : 0) {}

  void Mark(obs::TracePhase phase) {
    if (tr_ == nullptr) return;
    const int64_t now = clock_->NowMicros();
    tr_->phase_micros[static_cast<int>(phase)] += now - last_;
    last_ = now;
  }

 private:
  obs::RequestTrace* tr_;
  Clock* clock_;
  int64_t last_;
};

}  // namespace

ConcurrentProtectedDatabase::ConcurrentProtectedDatabase(
    std::unique_ptr<ProtectedDatabase> inner,
    ConcurrentDatabaseOptions concurrent_options)
    : inner_(std::move(inner)),
      concurrent_options_(concurrent_options),
      version_store_(kVersionStoreStripes) {
  if (concurrent_options_.num_shards == 0) {
    concurrent_options_.num_shards = 1;
  }
  const DelayMode mode = inner_->options().mode;
  reads_need_update_stats_ =
      mode == DelayMode::kUpdateRate || mode == DelayMode::kCombinedMax;
  // Rank (and f_max) enter the delay formula only through the
  // popularity term's rank^beta; with beta == 0 (or a rank-free mode)
  // reads can skip the rank index -- flush and lookup -- entirely, and
  // stay on the shared stats spine.
  reads_need_rank_ = (mode == DelayMode::kAccessPopularity ||
                      mode == DelayMode::kCombinedMax) &&
                     inner_->options().popularity.beta != 0.0;
  ConcurrentCountTrackerOptions topts;
  topts.num_shards = concurrent_options_.num_shards;
  topts.epoch_batch = concurrent_options_.epoch_batch;
  stats_tracker_ = std::make_unique<ConcurrentCountTracker>(
      inner_->access_tracker(), topts);
  if (inner_->count_cache() != nullptr) {
    // Epoch merges double as the persistence batch: the same deltas
    // that enter the rank index go to the write-behind count cache.
    // Called under the exclusive stats spine; takes storage_mu_
    // (spine -> storage is the global lock order).
    stats_tracker_->set_flush_hook(
        [this](const std::vector<std::pair<int64_t, uint64_t>>& batch) {
          // Storage WRITE: exclusive against shared-mode readers.
          std::lock_guard<std::shared_mutex> lock(storage_mu_);
          for (const auto& [key, n] : batch) {
            Status s = inner_->count_cache()->Add(
                key, static_cast<double>(n));
            if (!s.ok() && deferred_count_cache_status_.ok()) {
              deferred_count_cache_status_ = s;
            }
          }
        });
  }
  row_stripes_.reserve(concurrent_options_.num_shards);
  acct_stripes_.reserve(concurrent_options_.num_shards);
  for (size_t i = 0; i < concurrent_options_.num_shards; ++i) {
    row_stripes_.push_back(std::make_unique<RowStripe>());
    acct_stripes_.push_back(std::make_unique<AcctStripe>());
  }
  if (inner_->table() != nullptr) {
    logical_rows_.store(inner_->table()->NumRows(),
                        std::memory_order_relaxed);
  }
  if (concurrent_options_.metrics != nullptr) {
    obs::MetricRegistry* m = concurrent_options_.metrics;
    m_requests_ = m->GetCounter("tarpit_db_requests_total");
    m_cancelled_ = m->GetCounter("tarpit_db_cancelled_total");
    m_row_hits_ = m->GetCounter("tarpit_row_cache_hits_total");
    m_row_misses_ = m->GetCounter("tarpit_row_cache_misses_total");
    m_rep_escalated_ = m->GetCounter(
        "tarpit_reputation_escalations_total", {{"door", "concurrent"}});
    // The delay-charged histogram backs the bench's median-vs-oracle
    // acceptance check: nanosecond domain with 11 sub-bucket bits
    // keeps relative error under 0.05%, comfortably inside the 0.1%
    // bar.
    obs::HistogramOptions ns;
    ns.sub_bits = 11;
    ns.unit = "ns";
    m_delay_charged_ns_ = m->GetHistogram(
        "tarpit_delay_charged_ns",
        {{"policy", DelayModeName(inner_->options().mode)}}, ns);
    // The version store and the epoch manager count their own events.
    obs::Counter* installed =
        m->GetCounter("tarpit_mvcc_versions_installed_total");
    obs::Counter* applied =
        m->GetCounter("tarpit_mvcc_versions_applied_total");
    obs::Counter* reclaimed =
        m->GetCounter("tarpit_mvcc_versions_reclaimed_total");
    version_store_.BindMetrics(installed, applied, reclaimed);
    m_mvcc_reclaim_passes_ = m->GetCounter("tarpit_mvcc_reclaim_passes_total");
    epoch_mgr_.BindMetrics(m->GetCounter("tarpit_mvcc_snapshot_pins_total"));
    m_write_batches_ = m->GetCounter("tarpit_write_batches_total");
    m_ddl_fences_ = m->GetCounter("tarpit_mvcc_ddl_fences_total");
    m_mvcc_live_versions_ = m->GetGauge("tarpit_mvcc_live_versions");
    m_mvcc_commit_epoch_ = m->GetGauge("tarpit_mvcc_commit_epoch");
    m_mvcc_min_active_ = m->GetGauge("tarpit_mvcc_min_active_epoch");
    obs::HistogramOptions ops;
    ops.unit = "ops";
    m_write_batch_ops_ = m->GetHistogram("tarpit_write_batch_ops", {}, ops);
  }
  sink_ = concurrent_options_.trace_sink;
  events_ = concurrent_options_.event_ring;
  if (events_ != nullptr && concurrent_options_.metrics != nullptr) {
    // Surface the crash-recovery work the storage layer just did (the
    // per-table tarpit_recovery_* counters) as forensic events: arg is
    // the stat selector (0 = WAL records replayed, 1 = bytes
    // truncated, 2 = pages quarantined, 3 = indexes rebuilt),
    // magnitude the counter's value at open.
    static const char* kRecoveryCounters[] = {
        "tarpit_recovery_wal_records_replayed_total",
        "tarpit_recovery_wal_truncated_bytes_total",
        "tarpit_recovery_pages_quarantined_total",
        "tarpit_recovery_index_rebuilds_total",
    };
    const obs::RegistrySnapshot snap =
        concurrent_options_.metrics->Snapshot();
    for (const obs::MetricSnapshot& m : snap.metrics) {
      if (m.kind != obs::MetricKind::kCounter || m.value == 0) continue;
      for (int sel = 0; sel < 4; ++sel) {
        if (m.name == kRecoveryCounters[sel]) {
          EmitEvent(obs::DefenseEventType::kRecovery, 0,
                    static_cast<double>(m.value), sel);
        }
      }
    }
  }
  if (concurrent_options_.async_stalls) {
    DelaySchedulerOptions sched;
    sched.metrics = concurrent_options_.metrics;
    scheduler_ = std::make_unique<DelayScheduler>(inner_->clock(), sched);
  }
}

ConcurrentProtectedDatabase::~ConcurrentProtectedDatabase() {
  // Drain the wheel first: parked stalls complete with
  // Status::Cancelled (their callbacks only capture result copies, so
  // this is safe regardless of inner_'s state) and the driver thread
  // joins before anything else is torn down.
  if (scheduler_ != nullptr) {
    scheduler_->Shutdown(DelayScheduler::ShutdownMode::kCancelPending);
  }
}

Result<std::unique_ptr<ConcurrentProtectedDatabase>>
ConcurrentProtectedDatabase::Open(const std::string& dir,
                                  const std::string& table_name,
                                  Clock* clock,
                                  ProtectedDatabaseOptions options,
                                  ConcurrentDatabaseOptions
                                      concurrent_options) {
  options.defer_delay_sleep = true;
  if (options.metrics == nullptr) {
    // One registry pointer at the front door instruments the whole
    // stack: storage pools, WAL, and count cache inherit it.
    options.metrics = concurrent_options.metrics;
  }
  TARPIT_ASSIGN_OR_RETURN(
      std::unique_ptr<ProtectedDatabase> inner,
      ProtectedDatabase::Open(dir, table_name, clock, options));
  return std::unique_ptr<ConcurrentProtectedDatabase>(
      new ConcurrentProtectedDatabase(std::move(inner),
                                      concurrent_options));
}

size_t ConcurrentProtectedDatabase::RowStripeFor(int64_t key) const {
  return Mix(static_cast<uint64_t>(key)) % row_stripes_.size();
}

double ConcurrentProtectedDatabase::ReputationFactor(
    const RequestPrincipal* who) const {
  if (who == nullptr || concurrent_options_.reputation == nullptr) {
    return 1.0;
  }
  return std::max(1.0, concurrent_options_.reputation->PenaltyFactor(
                           who->identity, who->subnet24,
                           inner_->clock()->NowSeconds()));
}

void ConcurrentProtectedDatabase::ReputationObserve(
    const RequestPrincipal* who, int64_t key, uint64_t universe_n) {
  if (who == nullptr) return;
  if (concurrent_options_.risk != nullptr &&
      concurrent_options_.risk->AdmitsKey(key)) {
    // AdmitsKey first: the sampled-out path (most requests when the
    // scorer samples) costs one hash, no clock read.
    concurrent_options_.risk->ObserveQuery(
        who->identity, key, inner_->clock()->NowSeconds());
  }
  if (concurrent_options_.reputation == nullptr) return;
  concurrent_options_.reputation->ObserveAccess(
      who->identity, who->subnet24, key, universe_n,
      inner_->clock()->NowSeconds());
}

void ConcurrentProtectedDatabase::CountEscalation(const ProtectedResult& r,
                                                  double factor) {
  if (factor > 1.0 && r.delay_seconds > 0.0 && m_rep_escalated_ != nullptr) {
    m_rep_escalated_->Increment();
  }
}

obs::RequestTrace* ConcurrentProtectedDatabase::BeginTrace(
    obs::RequestTrace* tr, const char* op, int64_t key,
    StallGroup session) {
  if (m_requests_ != nullptr) m_requests_->Increment();
  if (sink_ == nullptr || !sink_->ShouldSample()) return nullptr;
  tr->request_id = sink_->NextRequestId();
  tr->op = op;
  tr->key = key;
  tr->session = session;
  tr->start_micros = inner_->clock()->NowMicros();
  return tr;
}

void ConcurrentProtectedDatabase::EmitEvent(obs::DefenseEventType type,
                                            uint64_t principal,
                                            double magnitude,
                                            int64_t arg) {
  if (events_ == nullptr) return;
  obs::DefenseEvent e;
  e.time_micros = inner_->clock()->NowMicros();
  e.type = type;
  e.principal = principal;
  e.magnitude = magnitude;
  e.arg = arg;
  events_->Append(e);
}

void ConcurrentProtectedDatabase::EndRequest(
    obs::RequestTrace* tr, const Result<ProtectedResult>& r,
    bool cancelled) {
  if (cancelled) {
    if (m_cancelled_ != nullptr) m_cancelled_->Increment();
    // The charge sticks (keep-the-charge invariant) but the tuple was
    // withheld -- exactly the kind of decision forensics must retain.
    EmitEvent(obs::DefenseEventType::kCancelled,
              tr != nullptr ? tr->session : 0,
              r.ok() ? r->delay_seconds : 0.0,
              tr != nullptr ? tr->key : 0);
  }
  if (r.ok() && m_delay_charged_ns_ != nullptr) {
    // Cancelled (session-evicted or shutdown-drained) stalls were
    // still CHARGED: accounting happens in the compute phase, and
    // cancellation cuts the serving short, not the bill -- the
    // keep-the-charge invariant. The histogram must match what the
    // accounting stripes recorded, so cancelled charges count too.
    m_delay_charged_ns_->Record(
        obs::NanosFromSeconds(r->delay_seconds));
  }
  if (tr == nullptr) return;
  tr->end_micros = inner_->clock()->NowMicros();
  tr->ok = r.ok() && !cancelled;
  tr->cancelled = cancelled;
  if (r.ok()) tr->charged_delay_seconds = r->delay_seconds;
  // Completion dispatch is the residual: every micro of the span lands
  // in exactly one phase.
  int64_t accounted = 0;
  for (int p = 0; p < obs::kNumTracePhases; ++p) {
    if (p != static_cast<int>(obs::TracePhase::kComplete)) {
      accounted += tr->phase_micros[p];
    }
  }
  tr->phase_micros[static_cast<int>(obs::TracePhase::kComplete)] =
      std::max<int64_t>(0, tr->TotalMicros() - accounted);
  sink_->Complete(*tr);
}

Result<ProtectedResult> ConcurrentProtectedDatabase::FinishBlocking(
    Result<ProtectedResult> r, obs::RequestTrace* tr) {
  // Blocking is a wait on the async completion: one thread per
  // in-flight stall for THIS caller (that is what blocking means), with
  // the same admission, serving, accounting and cancellation as the
  // async entry points. `done` runs before FinishAsync returns when the
  // request completes inline, else on the scheduler's driver; either way
  // it is the last touch of `w`, so the waiter can live on this stack.
  struct Waiter {
    std::mutex m;
    std::condition_variable cv;
    bool done = false;
    Result<ProtectedResult> result = Status::Internal("unset");
  } w;
  FinishAsync(
      std::move(r),
      [&w](Result<ProtectedResult> out) {
        std::lock_guard<std::mutex> lock(w.m);
        w.result = std::move(out);
        w.done = true;
        w.cv.notify_one();
      },
      /*session=*/0, tr);
  std::unique_lock<std::mutex> lock(w.m);
  w.cv.wait(lock, [&] { return w.done; });
  return std::move(w.result);
}

void ConcurrentProtectedDatabase::FinishAsync(Result<ProtectedResult> r,
                                              AsyncCompletion done,
                                              StallGroup session,
                                              obs::RequestTrace* tr) {
  // Nothing to stall for after a compute-phase error; a shed refuses
  // the stall. Either way the request completes without serving one.
  Status refused = r.status();
  ResourceGovernor* gov = nullptr;
  if (refused.ok() && concurrent_options_.governor != nullptr) {
    refused = concurrent_options_.governor->AdmitStall(0);
    if (refused.ok()) {
      gov = concurrent_options_.governor;
    } else {
      // Shed before serving: the delay charge is already on the books
      // (recorded in the compute phase), so an extraction suspect
      // still pays -- it just doesn't get to occupy a stall slot.
      EmitEvent(obs::DefenseEventType::kOverloadShed, 0, r->delay_seconds,
                tr != nullptr ? tr->key : 0);
    }
  }
  const double delay = refused.ok() && concurrent_options_.serve_delays
                           ? r->delay_seconds
                           : 0.0;
  // The completion owns the request: a parked stall outlives the
  // submitting thread's frame, so the trace rides along by value.
  obs::RequestTrace trace_copy;
  const bool traced = tr != nullptr;
  if (traced) trace_copy = *tr;
  const int64_t park_start = traced ? inner_->clock()->NowMicros() : 0;
  auto complete = [this, r = std::move(r), refused, done = std::move(done),
                   trace_copy, traced, park_start,
                   gov](bool cancelled) mutable {
    // Release first: expiry, cancellation and shutdown-drain all end
    // the stall, whatever the completion outcome.
    if (gov != nullptr) gov->ReleaseStall(0);
    obs::RequestTrace* t = traced ? &trace_copy : nullptr;
    if (t != nullptr) {
      t->phase_micros[static_cast<int>(obs::TracePhase::kPark)] +=
          std::max<int64_t>(0, inner_->clock()->NowMicros() - park_start);
    }
    // Metrics/trace bookkeeping BEFORE the result is moved out.
    EndRequest(t, r, cancelled);
    if (cancelled) {
      done(Status::Cancelled(
          "stall cancelled before expiry (session evicted or scheduler "
          "shut down)"));
    } else if (!refused.ok()) {
      done(std::move(refused));
    } else {
      done(std::move(r));
    }
  };
  if (!refused.ok() || scheduler_ == nullptr) {
    // Without async_stalls the calling thread sleeps through its own
    // stall (rounded up, so sub-microsecond charges still cost time).
    if (delay > 0) inner_->clock()->SleepForSeconds(delay);
    complete(/*cancelled=*/false);
    return;
  }
  scheduler_->Submit(delay, std::move(complete), session);
}

size_t ConcurrentProtectedDatabase::CancelSession(StallGroup session) {
  return scheduler_ != nullptr ? scheduler_->CancelGroup(session) : 0;
}

void ConcurrentProtectedDatabase::InvalidateRowCaches() {
  for (auto& stripe : row_stripes_) {
    std::lock_guard<std::mutex> lock(stripe->mu);
    stripe->rows.clear();
  }
}

void ConcurrentProtectedDatabase::EraseCachedRow(int64_t key) {
  RowStripe& stripe = *row_stripes_[RowStripeFor(key)];
  std::lock_guard<std::mutex> lock(stripe.mu);
  stripe.rows.erase(key);
}

void ConcurrentProtectedDatabase::RefillCachedRow(int64_t key,
                                                  const Row& row) {
  RowStripe& stripe = *row_stripes_[RowStripeFor(key)];
  std::lock_guard<std::mutex> lock(stripe.mu);
  auto it = stripe.rows.find(key);
  if (it != stripe.rows.end()) {
    it->second = row;  // Overwrite: the entry may hold the pre-apply image.
    return;
  }
  if (stripe.rows.size() >= kRowCacheCapacityPerShard) stripe.rows.clear();
  stripe.rows.emplace(key, row);
}

// --- MVCC write path. ----------------------------------------------------

bool ConcurrentProtectedDatabase::CanLowerDml(const Statement& stmt) const {
  if (stmt.explain) return false;
  Table* table = inner_->table();
  if (table == nullptr) return false;
  const std::string& name = table->name();
  const std::string& pk_name =
      table->schema().column(table->pk_column()).name;
  int64_t key = 0;
  switch (stmt.kind) {
    case Statement::Kind::kInsert:
      // Column-mapping/arity/duplicate errors reproduce serial
      // semantics on the MVCC path itself, so every protected-table
      // INSERT is eligible.
      return stmt.insert.table == name;
    case Statement::Kind::kUpdate:
      return stmt.update.table == name &&
             PkEqLiteral(stmt.update.where.get(), pk_name, &key);
    case Statement::Kind::kDelete:
      return stmt.del.table == name &&
             PkEqLiteral(stmt.del.where.get(), pk_name, &key);
    default:
      return false;
  }
}

Result<ProtectedResult> ConcurrentProtectedDatabase::SubmitWrite(
    const Statement& stmt) {
  if (concurrent_options_.governor != nullptr) {
    // Shed-before-collapse on the write side: refuse at submit time
    // while the WAL backlog / version store are over budget, instead
    // of queueing into a batch that only grows them further.
    Table* table = inner_->table();
    TARPIT_RETURN_IF_ERROR(concurrent_options_.governor->CheckWrite(
        table != nullptr ? table->WalBacklogBytes() : 0,
        version_store_.live_versions()));
  }
  WriteOp op;
  op.stmt = &stmt;
  bool leader = false;
  {
    std::lock_guard<std::mutex> lock(batch_mu_);
    batch_queue_.push_back(&op);
    if (!batch_leader_active_) {
      batch_leader_active_ = true;
      leader = true;
    }
  }
  if (!leader) {
    // Yield-spin before parking: a batch executes in microseconds, so
    // the common case (especially on few cores, where the scheduler
    // hands the slice straight to the leader) is that the result is
    // ready within a few yields -- skipping the futex sleep/wake pair
    // that otherwise dominates a follower's cost.
    for (int spin = 0; spin < 64; ++spin) {
      if (op.done.load(std::memory_order_acquire)) {
        return std::move(op.result);
      }
      std::this_thread::yield();
    }
    std::unique_lock<std::mutex> lock(batch_mu_);
    batch_cv_.wait(lock, [&] {
      return op.done.load(std::memory_order_acquire);
    });
    return std::move(op.result);
  }
  // Leader: drain the queue until it runs dry -- each queued statement
  // is one commit epoch, and followers that arrived while a batch
  // executed ride the next pass instead of waiting for a lock.
  std::lock_guard<std::mutex> writer(writer_mu_);
  while (true) {
    std::vector<WriteOp*> batch;
    {
      std::lock_guard<std::mutex> lock(batch_mu_);
      while (!batch_queue_.empty()) {
        batch.push_back(batch_queue_.front());
        batch_queue_.pop_front();
      }
      if (batch.empty()) {
        batch_leader_active_ = false;
        break;
      }
    }
    if (m_write_batches_ != nullptr) m_write_batches_->Increment();
    if (m_write_batch_ops_ != nullptr) {
      m_write_batch_ops_->Record(static_cast<int64_t>(batch.size()));
    }
    for (WriteOp* w : batch) {
      w->result = ExecuteMvccStatement(*w->stmt);
    }
    {
      std::lock_guard<std::mutex> lock(batch_mu_);
      for (WriteOp* w : batch) {
        w->done.store(true, std::memory_order_release);
      }
    }
    batch_cv_.notify_all();
  }
  MaybeReclaim();
  return std::move(op.result);
}

Result<ProtectedResult> ConcurrentProtectedDatabase::ExecuteMvccStatement(
    const Statement& stmt) {
  Table* table = inner_->table();
  if (table == nullptr) {
    return Status::FailedPrecondition("protected table not created yet");
  }
  const Schema& schema = table->schema();
  const size_t pk = table->pk_column();
  const std::string& pk_name = schema.column(pk).name;

  // Every version this statement writes commits under ONE new epoch,
  // published after the last install -- even when the statement errors
  // mid-way, so a partially applied multi-row INSERT exposes exactly
  // the prefix the serial executor would have persisted.
  const uint64_t epoch = epoch_mgr_.current() + 1;
  size_t installed = 0;
  auto install = [&](int64_t key, bool tombstone, Row row) {
    version_store_.Install(key, epoch, tombstone, std::move(row));
    ++installed;
    // Commit-time precision invalidation: the cached image is now
    // stale for any snapshot that will see this epoch.
    EraseCachedRow(key);
  };
  // Read-your-writes resolution for the leader: chain head first, row
  // cache second, base third (base is stable -- only the reclaimer
  // writes it, and we hold writer_mu_). Returns false when the key
  // does not exist.
  auto resolve = [&](int64_t key, Row* out) -> Result<bool> {
    switch (version_store_.Head(key, out)) {
      case VersionLookup::kRow:
        return true;
      case VersionLookup::kTombstone:
        return false;
      case VersionLookup::kMiss:
        break;
    }
    // Chain empty for this key, so any cached image equals base: the
    // only writers besides this leader are pin-guarded read fills
    // (which copy the current base image -- the pin forbids a reclaim
    // from changing base underneath them) and the reclaimer itself
    // (serialized out by writer_mu_), and every commit erases the
    // key's entry at install. A cache-resident key therefore skips
    // the base read entirely -- the hot-write fast path.
    {
      RowStripe& stripe = *row_stripes_[RowStripeFor(key)];
      std::lock_guard<std::mutex> cache_lock(stripe.mu);
      auto it = stripe.rows.find(key);
      if (it != stripe.rows.end()) {
        if (out != nullptr) *out = it->second;
        return true;
      }
    }
    std::shared_lock<std::shared_mutex> lock(storage_mu_);
    Result<Row> existing = table->GetByKey(key);
    if (existing.ok()) {
      if (out != nullptr) *out = std::move(*existing);
      return true;
    }
    if (existing.status().IsNotFound()) return false;
    return existing.status();
  };

  QueryResult qr;
  auto run = [&]() -> Status {
    switch (stmt.kind) {
      case Statement::Kind::kInsert: {
        // Mirrors Executor::ExecuteInsert + Table::Insert: same
        // errors, same ordering, same partial-prefix persistence.
        const InsertStatement& ins = stmt.insert;
        std::vector<size_t> positions;
        if (ins.columns.empty()) {
          positions.resize(schema.num_columns());
          for (size_t i = 0; i < schema.num_columns(); ++i) {
            positions[i] = i;
          }
        } else {
          for (const std::string& name : ins.columns) {
            TARPIT_ASSIGN_OR_RETURN(size_t idx, schema.ColumnIndex(name));
            positions.push_back(idx);
          }
        }
        for (const Row& values : ins.rows) {
          if (values.size() != positions.size()) {
            return Status::InvalidArgument(
                "INSERT arity mismatch: " + std::to_string(values.size()) +
                " values for " + std::to_string(positions.size()) +
                " columns");
          }
          Row row(schema.num_columns(), Value::Null());
          for (size_t i = 0; i < positions.size(); ++i) {
            row[positions[i]] = values[i];
          }
          TARPIT_RETURN_IF_ERROR(schema.Validate(row));
          if (pk >= row.size() || !row[pk].is_int()) {
            return Status::InvalidArgument(
                "row lacks integer primary key");
          }
          const int64_t key = row[pk].AsInt();
          TARPIT_ASSIGN_OR_RETURN(bool exists, resolve(key, nullptr));
          if (exists) {
            return Status::AlreadyExists("duplicate key " +
                                         std::to_string(key));
          }
          TARPIT_RETURN_IF_ERROR(table->LogInsert(row));
          install(key, /*tombstone=*/false, std::move(row));
          logical_rows_.fetch_add(1, std::memory_order_relaxed);
          qr.touched_keys.push_back(key);
          ++qr.affected;
        }
        return Status::OK();
      }
      case Statement::Kind::kUpdate: {
        const UpdateStatement& upd = stmt.update;
        std::vector<std::pair<size_t, Value>> assignments;
        for (const auto& [name, value] : upd.assignments) {
          TARPIT_ASSIGN_OR_RETURN(size_t idx, schema.ColumnIndex(name));
          if (idx == pk) {
            return Status::InvalidArgument(
                "updating the primary key is not supported; "
                "DELETE then INSERT instead");
          }
          assignments.emplace_back(idx, value);
        }
        int64_t key = 0;
        PkEqLiteral(upd.where.get(), pk_name, &key);  // Eligible shape.
        qr.plan.kind = AccessPathKind::kPointLookup;
        qr.plan.point_key = key;
        qr.plan.fully_absorbed = true;
        Row row;
        TARPIT_ASSIGN_OR_RETURN(bool found, resolve(key, &row));
        if (!found) return Status::OK();  // No match: affected = 0.
        for (const auto& [idx, value] : assignments) row[idx] = value;
        TARPIT_RETURN_IF_ERROR(schema.Validate(row));
        TARPIT_RETURN_IF_ERROR(table->LogUpdate(row));
        install(key, /*tombstone=*/false, std::move(row));
        qr.touched_keys.push_back(key);
        ++qr.affected;
        return Status::OK();
      }
      case Statement::Kind::kDelete: {
        const DeleteStatement& del = stmt.del;
        int64_t key = 0;
        PkEqLiteral(del.where.get(), pk_name, &key);  // Eligible shape.
        qr.plan.kind = AccessPathKind::kPointLookup;
        qr.plan.point_key = key;
        qr.plan.fully_absorbed = true;
        TARPIT_ASSIGN_OR_RETURN(bool found, resolve(key, nullptr));
        if (!found) return Status::OK();
        TARPIT_RETURN_IF_ERROR(table->LogDelete(key));
        install(key, /*tombstone=*/true, Row());
        logical_rows_.fetch_sub(1, std::memory_order_relaxed);
        qr.touched_keys.push_back(key);
        ++qr.affected;
        return Status::OK();
      }
      default:
        return Status::Internal("statement is not MVCC-lowerable");
    }
  };
  Status st = run();
  if (installed > 0) {
    epoch_mgr_.Publish(epoch);
    mvcc_commits_.fetch_add(1, std::memory_order_relaxed);
    ++commits_since_reclaim_;
    if (m_mvcc_commit_epoch_ != nullptr) {
      m_mvcc_commit_epoch_->Set(static_cast<int64_t>(epoch));
    }
    if (m_mvcc_live_versions_ != nullptr) {
      m_mvcc_live_versions_->Set(
          static_cast<int64_t>(version_store_.live_versions()));
    }
  }
  TARPIT_RETURN_IF_ERROR(st);

  // Bookkeeping mirrors the serial ExecuteStatement switch (and like
  // it, runs only on success): the access-tracker side goes through
  // the thread-safe spine, the update-tracker side through the inner
  // seam under update_stats_mu_.
  const uint64_t logical = logical_rows_.load(std::memory_order_relaxed);
  switch (stmt.kind) {
    case Statement::Kind::kInsert:
      stats_tracker_->set_universe_size(logical);
      break;
    case Statement::Kind::kDelete:
      stats_tracker_->set_universe_size(std::max<uint64_t>(1, logical));
      break;
    default:
      break;
  }
  {
    std::unique_lock<std::shared_mutex> us(update_stats_mu_);
    inner_->RecordWriteForConcurrent(stmt.kind, logical, qr.touched_keys);
  }
  ProtectedResult out;
  out.result = std::move(qr);  // Writes charge no delay (serial parity).
  return out;
}

Status ConcurrentProtectedDatabase::ReclaimVersions(uint64_t boundary) {
  Table* table = inner_->table();
  if (table == nullptr) return Status::OK();
  if (m_mvcc_reclaim_passes_ != nullptr) {
    m_mvcc_reclaim_passes_->Increment();
  }
  if (m_mvcc_min_active_ != nullptr) {
    m_mvcc_min_active_->Set(static_cast<int64_t>(boundary));
  }
  Status st = version_store_.Reclaim(
      boundary,
      [&](int64_t key, bool tombstone, const Row& row) -> Status {
        {
          // Base writes ride the per-page latches; storage_mu_ SHARED
          // only keeps the count-cache flush hook (exclusive) out.
          // writer_mu_ already serializes us against every other base
          // writer.
          std::shared_lock<std::shared_mutex> lock(storage_mu_);
          TARPIT_RETURN_IF_ERROR(tombstone
                                     ? table->ApplyDeleteUnlogged(key)
                                     : table->ApplyUpsertUnlogged(row));
        }
        // apply -> cache refresh -> unlink: a fill that cached the
        // pre-apply base image is replaced here, before the chain
        // entry that shadowed it disappears. Refilling (rather than
        // erasing) is sound because every active pin is >= boundary
        // >= this version's begin -- no snapshot that could legally
        // see an older image exists -- and it keeps the cache warm,
        // so neither readers nor the commit leader pay a base read
        // for a just-reclaimed key.
        if (tombstone) {
          EraseCachedRow(key);
        } else {
          RefillCachedRow(key, row);
        }
        return Status::OK();
      });
  if (m_mvcc_live_versions_ != nullptr) {
    m_mvcc_live_versions_->Set(
        static_cast<int64_t>(version_store_.live_versions()));
  }
  return st;
}

void ConcurrentProtectedDatabase::MaybeReclaim() {
  if (concurrent_options_.mvcc_reclaim_every_commits == 0 ||
      commits_since_reclaim_ <
          concurrent_options_.mvcc_reclaim_every_commits) {
    return;
  }
  if (version_store_.live_versions() == 0) {
    commits_since_reclaim_ = 0;
    return;
  }
  const uint64_t boundary = epoch_mgr_.MinActiveLowerBound();
  if (boundary == 0) return;  // A pin mid-publication; next pass.
  Status st = ReclaimVersions(boundary);
  if (!st.ok() && deferred_mvcc_status_.ok()) deferred_mvcc_status_ = st;
  commits_since_reclaim_ = 0;
}

Status ConcurrentProtectedDatabase::DrainVersions() {
  if (version_store_.live_versions() == 0) {
    return Status::OK();
  }
  // No commit can publish while we hold writer_mu_, so waiting out
  // snapshots older than the newest epoch terminates: pins cover one
  // row resolution (never a stall) and new pins land at the current
  // epoch.
  const uint64_t target = epoch_mgr_.current();
  while (epoch_mgr_.MinActiveLowerBound() < target) {
    std::this_thread::yield();
  }
  Status st = ReclaimVersions(target);
  commits_since_reclaim_ = 0;
  return st;
}

void ConcurrentProtectedDatabase::QuiesceStats() {
  stats_tracker_->FlushAll();
}

ProtectedDatabase* ConcurrentProtectedDatabase::unsafe_inner() {
  assert(in_flight_.load(std::memory_order_relaxed) == 0 &&
         "unsafe_inner() while queries are in flight -- the inner "
         "database is single-threaded");
  QuiesceStats();
  // Fold pending versions into base so inner inspections (NumRows,
  // table scans, tracker state) are exact.
  std::lock_guard<std::mutex> writer(writer_mu_);
  Status st = DrainVersions();
  if (!st.ok() && deferred_mvcc_status_.ok()) deferred_mvcc_status_ = st;
  return inner_.get();
}

// --- Compute phase: admit and charge, no stall served. ------------------

Result<ProtectedResult> ConcurrentProtectedDatabase::ComputeGetByKey(
    int64_t key, obs::RequestTrace* tr, const RequestPrincipal* who) {
  ProtectedResult out;
  // Pre-access factor, read before this request's access is observed
  // (no retroactive penalty -- a crossing earned here lands on the
  // NEXT request).
  const double factor = ReputationFactor(who);
  {
    InFlightMark mark(&in_flight_);
    PhaseMarker pm(tr, inner_->clock());
    std::shared_lock<std::shared_mutex> ddl(ddl_mu_);
    Table* table = inner_->table();
    if (table == nullptr) {
      return Status::FailedPrecondition("protected table not created yet");
    }

    // 1. Resolve the row: version chains under a pinned snapshot
    //    epoch, then the lock-striped read-through cache, then base
    //    storage. The pin is HELD across the base read and the cache
    //    fill: while any snapshot older than an in-flight commit is
    //    pinned, the reclaimer cannot apply that commit's versions to
    //    base, and both commit and reclaim erase the key's cache entry
    //    after writing -- so an image cached here can never outlive
    //    the state it reflects.
    const size_t stripe_idx = RowStripeFor(key);
    RowStripe& stripe = *row_stripes_[stripe_idx];
    Row row;
    bool resolved = false;
    EpochManager::Snapshot snap = epoch_mgr_.Pin();
    // Empty-store fast path: the pin's acquire edge means a chain
    // lookup can only find versions installed before the pinned
    // epoch's publish, and every such install incremented
    // live_versions first -- reading 0 here proves the probe would
    // miss. (The pin itself stays: it is what keeps the reclaimer
    // from folding a newer commit into base mid-read below.)
    switch (version_store_.live_versions() == 0
                ? VersionLookup::kMiss
                : version_store_.Lookup(key, snap.epoch(), &row)) {
      case VersionLookup::kRow:
        resolved = true;
        break;
      case VersionLookup::kTombstone:
        // Deleted as of this snapshot. Like the serial path's base
        // miss, nothing is recorded and nothing is charged.
        return Status::NotFound("key not found: " + std::to_string(key));
      case VersionLookup::kMiss:
        break;
    }
    if (!resolved) {
      bool hit = false;
      {
        std::lock_guard<std::mutex> lock(stripe.mu);
        auto it = stripe.rows.find(key);
        if (it != stripe.rows.end()) {
          row = it->second;
          hit = true;
        }
      }
      if (hit) {
        if (m_row_hits_ != nullptr) m_row_hits_->Increment();
      } else {
        Result<Row> fetched = Status::Internal("unset");
        {
          // Read-only storage access is thread-safe (sharded buffer
          // pool, per-page latches, latch-crabbing B+tree descent):
          // misses proceed in parallel under a shared lock, excluded
          // only from in-region storage writers (count-cache flush
          // hook).
          std::shared_lock<std::shared_mutex> lock(storage_mu_);
          fetched = table->GetByKey(key);
        }
        // A miss went to storage whether or not the key exists.
        if (m_row_misses_ != nullptr) m_row_misses_->Increment();
        if (!fetched.ok()) return fetched.status();
        row = std::move(*fetched);
        std::lock_guard<std::mutex> lock(stripe.mu);
        if (stripe.rows.size() >= kRowCacheCapacityPerShard) {
          stripe.rows.clear();
        }
        stripe.rows.emplace(key, row);
      }
    }
    // The row (and any cache fill) is consistent with the pinned
    // epoch; release the pin before the stats/delay work so reclaim
    // drains are not held up by spine contention.
    snap.Release();

    pm.Mark(obs::TracePhase::kAdmit);

    // 2. Learn, then charge (same order as the serial path): the
    //    access lands in the concurrent stats spine; the delay is
    //    computed from a read-mostly snapshot, never by mutating
    //    shared policy state. RecordAndStats fuses both into a single
    //    spine/stripe acquisition.
    const PopularityStats stats =
        stats_tracker_->RecordAndStats(key, reads_need_rank_);
    pm.Mark(obs::TracePhase::kStatsLookup);
    {
      // Update-rate-based modes read the inner update tracker/policy,
      // which the commit leader and SELECTs write exclusively. Access-
      // only modes compute purely from `stats` + immutable params, so
      // they skip the (global, contended) lock entirely.
      std::shared_lock<std::shared_mutex> us(update_stats_mu_,
                                             std::defer_lock);
      if (reads_need_update_stats_) us.lock();
      // The same product DelayEngine::Charge forms (base x factor),
      // from the snapshot instead of the single-threaded inner policy.
      out.delay_seconds = inner_->DelayForAccessStats(stats, key) * factor;
    }

    // 2b. Reputation: the charge above is already escalated, so the
    //     stripe accounting records what the caller is charged (and
    //     what FinishAsync parks). The access then feeds breadth
    //     learning for future factors.
    if (who != nullptr) {
      CountEscalation(out, factor);
      ReputationObserve(who, key, stats_tracker_->universe_size());
    }

    // 3. Striped delay accounting (merged on Metrics()).
    AcctStripe& acct = *acct_stripes_[stripe_idx];
    {
      // Failpoint: skim `arg` permille off the RECORDED charge while
      // the caller is still served the full delay -- the
      // ledger-vs-histogram drift the self-audit watchdog exists to
      // catch (core/self_audit.h). Never fires in production.
      double recorded = out.delay_seconds;
      if (auto skim = TARPIT_FAILPOINT("concurrent_db.acct_skim")) {
        recorded *= 1.0 - static_cast<double>(*skim) / 1000.0;
      }
      std::lock_guard<std::mutex> lock(acct.mu);
      acct.total_delay += recorded;
      ++acct.charges;
      acct.sketch.Add(out.delay_seconds);
    }
    pm.Mark(obs::TracePhase::kDelayCompute);

    out.result.rows.push_back(std::move(row));
    out.result.touched_keys.push_back(key);
    const Schema& schema = table->schema();
    out.result.columns.reserve(schema.num_columns());
    for (size_t i = 0; i < schema.num_columns(); ++i) {
      out.result.columns.push_back(schema.column(i).name);
    }
  }
  // The stall is NOT served here: the caller (FinishBlocking /
  // FinishAsync) serves or parks it outside every lock, so parallel
  // sessions stall in parallel and parked sessions hold no thread.
  return out;
}

Result<ProtectedResult> ConcurrentProtectedDatabase::ComputeExecuteSql(
    const std::string& sql, obs::RequestTrace* tr,
    const RequestPrincipal* who) {
  PhaseMarker pm(tr, inner_->clock());
  const double factor = ReputationFactor(who);
  // Classify through the inner plan cache so the classification parse
  // is the only parse the statement ever pays: execution below reuses
  // the same compiled form instead of re-parsing. The cache lookup
  // needs the shared DDL lock (compiling reads the catalog).
  std::shared_ptr<const PreparedStatement> prep;
  Statement fallback_stmt;
  const Statement* stmt = nullptr;
  bool lower = false;
  {
    std::shared_lock<std::shared_mutex> ddl(ddl_mu_);
    if (inner_->plan_cache() != nullptr) {
      TARPIT_ASSIGN_OR_RETURN(prep, inner_->plan_cache()->Get(sql));
      stmt = &prep->stmt;
    } else {
      TARPIT_ASSIGN_OR_RETURN(fallback_stmt, Parser::Parse(sql));
      stmt = &fallback_stmt;
    }
    // MVCC eligibility needs the table's schema, so decide it here
    // under the same shared DDL lock as the classification.
    lower = IsMutatingStatement(*stmt) && CanLowerDml(*stmt);
  }
  Result<ProtectedResult> result = Status::Internal("unset");
  if (lower) {
    InFlightMark mark(&in_flight_);
    // MVCC write path: runs under the SHARED DDL lock -- point reads
    // keep flowing while the batch leader commits into the version
    // store. Per-key cache invalidation happens at install time.
    std::shared_lock<std::shared_mutex> ddl(ddl_mu_);
    result = SubmitWrite(*stmt);
  } else if (IsMutatingStatement(*stmt)) {
    InFlightMark mark(&in_flight_);
    // Writer/DDL path: exclusive against all readers. The inner
    // database (executor, trackers, universe sizes) can be touched
    // freely; row caches are invalidated because UPDATE/DELETE/DDL
    // change what GetByKey must observe.
    std::unique_lock<std::shared_mutex> ddl(ddl_mu_);
    {
      // DDL fence: with ddl_mu_ exclusive no snapshot can be pinned,
      // so the store drains completely and the fallback executes
      // against exact base state -- CREATE INDEX builds see every
      // committed row and the plan cache's schema-version stamping
      // stays fail-closed.
      std::lock_guard<std::mutex> writer(writer_mu_);
      TARPIT_RETURN_IF_ERROR(DrainVersions());
      if (m_ddl_fences_ != nullptr) m_ddl_fences_->Increment();
    }
    result = prep != nullptr ? inner_->ExecutePrepared(*prep)
                             : inner_->ExecuteStatement(*stmt);
    InvalidateRowCaches();
    if (inner_->table() != nullptr) {
      // The store is drained, so NumRows() is exact again.
      logical_rows_.store(inner_->table()->NumRows(),
                          std::memory_order_relaxed);
    }
  } else {
    InFlightMark mark(&in_flight_);
    std::shared_lock<std::shared_mutex> ddl(ddl_mu_);
    // The SQL read path still serializes on the stats spine: the inner
    // access tracker and delay engine are single-threaded, and
    // WithExclusive merges every pending point-read access before the
    // inner engine charges, as the serial engine would. Storage is
    // held SHARED -- the scan itself is safe alongside GetByKey misses;
    // the spine's exclusivity already excludes the count-cache flush
    // hook's storage writes. Spine -> storage is the global lock order.
    // The scan reads base storage, which cannot see unreclaimed
    // versions: drain first and hold writer_mu_ across the scan so no
    // commit slips in between. Writes may wait on a long SELECT; point
    // readers never wait on either.
    std::lock_guard<std::mutex> writer(writer_mu_);
    TARPIT_RETURN_IF_ERROR(DrainVersions());
    stats_tracker_->WithExclusive([&](CountTracker*) {
      std::unique_lock<std::shared_mutex> us(update_stats_mu_);
      std::shared_lock<std::shared_mutex> lock(storage_mu_);
      result = prep != nullptr
                   ? inner_->ExecutePrepared(*prep, factor)
                   : inner_->ExecuteStatement(*stmt, nullptr, factor);
    });
  }
  if (result.ok() && who != nullptr) {
    const uint64_t n = stats_tracker_->universe_size();
    for (int64_t key : result->result.touched_keys) {
      ReputationObserve(who, key, n);
    }
    CountEscalation(*result, factor);
  }
  // The SQL path parses and executes as one unit; that whole
  // computation is the admission phase (the escalated delays were
  // charged inside the inner engine).
  pm.Mark(obs::TracePhase::kAdmit);
  return result;
}

// --- Public dispatch: admit/compute, then serve or park the stall. -------

Result<ProtectedResult> ConcurrentProtectedDatabase::ExecuteSql(
    const std::string& sql) {
  obs::RequestTrace trace;
  obs::RequestTrace* tr = BeginTrace(&trace, "sql", 0, 0);
  return FinishBlocking(ComputeExecuteSql(sql, tr, nullptr), tr);
}

Result<ProtectedResult> ConcurrentProtectedDatabase::GetByKey(
    int64_t key) {
  obs::RequestTrace trace;
  obs::RequestTrace* tr = BeginTrace(&trace, "get_by_key", key, 0);
  return FinishBlocking(ComputeGetByKey(key, tr, nullptr), tr);
}

Result<ProtectedResult> ConcurrentProtectedDatabase::ExecuteSql(
    const std::string& sql, const RequestPrincipal& who) {
  obs::RequestTrace trace;
  obs::RequestTrace* tr = BeginTrace(&trace, "sql", 0, 0);
  return FinishBlocking(ComputeExecuteSql(sql, tr, &who), tr);
}

Result<ProtectedResult> ConcurrentProtectedDatabase::GetByKey(
    int64_t key, const RequestPrincipal& who) {
  obs::RequestTrace trace;
  obs::RequestTrace* tr = BeginTrace(&trace, "get_by_key", key, 0);
  return FinishBlocking(ComputeGetByKey(key, tr, &who), tr);
}

void ConcurrentProtectedDatabase::GetByKeyAsync(int64_t key,
                                                AsyncCompletion done,
                                                StallGroup session) {
  obs::RequestTrace trace;
  obs::RequestTrace* tr =
      BeginTrace(&trace, "get_by_key", key, session);
  FinishAsync(ComputeGetByKey(key, tr, nullptr), std::move(done),
              session, tr);
}

void ConcurrentProtectedDatabase::ExecuteSqlAsync(const std::string& sql,
                                                  AsyncCompletion done,
                                                  StallGroup session) {
  obs::RequestTrace trace;
  obs::RequestTrace* tr = BeginTrace(&trace, "sql", 0, session);
  FinishAsync(ComputeExecuteSql(sql, tr, nullptr), std::move(done),
              session, tr);
}

void ConcurrentProtectedDatabase::GetByKeyAsync(int64_t key,
                                                const RequestPrincipal& who,
                                                AsyncCompletion done,
                                                StallGroup session) {
  obs::RequestTrace trace;
  obs::RequestTrace* tr =
      BeginTrace(&trace, "get_by_key", key, session);
  // The compute phase applies the escalation, so the stall parked
  // below is the post-escalation delay.
  FinishAsync(ComputeGetByKey(key, tr, &who), std::move(done), session,
              tr);
}

void ConcurrentProtectedDatabase::ExecuteSqlAsync(
    const std::string& sql, const RequestPrincipal& who,
    AsyncCompletion done, StallGroup session) {
  obs::RequestTrace trace;
  obs::RequestTrace* tr = BeginTrace(&trace, "sql", 0, session);
  FinishAsync(ComputeExecuteSql(sql, tr, &who), std::move(done),
              session, tr);
}

Status ConcurrentProtectedDatabase::BulkLoadRow(const Row& row) {
  std::unique_lock<std::shared_mutex> ddl(ddl_mu_);
  {
    // Bulk loads write base storage directly; fence them behind a
    // drain so they cannot be shadowed by (or race) pending versions.
    std::lock_guard<std::mutex> writer(writer_mu_);
    TARPIT_RETURN_IF_ERROR(DrainVersions());
  }
  Status s = inner_->BulkLoadRow(row);
  if (s.ok() && inner_->table() != nullptr) {
    logical_rows_.store(inner_->table()->NumRows(),
                        std::memory_order_relaxed);
  }
  if (s.ok() && inner_->table() != nullptr) {
    // Defensive: drop any cached row under the same key (e.g. a reload
    // after out-of-band changes through unsafe_inner()).
    const size_t pk = inner_->table()->pk_column();
    if (pk < row.size() && row[pk].is_int()) {
      const int64_t key = row[pk].AsInt();
      RowStripe& stripe = *row_stripes_[RowStripeFor(key)];
      std::lock_guard<std::mutex> lock(stripe.mu);
      stripe.rows.erase(key);
    }
  }
  return s;
}

Status ConcurrentProtectedDatabase::Checkpoint() {
  std::unique_lock<std::shared_mutex> ddl(ddl_mu_);
  {
    // Fold every pending version into base BEFORE the inner checkpoint
    // truncates the WAL -- commit-time WAL records are the only
    // durable form of unreclaimed versions.
    std::lock_guard<std::mutex> writer(writer_mu_);
    TARPIT_RETURN_IF_ERROR(DrainVersions());
    if (!deferred_mvcc_status_.ok()) return deferred_mvcc_status_;
  }
  // Merge outstanding epoch deltas (also pushes them into the count
  // cache via the flush hook) before flushing storage.
  QuiesceStats();
  {
    std::lock_guard<std::shared_mutex> lock(storage_mu_);
    if (!deferred_count_cache_status_.ok()) {
      return deferred_count_cache_status_;
    }
  }
  // Point gets are charged through the accounting stripes, bypassing
  // the inner DelayEngine; report their totals so
  // the checkpoint's synced snapshot (and every later cadence one)
  // carries what callers were actually charged.
  double sharded_delay = 0.0;
  uint64_t sharded_charges = 0;
  for (auto& acct : acct_stripes_) {
    std::lock_guard<std::mutex> lock(acct->mu);
    sharded_delay += acct->total_delay;
    sharded_charges += acct->charges;
  }
  inner_->ReportExternalCharges(sharded_delay, sharded_charges);
  return inner_->Checkpoint();
}

ProtectedDatabaseMetrics ConcurrentProtectedDatabase::Metrics() {
  std::shared_lock<std::shared_mutex> ddl(ddl_mu_);
  ProtectedDatabaseMetrics m;
  // WithExclusive merges the stats stripes first, so the inner count
  // holds every completed request.
  stats_tracker_->WithExclusive([&](CountTracker*) {
    std::shared_lock<std::shared_mutex> us(update_stats_mu_);
    std::lock_guard<std::shared_mutex> lock(storage_mu_);
    m = inner_->Metrics();
  });
  // Fold in the point gets' delay accounting (it bypasses the inner
  // DelayEngine by design).
  BoundedQuantileSketch merged;
  double sharded_delay = 0.0;
  uint64_t sharded_charges = 0;
  for (auto& acct : acct_stripes_) {
    std::lock_guard<std::mutex> lock(acct->mu);
    sharded_delay += acct->total_delay;
    sharded_charges += acct->charges;
    merged.Merge(acct->sketch);
  }
  m.total_delay_seconds += sharded_delay;
  m.delays_charged += sharded_charges;
  if (merged.count() > 0) {
    // Quantiles from the dominant path's sketch (the point gets' once
    // they have any traffic; point retrievals are the hot path).
    m.median_delay_seconds = merged.Median();
    m.p99_delay_seconds = merged.Quantile(0.99);
  }
  return m;
}

}  // namespace tarpit
