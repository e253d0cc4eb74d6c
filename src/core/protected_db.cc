#include "core/protected_db.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "sql/parser.h"

namespace tarpit {

namespace {

/// Null-object policy for DelayMode::kNone.
class NoDelayPolicy : public DelayPolicy {
 public:
  double DelayFor(int64_t) const override { return 0.0; }
  std::string name() const override { return "none"; }
};

// DelayBounds::Apply hands both ends to std::clamp, which is undefined
// for min > max; a NaN end compares false against everything. A max of
// +inf is legal (an uncapped policy); a min must be finite and >= 0.
Status CheckBounds(const char* which, const DelayBounds& b) {
  if (std::isfinite(b.min_seconds) && b.min_seconds >= 0 &&
      !std::isnan(b.max_seconds) && b.min_seconds <= b.max_seconds) {
    return Status::OK();
  }
  return Status::InvalidArgument(
      std::string(which) + " delay bounds need a finite min >= 0 and a "
      "max >= min (got min " + std::to_string(b.min_seconds) + ", max " +
      std::to_string(b.max_seconds) + ")");
}

}  // namespace

const char* DelayModeName(DelayMode mode) {
  switch (mode) {
    case DelayMode::kNone: return "none";
    case DelayMode::kAccessPopularity: return "access-popularity";
    case DelayMode::kUpdateRate: return "update-rate";
    case DelayMode::kCombinedMax: return "combined-max";
  }
  return "unknown";
}

Result<std::unique_ptr<ProtectedDatabase>> ProtectedDatabase::Open(
    const std::string& dir, const std::string& table_name, Clock* clock,
    ProtectedDatabaseOptions options) {
  TARPIT_RETURN_IF_ERROR(CheckBounds("popularity", options.popularity.bounds));
  TARPIT_RETURN_IF_ERROR(CheckBounds("update", options.update.bounds));
  auto pdb = std::unique_ptr<ProtectedDatabase>(
      new ProtectedDatabase(options, clock));
  TARPIT_RETURN_IF_ERROR(pdb->Init(dir, table_name));
  return pdb;
}

Status ProtectedDatabase::Init(const std::string& dir,
                               const std::string& table_name) {
  protected_table_name_ = table_name;
  options_.table_options.metrics = options_.metrics;
  TARPIT_ASSIGN_OR_RETURN(db_, Database::Open(dir, options_.table_options));
  Result<Table*> table = db_->GetTable(table_name);
  if (table.ok()) {
    table_ = *table;
  } else if (!table.status().IsNotFound()) {
    return table.status();
  }
  // table_ may be null until the protected table is created via SQL.

  executor_ = std::make_unique<Executor>(db_.get());
  if (options_.plan_cache_capacity > 0) {
    plan_cache_ = std::make_unique<PlanCache>(options_.plan_cache_capacity,
                                              db_.get());
    if (options_.metrics != nullptr) {
      plan_cache_->BindMetrics(options_.metrics,
                               {{"table", table_name}});
    }
  }

  uint64_t n = options_.universe_size;
  if (n == 0 && table_ != nullptr) n = table_->NumRows();
  if (n == 0) n = 1;

  access_tracker_ =
      std::make_unique<CountTracker>(n, options_.decay_per_request);
  update_tracker_ = std::make_unique<UpdateTracker>(n, 1.0);
  // The update policy's Eq. 9 needs N; default it to the inferred
  // universe when the caller left it unset.
  if (options_.update.n <= 1) options_.update.n = n;

  if (options_.persist_counts) {
    const std::string counts_name = table_name + "__counts";
    Result<Table*> counts = db_->GetTable(counts_name);
    if (counts.ok()) {
      counts_table_ = *counts;
    } else if (counts.status().IsNotFound()) {
      Schema schema(
          {{"key", ColumnType::kInt64}, {"cnt", ColumnType::kDouble}});
      TARPIT_ASSIGN_OR_RETURN(counts_table_,
                              db_->CreateTable(counts_name, schema, "key"));
    } else {
      return counts.status();
    }
    count_cache_ = std::make_unique<CountCache>(
        counts_table_, options_.count_cache_capacity);
    if (options_.metrics != nullptr) {
      obs::MetricRegistry* m = options_.metrics;
      count_cache_->BindMetrics(
          m->GetCounter("tarpit_count_cache_hits_total"),
          m->GetCounter("tarpit_count_cache_misses_total"),
          m->GetCounter("tarpit_count_cache_spills_total"),
          m->GetCounter("tarpit_count_cache_write_behind_flushes_total"));
    }
    // Warm-start: counts persisted by a previous run seed the learned
    // distribution, so delays are sensible immediately after restart
    // instead of re-paying the start-up transient.
    TARPIT_RETURN_IF_ERROR(counts_table_->ScanAll([this](const Row& row) {
      access_tracker_->Seed(row[0].AsInt(), row[1].AsDouble());
      return Status::OK();
    }));
  }

  switch (options_.mode) {
    case DelayMode::kNone:
      policy_ = std::make_unique<NoDelayPolicy>();
      break;
    case DelayMode::kAccessPopularity:
      policy_ = std::make_unique<PopularityDelayPolicy>(
          access_tracker_.get(), options_.popularity);
      break;
    case DelayMode::kUpdateRate: {
      auto up = std::make_unique<UpdateDelayPolicy>(update_tracker_.get(),
                                                    options_.update);
      update_policy_ = up.get();
      policy_ = std::move(up);
      break;
    }
    case DelayMode::kCombinedMax: {
      access_subpolicy_ = std::make_unique<PopularityDelayPolicy>(
          access_tracker_.get(), options_.popularity);
      update_subpolicy_ = std::make_unique<UpdateDelayPolicy>(
          update_tracker_.get(), options_.update);
      update_policy_ = update_subpolicy_.get();
      DelayBounds bounds = options_.popularity.bounds;
      bounds.max_seconds = std::max(bounds.max_seconds,
                                    options_.update.bounds.max_seconds);
      policy_ = std::make_unique<CombinedDelayPolicy>(
          access_subpolicy_.get(), update_subpolicy_.get(),
          CombineMode::kMax, bounds);
      break;
    }
  }
  engine_ = std::make_unique<DelayEngine>(policy_.get());

  if (options_.persist_delay_ledger) {
    TARPIT_RETURN_IF_ERROR(
        delay_ledger_.Open(dir + "/" + table_name + ".delay_ledger"));
    ledger_base_delay_ = delay_ledger_.recovered_total_delay();
    ledger_base_charges_ = delay_ledger_.recovered_charges();
  }

  open_time_micros_ = clock_->NowMicros();
  return Status::OK();
}

Result<ProtectedResult> ProtectedDatabase::ExecuteSql(const std::string& sql,
                                                      double factor) {
  if (plan_cache_ != nullptr) {
    TARPIT_ASSIGN_OR_RETURN(std::shared_ptr<const PreparedStatement> prep,
                            plan_cache_->Get(sql));
    return ExecutePrepared(*prep, factor);
  }
  TARPIT_ASSIGN_OR_RETURN(Statement stmt, Parser::Parse(sql));
  return ExecuteStatement(stmt, nullptr, factor);
}

Result<ProtectedResult> ProtectedDatabase::ExecutePrepared(
    const PreparedStatement& prepared, double factor) {
  // The plan is only trustworthy while the schema it was compiled
  // against is still live; fail closed to a fresh planning pass.
  const AccessPlan* hint =
      prepared.has_select_plan &&
              prepared.schema_version == db_->schema_version()
          ? &prepared.select_plan
          : nullptr;
  Result<ProtectedResult> out = ExecuteStatement(prepared.stmt, hint, factor);
  if (out.ok() && plan_cache_ != nullptr &&
      (prepared.stmt.kind == Statement::Kind::kCreateTable ||
       prepared.stmt.kind == Statement::Kind::kCreateIndex)) {
    // Version stamping already makes old entries unservable; this just
    // reclaims them eagerly.
    plan_cache_->Invalidate();
  }
  return out;
}

Result<ProtectedResult> ProtectedDatabase::ExecuteStatement(
    const Statement& stmt, const AccessPlan* select_plan_hint,
    double factor) {
  TARPIT_ASSIGN_OR_RETURN(QueryResult qr,
                          executor_->Execute(stmt, select_plan_hint));

  ProtectedResult out;
  const bool targets_protected_table = [&] {
    switch (stmt.kind) {
      case Statement::Kind::kSelect:
        return stmt.select.table == protected_table_name_;
      case Statement::Kind::kInsert:
        return stmt.insert.table == protected_table_name_;
      case Statement::Kind::kUpdate:
        return stmt.update.table == protected_table_name_;
      case Statement::Kind::kDelete:
        return stmt.del.table == protected_table_name_;
      case Statement::Kind::kCreateTable:
        return stmt.create_table.table == protected_table_name_;
      case Statement::Kind::kCreateIndex:
        return stmt.create_index.table == protected_table_name_;
    }
    return false;
  }();

  if (!targets_protected_table) {
    out.result = std::move(qr);
    return out;
  }

  switch (stmt.kind) {
    case Statement::Kind::kCreateTable: {
      TARPIT_ASSIGN_OR_RETURN(table_,
                              db_->GetTable(protected_table_name_));
      break;
    }
    case Statement::Kind::kCreateIndex:
      break;  // DDL: nothing to learn, nothing to charge.
    case Statement::Kind::kSelect: {
      // Learn, then charge: each returned tuple is one access event and
      // one delay unit.
      for (int64_t key : qr.touched_keys) {
        access_tracker_->Record(key);
        if (count_cache_ != nullptr) {
          TARPIT_RETURN_IF_ERROR(count_cache_->Add(key, 1.0));
        }
      }
      if (update_policy_ != nullptr) {
        const double elapsed =
            std::max(1e-6, (clock_->NowMicros() - open_time_micros_) / 1e6);
        update_policy_->set_rate_window_seconds(elapsed);
      }
      out.delay_seconds = ChargeAndServe(qr.touched_keys, factor);
      break;
    }
    case Statement::Kind::kInsert: {
      // Growing the relation grows N.
      access_tracker_->set_universe_size(table_->NumRows());
      update_tracker_->set_universe_size(table_->NumRows());
      if (update_policy_ != nullptr) {
        update_policy_->set_n(table_->NumRows());
      }
      for (int64_t key : qr.touched_keys) update_tracker_->Record(key);
      break;
    }
    case Statement::Kind::kUpdate: {
      for (int64_t key : qr.touched_keys) update_tracker_->Record(key);
      break;
    }
    case Statement::Kind::kDelete: {
      access_tracker_->set_universe_size(std::max<uint64_t>(
          1, table_->NumRows()));
      update_tracker_->set_universe_size(std::max<uint64_t>(
          1, table_->NumRows()));
      if (update_policy_ != nullptr) {
        update_policy_->set_n(table_->NumRows());
      }
      break;
    }
  }
  out.result = std::move(qr);
  return out;
}

void ProtectedDatabase::RecordWriteForConcurrent(
    Statement::Kind kind, uint64_t logical_rows,
    const std::vector<int64_t>& touched_keys) {
  // Mirrors the per-kind switch in ExecuteStatement (including the
  // delete path's unclamped set_n), with the caller's logical row
  // count standing in for table_->NumRows().
  switch (kind) {
    case Statement::Kind::kInsert: {
      update_tracker_->set_universe_size(logical_rows);
      if (update_policy_ != nullptr) update_policy_->set_n(logical_rows);
      for (int64_t key : touched_keys) update_tracker_->Record(key);
      break;
    }
    case Statement::Kind::kUpdate: {
      for (int64_t key : touched_keys) update_tracker_->Record(key);
      break;
    }
    case Statement::Kind::kDelete: {
      update_tracker_->set_universe_size(
          std::max<uint64_t>(1, logical_rows));
      if (update_policy_ != nullptr) update_policy_->set_n(logical_rows);
      break;
    }
    default:
      break;
  }
}

double ProtectedDatabase::DelayForAccessStats(const PopularityStats& stats,
                                              int64_t key) const {
  switch (options_.mode) {
    case DelayMode::kNone:
      return 0.0;
    case DelayMode::kAccessPopularity:
      return PopularityDelayPolicy::DelayFromStats(stats,
                                                   options_.popularity);
    case DelayMode::kUpdateRate: {
      const double window =
          std::max(1e-6, (clock_->NowMicros() - open_time_micros_) / 1e6);
      return update_policy_->DelayForWindow(key, window);
    }
    case DelayMode::kCombinedMax: {
      const double window =
          std::max(1e-6, (clock_->NowMicros() - open_time_micros_) / 1e6);
      const double access = PopularityDelayPolicy::DelayFromStats(
          stats, options_.popularity);
      const double update = update_policy_->DelayForWindow(key, window);
      // Mirror Init's combined bounds: cap = max of the two caps.
      DelayBounds bounds = options_.popularity.bounds;
      bounds.max_seconds = std::max(bounds.max_seconds,
                                    options_.update.bounds.max_seconds);
      return bounds.Apply(std::max(access, update));
    }
  }
  return 0.0;
}

Result<ProtectedResult> ProtectedDatabase::GetByKey(int64_t key,
                                                    double factor) {
  if (table_ == nullptr) {
    return Status::FailedPrecondition("protected table not created yet");
  }
  TARPIT_ASSIGN_OR_RETURN(Row row, table_->GetByKey(key));
  access_tracker_->Record(key);
  if (count_cache_ != nullptr) {
    TARPIT_RETURN_IF_ERROR(count_cache_->Add(key, 1.0));
  }
  if (update_policy_ != nullptr) {
    const double elapsed =
        std::max(1e-6, (clock_->NowMicros() - open_time_micros_) / 1e6);
    update_policy_->set_rate_window_seconds(elapsed);
  }
  ProtectedResult out;
  out.result.touched_keys.push_back(key);
  out.delay_seconds = ChargeAndServe(out.result.touched_keys, factor);
  out.result.rows.push_back(std::move(row));
  for (size_t i = 0; i < table_->schema().num_columns(); ++i) {
    out.result.columns.push_back(table_->schema().column(i).name);
  }
  return out;
}

Status ProtectedDatabase::BulkLoadRow(const Row& row) {
  if (table_ == nullptr) {
    return Status::FailedPrecondition("protected table not created yet");
  }
  TARPIT_RETURN_IF_ERROR(table_->Insert(row));
  access_tracker_->set_universe_size(table_->NumRows());
  update_tracker_->set_universe_size(table_->NumRows());
  if (update_policy_ != nullptr) {
    update_policy_->set_n(table_->NumRows());
  }
  return Status::OK();
}

std::string ProtectedDatabaseMetrics::ToString() const {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "policy=%s N=%llu requests=%llu distinct=%llu charges=%llu "
      "total_delay=%.3fs median=%.1fms p99=%.1fms "
      "count_cache{hits=%llu misses=%llu writes=%llu}",
      policy_name.c_str(),
      static_cast<unsigned long long>(universe_size),
      static_cast<unsigned long long>(total_requests),
      static_cast<unsigned long long>(distinct_keys_seen),
      static_cast<unsigned long long>(delays_charged),
      total_delay_seconds, median_delay_seconds * 1e3,
      p99_delay_seconds * 1e3,
      static_cast<unsigned long long>(count_cache_hits),
      static_cast<unsigned long long>(count_cache_misses),
      static_cast<unsigned long long>(count_cache_backing_writes));
  return buf;
}

ProtectedDatabaseMetrics ProtectedDatabase::Metrics() const {
  ProtectedDatabaseMetrics m;
  m.universe_size = access_tracker_->universe_size();
  m.total_requests = access_tracker_->total_requests();
  m.distinct_keys_seen = access_tracker_->distinct_seen();
  m.delays_charged = ledger_base_charges_ + engine_->charges();
  m.total_delay_seconds =
      ledger_base_delay_ + engine_->total_delay_seconds();
  m.median_delay_seconds = engine_->delay_sketch().Median();
  m.p99_delay_seconds = engine_->delay_sketch().Quantile(0.99);
  if (count_cache_ != nullptr) {
    m.count_cache_hits = count_cache_->hits();
    m.count_cache_misses = count_cache_->misses();
    m.count_cache_backing_writes = count_cache_->backing_writes();
  }
  m.policy_name = policy_->name();
  return m;
}

Status ProtectedDatabase::Checkpoint() {
  if (count_cache_ != nullptr) {
    TARPIT_RETURN_IF_ERROR(count_cache_->FlushAll());
  }
  TARPIT_RETURN_IF_ERROR(SnapshotDelayLedger(/*sync=*/true));
  return db_->CheckpointAll();
}

double ProtectedDatabase::ChargeAndServe(const std::vector<int64_t>& keys,
                                         double factor) {
  double total = 0.0;
  for (int64_t key : keys) total += engine_->Charge(key, factor);
  if (delay_ledger_.is_open() && options_.delay_ledger_snapshot_every > 0 &&
      engine_->charges() - ledger_last_snapshot_charges_ >=
          options_.delay_ledger_snapshot_every) {
    // Unsynced on the cadence: a crash loses at most the last window of
    // accounting; Checkpoint hardens the horizon with fdatasync.
    (void)SnapshotDelayLedger(/*sync=*/false);
  }
  // One stall per statement, rounded up once (Clock::DelayToMicros):
  // never served short, and sub-microsecond charges still cost a tick.
  if (!options_.defer_delay_sleep) clock_->SleepForSeconds(total);
  return total;
}

Status ProtectedDatabase::SnapshotDelayLedger(bool sync) {
  if (!delay_ledger_.is_open()) return Status::OK();
  const double total = ledger_base_delay_ + engine_->total_delay_seconds() +
                       external_delay_;
  const uint64_t charges =
      ledger_base_charges_ + engine_->charges() + external_charges_;
  TARPIT_RETURN_IF_ERROR(delay_ledger_.Append(total, charges, sync));
  ledger_last_snapshot_charges_ = engine_->charges();
  return Status::OK();
}

}  // namespace tarpit
