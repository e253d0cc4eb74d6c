#include "sql/plan_cache.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "sql/parser.h"

namespace tarpit {

namespace {

/// Same probe the executor uses: a secondary lookup is only plannable
/// when the column actually has an index.
std::function<bool(const std::string&)> IndexProbeFor(Table* table) {
  return [table](const std::string& column) {
    Result<size_t> idx = table->schema().ColumnIndex(column);
    return idx.ok() && table->HasSecondaryIndex(*idx);
  };
}

}  // namespace

PlanCache::PlanCache(size_t capacity, Database* db)
    : per_stripe_capacity_(std::max<size_t>(1, capacity / kStripes)),
      db_(db) {}

PlanCache::Stripe& PlanCache::StripeFor(const std::string& sql) {
  return stripes_[std::hash<std::string>{}(sql) % kStripes];
}

Result<std::shared_ptr<const PreparedStatement>> PlanCache::Get(
    const std::string& sql) {
  Stripe& stripe = StripeFor(sql);
  const uint64_t current_version = db_->schema_version();
  {
    std::lock_guard<std::mutex> lock(stripe.mu);
    auto it = stripe.map.find(sql);
    if (it != stripe.map.end()) {
      if (it->second.prepared->schema_version == current_version) {
        stripe.lru.splice(stripe.lru.begin(), stripe.lru,
                          it->second.lru_it);
        if (m_hits_ != nullptr) m_hits_->Increment();
        return it->second.prepared;
      }
      // Stale: compiled against an older schema. Drop it and recompile
      // below; counts as a miss, not an eviction.
      stripe.lru.erase(it->second.lru_it);
      stripe.map.erase(it);
    }
  }
  if (m_misses_ != nullptr) m_misses_->Increment();

  // Compile outside the stripe lock; parsing and planning are the slow
  // path and must not serialize hits on other statements.
  TARPIT_ASSIGN_OR_RETURN(std::shared_ptr<const PreparedStatement> prepared,
                          Compile(sql));

  std::lock_guard<std::mutex> lock(stripe.mu);
  auto it = stripe.map.find(sql);
  if (it != stripe.map.end()) {
    // A concurrent Get() compiled the same text while we were parsing.
    // Keep theirs if it is current (preserves pointer identity for
    // back-to-back callers); otherwise replace in place.
    if (it->second.prepared->schema_version >= prepared->schema_version) {
      stripe.lru.splice(stripe.lru.begin(), stripe.lru, it->second.lru_it);
      return it->second.prepared;
    }
    it->second.prepared = std::move(prepared);
    stripe.lru.splice(stripe.lru.begin(), stripe.lru, it->second.lru_it);
    return it->second.prepared;
  }
  stripe.lru.push_front(sql);
  stripe.map.emplace(sql, Entry{prepared, stripe.lru.begin()});
  while (stripe.map.size() > per_stripe_capacity_) {
    const std::string& victim = stripe.lru.back();
    stripe.map.erase(victim);
    stripe.lru.pop_back();
    if (m_evictions_ != nullptr) m_evictions_->Increment();
  }
  return prepared;
}

Result<std::shared_ptr<const PreparedStatement>> PlanCache::Compile(
    const std::string& sql) {
  auto prepared = std::make_shared<PreparedStatement>();
  // Read the version BEFORE parsing: if DDL lands mid-compile the entry
  // is already stamped too old and the next Get() recompiles.
  prepared->schema_version = db_->schema_version();
  TARPIT_ASSIGN_OR_RETURN(prepared->stmt, Parser::Parse(sql));
  if (prepared->stmt.kind == Statement::Kind::kSelect &&
      !prepared->stmt.explain) {
    Result<Table*> table = db_->GetTable(prepared->stmt.select.table);
    if (table.ok()) {
      const std::string& pk_name =
          (*table)->schema().column((*table)->pk_column()).name;
      prepared->select_plan =
          PlanAccess(prepared->stmt.select.where.get(), pk_name,
                     IndexProbeFor(*table));
      prepared->has_select_plan = true;
    }
    // Unknown table: cache the parse anyway; execution reports the
    // real error and the planner runs fresh if the table appears later
    // (the CREATE TABLE bumps the version, invalidating this entry).
  }
  return std::shared_ptr<const PreparedStatement>(std::move(prepared));
}

void PlanCache::Invalidate() {
  for (Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mu);
    stripe.map.clear();
    stripe.lru.clear();
  }
}

void PlanCache::BindMetrics(obs::MetricRegistry* m,
                            const obs::Labels& labels) {
  m_hits_ = m->GetCounter("tarpit_plan_cache_hits_total", labels);
  m_misses_ = m->GetCounter("tarpit_plan_cache_misses_total", labels);
  m_evictions_ = m->GetCounter("tarpit_plan_cache_evictions_total", labels);
}

size_t PlanCache::size() const {
  size_t total = 0;
  for (const Stripe& s : stripes_) {
    std::lock_guard<std::mutex> lock(s.mu);
    total += s.map.size();
  }
  return total;
}

}  // namespace tarpit
