#ifndef TARPIT_SQL_PLAN_CACHE_H_
#define TARPIT_SQL_PLAN_CACHE_H_

#include <array>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/result.h"
#include "obs/metrics.h"
#include "sql/ast.h"
#include "sql/planner.h"
#include "storage/database.h"

namespace tarpit {

/// One cached compilation: the parsed statement plus, for SELECTs whose
/// table existed at compile time, the planner's access decision. The
/// entry is immutable after construction and shared by pointer, so a
/// reader can keep executing against it even after the cache evicts or
/// replaces it.
struct PreparedStatement {
  Statement stmt;
  /// Database::schema_version() observed BEFORE parsing. Any DDL that
  /// lands after this read bumps the version, so a stale plan can never
  /// be served: the version check on lookup fails closed.
  uint64_t schema_version = 0;
  /// True when `select_plan` holds a valid plan for stmt.select.
  bool has_select_plan = false;
  AccessPlan select_plan;
};

/// LRU cache from statement text to compiled form, so repeated point
/// lookups skip lexer -> parser -> planner entirely. Striped 8 ways:
/// each stripe has its own mutex, recency list, and capacity share, so
/// concurrent lookups of different statements rarely contend.
///
/// Correctness relies on two rules:
///   1. Every entry is stamped with the schema version read before its
///      parse began; Get() treats a version mismatch as a miss and
///      recompiles. DDL bumps the version (Database::BumpSchemaVersion),
///      making all older entries unservable at once.
///   2. Callers that execute DDL should additionally call Invalidate()
///      to reclaim the dead entries eagerly; this is an optimization,
///      not a correctness requirement.
class PlanCache {
 public:
  /// `capacity` is the total entry budget across all stripes (minimum
  /// one per stripe). `db` is borrowed and must outlive the cache; it
  /// supplies the schema version and table metadata for planning.
  PlanCache(size_t capacity, Database* db);

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Returns the compiled form of `sql`, compiling and caching it on
  /// miss. Parse errors are returned (and not cached: error caching
  /// would let an attacker pin the cache with garbage).
  Result<std::shared_ptr<const PreparedStatement>> Get(
      const std::string& sql);

  /// Drops every entry. Call after DDL.
  void Invalidate();

  /// Counts hits, misses and evictions in `m` under
  /// tarpit_plan_cache_{hits,misses,evictions}_total (unbound: not
  /// counted).
  void BindMetrics(obs::MetricRegistry* m, const obs::Labels& labels);

  size_t size() const;

 private:
  static constexpr size_t kStripes = 8;

  struct Entry {
    std::shared_ptr<const PreparedStatement> prepared;
    std::list<std::string>::iterator lru_it;
  };

  struct alignas(64) Stripe {
    mutable std::mutex mu;
    /// Front = most recently used. Values are the map keys.
    std::list<std::string> lru;
    std::unordered_map<std::string, Entry> map;
  };

  Stripe& StripeFor(const std::string& sql);

  /// Parses `sql` and plans it when it is a SELECT over an existing
  /// table. No cache locks held: compilation can be slow.
  Result<std::shared_ptr<const PreparedStatement>> Compile(
      const std::string& sql);

  const size_t per_stripe_capacity_;
  Database* const db_;
  std::array<Stripe, kStripes> stripes_;

  obs::Counter* m_hits_ = nullptr;
  obs::Counter* m_misses_ = nullptr;
  obs::Counter* m_evictions_ = nullptr;
};

}  // namespace tarpit

#endif  // TARPIT_SQL_PLAN_CACHE_H_
