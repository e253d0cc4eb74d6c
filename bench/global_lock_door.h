#ifndef TARPIT_BENCH_GLOBAL_LOCK_DOOR_H_
#define TARPIT_BENCH_GLOBAL_LOCK_DOOR_H_

// The one-lock baseline the scaling benches compare the concurrent
// door against: the serial ProtectedDatabase behind one std::mutex, so
// every request computes under that lock. Charges are recorded but
// never slept (defer_delay_sleep), as the concurrent door does with
// serve_delays off.

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>

#include "common/clock.h"
#include "core/protected_db.h"
#include "storage/value.h"

namespace tarpit {
namespace bench {

class GlobalLockDoor {
 public:
  /// Opens the `items` database in `dir`; aborts on failure.
  GlobalLockDoor(const std::string& dir, Clock* clock,
                 ProtectedDatabaseOptions opts) {
    opts.defer_delay_sleep = true;
    auto opened = ProtectedDatabase::Open(dir, "items", clock, opts);
    if (!opened.ok()) std::abort();
    db_ = std::move(*opened);
  }

  Result<ProtectedResult> GetByKey(int64_t key) {
    std::lock_guard<std::mutex> lock(mu_);
    return db_->GetByKey(key);
  }
  Result<ProtectedResult> ExecuteSql(const std::string& sql) {
    std::lock_guard<std::mutex> lock(mu_);
    return db_->ExecuteSql(sql);
  }
  Status BulkLoadRow(const Row& row) {
    std::lock_guard<std::mutex> lock(mu_);
    return db_->BulkLoadRow(row);
  }
  Status Checkpoint() {
    std::lock_guard<std::mutex> lock(mu_);
    return db_->Checkpoint();
  }

 private:
  std::mutex mu_;
  std::unique_ptr<ProtectedDatabase> db_;
};

/// Creates the benches' `items` table through either door, bulk-loads
/// rows k = 1..rows as (k, k * 0.5) and checkpoints; aborts on failure.
template <typename Door>
void LoadItems(Door* db, int rows) {
  if (!db->ExecuteSql("CREATE TABLE items (id INT PRIMARY KEY, v DOUBLE)")
           .ok()) {
    std::abort();
  }
  for (int i = 1; i <= rows; ++i) {
    if (!db->BulkLoadRow({Value(static_cast<int64_t>(i)), Value(i * 0.5)})
             .ok()) {
      std::abort();
    }
  }
  if (!db->Checkpoint().ok()) std::abort();
}

}  // namespace bench
}  // namespace tarpit

#endif  // TARPIT_BENCH_GLOBAL_LOCK_DOOR_H_
