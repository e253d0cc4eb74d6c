#include "stack.h"

#include <filesystem>
#include <utility>

#include "harness.h"

namespace perfbench {

namespace fs = std::filesystem;
using tarpit::Status;

namespace {

tarpit::ReputationOptions ReputationWith(tarpit::obs::MetricRegistry* r) {
  tarpit::ReputationOptions o;
  o.metrics = r;
  return o;
}

}  // namespace

Stack::Stack(std::string dir, StackConfig config)
    : dir_(std::move(dir)),
      config_(config),
      reputation_(ReputationWith(&registry_)) {
  policy_.scale = 0.05;
  policy_.bounds = config_.wire ? tarpit::DelayBounds{0.0, 0.0}
                                : tarpit::DelayBounds{0.02, 5.0};
}

Stack::~Stack() {
  if (server_ != nullptr) server_->Stop();  // Drain before the database.
  server_.reset();
  db_.reset();
  std::error_code ec;
  fs::remove_all(dir_, ec);
}

tarpit::Result<std::unique_ptr<Stack>> Stack::Open(const std::string& dir,
                                                   const StackConfig& config) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  if (ec) return Status::IOError("create " + dir + ": " + ec.message());
  std::unique_ptr<Stack> s(new Stack(dir, config));

  tarpit::ProtectedDatabaseOptions dopts;
  dopts.mode = tarpit::DelayMode::kAccessPopularity;
  dopts.popularity = s->policy_;
  dopts.table_options.wal_enabled = true;
  dopts.table_options.wal_sync = false;  // The flush policy: unsynced WAL.
  dopts.metrics = &s->registry_;
  tarpit::ConcurrentDatabaseOptions copts;
  copts.async_stalls = true;
  copts.metrics = &s->registry_;
  copts.reputation = &s->reputation_;
  auto opened = tarpit::ConcurrentProtectedDatabase::Open(
      dir, "items", &s->clock_, dopts, copts);
  if (!opened.ok()) return opened.status();
  s->db_ = std::move(*opened);

  auto created =
      s->db_->ExecuteSql("CREATE TABLE items (id INT PRIMARY KEY, v DOUBLE)");
  if (!created.ok()) return created.status();
  for (uint64_t k = 1; k <= config.rows; ++k) {
    const auto key = static_cast<int64_t>(k);
    Status st = s->db_->BulkLoadRow(
        {tarpit::Value(key), tarpit::Value(OutputChecker::LoadedValue(key))});
    if (!st.ok()) return st;
  }
  Status st = s->db_->Checkpoint();
  if (!st.ok()) return st;

  if (config.wire) {
    tarpit::net::TarpitServerOptions sopts;
    sopts.host = "127.0.0.1";
    sopts.enable_http = false;
    sopts.num_event_loops = 4;
    sopts.reputation = &s->reputation_;
    sopts.metrics = &s->registry_;
    s->server_ = std::make_unique<tarpit::net::TarpitServer>(
        s->db_.get(), &s->clock_, sopts);
    st = s->server_->Start();
    if (!st.ok()) return st;
  }
  return s;
}

}  // namespace perfbench
