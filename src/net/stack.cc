#include "net/stack.h"

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <utility>

namespace tarpit {
namespace net {

namespace fs = std::filesystem;

namespace {

/// A directory name no other stack, in this process or another, uses.
std::string FreshTempDir() {
  static std::atomic<uint64_t> next{0};
  return (fs::temp_directory_path() /
          ("tarpit_stack_" + std::to_string(::getpid()) + "_" +
           std::to_string(next.fetch_add(1))))
      .string();
}

}  // namespace

TarpitStackOptions::TarpitStackOptions() {
  database.mode = DelayMode::kAccessPopularity;
  database.popularity.scale = 0.05;
  database.popularity.bounds = {0.02, 5.0};
  server.accept_delay_seconds = 0.5;
}

TarpitStack::TarpitStack(std::string dir, bool temp_dir,
                         ReputationOptions reputation)
    : dir_(std::move(dir)),
      temp_dir_(temp_dir),
      reputation_([&] {
        reputation.metrics = &metrics_;
        return reputation;
      }()) {}

TarpitStack::~TarpitStack() {
  server_.reset();  // ~TarpitServer stops and drains it first.
  db_.reset();
  if (temp_dir_) {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
}

Result<std::unique_ptr<TarpitStack>> TarpitStack::Open(
    TarpitStackOptions options) {
  if (options.database.metrics != nullptr ||
      options.door.metrics != nullptr || options.door.reputation != nullptr ||
      options.server.metrics != nullptr ||
      options.server.reputation != nullptr ||
      options.reputation.metrics != nullptr) {
    return Status::InvalidArgument(
        "TarpitStack wires its own metrics registry and reputation store");
  }
  const bool temp_dir = options.dir.empty();
  std::string dir = temp_dir ? FreshTempDir() : options.dir;
  std::error_code ec;
  if (temp_dir) fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  if (ec) return Status::IOError("create " + dir + ": " + ec.message());
  std::unique_ptr<TarpitStack> s(
      new TarpitStack(std::move(dir), temp_dir, options.reputation));

  options.door.async_stalls = true;
  options.door.metrics = &s->metrics_;
  options.door.reputation = &s->reputation_;
  TARPIT_ASSIGN_OR_RETURN(
      s->db_, ConcurrentProtectedDatabase::Open(s->dir_, "items", &s->clock_,
                                                options.database,
                                                options.door));
  auto created =
      s->db_->ExecuteSql("CREATE TABLE items (id INT PRIMARY KEY, v DOUBLE)");
  if (!created.ok()) return created.status();
  for (int k = 1; k <= options.rows; ++k) {
    TARPIT_RETURN_IF_ERROR(
        s->db_->BulkLoadRow({Value(static_cast<int64_t>(k)), Value(k * 0.5)}));
  }
  TARPIT_RETURN_IF_ERROR(s->db_->Checkpoint());

  options.server.metrics = &s->metrics_;
  options.server.reputation = &s->reputation_;
  s->server_ = std::make_unique<TarpitServer>(s->db_.get(), &s->clock_,
                                              options.server);
  TARPIT_RETURN_IF_ERROR(s->server_->Start());
  return s;
}

}  // namespace net
}  // namespace tarpit
