// tarpit_server: stand up the epoll network front end over a
// delay-protected database and serve the length-prefixed frame
// protocol plus Prometheus /metrics over HTTP -- the daemon face of
// the library, and the binary the network benches and manual poking
// (tarpit_bench_client, curl) talk to.
//
// The served database is self-seeded: a single `items` table of
// --rows point-readable rows under access-popularity delay, so every
// kGetKey/kQuery response is stalled per the paper's policy while the
// connection parks on the DelayScheduler.
//
// Usage:
//   tarpit_server [--port=N] [--http-port=N] [--loops=N] [--rows=N]
//                 [--delay-scale=S] [--delay-min=S] [--delay-max=S]
//                 [--accept-delay=S] [--keepalive=S] [--dir=PATH]
//
//   --port          frame-protocol port (default 7437; 0 = ephemeral).
//   --http-port     /metrics HTTP port (default 7438; 0 = ephemeral).
//   --loops         event-loop (reactor) threads, 1-1024 (default 4).
//   --rows          seeded table size (default 4096).
//   --delay-scale   popularity delay scale in seconds (default 0.05).
//   --delay-min/max delay clamp bounds in seconds (default 0.02/5.0).
//   --accept-delay  delay-before-serve base for low-reputation
//                   principals, seconds (default 0.5; 0 disables).
//   --keepalive     kProgress keep-alive interval, seconds (default 5).
//   --dir           database directory (default: fresh temp dir).
//
// Every value must parse in full: ports lie in 0-65535, durations are
// finite and >= 0, and --delay-max is at least --delay-min. A bad flag
// prints a message and exits 2 before anything is opened.
//
// SIGINT/SIGTERM stop the server with the documented drain ordering:
// stop accepting, cancel every parked stall (charges stay on the
// books), then stop the reactors and tear down the database.

#include <charconv>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <thread>

#include "common/clock.h"
#include "core/concurrent_db.h"
#include "defense/reputation.h"
#include "net/server.h"
#include "obs/metrics.h"

using namespace tarpit;

namespace {

namespace fs = std::filesystem;

volatile std::sig_atomic_t g_stop = 0;
void OnSignal(int) { g_stop = 1; }

struct Args {
  uint16_t port = 7437;
  uint16_t http_port = 7438;
  size_t loops = 4;
  int rows = 4096;
  double delay_scale = 0.05;
  double delay_min = 0.02;
  double delay_max = 5.0;
  double accept_delay = 0.5;
  double keepalive = 5.0;
  std::string dir;
};

// Upper bound on --loops: each loop is a reactor thread.
constexpr long long kMaxLoops = 1024;

// Parses the whole of `s` as a decimal integer in [lo, hi].
bool ParseInt(const char* s, long long lo, long long hi, long long* out) {
  const char* end = s + std::strlen(s);
  long long v = 0;
  auto [p, ec] = std::from_chars(s, end, v);
  if (ec != std::errc() || p != end || v < lo || v > hi) return false;
  *out = v;
  return true;
}

// Parses the whole of `s` as a finite, non-negative number of seconds.
bool ParseSeconds(const char* s, double* out) {
  const char* end = s + std::strlen(s);
  double v = 0;
  auto [p, ec] = std::from_chars(s, end, v);
  if (ec != std::errc() || p != end || !std::isfinite(v) || v < 0) {
    return false;
  }
  *out = v;
  return true;
}

bool ParseArgs(int argc, char** argv, Args* out) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto val = [&](const char* prefix) -> const char* {
      const size_t n = std::strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    long long n = 0;
    bool ok = true;
    if (const char* v = val("--port=")) {
      ok = ParseInt(v, 0, 65535, &n);
      out->port = static_cast<uint16_t>(n);
    } else if (const char* v = val("--http-port=")) {
      ok = ParseInt(v, 0, 65535, &n);
      out->http_port = static_cast<uint16_t>(n);
    } else if (const char* v = val("--loops=")) {
      ok = ParseInt(v, 1, kMaxLoops, &n);
      out->loops = static_cast<size_t>(n);
    } else if (const char* v = val("--rows=")) {
      ok = ParseInt(v, 0, std::numeric_limits<int>::max(), &n);
      out->rows = static_cast<int>(n);
    } else if (const char* v = val("--delay-scale=")) {
      ok = ParseSeconds(v, &out->delay_scale);
    } else if (const char* v = val("--delay-min=")) {
      ok = ParseSeconds(v, &out->delay_min);
    } else if (const char* v = val("--delay-max=")) {
      ok = ParseSeconds(v, &out->delay_max);
    } else if (const char* v = val("--accept-delay=")) {
      ok = ParseSeconds(v, &out->accept_delay);
    } else if (const char* v = val("--keepalive=")) {
      ok = ParseSeconds(v, &out->keepalive);
    } else if (const char* v = val("--dir=")) {
      out->dir = v;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return false;
    }
    if (!ok) {
      std::fprintf(stderr, "invalid value: %s\n", arg.c_str());
      return false;
    }
  }
  if (out->delay_max < out->delay_min) {
    std::fprintf(stderr, "--delay-max=%g is below --delay-min=%g\n",
                 out->delay_max, out->delay_min);
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;

  const bool temp_dir = args.dir.empty();
  if (temp_dir) {
    args.dir = (fs::temp_directory_path() / "tarpit_server_db").string();
    fs::remove_all(args.dir);
  }
  fs::create_directories(args.dir);

  RealClock clock;
  obs::MetricRegistry metrics;
  ReputationStore reputation;

  ProtectedDatabaseOptions dopts;
  dopts.mode = DelayMode::kAccessPopularity;
  dopts.popularity.scale = args.delay_scale;
  dopts.popularity.bounds = {args.delay_min, args.delay_max};
  ConcurrentDatabaseOptions copts;
  copts.serve_delays = true;
  copts.async_stalls = true;
  copts.metrics = &metrics;
  auto opened = ConcurrentProtectedDatabase::Open(
      args.dir, "items", &clock, dopts, copts);
  if (!opened.ok()) {
    std::fprintf(stderr, "open database: %s\n",
                 opened.status().ToString().c_str());
    return 1;
  }
  auto db = std::move(*opened);
  auto st =
      db->ExecuteSql("CREATE TABLE items (id INT PRIMARY KEY, v DOUBLE)");
  if (!st.ok()) {
    std::fprintf(stderr, "seed schema: %s\n", st.status().ToString().c_str());
    return 1;
  }
  for (int i = 1; i <= args.rows; ++i) {
    if (!db->BulkLoadRow({Value(static_cast<int64_t>(i)), Value(i * 0.5)})
             .ok()) {
      std::fprintf(stderr, "seed row %d failed\n", i);
      return 1;
    }
  }

  net::TarpitServerOptions sopts;
  sopts.port = args.port;
  sopts.http_port = args.http_port;
  sopts.num_event_loops = args.loops;
  sopts.keepalive_interval_seconds = args.keepalive;
  sopts.accept_delay_seconds = args.accept_delay;
  sopts.reputation = &reputation;
  sopts.metrics = &metrics;
  net::TarpitServer server(db.get(), &clock, sopts);
  Status s = server.Start();
  if (!s.ok()) {
    std::fprintf(stderr, "start server: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("tarpit_server listening: frames on %u, /metrics on %u "
              "(%zu event loops, %d rows, delay [%g, %g]s)\n",
              server.port(), server.http_port(), args.loops, args.rows,
              args.delay_min, args.delay_max);
  std::fflush(stdout);

  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }

  std::printf("draining: %zu active, %zu parked\n",
              server.active_connections(), server.parked_connections());
  server.Stop();  // Drain BEFORE the database (and its scheduler) dies.
  db.reset();
  if (temp_dir) fs::remove_all(args.dir);
  std::printf("stopped: %llu responses, %llu keepalives, %llu hangups "
              "mid-stall, peak parked %zu\n",
              static_cast<unsigned long long>(server.responses_sent()),
              static_cast<unsigned long long>(server.keepalives_sent()),
              static_cast<unsigned long long>(server.hangups_mid_stall()),
              server.peak_parked_connections());
  return 0;
}
