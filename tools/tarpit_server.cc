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
// The stack (net/stack.h) is the whole wiring: one metrics registry
// and one reputation store shared by the door and the server, so a
// hang-up mid-stall escalates the principal's later charges in the
// engine and /metrics exports the tarpit_reputation_* series.
//
// SIGINT/SIGTERM stop the server with the documented drain ordering:
// stop accepting, cancel every parked stall (charges stay on the
// books), then stop the reactors and tear down the database.

#include <charconv>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>

#include "net/stack.h"
#include "obs/metrics.h"

using namespace tarpit;

namespace {

volatile std::sig_atomic_t g_stop = 0;
void OnSignal(int) { g_stop = 1; }

// The stack's defaults are the flag defaults, except the ports: the
// daemon listens on fixed ones.
net::TarpitStackOptions DefaultOptions() {
  net::TarpitStackOptions o;
  o.server.port = 7437;
  o.server.http_port = 7438;
  return o;
}

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

bool ParseArgs(int argc, char** argv, net::TarpitStackOptions* out) {
  DelayBounds& bounds = out->database.popularity.bounds;
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
      out->server.port = static_cast<uint16_t>(n);
    } else if (const char* v = val("--http-port=")) {
      ok = ParseInt(v, 0, 65535, &n);
      out->server.http_port = static_cast<uint16_t>(n);
    } else if (const char* v = val("--loops=")) {
      ok = ParseInt(v, 1, kMaxLoops, &n);
      out->server.num_event_loops = static_cast<size_t>(n);
    } else if (const char* v = val("--rows=")) {
      ok = ParseInt(v, 0, std::numeric_limits<int>::max(), &n);
      out->rows = static_cast<int>(n);
    } else if (const char* v = val("--delay-scale=")) {
      ok = ParseSeconds(v, &out->database.popularity.scale);
    } else if (const char* v = val("--delay-min=")) {
      ok = ParseSeconds(v, &bounds.min_seconds);
    } else if (const char* v = val("--delay-max=")) {
      ok = ParseSeconds(v, &bounds.max_seconds);
    } else if (const char* v = val("--accept-delay=")) {
      ok = ParseSeconds(v, &out->server.accept_delay_seconds);
    } else if (const char* v = val("--keepalive=")) {
      ok = ParseSeconds(v, &out->server.keepalive_interval_seconds);
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
  if (bounds.max_seconds < bounds.min_seconds) {
    std::fprintf(stderr, "--delay-max=%g is below --delay-min=%g\n",
                 bounds.max_seconds, bounds.min_seconds);
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  net::TarpitStackOptions opts = DefaultOptions();
  if (!ParseArgs(argc, argv, &opts)) return 2;

  auto opened = net::TarpitStack::Open(opts);
  if (!opened.ok()) {
    std::fprintf(stderr, "open stack: %s\n",
                 opened.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<net::TarpitStack> stack = std::move(*opened);
  net::TarpitServer* server = stack->server();
  std::printf("tarpit_server listening: frames on %u, /metrics on %u "
              "(%zu event loops, %d rows, delay [%g, %g]s)\n",
              server->port(), server->http_port(),
              opts.server.num_event_loops, opts.rows,
              opts.database.popularity.bounds.min_seconds,
              opts.database.popularity.bounds.max_seconds);
  std::fflush(stdout);

  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }

  std::printf("draining: %zu active, %zu parked\n",
              server->active_connections(), server->parked_connections());
  server->Stop();
  const obs::RegistrySnapshot snap = stack->metrics().Snapshot();
  std::printf("stopped: %lld responses, %lld keepalives, %lld hangups "
              "mid-stall, peak parked %zu\n",
              static_cast<long long>(snap.Total("tarpit_net_responses_total")),
              static_cast<long long>(snap.Total("tarpit_net_keepalives_total")),
              static_cast<long long>(
                  snap.Total("tarpit_net_hangups_mid_stall_total")),
              server->peak_parked_connections());
  return 0;
}
