// Network front-end capacity: park 100k+ stalled CONNECTIONS on idle
// fds at a fixed event-loop thread budget, prove the network path adds
// bounded overhead, and show the wire changes nothing about accounting.
//
// Three phases against real sockets (ISSUE 10 acceptance):
//
//   1. capacity -- a LoadClient opens as many connections as the fd
//      budget allows (source-IP rotation across 127.0.x.y widens the
//      4-tuple space past one address's ephemeral ports), each sends
//      one request against a database whose every read stalls 300s, and
//      the server parks them ALL on <= 8 event loops. Peak
//      tarpit_net_parked_connections (registry gauge + server counter)
//      must equal the attempted population. The 100k+ claim holds
//      wherever RLIMIT_NOFILE grants the fds; a capped container runs
//      the same proof at the largest population its limit admits and
//      reports fd_limited=true in the JSON rather than faking the
//      number (client + server share one process: 2 fds per
//      connection).
//
//   2. overhead -- open-loop p50 (bench/openloop.h: latency from the
//      INTENDED exponential send time, coordinated-omission-free) of
//      undelayed point reads over the wire vs. the in-process async
//      door. Both paths take the same door, where a zero charge
//      completes on the calling thread, so the ratio isolates what the
//      network adds: frame/epoll/read/write and the client's wakeup.
//      Bar: <= 2x (4x tiny: CI boxes share cores and the absolute
//      numbers are sub-millisecond).
//
//   3. drift -- a serial client replays a Zipf stream with every 8th
//      request issued from a throwaway connection that HANGS UP
//      mid-stall (the park is cancelled, the charge must not be); the
//      database's charged-delay total must match a serial CountTracker
//      oracle replaying the identical key order within 0.01%.
//
// Env: TARPIT_BENCH_TINY=1 shrinks populations for CI smoke runs;
// TARPIT_BENCH_JSON=<path> emits BENCH_net.json for the CI gate.

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/concurrent_db.h"
#include "core/popularity_delay.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/load_client.h"
#include "net/server.h"
#include "net/stack.h"
#include "net/socket.h"
#include "obs/exposition.h"
#include "obs/metrics.h"
#include "openloop.h"
#include "stats/count_tracker.h"
#include "workload/key_generator.h"

using namespace tarpit;

namespace {

namespace fs = std::filesystem;

bool TinyConfig() {
  const char* env = std::getenv("TARPIT_BENCH_TINY");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

constexpr int kRows = 1024;
constexpr size_t kEventLoops = 8;  // The fixed thread budget under test.

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The stack's options for one phase: `dir` holds the database, and
/// `stall_lo`/`stall_hi` clamp every read's delay (beta=0 popularity
/// => the clamp IS the delay); {0, 0} means no delay at all (kNone).
net::TarpitStackOptions StackOptions(const fs::path& dir, double stall_lo,
                                     double stall_hi, double beta,
                                     double scale) {
  net::TarpitStackOptions o;
  o.dir = dir.string();
  o.rows = kRows;
  o.database.mode =
      stall_hi > 0 ? DelayMode::kAccessPopularity : DelayMode::kNone;
  o.database.popularity.beta = beta;
  o.database.popularity.scale = scale;
  o.database.popularity.bounds = {stall_lo, stall_hi};
  o.server.num_event_loops = kEventLoops;
  o.server.enable_http = false;
  return o;
}

std::unique_ptr<net::TarpitStack> Serve(net::TarpitStackOptions options) {
  auto opened = net::TarpitStack::Open(std::move(options));
  if (!opened.ok()) std::abort();
  return std::move(*opened);
}

// ---- Phase 1: parked-connection capacity. ---------------------------

struct CapacityResult {
  size_t requested = 0;   // What we would attempt with unlimited fds.
  size_t target = 0;      // What the fd budget admitted.
  size_t fd_limit = 0;    // Effective RLIMIT_NOFILE after the raise.
  bool fd_limited = false;
  size_t connected = 0;
  size_t parked_peak = 0;        // Server-side high-water mark.
  int64_t parked_gauge_peak = 0; // tarpit_net_parked_connections_peak.
  double fill_seconds = 0;       // First connect -> all parked.
  double stop_seconds = 0;       // Stop() with everything parked.
  bool pass = false;
  std::string registry_json;
};

CapacityResult RunCapacity(const fs::path& dir, size_t requested) {
  CapacityResult res;
  res.requested = requested;
  // Client + server live in one process: 2 fds per connection, plus
  // slack for the db, epoll instances, eventfds, and the listener.
  constexpr size_t kSlack = 2048;
  res.fd_limit = net::TryRaiseNofileLimit(2 * requested + kSlack);
  res.target = std::min(requested, (res.fd_limit - kSlack) / 2);
  res.fd_limited = res.target < requested;

  // Every read stalls 300s: nothing un-parks while we count.
  net::TarpitStackOptions sopts =
      StackOptions(dir, 300.0, 300.0, /*beta=*/0.0, /*scale=*/300.0);
  // No keep-alives: 100k pending 1-byte writes per interval would
  // measure the write path, not parking.
  sopts.server.keepalive_interval_seconds = 0;
  sopts.server.read_timeout_seconds = 300.0;
  const std::unique_ptr<net::TarpitStack> stack = Serve(sopts);
  net::TarpitServer* server = stack->server();
  const obs::MetricRegistry& metrics = stack->metrics();

  net::LoadClientOptions lopts;
  lopts.port = server->port();
  lopts.connections = res.target;
  lopts.connect_burst = 256;
  lopts.key_min = 1;
  lopts.key_max = kRows;
  // ~28k ephemeral ports per source address; rotate enough to never be
  // the binding constraint.
  lopts.source_ips = res.target / 16000 + 1;
  net::LoadClient load(lopts);
  if (!load.Init().ok()) std::abort();

  const double t0 = NowSeconds();
  // Drive until every connection is parked server-side (responses are
  // 300s away; anything completing early would be a served stall).
  while (NowSeconds() - t0 < 120.0) {
    load.Drive(200);
    if (load.done() &&
        server->parked_connections() + load.errors() >= res.target) {
      break;
    }
  }
  res.fill_seconds = NowSeconds() - t0;
  res.connected = load.connected();
  res.parked_peak = server->peak_parked_connections();
  if (const obs::MetricSnapshot* peak =
          metrics.Snapshot().Find("tarpit_net_parked_connections_peak")) {
    res.parked_gauge_peak = peak->value;
  }
  res.registry_json = obs::ToJson(metrics.Snapshot());

  // Orderly drain with the full population parked: Stop() cancels
  // every park (charges stay), joins the loops, leaks nothing.
  const double t1 = NowSeconds();
  server->Stop();
  res.stop_seconds = NowSeconds() - t1;
  load.CloseAll();

  // Pass: every attempted connection was parked CONCURRENTLY, the
  // registry gauge agrees, and the population met the 100k bar unless
  // the container's fd limit made that physically impossible.
  res.pass = res.parked_peak >= res.target &&
             static_cast<size_t>(res.parked_gauge_peak) >= res.target &&
             res.target > 0;
  return res;
}

// ---- Phase 2: network vs in-process p50 on undelayed reads. ---------

/// In-process op: the async door, awaited synchronously. A zero charge
/// completes inside the door call, exactly like the server-side path
/// -- the comparison isolates the network.
bench::OpenLoopStats RunInprocOpenLoop(const fs::path& dir,
                                       const bench::OpenLoopOptions& oopts) {
  const std::unique_ptr<net::TarpitStack> stack =
      Serve(StackOptions(dir, 0.0, 0.0, 0.0, 0.0));
  auto* db = stack->db();
  return bench::RunOpenLoop(oopts, [db](int t, int i) {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    db->GetByKeyAsync(1 + (t * 7919 + i) % kRows,
                      [&](Result<ProtectedResult> r) {
                        if (!r.ok()) std::abort();
                        std::lock_guard<std::mutex> lock(mu);
                        done = true;
                        cv.notify_one();
                      });
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return done; });
  });
}

bench::OpenLoopStats RunNetworkOpenLoop(const fs::path& dir,
                                        const bench::OpenLoopOptions& oopts) {
  const std::unique_ptr<net::TarpitStack> stack =
      Serve(StackOptions(dir, 0.0, 0.0, 0.0, 0.0));
  std::vector<std::unique_ptr<net::FrameClient>> clients;
  for (int t = 0; t < oopts.threads; ++t) {
    clients.push_back(std::make_unique<net::FrameClient>());
    if (!clients.back()->Connect("127.0.0.1", stack->server()->port()).ok()) {
      std::abort();
    }
  }
  auto stats = bench::RunOpenLoop(oopts, [&](int t, int i) {
    auto r = clients[t]->GetByKey(1 + (t * 7919 + i) % kRows);
    if (!r.ok()) std::abort();
  });
  for (auto& c : clients) c->Close();
  return stats;
}

// ---- Phase 3: charged-delay drift with mid-stall hangups. -----------

struct DriftResult {
  size_t ops = 0;
  size_t probes = 0;              // Hangup-mid-stall connections.
  uint64_t hangups_seen = 0;      // Server-attributed mid-stall closes.
  double oracle_delay = 0;
  double measured_delay = 0;
  double drift = 1.0;
  bool pass = false;
};

DriftResult RunDrift(const fs::path& dir, int ops) {
  DriftResult res;
  ProtectedDatabaseOptions oracle_opts;
  oracle_opts.popularity.beta = 0.3;
  oracle_opts.popularity.scale = 0.004;
  oracle_opts.popularity.bounds = {0.002, 0.05};
  oracle_opts.decay_per_request = 1.0;

  net::TarpitStackOptions sopts = StackOptions(
      dir, oracle_opts.popularity.bounds.min_seconds,
      oracle_opts.popularity.bounds.max_seconds, oracle_opts.popularity.beta,
      oracle_opts.popularity.scale);
  sopts.server.keepalive_interval_seconds = 0.02;
  // kGlobalLock: stripe-local popularity stats diverge from a serial
  // replay (each stripe sees 1/Nth of the traffic); the global-lock
  // path is the exact-accounting baseline the oracle models.
  sopts.door.mode = ConcurrencyMode::kGlobalLock;
  const std::unique_ptr<net::TarpitStack> stack = Serve(sopts);
  auto* db = stack->db();
  const uint16_t port = stack->server()->port();

  Rng rng(0xD21F7u);
  ZipfKeyGenerator gen(kRows, 1.1);
  std::vector<int64_t> seq;
  seq.reserve(ops);
  for (int i = 0; i < ops; ++i) seq.push_back(gen.Next(&rng));

  // Baseline AFTER setup: DDL/seeding record their own (zero-delay)
  // charges.
  const double charged_before = db->Metrics().total_delay_seconds;
  const uint64_t count_before = db->Metrics().delays_charged;

  net::FrameClient main_conn;
  if (!main_conn.Connect("127.0.0.1", port).ok()) {
    std::abort();
  }
  uint64_t charges_seen = count_before;
  for (int i = 0; i < ops; ++i) {
    if (i % 8 == 7) {
      // Probe: trigger the stall from a fresh connection, confirm the
      // charge landed (the in-process ledger is visible to the bench),
      // then hang up with the park still pending. The charge must
      // survive the cancellation.
      ++res.probes;
      net::FrameClient probe;
      if (!probe.Connect("127.0.0.1", port).ok()) {
        std::abort();
      }
      if (!probe.SendFrame(net::FrameType::kGetKey,
                           net::GetKeyPayload(seq[i]))
               .ok()) {
        std::abort();
      }
      const double t0 = NowSeconds();
      while (db->Metrics().delays_charged <= charges_seen &&
             NowSeconds() - t0 < 5.0) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      if (db->Metrics().delays_charged <= charges_seen) std::abort();
      probe.Close();  // Mid-stall hangup; the 2-50ms park is pending.
    } else {
      auto r = main_conn.GetByKey(seq[i]);
      if (!r.ok() || r->status_code != 0) std::abort();
    }
    charges_seen = db->Metrics().delays_charged;
  }

  // Serial oracle: one CountTracker replaying the identical key order
  // (mains and probes alike -- a hangup changes WHERE the stall ends,
  // never what was charged).
  CountTracker tracker(kRows, oracle_opts.decay_per_request);
  for (int64_t key : seq) {
    tracker.Record(key);
    res.oracle_delay += PopularityDelayPolicy::DelayFromStats(
        tracker.Stats(key), oracle_opts.popularity);
  }
  res.ops = static_cast<size_t>(ops);
  res.measured_delay = db->Metrics().total_delay_seconds - charged_before;
  res.hangups_seen = static_cast<uint64_t>(
      stack->metrics().Snapshot().Total("tarpit_net_hangups_mid_stall_total"));
  res.drift = res.oracle_delay <= 0
                  ? 1.0
                  : std::fabs(res.measured_delay - res.oracle_delay) /
                        res.oracle_delay;
  res.pass = res.drift <= 1e-4;
  main_conn.Close();
  return res;
}

}  // namespace

int main() {
  const bool tiny = TinyConfig();
  const size_t capacity_requested = tiny ? 2000 : 110000;
  const int drift_ops = tiny ? 160 : 1200;

  const fs::path base = fs::temp_directory_path() / "tarpit_bench_net";
  fs::remove_all(base);
  fs::create_directories(base);

  std::printf("# Network front end: parked-connection capacity, wire "
              "overhead, accounting drift\n");
  std::printf("# event_loops=%zu capacity_requested=%zu drift_ops=%d%s\n\n",
              kEventLoops, capacity_requested, drift_ops,
              tiny ? " (tiny)" : "");

  // -- Phase 1 --------------------------------------------------------
  const CapacityResult cap = RunCapacity(base / "capacity",
                                         capacity_requested);
  std::printf("capacity: fd_limit=%zu -> target %zu (requested %zu%s)\n",
              cap.fd_limit, cap.target, cap.requested,
              cap.fd_limited ? ", fd-limited" : "");
  std::printf("capacity: %zu connected, parked peak %zu (gauge %lld) on "
              "%zu loops; fill %.2fs, stop %.2fs -> %s\n",
              cap.connected, cap.parked_peak,
              static_cast<long long>(cap.parked_gauge_peak), kEventLoops,
              cap.fill_seconds, cap.stop_seconds,
              cap.pass ? "PASS" : "FAIL");

  // -- Phase 2 --------------------------------------------------------
  bench::OpenLoopOptions oopts;
  oopts.threads = 2;
  oopts.ops_per_thread = tiny ? 250 : 1500;
  oopts.mean_interarrival_us = 2000.0;
  const bench::OpenLoopStats inproc =
      RunInprocOpenLoop(base / "inproc", oopts);
  const bench::OpenLoopStats wire =
      RunNetworkOpenLoop(base / "wire", oopts);
  const double overhead_target = tiny ? 4.0 : 2.0;
  const double overhead =
      inproc.p50_us <= 0 ? 0.0 : wire.p50_us / inproc.p50_us;
  const bool overhead_pass = overhead > 0 && overhead <= overhead_target;
  std::printf("overhead: in-process p50 %.0fus p99 %.0fus | network p50 "
              "%.0fus p99 %.0fus p999 %.0fus -> p50 ratio %.2fx "
              "(target <= %.1fx) %s\n",
              inproc.p50_us, inproc.p99_us, wire.p50_us, wire.p99_us,
              wire.p999_us, overhead, overhead_target,
              overhead_pass ? "PASS" : "FAIL");
  const bool inproc_floor_pass = bench::HarnessFloorOk(inproc);
  const bool wire_floor_pass = bench::HarnessFloorOk(wire);
  const bool floor_pass = inproc_floor_pass && wire_floor_pass;

  // -- Phase 3 --------------------------------------------------------
  const DriftResult drift = RunDrift(base / "drift", drift_ops);
  std::printf("drift: %zu ops (%zu hangup probes, %llu attributed "
              "mid-stall), charged %.6fs vs oracle %.6fs -> %.5f%% "
              "(target <= 0.01%%) %s\n",
              drift.ops, drift.probes,
              static_cast<unsigned long long>(drift.hangups_seen),
              drift.measured_delay, drift.oracle_delay,
              100.0 * drift.drift, drift.pass ? "PASS" : "FAIL");

  if (const char* json_path = std::getenv("TARPIT_BENCH_JSON")) {
    if (json_path[0] != '\0') {
      if (std::FILE* f = std::fopen(json_path, "w")) {
        std::fprintf(
            f,
            "{\n"
            "  \"bench\": \"net_capacity\",\n"
            "  \"tiny\": %s,\n"
            "  \"event_loops\": %zu,\n"
            "  \"capacity_requested\": %zu,\n"
            "  \"capacity_target\": %zu,\n"
            "  \"fd_limit\": %zu,\n"
            "  \"fd_limited\": %s,\n"
            "  \"connected\": %zu,\n"
            "  \"parked_peak\": %zu,\n"
            "  \"parked_gauge_peak\": %lld,\n"
            "  \"fill_seconds\": %.3f,\n"
            "  \"stop_seconds\": %.3f,\n"
            "  \"capacity_pass\": %s,\n"
            "  \"inproc_p50_us\": %.1f,\n"
            "  \"inproc_p99_us\": %.1f,\n"
            "  \"inproc_p999_us\": %.1f,\n"
            "  \"inproc_harness_floor_p50_us\": %.2f,\n"
            "  \"inproc_harness_floor_p99_us\": %.2f,\n"
            "%s"
            "  \"overhead_ratio_p50\": %.4f,\n"
            "  \"overhead_target\": %.1f,\n"
            "  \"overhead_pass\": %s,\n"
            "  \"drift_ops\": %zu,\n"
            "  \"drift_probes\": %zu,\n"
            "  \"hangups_mid_stall\": %llu,\n"
            "  \"oracle_delay_s\": %.9f,\n"
            "  \"measured_delay_s\": %.9f,\n"
            "  \"drift\": %.9f,\n"
            "  \"drift_pass\": %s,\n"
            "  \"registry\": %s\n"
            "}\n",
            tiny ? "true" : "false", kEventLoops, cap.requested,
            cap.target, cap.fd_limit, cap.fd_limited ? "true" : "false",
            cap.connected, cap.parked_peak,
            static_cast<long long>(cap.parked_gauge_peak),
            cap.fill_seconds, cap.stop_seconds,
            cap.pass ? "true" : "false", inproc.p50_us, inproc.p99_us,
            inproc.p999_us, inproc.floor_p50_us, inproc.floor_p99_us,
            bench::OpenLoopJsonFields(wire).c_str(),
            overhead, overhead_target, overhead_pass ? "true" : "false",
            drift.ops, drift.probes,
            static_cast<unsigned long long>(drift.hangups_seen),
            drift.oracle_delay, drift.measured_delay, drift.drift,
            drift.pass ? "true" : "false", cap.registry_json.c_str());
        std::fclose(f);
        std::printf("json written to %s\n", json_path);
      }
    }
  }

  fs::remove_all(base);
  return (cap.pass && overhead_pass && drift.pass && floor_pass) ? 0 : 1;
}
