// tarpit_top: live operator console for the defense forensics layer.
//
// The registry, event ring, risk scorer and watchdog are in-process
// (this codebase is a library, not a daemon), so the console drives
// its own mixed workload -- a handful of benign Zipf readers plus one
// extraction-shaped sequential scanner, all attributed principals
// against a ConcurrentProtectedDatabase with real (small) stalls
// parked on the timer wheel -- and renders one frame per poll: parked
// stalls, charged-delay p50/p99/p999, the top principals by
// extraction-risk score, the watchdog's verdicts, and the event ring's
// tallies. The extractor visibly climbs to the top of the risk board
// within a few frames, which is the whole point of the forensics
// layer: extraction announces itself long before the dataset is gone.
//
// Usage:
//   tarpit_top [--frames=N] [--interval=SECONDS] [--plain]
//              [--rows=N] [--batch=N]
//
//   --frames    frames to render before exiting (default 10).
//   --interval  seconds between frames (default 0.5).
//   --plain     no ANSI cursor-home/clear between frames (append
//               frames instead -- for logs, CI, and dumb terminals).
//   --rows      protected-table size (default 512).
//   --batch     async requests issued per principal per frame
//               (default 48; the extractor issues 4x this).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/random.h"
#include "core/concurrent_db.h"
#include "core/resource_governor.h"
#include "core/self_audit.h"
#include "obs/event_ring.h"
#include "obs/metrics.h"
#include "obs/risk.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "obs/watchdog.h"
#include "workload/key_generator.h"

using namespace tarpit;

namespace {

namespace fs = std::filesystem;

struct Args {
  int frames = 10;
  double interval = 0.5;
  bool plain = false;
  int rows = 512;
  int batch = 48;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&a](const char* flag) -> const char* {
      const size_t n = std::strlen(flag);
      return a.compare(0, n, flag) == 0 ? a.c_str() + n : nullptr;
    };
    if (const char* v = value("--frames=")) {
      args->frames = std::atoi(v);
    } else if (const char* v = value("--interval=")) {
      args->interval = std::atof(v);
    } else if (a == "--plain") {
      args->plain = true;
    } else if (const char* v = value("--rows=")) {
      args->rows = std::atoi(v);
    } else if (const char* v = value("--batch=")) {
      args->batch = std::atoi(v);
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", a.c_str());
      return false;
    }
  }
  if (args->frames < 1 || args->interval <= 0 || args->rows < 8 ||
      args->batch < 1) {
    std::fprintf(stderr,
                 "--frames >= 1, --interval > 0, --rows >= 8, "
                 "--batch >= 1 required\n");
    return false;
  }
  return true;
}

double HistQuantile(const obs::RegistrySnapshot& snap, double q) {
  // Quantiles across every policy label of the delay-charged
  // histogram (one policy per run, but stay label-agnostic).
  for (const obs::MetricSnapshot& m : snap.metrics) {
    if (m.kind == obs::MetricKind::kHistogram &&
        m.name == "tarpit_delay_charged_ns" && m.histogram.count > 0) {
      return m.histogram.Quantile(q) / 1e6;  // ns -> ms
    }
  }
  return 0;
}

int64_t GaugeValue(const obs::RegistrySnapshot& snap, const char* name) {
  const obs::MetricSnapshot* m = snap.Find(name);
  return m != nullptr ? m->value : 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;

  obs::MetricRegistry registry;
  obs::TraceSink trace_sink;
  obs::DefenseEventRingOptions ring_opts;
  ring_opts.metrics = &registry;
  obs::DefenseEventRing events(ring_opts);
  obs::RiskScorerOptions risk_opts;
  risk_opts.keyspace_size = args.rows;
  risk_opts.metrics = &registry;
  // Sampled hot feed (1-in-4 hash partition, estimates scaled back):
  // the small demo keyspace still resolves breadth fast.
  risk_opts.query_sample_every = 4;
  obs::RiskScorer risk(risk_opts);

  ResourceGovernorOptions gov_opts;
  gov_opts.max_parked_stalls = 256;
  gov_opts.metrics = &registry;
  ResourceGovernor governor(gov_opts);

  const fs::path dir = fs::temp_directory_path() / "tarpit_top";
  fs::remove_all(dir);
  fs::create_directories(dir);

  RealClock clock;
  ProtectedDatabaseOptions opts;
  opts.mode = DelayMode::kAccessPopularity;
  // Small real stalls: popular tuples cost ~a millisecond, cold ones
  // cap at 60 ms -- long enough that parked stalls are visible on the
  // board, short enough that the console stays live.
  opts.popularity.scale = 0.02;
  opts.popularity.bounds.min_seconds = 0.001;
  opts.popularity.bounds.max_seconds = 0.060;
  ConcurrentDatabaseOptions copts;
  copts.mode = ConcurrencyMode::kSharded;
  copts.async_stalls = true;
  copts.governor = &governor;
  copts.metrics = &registry;
  copts.trace_sink = &trace_sink;
  copts.event_ring = &events;
  copts.risk = &risk;
  auto opened = ConcurrentProtectedDatabase::Open(dir.string(), "items",
                                                  &clock, opts, copts);
  if (!opened.ok()) {
    std::fprintf(stderr, "open: %s\n",
                 opened.status().ToString().c_str());
    return 1;
  }
  auto db = std::move(*opened);
  if (!db->ExecuteSql(
             "CREATE TABLE items (id INT PRIMARY KEY, v DOUBLE)")
           .ok()) {
    std::fprintf(stderr, "create table failed\n");
    return 1;
  }
  for (int i = 1; i <= args.rows; ++i) {
    if (!db->BulkLoadRow(
               {Value(static_cast<int64_t>(i)), Value(i * 0.5)})
             .ok()) {
      std::fprintf(stderr, "bulk load failed\n");
      return 1;
    }
  }

  obs::SelfAuditWatchdogOptions wd_opts;
  wd_opts.metrics = &registry;
  wd_opts.events = &events;
  obs::SelfAuditWatchdog watchdog(wd_opts);
  SelfAuditTargets targets;
  targets.db = db.get();
  targets.metrics = &registry;
  targets.governor = &governor;
  InstallStandardChecks(&watchdog, targets);

  obs::MetricTimeSeries timeseries(&registry);

  // Principals: 1..4 are benign Zipf readers; 9 is the extractor
  // (sequential full scans at 4x the benign rate).
  constexpr uint64_t kExtractor = 9;
  std::vector<RequestPrincipal> benign;
  for (uint64_t id = 1; id <= 4; ++id) {
    benign.push_back({id, static_cast<uint32_t>(0x0A000000u | (id << 8))});
  }
  const RequestPrincipal extractor{kExtractor, 0xC0A80100u};
  Rng rng(0x70F);
  ZipfKeyGenerator zipf(args.rows, 1.1);
  int64_t scan_cursor = 0;
  std::atomic<uint64_t> completed{0};

  for (int frame = 1; frame <= args.frames; ++frame) {
    // Issue this frame's traffic; stalls park on the wheel and
    // complete on the scheduler's driver while we render.
    auto fire = [&](const RequestPrincipal& who, int64_t key) {
      db->GetByKeyAsync(
          key, who,
          [&completed](Result<ProtectedResult> r) {
            (void)r;  // Overloaded / cancelled still count as done.
            completed.fetch_add(1, std::memory_order_relaxed);
          },
          /*session=*/who.identity);
    };
    for (int i = 0; i < args.batch; ++i) {
      for (const RequestPrincipal& who : benign) {
        fire(who, zipf.Next(&rng));
      }
      for (int e = 0; e < 4; ++e) {
        scan_cursor = scan_cursor % args.rows + 1;
        fire(extractor, scan_cursor);
      }
    }

    // Render mid-flight (stalls are 1-60 ms, so waiting the whole
    // interval would always show an idle wheel); sleep the remainder
    // after the frame is out.
    std::this_thread::sleep_for(
        std::chrono::duration<double>(args.interval * 0.05));

    const double now = clock.NowSeconds();
    timeseries.ScrapeOnce(now);
    risk.OnScrape(now);
    watchdog.RunOnce(clock.NowMicros());

    const obs::RegistrySnapshot snap = registry.Snapshot();
    std::string out;
    out.reserve(2048);
    char line[256];
    if (!args.plain) out += "\x1b[H\x1b[2J";
    std::snprintf(line, sizeof line,
                  "tarpit_top — frame %d/%d  (interval %.2fs)\n\n",
                  frame, args.frames, args.interval);
    out += line;
    std::snprintf(
        line, sizeof line,
        "requests   issued=%lld  completed=%llu  parked=%lld  "
        "peak=%lld  shed=%lld\n",
        static_cast<long long>(
            GaugeValue(snap, "tarpit_db_requests_total")),
        static_cast<unsigned long long>(
            completed.load(std::memory_order_relaxed)),
        static_cast<long long>(
            GaugeValue(snap, "tarpit_scheduler_parked")),
        static_cast<long long>(
            GaugeValue(snap, "tarpit_scheduler_parked_peak")),
        static_cast<long long>(snap.Total("tarpit_governor_shed_total")));
    out += line;
    std::snprintf(line, sizeof line,
                  "delay ms   p50=%.2f  p99=%.2f  p999=%.2f\n",
                  HistQuantile(snap, 0.50), HistQuantile(snap, 0.99),
                  HistQuantile(snap, 0.999));
    out += line;
    std::snprintf(
        line, sizeof line,
        "events     appended=%llu  dropped=%llu  retained=%zu\n",
        static_cast<unsigned long long>(events.appended_total()),
        static_cast<unsigned long long>(events.dropped_total()),
        events.retained());
    out += line;

    out += "\nwatchdog   ";
    out += watchdog.healthy() ? "HEALTHY" : "*** VIOLATION ***";
    std::snprintf(line, sizeof line, "  (passes=%llu)\n",
                  static_cast<unsigned long long>(
                      watchdog.passes_total()));
    out += line;
    for (const auto& check : watchdog.Stats()) {
      const char* verdict =
          check.last.status == obs::WatchdogResult::Status::kOk
              ? "ok"
              : check.last.status ==
                        obs::WatchdogResult::Status::kSkipped
                    ? "skipped"
                    : "VIOLATION";
      std::snprintf(line, sizeof line,
                    "  %-20s %-10s runs=%llu violations=%llu "
                    "skips=%llu %s\n",
                    check.name.c_str(), verdict,
                    static_cast<unsigned long long>(check.runs),
                    static_cast<unsigned long long>(check.violations),
                    static_cast<unsigned long long>(check.skips),
                    check.last.detail.c_str());
      out += line;
    }

    out += "\ntop principals by extraction risk\n"
           "  principal      score  breadth  queries  "
           "(bre/rate/probe/sig)\n";
    for (const obs::RiskScore& s : risk.TopN(5, now)) {
      std::snprintf(
          line, sizeof line,
          "  %-9llu %s %6.1f  %7.0f  %7llu  "
          "(%.2f/%.2f/%.2f/%.2f)\n",
          static_cast<unsigned long long>(s.principal),
          s.principal == kExtractor ? "<-scan" : "      ", s.score,
          s.breadth, static_cast<unsigned long long>(s.queries),
          s.breadth_component, s.rate_component, s.probe_component,
          s.signal_component);
      out += line;
    }
    std::fputs(out.c_str(), stdout);
    std::fflush(stdout);
    std::this_thread::sleep_for(
        std::chrono::duration<double>(args.interval * 0.95));
  }

  // Drain: cancel outstanding parked stalls so shutdown is prompt;
  // cancellations land in the ring as kCancelled forensics.
  for (const RequestPrincipal& who : benign) {
    db->CancelSession(who.identity);
  }
  db->CancelSession(extractor.identity);
  std::printf(
      "\ncancelled-on-exit events: %llu  (ring total %llu, dropped "
      "%llu)\n",
      static_cast<unsigned long long>(
          events.CountOfType(obs::DefenseEventType::kCancelled)),
      static_cast<unsigned long long>(events.appended_total()),
      static_cast<unsigned long long>(events.dropped_total()));

  db.reset();
  fs::remove_all(dir);
  return 0;
}
