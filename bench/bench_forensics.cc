// Forensics acceptance bench (ISSUE 9): holds the self-audit and
// trace-export layers to the promises DESIGN.md makes for them. Three
// gated sections plus an informational event-ring throughput probe:
//
//  1. Watchdog benign run -- zero false positives: a full workload
//     (with in-flight windows, then quiescence) across repeated
//     watchdog passes must record no violation. The skip discipline is
//     doing the work here: checks that cannot observe a stable pair of
//     reads must skip, never guess.
//  2. Watchdog drift detection -- the concurrent_db.acct_skim
//     failpoint skims 0.1% (1 permille) off every RECORDED charge
//     while callers are served the full delay, exactly the
//     embezzlement the ledger-vs-histogram check exists to catch. The
//     FIRST pass after the skimmed workload quiesces must flag it:
//     detection latency is one scrape interval by construction.
//  3. Trace export -- a full-sampling TraceSink exported through
//     ExportChromeTrace must (a) report one cat="request" span per
//     distinct retained request (the deduplicated union of Slowest()
//     and Recent()), and (b) emit exactly request_spans + phase_spans
//     ph:"X" complete-events in the JSON, i.e. the accounting the
//     export returns matches the document it wrote.
//
// Exits non-zero if any gate fails. Env: TARPIT_BENCH_TINY=1 shrinks
// the workload; TARPIT_BENCH_JSON=<path> emits machine-readable JSON
// (the CI artifact BENCH_forensics.json).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/failpoint.h"
#include "common/random.h"
#include "core/concurrent_db.h"
#include "core/self_audit.h"
#include "obs/event_ring.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "obs/watchdog.h"
#include "workload/key_generator.h"

using namespace tarpit;

namespace {

namespace fs = std::filesystem;

bool TinyConfig() {
  const char* env = std::getenv("TARPIT_BENCH_TINY");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

constexpr int kRows = 1024;

std::unique_ptr<ConcurrentProtectedDatabase> OpenDb(
    const fs::path& dir, Clock* clock, obs::MetricRegistry* metrics,
    obs::TraceSink* sink) {
  fs::create_directories(dir);
  ProtectedDatabaseOptions opts;
  opts.mode = DelayMode::kAccessPopularity;
  opts.popularity.beta = 0.0;
  opts.popularity.scale = 1e-3;
  opts.popularity.bounds = {0.0, 10.0};
  opts.decay_per_request = 1.0;
  ConcurrentDatabaseOptions copts;
  copts.serve_delays = false;  // Charges recorded, stalls skipped.
  copts.metrics = metrics;
  copts.trace_sink = sink;
  auto opened = ConcurrentProtectedDatabase::Open(dir.string(), "items",
                                                  clock, opts, copts);
  if (!opened.ok()) std::abort();
  auto db = std::move(*opened);
  if (!db->ExecuteSql("CREATE TABLE items (id INT PRIMARY KEY, v DOUBLE)")
           .ok()) {
    std::abort();
  }
  for (int i = 1; i <= kRows; ++i) {
    if (!db->BulkLoadRow({Value(static_cast<int64_t>(i)), Value(i * 0.5)})
             .ok()) {
      std::abort();
    }
  }
  if (!db->Checkpoint().ok()) std::abort();
  return db;
}

void RunWorkload(ConcurrentProtectedDatabase* db, int ops,
                 uint64_t seed) {
  Rng rng(seed);
  UniformKeyGenerator gen(kRows);
  for (int i = 0; i < ops; ++i) {
    if (!db->GetByKey(gen.Next(&rng)).ok()) std::abort();
  }
}

size_t CountOccurrences(const std::string& haystack,
                        const std::string& needle) {
  size_t count = 0;
  for (size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

}  // namespace

int main() {
  const bool tiny = TinyConfig();
  const int kOps = tiny ? 2'000 : 20'000;
  const fs::path base =
      fs::temp_directory_path() / "tarpit_bench_forensics";
  fs::remove_all(base);
  fs::create_directories(base);

  std::printf("# Forensics: watchdog drift detection + trace export "
              "(%d ops/phase%s)\n\n",
              kOps, tiny ? ", tiny" : "");

  // ---- Sections 1 + 2: watchdog on a live engine. -------------------
  RealClock clock;
  obs::MetricRegistry registry;
  auto db = OpenDb(base / "audit", &clock, &registry, nullptr);
  obs::SelfAuditWatchdogOptions wopts;
  wopts.metrics = &registry;
  obs::SelfAuditWatchdog watchdog(wopts);
  SelfAuditTargets targets;
  targets.db = db.get();
  targets.metrics = &registry;
  const size_t installed = InstallStandardChecks(&watchdog, targets);

  // Benign phase: passes both mid-flight (skips allowed, violations
  // not) and at quiescence (exact reconcile).
  std::thread benign([&] { RunWorkload(db.get(), kOps, 0xFACEu); });
  uint64_t benign_passes = 0;
  for (int i = 0; i < 3; ++i) {
    watchdog.RunOnce(clock.NowMicros());
    ++benign_passes;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  benign.join();
  for (int i = 0; i < 5; ++i) {  // Quiescent: exact comparisons.
    watchdog.RunOnce(clock.NowMicros());
    ++benign_passes;
  }
  const uint64_t false_positives = watchdog.violations_total();
  const bool benign_pass = false_positives == 0 && watchdog.healthy();
  std::printf("benign: %llu watchdog passes over %zu checks, %llu "
              "violations (target 0) %s\n",
              static_cast<unsigned long long>(benign_passes), installed,
              static_cast<unsigned long long>(false_positives),
              benign_pass ? "PASS" : "FAIL");

  db.reset();

  // Drift injection on a FRESH stack (a clean prior ledger would
  // dilute the relative drift): skim 1 permille (0.1%) off every
  // recorded charge, so the aggregate ledger-vs-histogram drift is the
  // injected 0.1% -- 10x the 0.01% tolerance -- and ONE quiescent pass
  // must trip.
  obs::MetricRegistry drift_registry;
  auto drift_db = OpenDb(base / "drift", &clock, &drift_registry,
                         nullptr);
  obs::SelfAuditWatchdog drift_watchdog(obs::SelfAuditWatchdogOptions{});
  SelfAuditTargets drift_targets;
  drift_targets.db = drift_db.get();
  drift_targets.metrics = &drift_registry;
  InstallStandardChecks(&drift_watchdog, drift_targets);

  FailPointSpec skim;
  skim.trigger = FailPointSpec::Trigger::kAlways;
  skim.arg = 1;  // Permille skimmed from the recorded charge.
  FailPoints::Instance().Enable("concurrent_db.acct_skim", skim);
  RunWorkload(drift_db.get(), kOps, 0xFEEDu);
  FailPoints::Instance().DisableAll();

  drift_watchdog.RunOnce(clock.NowMicros());  // THE one detection pass.
  const bool drift_detected = drift_watchdog.violations_total() > 0 &&
                              !drift_watchdog.healthy();
  double drift_magnitude = 0;
  for (const auto& cs : drift_watchdog.Stats()) {
    if (cs.name == "ledger-vs-histogram") {
      drift_magnitude = cs.last.drift;
    }
  }
  std::printf("drift: 0.1%% skim over %d charges detected in ONE pass "
              "(measured relative drift %.5f%%, tolerance 0.01%%) %s\n",
              kOps, 100.0 * drift_magnitude,
              drift_detected ? "PASS" : "FAIL");
  drift_db.reset();

  // ---- Section 3: trace export accounting. --------------------------
  obs::MetricRegistry trace_registry;
  obs::TraceSinkOptions sopts;
  sopts.sample_every = 1;  // Trace everything: single-run forensics.
  sopts.recent_sample_every = 1;
  obs::TraceSink sink(sopts);
  {
    auto tdb = OpenDb(base / "trace", &clock, &trace_registry, &sink);
    RunWorkload(tdb.get(), tiny ? 500 : 2'000, 0xBEADu);
    tdb.reset();  // Quiesce before exporting.
  }
  obs::ChromeTraceOptions topts;
  topts.registry = &trace_registry;
  const obs::ChromeTrace trace = obs::ExportChromeTrace(sink, topts);

  std::set<uint64_t> retained;
  for (const obs::RequestTrace& t : sink.Slowest()) {
    retained.insert(t.request_id);
  }
  for (const obs::RequestTrace& t : sink.Recent()) {
    retained.insert(t.request_id);
  }
  const size_t ph_events =
      CountOccurrences(trace.json, "\"ph\":\"X\"");
  const bool spans_match = trace.request_spans == retained.size();
  const bool events_match =
      ph_events == trace.request_spans + trace.phase_spans;
  const bool json_shape =
      trace.json.rfind("{\"traceEvents\":[", 0) == 0 &&
      trace.json.back() == '}';
  const bool trace_pass = spans_match && events_match && json_shape &&
                          trace.request_spans > 0;
  std::printf("trace export: %zu request spans (retained union %zu), "
              "%zu phase spans, %zu ph:X events in JSON, %zu exemplars "
              "%s\n",
              trace.request_spans, retained.size(), trace.phase_spans,
              ph_events, trace.exemplars.size(),
              trace_pass ? "PASS" : "FAIL");

  // ---- Informational: event-ring append throughput. -----------------
  obs::DefenseEventRingOptions ropts;
  ropts.capacity = 4096;
  obs::DefenseEventRing ring(ropts);
  const int ring_threads = 4;
  const int ring_ops = tiny ? 50'000 : 500'000;
  const auto t0 = std::chrono::steady_clock::now();
  {
    std::vector<std::thread> writers;
    for (int t = 0; t < ring_threads; ++t) {
      writers.emplace_back([&ring, t, ring_ops] {
        obs::DefenseEvent e;
        e.type = obs::DefenseEventType::kQueryAdmitted;
        e.principal = static_cast<uint64_t>(t + 1);
        for (int i = 0; i < ring_ops; ++i) {
          e.time_micros = i;
          e.arg = i;
          ring.Append(e);
        }
      });
    }
    for (auto& w : writers) w.join();
  }
  const double ring_secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    t0)
          .count();
  const uint64_t ring_total =
      static_cast<uint64_t>(ring_threads) * ring_ops;
  const double ring_rate =
      ring_secs > 0 ? static_cast<double>(ring_total) / ring_secs : 0;
  const bool ring_exact =
      ring.appended_total() == ring_total &&
      ring.dropped_total() == ring_total - ropts.capacity;
  std::printf("event ring: %llu appends from %d threads at %.0f "
              "events/s, drop accounting %s\n",
              static_cast<unsigned long long>(ring_total), ring_threads,
              ring_rate, ring_exact ? "exact" : "WRONG");

  if (const char* json_path = std::getenv("TARPIT_BENCH_JSON")) {
    if (json_path[0] != '\0') {
      if (std::FILE* f = std::fopen(json_path, "w")) {
        std::fprintf(
            f,
            "{\n"
            "  \"bench\": \"forensics\",\n"
            "  \"tiny\": %s,\n"
            "  \"ops_per_phase\": %d,\n"
            "  \"benign_passes\": %llu,\n"
            "  \"benign_false_positives\": %llu,\n"
            "  \"benign_pass\": %s,\n"
            "  \"drift_detected_in_one_pass\": %s,\n"
            "  \"drift_magnitude\": %.9f,\n"
            "  \"trace_request_spans\": %zu,\n"
            "  \"trace_phase_spans\": %zu,\n"
            "  \"trace_retained_union\": %zu,\n"
            "  \"trace_exemplars\": %zu,\n"
            "  \"trace_pass\": %s,\n"
            "  \"ring_events_per_sec\": %.0f,\n"
            "  \"ring_drop_accounting_exact\": %s\n"
            "}\n",
            tiny ? "true" : "false", kOps,
            static_cast<unsigned long long>(benign_passes),
            static_cast<unsigned long long>(false_positives),
            benign_pass ? "true" : "false",
            drift_detected ? "true" : "false", drift_magnitude,
            trace.request_spans, trace.phase_spans, retained.size(),
            trace.exemplars.size(), trace_pass ? "true" : "false",
            ring_rate, ring_exact ? "true" : "false");
        std::fclose(f);
        std::printf("json written to %s\n", json_path);
      }
    }
  }

  fs::remove_all(base);
  return (benign_pass && drift_detected && trace_pass && ring_exact)
             ? 0
             : 1;
}
