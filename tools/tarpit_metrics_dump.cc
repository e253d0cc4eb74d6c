// tarpit_metrics_dump: run an instrumented workload against a
// delay-protected database and dump the metric registry in Prometheus
// text or JSON -- the command-line face of the /metrics surface.
//
// The registry is in-process (this codebase is a library, not a
// daemon), so the CLI drives its own workload: open a
// ConcurrentProtectedDatabase with a registry and trace sink attached,
// run a burst of point reads on a virtual clock (delays are charged,
// never slept), and print the snapshot. This doubles as an end-to-end
// smoke of the whole telemetry path: scheduler, buffer pools, count
// cache, row cache, delay histograms, and request traces all light up
// in one run.
//
// Usage:
//   tarpit_metrics_dump [--format=prom|json] [--out=PATH]
//                       [--rows=N] [--queries=N] [--traces]
//                       [--emit-interval=SECONDS]
//
//   --format         prom (default), json, or trace (Chrome/Perfetto
//                    trace-event JSON rendered from the trace sink --
//                    load the output in chrome://tracing or
//                    ui.perfetto.dev).
//   --out            write the dump to PATH instead of stdout (uses
//                    the PeriodicExporter's atomic tmp+rename write).
//   --rows           table size (default 512).
//   --queries        Zipf point reads to run (default 4096).
//   --traces         also print the trace sink's slowest/recent JSON.
//   --emit-interval  additionally run the periodic file emitter at
//                    this interval for one cycle (requires --out).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>

#include "common/clock.h"
#include "common/random.h"
#include "core/concurrent_db.h"
#include "obs/exposition.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "workload/key_generator.h"

using namespace tarpit;

namespace {

namespace fs = std::filesystem;

struct Args {
  std::string format = "prom";
  std::string out;
  int rows = 512;
  int queries = 4096;
  bool traces = false;
  double emit_interval = 0.0;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&a](const char* flag) -> const char* {
      const size_t n = std::strlen(flag);
      return a.compare(0, n, flag) == 0 ? a.c_str() + n : nullptr;
    };
    if (const char* v = value("--format=")) {
      args->format = v;
    } else if (const char* v = value("--out=")) {
      args->out = v;
    } else if (const char* v = value("--rows=")) {
      args->rows = std::atoi(v);
    } else if (const char* v = value("--queries=")) {
      args->queries = std::atoi(v);
    } else if (a == "--traces") {
      args->traces = true;
    } else if (const char* v = value("--emit-interval=")) {
      args->emit_interval = std::atof(v);
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", a.c_str());
      return false;
    }
  }
  if (args->format != "prom" && args->format != "json" &&
      args->format != "trace") {
    std::fprintf(stderr,
                 "--format must be prom, json or trace (got %s)\n",
                 args->format.c_str());
    return false;
  }
  if (args->format == "trace" && args->emit_interval > 0) {
    std::fprintf(stderr, "--emit-interval only supports prom/json\n");
    return false;
  }
  if (args->rows < 1 || args->queries < 0) {
    std::fprintf(stderr, "--rows must be >= 1, --queries >= 0\n");
    return false;
  }
  if (args->emit_interval > 0 && args->out.empty()) {
    std::fprintf(stderr, "--emit-interval requires --out\n");
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;

  obs::MetricRegistry registry;
  obs::TraceSinkOptions sink_opts;
  if (args.format == "trace") {
    // A trace dump is single-run forensics: span every request instead
    // of head-sampling 1-in-16.
    sink_opts.sample_every = 1;
  }
  obs::TraceSink trace_sink(sink_opts);

  const fs::path dir =
      fs::temp_directory_path() / "tarpit_metrics_dump";
  fs::remove_all(dir);
  fs::create_directories(dir);

  {
    // Virtual clock: delays are charged on the simulated timeline, so
    // the dump is instant no matter how punitive the policy is.
    VirtualClock clock;
    ProtectedDatabaseOptions opts;
    opts.mode = DelayMode::kAccessPopularity;
    opts.persist_counts = true;
    opts.count_cache_capacity = static_cast<size_t>(args.rows) / 4 + 1;
    ConcurrentDatabaseOptions copts;
    copts.async_stalls = true;  // Virtual wheel: instant fire.
    copts.metrics = &registry;
    copts.trace_sink = &trace_sink;
    auto opened = ConcurrentProtectedDatabase::Open(
        dir.string(), "items", &clock, opts, copts);
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
    Rng rng(0xD09);
    ZipfKeyGenerator gen(args.rows, 1.1);
    for (int i = 0; i < args.queries; ++i) {
      auto r = db->GetByKey(gen.Next(&rng));
      if (!r.ok()) {
        std::fprintf(stderr, "query: %s\n",
                     r.status().ToString().c_str());
        return 1;
      }
    }
    if (!db->Checkpoint().ok()) {
      std::fprintf(stderr, "checkpoint failed\n");
      return 1;
    }
  }

  if (args.format == "trace") {
    // The Perfetto export path: retained spans (deduped slowest +
    // recent) as trace events, with exemplar links from delay-charged
    // histogram buckets to trace ids.
    obs::ChromeTraceOptions topts;
    topts.registry = &registry;
    const obs::ChromeTrace trace =
        obs::ExportChromeTrace(trace_sink, topts);
    if (args.out.empty()) {
      std::fputs(trace.json.c_str(), stdout);
      std::fputc('\n', stdout);
    } else {
      std::FILE* f = std::fopen(args.out.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "write %s failed\n", args.out.c_str());
        return 1;
      }
      std::fputs(trace.json.c_str(), f);
      std::fclose(f);
      std::printf("trace written to %s (%zu request spans, %zu phase "
                  "slices)\n",
                  args.out.c_str(), trace.request_spans,
                  trace.phase_spans);
    }
    fs::remove_all(dir);
    return 0;
  }

  const obs::RegistrySnapshot snapshot = registry.Snapshot();
  const std::string dump = args.format == "json"
                               ? obs::ToJson(snapshot)
                               : obs::ToPrometheusText(snapshot);

  if (args.out.empty()) {
    std::fputs(dump.c_str(), stdout);
  } else {
    obs::PeriodicExporterOptions eopts;
    eopts.path = args.out;
    eopts.format = args.format == "json"
                       ? obs::PeriodicExporterOptions::Format::kJson
                       : obs::PeriodicExporterOptions::Format::kPrometheus;
    if (args.emit_interval > 0) {
      eopts.interval_seconds = args.emit_interval;
      eopts.flush_on_stop = true;
      obs::PeriodicExporter exporter(&registry, eopts);
      // Let at least one periodic cycle land before the final
      // flush-on-stop write.
      std::this_thread::sleep_for(std::chrono::duration<double>(
          args.emit_interval * 1.5));
    } else {
      eopts.flush_on_stop = false;
      obs::PeriodicExporter exporter(&registry, eopts);
      if (!exporter.WriteOnce()) {
        std::fprintf(stderr, "write %s failed\n", args.out.c_str());
        return 1;
      }
      exporter.Stop();
    }
    std::printf("metrics written to %s\n", args.out.c_str());
  }

  if (args.traces) {
    std::fputs(trace_sink.ToJson().c_str(), stdout);
    std::fputc('\n', stdout);
  }

  fs::remove_all(dir);
  return 0;
}
