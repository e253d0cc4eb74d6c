// Recovery and overload-survival bench (PR 8). Four gated sections:
//
//  1. Fail-point overhead: TARPIT_FAILPOINT compiles to one relaxed
//     atomic load + branch when no point is enabled. Measured per-call
//     cost times a generous sites-per-operation budget must stay under
//     1% of a real point-read, so shipping the instrumentation is free.
//  2. WAL recovery: reopen a table whose log holds ~100k records (plus
//     a deliberately torn tail) -- replay must be complete (every
//     record recovered, tail truncated, contents exact) and fast
//     (bounded records/second, not seconds-per-record).
//  3. Delay-ledger drift: charged-delay totals recovered across a
//     checkpointed restart must match the in-memory oracle within
//     0.01% -- the tarpit's bill survives the crash.
//  4. Governor flood: a deterministic overload (one extraction-shaped
//     identity flooding async queries through the QueryGate) must
//     shed-before-collapse: parked stalls never exceed the budget,
//     parked bytes stay within the memory envelope, the excess
//     completes Overloaded, every shed query is still charged, the
//     suspect's reputation penalty still accrues, and benign p99 is
//     not degraded by the flood.
//
// Exits non-zero if any gate fails. Env: TARPIT_BENCH_TINY=1 shrinks
// the workload for CI smoke runs; TARPIT_BENCH_JSON=<path> emits
// machine-readable JSON.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/failpoint.h"
#include "common/random.h"
#include "core/delay_scheduler.h"
#include "core/protected_db.h"
#include "core/resource_governor.h"
#include "defense/identity.h"
#include "defense/query_gate.h"
#include "defense/reputation.h"
#include "obs/metrics.h"
#include "openloop.h"
#include "storage/schema.h"
#include "storage/table.h"
#include "storage/value.h"

using namespace tarpit;

namespace {

namespace fs = std::filesystem;

bool TinyConfig() {
  const char* env = std::getenv("TARPIT_BENCH_TINY");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Schema BenchSchema() {
  return Schema({{"id", ColumnType::kInt64}, {"v", ColumnType::kDouble}});
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t idx = static_cast<size_t>(p * (v.size() - 1));
  return v[idx];
}

// ---- Section 1: inactive fail-point overhead ------------------------

struct FailpointOverhead {
  double macro_ns = 0;     // Per TARPIT_FAILPOINT evaluation, inactive.
  double read_op_ns = 0;   // One Table::GetByKey.
  double overhead = 0;     // macro_ns * kSitesPerOp / read_op_ns.
  bool pass = false;
};

// Instrumented sites an indexed point read actually crosses: one
// buffer-pool fetch per B+tree level plus the heap page (the WAL sites
// are write-path only).
constexpr double kSitesPerOp = 4.0;

FailpointOverhead MeasureFailpointOverhead(Table* table, int rows,
                                           bool tiny) {
  FailpointOverhead r;
  // Best-of-3 on both sides: the bar is the macro's intrinsic cost,
  // not shared-runner scheduling noise.
  const int64_t calls = tiny ? 20'000'000 : 100'000'000;
  volatile int64_t sink = 0;
  r.macro_ns = 1e18;
  for (int round = 0; round < 3; ++round) {
    const double t0 = NowSeconds();
    for (int64_t i = 0; i < calls; ++i) {
      auto fired = TARPIT_FAILPOINT("bench.inactive_probe");
      sink = sink + (fired.has_value() ? 1 : 0);
    }
    const double t1 = NowSeconds();
    r.macro_ns = std::min(
        r.macro_ns, (t1 - t0) / static_cast<double>(calls) * 1e9);
  }

  const int reads = tiny ? 50'000 : 200'000;
  r.read_op_ns = 1e18;
  for (int round = 0; round < 3; ++round) {
    Rng rng(99 + round);
    const double t2 = NowSeconds();
    for (int i = 0; i < reads; ++i) {
      auto row =
          table->GetByKey(static_cast<int64_t>(rng.Uniform(rows)));
      if (!row.ok()) std::abort();
    }
    const double t3 = NowSeconds();
    r.read_op_ns = std::min(r.read_op_ns, (t3 - t2) / reads * 1e9);
  }
  r.overhead = r.macro_ns * kSitesPerOp / r.read_op_ns;
  r.pass = r.overhead <= 0.01 && !FailPoints::AnyActive();
  return r;
}

// ---- Section 2: WAL recovery ---------------------------------------

struct RecoveryResult {
  uint64_t records = 0;
  uint64_t truncated_bytes = 0;
  double open_seconds = 0;
  double replay_rate = 0;  // records / second.
  bool complete = false;
  bool pass = false;
};

RecoveryResult MeasureWalRecovery(const fs::path& dir, bool tiny) {
  RecoveryResult r;
  const int n = tiny ? 10'000 : 100'000;
  fs::create_directories(dir);
  {
    auto t = Table::Create(dir.string(), "rec", BenchSchema(), 0);
    if (!t.ok()) std::abort();
    for (int i = 0; i < n; ++i) {
      Row row = {Value(static_cast<int64_t>(i)),
                 Value(static_cast<double>(i) * 0.5)};
      if (!(*t)->Insert(row).ok()) std::abort();
    }
    // No checkpoint: the full log replays on open (destructor flushes
    // pages but never truncates the WAL, so replay is the idempotent
    // worst case -- every record re-applied over an up-to-date base).
  }
  // Crash flavor on top: a torn half-record at the tail.
  {
    std::ofstream f(dir / "rec.wal", std::ios::app | std::ios::binary);
    f.write("\x40\x00\x00\x00\x01torn-tail", 14);
  }
  const double t0 = NowSeconds();
  auto reopened = Table::Open(dir.string(), "rec", BenchSchema(), 0);
  const double t1 = NowSeconds();
  if (!reopened.ok()) std::abort();
  r.open_seconds = t1 - t0;
  r.records = (*reopened)->recovered_wal_records();
  r.truncated_bytes = (*reopened)->wal_truncated_bytes();
  r.replay_rate =
      r.open_seconds > 0 ? r.records / r.open_seconds : 0.0;
  r.complete = r.records == static_cast<uint64_t>(n) &&
               r.truncated_bytes == 14 &&
               (*reopened)->NumRows() == static_cast<uint64_t>(n);
  // Rate bar is deliberately loose (CI runners are noisy); the point
  // is catching an accidental O(n^2) replay, not micro-tuning.
  r.pass = r.complete && r.replay_rate >= 20'000.0;
  return r;
}

// ---- Section 3: delay-ledger drift ---------------------------------

struct DriftResult {
  double oracle_delay = 0;
  double recovered_delay = 0;
  uint64_t charges = 0;
  double drift = 0;
  bool pass = false;
};

DriftResult MeasureLedgerDrift(const fs::path& dir, bool tiny) {
  DriftResult r;
  const int rows = 512;
  const int queries = tiny ? 2'000 : 20'000;
  fs::create_directories(dir);
  VirtualClock clock;
  ProtectedDatabaseOptions opts;
  opts.popularity.scale = 0.001;
  opts.popularity.bounds = {0.0, 10.0};
  opts.persist_delay_ledger = true;
  {
    auto pdb =
        ProtectedDatabase::Open(dir.string(), "items", &clock, opts);
    if (!pdb.ok()) std::abort();
    if (!(*pdb)
             ->ExecuteSql(
                 "CREATE TABLE items (id INT PRIMARY KEY, v DOUBLE)")
             .ok()) {
      std::abort();
    }
    for (int i = 0; i < rows; ++i) {
      if (!(*pdb)
               ->BulkLoadRow({Value(static_cast<int64_t>(i)), Value(1.0)})
               .ok()) {
        std::abort();
      }
    }
    Rng rng(7);
    for (int i = 0; i < queries; ++i) {
      auto res =
          (*pdb)->GetByKey(static_cast<int64_t>(rng.Uniform(rows)));
      if (!res.ok()) std::abort();
      r.oracle_delay += res->delay_seconds;
    }
    if (!(*pdb)->Checkpoint().ok()) std::abort();
  }
  auto pdb = ProtectedDatabase::Open(dir.string(), "items", &clock, opts);
  if (!pdb.ok()) std::abort();
  auto m = (*pdb)->Metrics();
  r.recovered_delay = m.total_delay_seconds;
  r.charges = m.delays_charged;
  r.drift = r.oracle_delay <= 0
                ? 1.0
                : std::fabs(r.recovered_delay - r.oracle_delay) /
                      r.oracle_delay;
  r.pass = r.charges == static_cast<uint64_t>(queries) &&
           r.drift <= 1e-4;
  return r;
}

// ---- Section 4: governor flood -------------------------------------

struct FloodResult {
  uint64_t budget = 0;
  uint64_t flood = 0;
  uint64_t peak_parked = 0;
  uint64_t peak_parked_bytes = 0;
  uint64_t shed = 0;
  uint64_t served = 0;
  uint64_t charged = 0;
  double suspect_penalty = 1.0;
  double benign_p99_before = 0;
  double benign_p99_after = 0;
  bool pass = false;
};

FloodResult MeasureGovernorFlood(const fs::path& dir, bool tiny) {
  FloodResult r;
  const int rows = 2'000;
  r.budget = tiny ? 128 : 1'024;
  r.flood = r.budget * 8;
  fs::create_directories(dir);

  // Real time: a VirtualClock wheel instant-fires every submission
  // (simulation mode), which would release each slot before the next
  // submit. With 0.4s stalls and microsecond submits, the budget
  // genuinely fills and the overload is real.
  RealClock clock;
  ProtectedDatabaseOptions opts;
  opts.popularity.scale = 2.0;
  opts.popularity.bounds = {0.0, 0.4};
  opts.defer_delay_sleep = true;  // The gate parks the stall.
  auto pdb = ProtectedDatabase::Open(dir.string(), "items", &clock, opts);
  if (!pdb.ok()) std::abort();
  if (!(*pdb)
           ->ExecuteSql("CREATE TABLE items (id INT PRIMARY KEY, "
                        "v DOUBLE)")
           .ok()) {
    std::abort();
  }
  for (int i = 0; i < rows; ++i) {
    if (!(*pdb)
             ->BulkLoadRow({Value(static_cast<int64_t>(i)), Value(1.0)})
             .ok()) {
      std::abort();
    }
  }

  obs::MetricRegistry registry;
  ResourceGovernorOptions go;
  go.max_parked_stalls = r.budget;
  go.metrics = &registry;
  ResourceGovernor gov(go);
  ReputationStore reputation;  // Breadth learning on defaults.
  QueryGateOptions qopts;
  qopts.registration_burst = 8;             // Two accounts at t=0.
  qopts.per_user_queries_per_second = 1e9;  // The governor is the cap
  qopts.per_user_burst = 1e9;               // under test, not the
  qopts.per_subnet_queries_per_second = 1e9;  // rate limiters.
  qopts.per_subnet_burst = 1e9;
  qopts.governor = &gov;
  qopts.reputation = &reputation;
  qopts.metrics = &registry;
  QueryGate gate(pdb->get(), qopts);
  DelayScheduler scheduler(&clock);

  auto benign = gate.RegisterUser(Ipv4FromString("10.1.0.1"));
  auto suspect = gate.RegisterUser(Ipv4FromString("203.0.113.7"));
  if (!benign.ok() || !suspect.ok()) std::abort();

  // Benign baseline: a narrow hot set, queried before the flood.
  auto run_benign = [&](uint64_t seed) {
    std::vector<double> delays;
    Rng rng(seed);
    for (int i = 0; i < 200; ++i) {
      auto res = gate.ExecuteSql(
          *benign, "SELECT * FROM items WHERE id = " +
                       std::to_string(rng.Uniform(20)));
      if (!res.ok()) std::abort();
      delays.push_back(res->delay_seconds);
    }
    return Percentile(delays, 0.99);
  };
  r.benign_p99_before = run_benign(1);

  // The flood: one identity walking distinct tuples (extraction-shaped
  // breadth) with async queries that all want a wheel slot. Sheds
  // complete inline on this thread; admitted stalls complete on the
  // wheel's dispatchers ~0.4s later.
  std::atomic<uint64_t> served{0};
  std::atomic<uint64_t> shed{0};
  const uint64_t before_charges = (*pdb)->Metrics().delays_charged;
  for (uint64_t i = 0; i < r.flood; ++i) {
    gate.ExecuteSqlAsync(
        *suspect,
        "SELECT * FROM items WHERE id = " +
            std::to_string(i % static_cast<uint64_t>(rows)),
        &scheduler,
        [&](Result<ProtectedResult> res) {
          if (res.ok()) {
            served.fetch_add(1, std::memory_order_relaxed);
          } else if (res.status().IsOverloaded()) {
            shed.fetch_add(1, std::memory_order_relaxed);
          } else {
            std::abort();
          }
        });
    r.peak_parked = std::max(r.peak_parked, gov.parked_stalls());
    r.peak_parked_bytes =
        std::max(r.peak_parked_bytes, gov.parked_bytes());
  }
  // Let the admitted stalls expire and the wheel drain.
  const double deadline = NowSeconds() + 30.0;
  while (served.load() + shed.load() < r.flood &&
         NowSeconds() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  r.served = served.load();
  r.shed = shed.load();
  r.charged = (*pdb)->Metrics().delays_charged - before_charges;
  r.suspect_penalty =
      reputation.IdentityPenalty(suspect->id, clock.NowSeconds());
  r.benign_p99_after = run_benign(2);

  const bool budget_held = r.peak_parked <= r.budget &&
                           r.peak_parked_bytes <=
                               r.budget * go.stall_bytes_estimate;
  const bool all_accounted = r.served + r.shed == r.flood;
  // Submission takes milliseconds against 0.4s stalls, so at most the
  // budget is admitted; 2x slack absorbs a runner hiccup mid-loop
  // letting early slots recycle once.
  const bool excess_shed = r.shed > 0 && r.served <= 2 * r.budget &&
                           r.shed >= r.flood - 2 * r.budget;
  const bool charge_kept = r.charged == r.flood;
  const bool penalty_accrued = r.suspect_penalty > 1.0;
  // Popularity counts only grow, so benign delays can only shrink;
  // allow a hair of slack for rank churn from the suspect's scan.
  const bool benign_ok =
      r.benign_p99_after <= r.benign_p99_before * 1.05 + 1e-9;
  // Every shed is counted by the gate's denial counter and lands in
  // its event ring (whose per-type counts survive wraparound).
  const bool audit_ok =
      registry
              .GetCounter("tarpit_gate_denials_total",
                          {{"reason", "overload"}})
              ->Value() == static_cast<int64_t>(r.shed) &&
      gate.events()->CountOfType(obs::DefenseEventType::kOverloadShed) ==
          r.shed;
  r.pass = budget_held && all_accounted && excess_shed && charge_kept &&
           penalty_accrued && benign_ok && audit_ok;
  return r;
}

}  // namespace

int main() {
  const bool tiny = TinyConfig();
  const fs::path base =
      fs::temp_directory_path() /
      ("tarpit_bench_recovery_" + std::to_string(::getpid()));
  fs::remove_all(base);
  fs::create_directories(base);

  std::printf("# bench_recovery (%s)\n\n", tiny ? "tiny" : "full");

  // Shared read-path table for the overhead probe.
  const int probe_rows = 4'096;
  fs::create_directories(base / "probe");
  auto probe =
      Table::Create((base / "probe").string(), "p", BenchSchema(), 0);
  if (!probe.ok()) std::abort();
  for (int i = 0; i < probe_rows; ++i) {
    if (!(*probe)
             ->Insert({Value(static_cast<int64_t>(i)), Value(1.0)})
             .ok()) {
      std::abort();
    }
  }

  FailpointOverhead fp =
      MeasureFailpointOverhead(probe->get(), probe_rows, tiny);
  std::printf(
      "failpoints: %.3f ns/eval inactive, read op %.0f ns -> "
      "%.4f%% of an op at %g sites/op (target <= 1%%) %s\n",
      fp.macro_ns, fp.read_op_ns, 100.0 * fp.overhead, kSitesPerOp,
      fp.pass ? "PASS" : "FAIL");

  RecoveryResult rec = MeasureWalRecovery(base / "wal", tiny);
  std::printf(
      "recovery: %llu records replayed in %.3fs (%.0f rec/s), torn "
      "tail truncated %llu bytes, contents %s (target: complete, >= "
      "20k rec/s) %s\n",
      static_cast<unsigned long long>(rec.records), rec.open_seconds,
      rec.replay_rate,
      static_cast<unsigned long long>(rec.truncated_bytes),
      rec.complete ? "exact" : "WRONG", rec.pass ? "PASS" : "FAIL");

  DriftResult drift = MeasureLedgerDrift(base / "ledger", tiny);
  std::printf(
      "ledger: %llu charges, oracle %.6fs vs recovered %.6fs -> drift "
      "%.5f%% (target <= 0.01%%) %s\n",
      static_cast<unsigned long long>(drift.charges), drift.oracle_delay,
      drift.recovered_delay, 100.0 * drift.drift,
      drift.pass ? "PASS" : "FAIL");

  // Open-loop storage reads (CO-free, informational): the raw table
  // read path on a fixed exponential schedule, single lane (Table is
  // single-threaded by contract) -- a recovery-path regression that
  // slows reads shows up here as tail latency, not hidden by a
  // closed-loop's self-pacing.
  std::vector<int64_t> ol_keys;
  {
    Rng rng(0x0B5E55u);
    const int ol_ops = tiny ? 2'000 : 10'000;
    ol_keys.reserve(ol_ops);
    for (int i = 0; i < ol_ops; ++i) {
      ol_keys.push_back(static_cast<int64_t>(rng.Uniform(probe_rows)));
    }
  }
  bench::OpenLoopOptions olopts;
  olopts.threads = 1;
  olopts.ops_per_thread = static_cast<int>(ol_keys.size());
  olopts.mean_interarrival_us = tiny ? 100.0 : 50.0;
  const bench::OpenLoopStats ol =
      bench::RunOpenLoop(olopts, [&](int, int i) {
        if (!(*probe)->GetByKey(ol_keys[static_cast<size_t>(i)]).ok()) {
          std::abort();
        }
      });
  std::printf("open-loop storage reads: p50 %.0fus p99 %.0fus p999 "
              "%.0fus, achieved %.0f qps\n",
              ol.p50_us, ol.p99_us, ol.p999_us, ol.achieved_qps);

  FloodResult flood = MeasureGovernorFlood(base / "flood", tiny);
  std::printf(
      "governor: flood %llu vs budget %llu -> peak parked %llu "
      "(bytes %llu), served %llu, shed %llu, charged %llu, suspect "
      "penalty %.2fx, benign p99 %.4fs -> %.4fs %s\n",
      static_cast<unsigned long long>(flood.flood),
      static_cast<unsigned long long>(flood.budget),
      static_cast<unsigned long long>(flood.peak_parked),
      static_cast<unsigned long long>(flood.peak_parked_bytes),
      static_cast<unsigned long long>(flood.served),
      static_cast<unsigned long long>(flood.shed),
      static_cast<unsigned long long>(flood.charged),
      flood.suspect_penalty, flood.benign_p99_before,
      flood.benign_p99_after, flood.pass ? "PASS" : "FAIL");

  if (const char* json_path = std::getenv("TARPIT_BENCH_JSON")) {
    if (json_path[0] != '\0') {
      if (std::FILE* f = std::fopen(json_path, "w")) {
        std::fprintf(
            f,
            "{\n"
            "  \"bench\": \"recovery\",\n"
            "  \"tiny\": %s,\n"
            "  \"failpoint_ns_per_eval\": %.4f,\n"
            "  \"read_op_ns\": %.1f,\n"
            "  \"failpoint_overhead\": %.6f,\n"
            "  \"failpoint_pass\": %s,\n"
            "  \"recovered_records\": %llu,\n"
            "  \"recovery_seconds\": %.6f,\n"
            "  \"replay_rate\": %.1f,\n"
            "  \"truncated_bytes\": %llu,\n"
            "  \"recovery_pass\": %s,\n"
            "  \"ledger_charges\": %llu,\n"
            "  \"ledger_drift\": %.9f,\n"
            "  \"ledger_pass\": %s,\n"
            "  \"flood\": %llu,\n"
            "  \"budget\": %llu,\n"
            "  \"peak_parked\": %llu,\n"
            "  \"peak_parked_bytes\": %llu,\n"
            "  \"served\": %llu,\n"
            "  \"shed\": %llu,\n"
            "  \"charged\": %llu,\n"
            "  \"suspect_penalty\": %.3f,\n"
            "  \"benign_p99_before\": %.6f,\n"
            "  \"benign_p99_after\": %.6f,\n"
            "%s"
            "  \"flood_pass\": %s\n"
            "}\n",
            tiny ? "true" : "false", fp.macro_ns, fp.read_op_ns,
            fp.overhead, fp.pass ? "true" : "false",
            static_cast<unsigned long long>(rec.records),
            rec.open_seconds, rec.replay_rate,
            static_cast<unsigned long long>(rec.truncated_bytes),
            rec.pass ? "true" : "false",
            static_cast<unsigned long long>(drift.charges), drift.drift,
            drift.pass ? "true" : "false",
            static_cast<unsigned long long>(flood.flood),
            static_cast<unsigned long long>(flood.budget),
            static_cast<unsigned long long>(flood.peak_parked),
            static_cast<unsigned long long>(flood.peak_parked_bytes),
            static_cast<unsigned long long>(flood.served),
            static_cast<unsigned long long>(flood.shed),
            static_cast<unsigned long long>(flood.charged),
            flood.suspect_penalty, flood.benign_p99_before,
            flood.benign_p99_after,
            bench::OpenLoopJsonFields(ol).c_str(),
            flood.pass ? "true" : "false");
        std::fclose(f);
        std::printf("json written to %s\n", json_path);
      }
    }
  }

  fs::remove_all(base);
  return (fp.pass && rec.pass && drift.pass && flood.pass) ? 0 : 1;
}
