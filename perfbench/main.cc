// perfbench: the repository benchmark program. One process runs one
// workload against the production stack (see stack.h) and prints, as
// the last line of stdout, one JSON object:
//   {"correct": bool, "attempted": N, "failed": N, "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1
// the per-layer ones, from a registry window over the timed run plus
// the traced ladder (ladder.h). A human-readable report goes to stderr.
//
// Usage:
//   perfbench --workload hot_get|cold_mixed|stall_park --seed N
//             --seconds S --trace 0|1 [--out-dir DIR]

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/random.h"
#include "harness.h"
#include "ladder.h"
#include "stack.h"
#include "wire.h"
#include "workload/calgary_trace.h"

using namespace perfbench;

namespace {

struct Workload {
  const char* name;
  uint64_t rows;
  /// Keys from the Calgary-like Zipf(1.5) generator, else uniform.
  bool zipf;
  /// Over the wire (zero-cap policy) or in-process stalls (shipped
  /// policy).
  bool wire;
  /// Open-loop rate, ops per second (fixed; not seed-dependent).
  double rate;
  double select_share;
  double update_share;
  /// Set-ups per run; setup_s is their median.
  int setups;
};

// The process runs on one CPU (see main), so each rate must leave that
// CPU room to spare when a busy neighbour takes half of it. Each rate
// keeps that CPU about a fifth busy: at twice these rates the event
// loops batch frames in some runs and not in others, and the same seed
// read 84-114 us (hot_get) from run to run.
constexpr Workload kWorkloads[] = {
    // A sixth of hot_get's measured 4-connection closed-loop peak
    // (9,100-12,600/s in traced runs; see peak_qps).
    {"hot_get", 12'179, true, true, 2000, 0.10, 0.0, 5},
    {"cold_mixed", 1'000'000, false, true, 1000, 0.20, 0.20, 3},
    // One op per scheduler tick: each is due on a whole millisecond.
    {"stall_park", 12'179, true, false, 1000, 0.0, 0.0, 3},
};

constexpr int kConnections = 4;
constexpr uint64_t kWorkloadIdentityBase = 1000;
constexpr uint64_t kPeakIdentityBase = 2000;
constexpr size_t kWarmOps = 2000;
constexpr size_t kFloorOps = 1000;
constexpr size_t kLadderOps = 2000;
constexpr size_t kPeakPool = 20'000;
constexpr double kPeakSeconds = 1.0;
// The scheduler rung parks more than stall_park holds in flight (about
// 35), in the wheel's second level.
constexpr size_t kSchedParked = 256;
constexpr size_t kSchedProbes = 1000;
// stall_park principals: short sessions on distinct /24s, far below
// the reputation store's 1% breadth threshold (121 of 12,179 keys).
constexpr size_t kActivePrincipals = 256;
constexpr int kSessionOps = 32;
constexpr int64_t kDrainNs = 10'000'000'000;
// The stderr report adds the p90 of a typical second (see
// SlicedQuantileUs); no tail is gated.
constexpr int64_t kSliceNs = 1'000'000'000;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_out";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::atof(v);
    } else if (k == "--trace") {
      a->trace = std::atoi(v) != 0;
    } else if (k == "--out-dir") {
      a->out_dir = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0;
}

/// The seeded op stream: keys from the workload's generator, op kinds
/// by the workload's mix. The only consumer of --seed.
class OpStream {
 public:
  OpStream(const Workload& w, uint64_t seed)
      : w_(w), kind_rng_(seed * 0x9E3779B97F4A7C15ULL + 1), key_rng_(seed) {}

  std::vector<Op> Take(size_t n) {
    std::vector<int64_t> keys;
    if (w_.zipf) {
      tarpit::CalgaryTraceConfig cfg;  // 12,179 objects, alpha 1.5.
      cfg.objects = w_.rows;
      cfg.requests = n;
      cfg.seed = key_rng_.Next();
      for (const auto& r : tarpit::CalgaryTrace(cfg).Generate()) {
        keys.push_back(r.key);
      }
    } else {
      for (size_t i = 0; i < n; ++i) {
        keys.push_back(static_cast<int64_t>(key_rng_.Uniform(w_.rows)) + 1);
      }
    }
    std::vector<Op> ops(n);
    for (size_t i = 0; i < n; ++i) {
      const double u = kind_rng_.NextDouble();
      ops[i].key = keys[i];
      ops[i].kind = u < w_.update_share ? OpKind::kUpdate
                    : u < w_.update_share + w_.select_share ? OpKind::kSelect
                                                            : OpKind::kGet;
    }
    return ops;
  }

  tarpit::Rng* rng() { return &kind_rng_; }

 private:
  const Workload& w_;
  tarpit::Rng kind_rng_;
  tarpit::Rng key_rng_;
};

/// stall_park's principals: a pool of active short sessions, each on
/// its own /24 (10.x.y.0); a session retires after kSessionOps ops and
/// a fresh principal takes its place.
class PrincipalPool {
 public:
  PrincipalPool() {
    for (size_t i = 0; i < kActivePrincipals; ++i) active_.push_back(Fresh());
  }
  tarpit::RequestPrincipal Pick(tarpit::Rng* rng) {
    Session& s = active_[rng->Uniform(active_.size())];
    if (s.ops == kSessionOps) s = Fresh();
    ++s.ops;
    return s.who;
  }
  uint64_t issued() const { return next_; }

 private:
  struct Session {
    tarpit::RequestPrincipal who;
    int ops = 0;
  };
  Session Fresh() {
    const uint64_t n = next_++;
    return Session{{100'000 + n, (10u << 24) | static_cast<uint32_t>(
                                                  (n & 0xFFFF) << 8)},
                   0};
  }
  uint64_t next_ = 0;
  std::vector<Session> active_;
};

/// First due time of a schedule: the next whole millisecond of the
/// monotonic clock at least `lead_ns` away. That is the DelayScheduler's
/// default tick grid, so stall expiries round up by the same amounts in
/// every run instead of by a random phase.
int64_t ScheduleStart(int64_t lead_ns) {
  constexpr int64_t kTickNs = 1'000'000;
  return ((NowNs() + lead_ns) / kTickNs + 1) * kTickNs;
}

struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::tuple<std::string, double, std::string>> metrics;

  void Metric(std::string name, double v, std::string unit) {
    metrics.emplace_back(std::move(name), v, std::move(unit));
  }
  void Fail(const char* why) {
    std::fprintf(stderr, "check failed: %s\n", why);
    ++failed;
  }
};

/// One in-process stall: its timeline and what its callback saw.
struct StallSlot {
  std::atomic<bool> done{false};
  int64_t due_ns = 0;
  int64_t submit_ns = 0;
  int64_t done_ns = 0;
  double charge = 0;
  bool ok = false;
};

/// Everything one workload run keeps between phases.
struct Run {
  const Workload& w;
  Args args;
  OpStream stream;
  OutputChecker checker;
  // Written by stall callbacks; declared before `stack` so the stack
  // (and every callback it may still run) goes first.
  std::vector<std::unique_ptr<StallSlot>> stall_slots;
  std::unique_ptr<Stack> stack;
  std::unique_ptr<WireClient> client;  // Wire workloads.
  PrincipalPool principals;            // stall_park.
  std::vector<double> setup_s;
  Summary floor;
  // Timed-window results.
  Series get, sql, update, all, lag;
  CpuReading cpu_begin, cpu_end;
  uint64_t completed = 0;
  int64_t window_ns = 0;

  Run(const Workload& wl, Args a)
      : w(wl), args(std::move(a)), stream(wl, args.seed) {}

  std::string Dir(const char* what) const {
    return args.out_dir + "/" + what + "-" + w.name + "-" +
           std::to_string(::getpid());
  }
  int64_t period_ns() const {
    return static_cast<int64_t>(1e9 / w.rate);
  }
};

// ---- stall_park: in-process GetByKeyAsync on an open-loop schedule ----

/// Submits `ops` paced at the workload rate into run->stall_slots and
/// waits for every stall to complete. Returns false if some never
/// completed; the run must then end without reusing the slots.
bool RunStalls(Run* run, const std::vector<Op>& ops, int64_t* in_system_ns) {
  auto* slots = &run->stall_slots;
  slots->clear();
  for (size_t i = 0; i < ops.size(); ++i) {
    slots->push_back(std::make_unique<StallSlot>());
  }
  Pacer pacer(SleepNs);
  auto* db = run->stack->db();
  const OutputChecker* checker = &run->checker;
  const int64_t period = run->period_ns();
  const int64_t start = ScheduleStart(period);
  for (size_t i = 0; i < ops.size(); ++i) {
    StallSlot* s = (*slots)[i].get();
    s->due_ns = start + static_cast<int64_t>(i) * period;
    pacer.WaitUntil(s->due_ns);
    const tarpit::RequestPrincipal who =
        run->principals.Pick(run->stream.rng());
    const int64_t key = ops[i].key;
    const int64_t c0 = ThreadCpuNs();
    s->submit_ns = NowNs();
    db->GetByKeyAsync(key, who,
                      [s, key, checker](tarpit::Result<tarpit::ProtectedResult> r) {
                        s->done_ns = NowNs();
                        if (r.ok()) {
                          s->charge = r->delay_seconds;
                          s->ok = r->result.rows.size() == 1 &&
                                  checker->RowOk(key, r->result.rows[0]);
                        }
                        s->done.store(true, std::memory_order_release);
                      });
    *in_system_ns += ThreadCpuNs() - c0;
  }
  const int64_t give_up = NowNs() + kDrainNs;
  for (auto& s : *slots) {
    while (!s->done.load(std::memory_order_acquire)) {
      if (NowNs() > give_up) return false;
      SleepNs(1'000'000);
    }
  }
  return true;
}

// ---- set-up --------------------------------------------------------------

tarpit::Status SetUp(Run* run) {
  const int64_t t0 = NowNs();
  auto st = Stack::Open(run->Dir("db"), {run->w.rows, run->w.wire});
  if (!st.ok()) return st.status();
  run->stack = std::move(*st);
  const std::vector<Op> warm = run->stream.Take(kWarmOps);
  if (run->w.wire) {
    auto c = WireClient::Connect(run->stack->server()->port(), kConnections,
                                 kWorkloadIdentityBase, &run->checker);
    if (!c.ok()) return c.status();
    run->client = std::move(*c);
    // Warm-up at the workload's own rate: fills the caches the timed run
    // reads, and its length is set by the schedule, not the host's speed.
    std::vector<OpOutcome> out;
    run->client->RunOpenLoop(warm, ScheduleStart(run->period_ns()),
                             run->period_ns(), kDrainNs, &out);
    for (const OpOutcome& o : out) {
      if (!o.done || !o.ok) return tarpit::Status::Internal("warm-up failed");
    }
  } else {
    int64_t unused = 0;
    if (!RunStalls(run, warm, &unused)) {
      return tarpit::Status::Internal("warm-up stalls never completed");
    }
  }
  run->setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  return tarpit::Status::OK();
}

void TearDown(Run* run) {
  run->client.reset();
  run->stack.reset();
}

// ---- the timed window ------------------------------------------------------

CpuReading ReadCpu(int64_t in_system_ns) {
  CpuReading r;
  r.process_ns = ProcessCpuNs();
  r.generator_ns = ThreadCpuNs();
  r.generator_in_system_ns = in_system_ns;
  return r;
}

void TimedWire(Run* run, Report* res) {
  const size_t n = static_cast<size_t>(run->w.rate * run->args.seconds);
  const std::vector<Op> ops = run->stream.Take(n);
  std::vector<OpOutcome> out;
  const int64_t start = ScheduleStart(run->period_ns());
  run->cpu_begin = ReadCpu(0);
  run->client->RunOpenLoop(ops, start, run->period_ns(), kDrainNs, &out);
  run->cpu_end = ReadCpu(0);
  run->window_ns = NowNs() - start;
  for (size_t i = 0; i < n; ++i) {
    const OpOutcome& o = out[i];
    ++res->attempted;
    if (!o.done || !o.ok) {
      ++res->failed;
      continue;
    }
    ++run->completed;
    const int64_t lat = o.done_ns - o.due_ns;
    run->all.Add(o.due_ns, lat);
    run->lag.Add(o.due_ns, o.sent_ns - o.due_ns);
    switch (ops[i].kind) {
      case OpKind::kGet: run->get.Add(o.due_ns, lat); break;
      case OpKind::kSelect: run->sql.Add(o.due_ns, lat); break;
      case OpKind::kUpdate: run->update.Add(o.due_ns, lat); break;
    }
  }
}

void TimedStalls(Run* run, Report* res) {
  const size_t n = static_cast<size_t>(run->w.rate * run->args.seconds);
  const std::vector<Op> ops = run->stream.Take(n);
  auto* db = run->stack->db();
  auto& registry = run->stack->registry();
  const double ledger0 = db->Metrics().total_delay_seconds;
  const auto snap0 = registry.Snapshot();
  int64_t in_system = 0;
  const int64_t t0 = NowNs();
  run->cpu_begin = ReadCpu(0);
  const bool drained = RunStalls(run, ops, &in_system);
  run->cpu_end = ReadCpu(in_system);
  run->window_ns = NowNs() - t0;
  if (!drained) res->Fail("stalls still parked after the drain timeout");
  const double ledger1 = db->Metrics().total_delay_seconds;
  const RegistryWindow win(snap0, registry.Snapshot());

  double charged = 0;
  uint64_t short_stalls = 0;
  for (const auto& s : run->stall_slots) {
    ++res->attempted;
    if (!s->done.load(std::memory_order_acquire) || !s->ok) {
      ++res->failed;
      continue;
    }
    charged += s->charge;
    if (OutputChecker::ServedShort(s->submit_ns, s->done_ns, s->charge)) {
      ++short_stalls;
      ++res->failed;
      continue;
    }
    ++run->completed;
    const int64_t lateness =
        s->done_ns - s->due_ns - static_cast<int64_t>(s->charge * 1e9);
    run->get.Add(s->due_ns, lateness);
    run->all.Add(s->due_ns, lateness);
    run->lag.Add(s->due_ns, s->submit_ns - s->due_ns);
  }
  if (!OutputChecker::ChargesReconcile(charged, ledger1 - ledger0)) {
    std::fprintf(stderr, "charges %.9f s vs ledger delta %.9f s\n", charged,
                 ledger1 - ledger0);
    res->Fail("reported charges do not add up to the ledger delta");
  }
  if (win.Count("tarpit_reputation_escalations_total") != 0) {
    res->Fail("benign stall_park traffic was escalated");
  }
  std::fprintf(stderr,
               "stall_park: %llu principals issued, %llu stalls served "
               "short, %.3f s charged\n",
               static_cast<unsigned long long>(run->principals.issued()),
               static_cast<unsigned long long>(short_stalls), charged);
}

void Timed(Run* run, Report* res) {
  if (run->w.wire) {
    TimedWire(run, res);
  } else {
    TimedStalls(run, res);
  }
}

// ---- reports ----------------------------------------------------------------

void ReportLine(const char* what, const Series& series) {
  const Summary s = Summarize(series.value_ns);
  std::fprintf(stderr,
               "  %-14s n=%-8zu p50=%9.2f  p90=%9.2f  p99=%9.2f  "
               "typical-second p90=%9.2f us\n",
               what, s.count, s.p50_us, s.p90_us, s.p99_us,
               SlicedQuantileUs(series, kSliceNs, 0.9));
}

void EndToEnd(Run* run, Report* res) {
  std::vector<double> setups = run->setup_s;
  std::sort(setups.begin(), setups.end());
  const double setup = setups[setups.size() / 2];
  res->Metric("setup_s", setup, "s");
  res->Metric("get_p50_us", Summarize(run->get.value_ns).p50_us, "us");
  res->Metric("op_p50_us", Summarize(run->all.value_ns).p50_us, "us");
  res->Metric("cpu_us_per_op",
              CpuUsPerOp(run->cpu_begin, run->cpu_end, run->completed), "us");
  res->Metric("rss_mb", PeakRssMb(), "MB");
}

/// Window deltas the registry does not carry, read from accessors.
struct AccessorDeltas {
  double epoch_flushes = 0;
  double cascades = 0;
};

/// Each metric has one fixed source: `win` is the timed window on the
/// workload's stack, `ladder_win` the peak and ladder phases on the
/// ladder's stack (the only wire traffic on stall_park).
void PerLayer(Run* run, const RegistryWindow& win,
              const RegistryWindow& ladder_win, const AccessorDeltas& acc,
              const LadderOutput& ladder, double peak_qps, Report* res) {
  auto* db = run->stack->db();
  auto* sched = db->delay_scheduler();
  const double ops = static_cast<double>(std::max<uint64_t>(run->completed, 1));
  const double updates = static_cast<double>(run->update.value_ns.size());
  for (const auto& [name, v] : ladder.metrics) {
    res->Metric(name, v, name.ends_with("_pct") ? "%" : "us");
  }
  res->Metric("core.row_cache_hit_ratio",
              Ratio(win.Count("tarpit_row_cache_hits_total"),
                    win.Count("tarpit_row_cache_hits_total") +
                        win.Count("tarpit_row_cache_misses_total")),
              "ratio");
  const double bp_hits = win.Count("tarpit_bufferpool_hits_total");
  res->Metric("storage.bufpool_hit_ratio",
              Ratio(bp_hits, bp_hits + win.Count("tarpit_bufferpool_misses_total")),
              "ratio");
  const double pc_hits = win.Count("tarpit_plan_cache_hits_total");
  res->Metric("sql.plan_cache_hit_ratio",
              Ratio(pc_hits, pc_hits + win.Count("tarpit_plan_cache_misses_total")),
              "ratio");
  res->Metric("storage.wal_bytes_per_update",
              Ratio(win.Count("tarpit_wal_append_bytes_total"), updates),
              "bytes");
  res->Metric("core.write_batch_ops_mean",
              win.Histogram("tarpit_write_batch_ops").Mean(), "count");
  res->Metric("storage.btree_write_restarts",
              win.Count("tarpit_btree_write_restarts_total"), "count");
  res->Metric("core.mvcc_ddl_fences",
              win.Count("tarpit_mvcc_ddl_fences_total"), "count");
  res->Metric("stats.epoch_flushes_per_kop",
              1000.0 * acc.epoch_flushes / ops, "count");
  // 0 on the zero-cap workloads, which park nothing.
  res->Metric("core.sched_dispatch_lag_p99_us",
              win.Histogram("tarpit_scheduler_dispatch_lag_micros")
                  .Quantile(0.99),
              "us");
  res->Metric("core.sched_peak_parked",
              static_cast<double>(sched->peak_parked()), "count");
  res->Metric("core.sched_cascades", acc.cascades, "count");
  res->Metric("net.read_p50_us",
              ladder_win.Histogram("tarpit_net_read_micros").Median(), "us");
  res->Metric("net.write_p50_us",
              ladder_win.Histogram("tarpit_net_write_micros").Median(), "us");
  res->Metric("net.protocol_errors",
              win.Count("tarpit_net_protocol_errors_total") +
                  ladder_win.Count("tarpit_net_protocol_errors_total"),
              "count");
  res->Metric("defense.signals",
              win.Count("tarpit_reputation_signals_total"), "count");
  res->Metric("defense.escalations",
              win.Count("tarpit_reputation_escalations_total"), "count");
  auto& rep = run->stack->reputation();
  res->Metric("defense.tracked_principals",
              static_cast<double>(rep.tracked_identities() +
                                  rep.tracked_subnets()),
              "count");
  res->Metric("harness.floor_p50_us", run->floor.p50_us, "us");
  res->Metric("harness.lag_p99_us", Summarize(run->lag.value_ns).p99_us, "us");
  res->Metric("peak_qps", peak_qps, "1/s");
}

void PrintJson(const Report& res) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              res.correct ? "true" : "false",
              static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed));
  for (size_t i = 0; i < res.metrics.size(); ++i) {
    const auto& [name, v, unit] = res.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", name.c_str(), v, unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int Main(const Args& args) {
  const Workload* w = nullptr;
  for (const Workload& cand : kWorkloads) {
    if (args.workload == cand.name) w = &cand;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  // Every thread of the process shares one CPU, so each hop between
  // the generator, the event loops and the dispatchers is a local
  // context switch, not a wake of another, possibly idle, vCPU.
  const int cpu = PinToOneCpu();
  if (cpu < 0) {
    std::fprintf(stderr, "could not pin the process to one CPU\n");
    return 1;
  }
  Run run(*w, args);
  Report res;
  const int setups = args.trace ? 1 : w->setups;
  for (int i = 0; i < setups; ++i) {
    if (i != 0) TearDown(&run);
    const tarpit::Status st = SetUp(&run);
    if (!st.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", st.ToString().c_str());
      return 1;
    }
  }

  auto& registry = run.stack->registry();
  auto* db = run.stack->db();
  // The harness floor: empty ops through the generator's own wait path.
  if (w->wire) {
    run.floor = run.client->pacer().Calibrate(kFloorOps, run.period_ns());
  } else {
    run.floor = Pacer(SleepNs).Calibrate(kFloorOps, run.period_ns());
  }
  const auto snap0 = registry.Snapshot();
  const uint64_t flushes0 = db->stats_epoch_flushes();
  const uint64_t cascades0 = db->delay_scheduler()->cascades();
  Timed(&run, &res);
  const auto snap1 = registry.Snapshot();
  const AccessorDeltas acc{
      static_cast<double>(db->stats_epoch_flushes() - flushes0),
      static_cast<double>(db->delay_scheduler()->cascades() - cascades0)};
  if (run.floor.p50_us > 5.0) res.Fail("harness floor p50 above 5 us");


  std::fprintf(stderr,
               "%s seed=%llu cpu=%d window=%.2fs floor p50=%.3f us\n",
               w->name, static_cast<unsigned long long>(args.seed), cpu,
               static_cast<double>(run.window_ns) / 1e9, run.floor.p50_us);
  ReportLine("get", run.get);
  ReportLine("sql", run.sql);
  ReportLine("update", run.update);
  ReportLine("all", run.all);
  ReportLine("generator lag", run.lag);

  if (!args.trace) {
    EndToEnd(&run, &res);
  } else {
    const RegistryWindow win(snap0, snap1);

    // The ladder needs a zero-cap stack with a server: the workload's
    // own when it is one, else a twin over the same rows.
    std::unique_ptr<Stack> twin;
    Stack* ladder_stack = run.stack.get();
    if (!w->wire) {
      auto t = Stack::Open(run.Dir("twin"), {w->rows, /*wire=*/true});
      if (!t.ok()) {
        std::fprintf(stderr, "twin stack: %s\n", t.status().ToString().c_str());
        return 1;
      }
      twin = std::move(*t);
      ladder_stack = twin.get();
    }
    const auto ladder_snap0 = ladder_stack->registry().Snapshot();
    // Peak before the ladder: the ladder's UPDATE rungs leave hot keys
    // in a state that slows later reads.
    uint64_t peak_failed = 0;
    double peak_qps = 0;
    {
      auto c = WireClient::Connect(ladder_stack->server()->port(),
                                   kConnections, kPeakIdentityBase,
                                   &run.checker);
      if (c.ok()) {
        peak_qps = (*c)->RunClosedLoop(run.stream.Take(kPeakPool),
                                       kPeakSeconds, &peak_failed);
      } else {
        ++peak_failed;
      }
    }
    Tracer tracer(true);
    LadderOutput ladder;
    RunLadder(ladder_stack, run.stream.Take(kLadderOps), &run.checker,
              &tracer, &ladder);
    RunSchedulerRung(kSchedParked, kSchedProbes, &tracer, &ladder);
    res.attempted += ladder.attempted + 1;
    res.failed += ladder.failed + peak_failed;
    const RegistryWindow ladder_win(ladder_snap0,
                                    ladder_stack->registry().Snapshot());
    PerLayer(&run, win, ladder_win, acc, ladder, peak_qps, &res);

    const std::string path = args.out_dir + "/trace-" + w->name + "-seed" +
                             std::to_string(args.seed) + ".json";
    if (!tracer.WriteChromeTrace(path)) {
      res.Fail("could not write the Chrome trace");
    }
    std::fprintf(stderr, "trace: %zu spans -> %s\n", tracer.spans().size(),
                 path.c_str());
  }
  res.correct = res.failed == 0;
  TearDown(&run);
  PrintJson(res);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ::signal(SIGPIPE, SIG_IGN);
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--out-dir DIR]\n");
    return 2;
  }
  return Main(args);
}
