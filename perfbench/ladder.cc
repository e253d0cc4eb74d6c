#include "ladder.h"

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <thread>

#include "common/random.h"
#include "core/delay_scheduler.h"
#include "core/popularity_delay.h"
#include "net/client.h"

namespace perfbench {

using tarpit::ProtectedResult;
using tarpit::RequestPrincipal;
using tarpit::Result;

uint32_t Tracer::Begin(const char* name, uint32_t parent, uint32_t op) {
  if (!enabled_) return 0;
  const auto id = static_cast<uint32_t>(spans_.size() + 1);
  spans_.push_back(Span{name, NowNs(), 0, id, parent, op});
  return id;
}

void Tracer::End(uint32_t id) {
  if (id != 0) spans_[id - 1].end_ns = NowNs();
}

uint32_t Tracer::Add(const char* name, int64_t start_ns, int64_t end_ns,
                     uint32_t parent, uint32_t op) {
  if (!enabled_) return 0;
  const auto id = static_cast<uint32_t>(spans_.size() + 1);
  spans_.push_back(Span{name, start_ns, end_ns, id, parent, op});
  return id;
}

std::vector<int64_t> Tracer::Durations(const char* name) const {
  std::vector<int64_t> out;
  for (const Span& s : spans_) {
    if (std::string_view(s.name) == name) out.push_back(s.end_ns - s.start_ns);
  }
  return out;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", f);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%u,"
                 "\"parent\":%u,\"op\":%u}}\n",
                 i == 0 ? "" : ",", s.name,
                 static_cast<double>(s.start_ns - t0) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.id,
                 s.parent, s.op);
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

namespace {

constexpr uint64_t kLadderIdentity = 9001;
// The ladder's wire client binds 127.0.9.1, so the server files it
// under 127.0.9.0/24; the in-process rungs use the same principal.
constexpr uint32_t kLadderSubnet = (127u << 24) | (9u << 8);

/// Completion slot for one async door call.
struct AsyncSlot {
  std::atomic<bool> done{false};
  int64_t done_ns = 0;
  Result<ProtectedResult> result = tarpit::Status::Internal("pending");
};

void AwaitSlot(AsyncSlot* slot) {
  while (!slot->done.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
}

class Ladder {
 public:
  Ladder(Stack* stack, OutputChecker* checker, Tracer* tracer,
         tarpit::net::FrameClient* client, LadderOutput* out)
      : stack_(stack),
        db_(stack->db()),
        checker_(checker),
        tracer_(tracer),
        client_(client),
        out_(out),
        table_(db_->unsafe_inner()->table()),
        spine_(db_->concurrent_access_tracker()) {}

  /// Every read rung for one key, under one root span.
  void ReadOp(uint32_t op, int64_t key);
  /// The pk UPDATE rung. Run after every read: updated hot keys slow
  /// later reads down.
  void UpdateOp(uint32_t op, int64_t key);

 private:
  bool RowResultOk(int64_t key, const Result<ProtectedResult>& r) const {
    return r.ok() && r->delay_seconds == 0 && r->result.rows.size() == 1 &&
           checker_->RowOk(key, r->result.rows[0]);
  }
  bool WireRowOk(int64_t key,
                 const Result<tarpit::net::WireResponse>& r) const {
    return r.ok() && r->status_code == 0 && r->delay_micros == 0 &&
           r->row_count == 1 && checker_->RowTextOk(key, r->text);
  }
  /// One async door call: `outer` spans call -> callback, its child
  /// `door` spans call -> return (the compute phase and the enqueue on
  /// this thread). The dispatcher often runs the callback before the
  /// call has returned, so the hop is only visible as outer - door.
  template <typename Call>
  Result<ProtectedResult> Async(Call call, const char* outer,
                                const char* door, uint32_t parent,
                                uint32_t op);
  void Count(bool ok) {
    ++out_->attempted;
    if (!ok) ++out_->failed;
  }

  Stack* stack_;
  tarpit::ConcurrentProtectedDatabase* db_;
  OutputChecker* checker_;
  Tracer* tracer_;
  tarpit::net::FrameClient* client_;
  LadderOutput* out_;
  tarpit::Table* table_;
  tarpit::ConcurrentCountTracker* spine_;
};

template <typename Call>
Result<ProtectedResult> Ladder::Async(Call call, const char* outer,
                                      const char* door, uint32_t parent,
                                      uint32_t op) {
  AsyncSlot slot;
  const int64_t t0 = NowNs();
  call([&slot](Result<ProtectedResult> r) {
    slot.done_ns = NowNs();
    slot.result = std::move(r);
    slot.done.store(true, std::memory_order_release);
  });
  const int64_t t1 = NowNs();
  AwaitSlot(&slot);
  const uint32_t id = tracer_->Add(outer, t0, slot.done_ns, parent, op);
  tracer_->Add(door, t0, t1, id, op);
  return std::move(slot.result);
}

void Ladder::ReadOp(uint32_t op, int64_t key) {
  const RequestPrincipal who{kLadderIdentity, kLadderSubnet};
  const uint32_t root = tracer_->Begin("ladder.op", 0, op);

  uint32_t s = tracer_->Begin("storage.table_get", root, op);
  auto row = table_->GetByKey(key);
  tracer_->End(s);
  Count(row.ok() && checker_->RowOk(key, *row));

  s = tracer_->Begin("stats.record_and_delay", root, op);
  const tarpit::PopularityStats stats =
      spine_->RecordAndStats(key, /*need_rank=*/false);
  const double delay = tarpit::PopularityDelayPolicy::DelayFromStats(
      stats, stack_->policy());
  tracer_->End(s);
  Count(delay == 0);

  auto got = Async(
      [&](auto done) { db_->GetByKeyAsync(key, std::move(done)); },
      "core.async_get", "core.door_get", root, op);
  Count(RowResultOk(key, got));

  got = Async(
      [&](auto done) { db_->GetByKeyAsync(key, who, std::move(done)); },
      "defense.async_get", "defense.door_get", root, op);
  Count(RowResultOk(key, got));

  s = tracer_->Begin("defense.observe_access", root, op);
  stack_->reputation().ObserveAccess(who.identity, who.subnet24, key,
                                     stack_->config().rows,
                                     stack_->clock()->NowSeconds());
  tracer_->End(s);
  Count(true);

  const std::string select = SelectSql(key);
  got = Async(
      [&](auto done) { db_->ExecuteSqlAsync(select, who, std::move(done)); },
      "sql.async_select", "sql.door_select", root, op);
  Count(RowResultOk(key, got));

  s = tracer_->Begin("net.wire_get", root, op);
  auto wire = client_->GetByKey(key, 10.0);
  tracer_->End(s);
  Count(WireRowOk(key, wire));

  s = tracer_->Begin("net.wire_sql", root, op);
  wire = client_->Query(select, 10.0);
  tracer_->End(s);
  Count(WireRowOk(key, wire));

  tracer_->End(root);
}

void Ladder::UpdateOp(uint32_t op, int64_t key) {
  const RequestPrincipal who{kLadderIdentity, kLadderSubnet};
  const std::string update = UpdateSql(key, NextWriteValue(checker_, key));
  auto got = Async(
      [&](auto done) { db_->ExecuteSqlAsync(update, who, std::move(done)); },
      "core.async_update", "core.door_update", 0, op);
  Count(got.ok() && got->delay_seconds == 0 && got->result.affected == 1);
}

void AddSummary(LadderOutput* out, const std::string& rung,
                const Summary& s) {
  out->metrics.emplace_back(rung + "_p50_us", s.p50_us);
  out->metrics.emplace_back(rung + "_p99_us", s.p99_us);
}

/// a - b, quantile by quantile.
Summary Minus(const Summary& a, const Summary& b) {
  Summary d;
  d.count = std::min(a.count, b.count);
  d.p50_us = a.p50_us - b.p50_us;
  d.p99_us = a.p99_us - b.p99_us;
  return d;
}

}  // namespace

void RunLadder(Stack* stack, const std::vector<Op>& ops,
               OutputChecker* checker, Tracer* tracer, LadderOutput* out) {
  tarpit::net::FrameClient client;
  tarpit::Status st =
      client.Connect("127.0.0.1", stack->server()->port(), "127.0.9.1");
  if (st.ok()) st = client.Hello(kLadderIdentity);
  if (!st.ok()) {
    std::fprintf(stderr, "ladder connect: %s\n", st.ToString().c_str());
    ++out->attempted;
    ++out->failed;
    return;
  }
  // Fold pending MVCC versions into base storage so Table::GetByKey
  // reads what the door serves.
  if (!stack->db()->Checkpoint().ok()) ++out->failed;
  Ladder ladder(stack, checker, tracer, &client, out);

  // Alternate untraced and traced rounds over the same keys, flipping
  // which goes first, so cache warmth does not bias the overhead.
  constexpr size_t kRound = 100;
  int64_t untraced_ns = 0;
  int64_t traced_ns = 0;
  auto sweep = [&](void (Ladder::*rung)(uint32_t, int64_t)) {
    for (size_t lo = 0, round = 0; lo < ops.size(); lo += kRound, ++round) {
      const size_t hi = std::min(ops.size(), lo + kRound);
      for (int pass = 0; pass < 2; ++pass) {
        const bool traced = (pass == 0) == (round % 2 == 1);
        tracer->set_enabled(traced);
        const int64_t t0 = NowNs();
        for (size_t i = lo; i < hi; ++i) {
          (ladder.*rung)(static_cast<uint32_t>(i), ops[i].key);
        }
        (traced ? traced_ns : untraced_ns) += NowNs() - t0;
      }
    }
  };
  sweep(&Ladder::ReadOp);
  sweep(&Ladder::UpdateOp);
  tracer->set_enabled(true);

  auto rung = [&](const char* name) {
    return Summarize(tracer->Durations(name));
  };
  AddSummary(out, "storage.table_get", rung("storage.table_get"));
  AddSummary(out, "stats.record_and_delay", rung("stats.record_and_delay"));
  const Summary door = rung("core.door_get");
  AddSummary(out, "core.door_get", door);
  AddSummary(out, "defense.principal_delta",
             Minus(rung("defense.door_get"), door));
  AddSummary(out, "defense.observe_access", rung("defense.observe_access"));
  AddSummary(out, "core.async_hop", Minus(rung("core.async_get"), door));
  AddSummary(out, "sql.door_select", rung("sql.door_select"));
  AddSummary(out, "core.door_update", rung("core.door_update"));
  AddSummary(out, "net.wire_get_delta",
             Minus(rung("net.wire_get"), rung("defense.async_get")));
  AddSummary(out, "net.wire_sql_delta",
             Minus(rung("net.wire_sql"), rung("sql.async_select")));
  out->metrics.emplace_back(
      "obs.tracing_overhead_pct",
      100.0 * Ratio(static_cast<double>(traced_ns - untraced_ns),
                    static_cast<double>(untraced_ns)));
}

void RunSchedulerRung(size_t parked, size_t probes, Tracer* tracer,
                      LadderOutput* out) {
  struct Probe {
    std::atomic<bool> done{false};
    bool cancelled = false;
    int64_t deadline_ns = 0;
    int64_t fire_ns = 0;
  };
  tarpit::RealClock clock;
  tarpit::DelayScheduler sched(&clock, tarpit::DelaySchedulerOptions{});
  // Fixed inputs: this rung measures the scheduler, not the workload.
  tarpit::Rng rng(0x5C4EDULL);
  for (size_t i = 0; i < parked; ++i) {
    sched.Submit(2.0 + 3.0 * rng.NextDouble(), [](bool) {});
  }
  std::vector<std::unique_ptr<Probe>> slots;
  for (size_t i = 0; i < probes; ++i) slots.push_back(std::make_unique<Probe>());
  Pacer pacer(SleepNs);
  constexpr int64_t kPeriodNs = 1'000'000;
  const int64_t start = NowNs() + kPeriodNs;
  for (size_t i = 0; i < probes; ++i) {
    pacer.WaitUntil(start + static_cast<int64_t>(i) * kPeriodNs);
    const double d = 0.02 + 0.03 * rng.NextDouble();
    Probe* p = slots[i].get();
    p->deadline_ns = NowNs() + static_cast<int64_t>(std::ceil(d * 1e9));
    sched.Submit(d, [p](bool cancelled) {
      p->fire_ns = NowNs();
      p->cancelled = cancelled;
      p->done.store(true, std::memory_order_release);
    });
  }
  std::vector<int64_t> lateness;
  for (size_t i = 0; i < probes; ++i) {
    Probe* p = slots[i].get();
    while (!p->done.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ++out->attempted;
    if (p->cancelled || p->fire_ns < p->deadline_ns - 1000) ++out->failed;
    lateness.push_back(p->fire_ns - p->deadline_ns);
    tracer->Add("core.sched_lateness", p->deadline_ns, p->fire_ns, 0,
                static_cast<uint32_t>(i));
  }
  sched.Shutdown(tarpit::DelayScheduler::ShutdownMode::kCancelPending);
  AddSummary(out, "core.sched_lateness", Summarize(std::move(lateness)));
}

}  // namespace perfbench
