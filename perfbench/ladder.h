#ifndef TARPIT_PERFBENCH_LADDER_H_
#define TARPIT_PERFBENCH_LADDER_H_

// The traced per-layer ladder: for each key of the workload's stream,
// call into each layer's public functions in turn (table point get,
// stats spine + delay math, the door with and without a principal,
// the reputation store, door SQL, the scheduler hop, and the wire),
// record a span around every call, and turn the spans into per-rung
// p50/p99. Spans live in memory and are written as Chrome trace JSON.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "harness.h"
#include "stack.h"
#include "wire.h"

namespace perfbench {

/// One timed interval. Spans of one ladder op share `op`; `parent` is
/// the id of the enclosing span (0 = root).
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint32_t id = 0;
  uint32_t parent = 0;
  uint32_t op = 0;
};

/// In-memory span recorder. When disabled, Begin/End record nothing,
/// which is the untraced pass the tracing overhead is measured against.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  void set_enabled(bool on) { enabled_ = on; }

  /// Opens a span starting now; returns its id (0 when disabled).
  uint32_t Begin(const char* name, uint32_t parent, uint32_t op);
  void End(uint32_t id);
  /// Records a span with explicit stamps (an interval measured elsewhere,
  /// such as a callback's completion).
  uint32_t Add(const char* name, int64_t start_ns, int64_t end_ns,
               uint32_t parent, uint32_t op);

  const std::vector<Span>& spans() const { return spans_; }
  /// Durations (ns) of every span called `name`.
  std::vector<int64_t> Durations(const char* name) const;
  /// Writes every span as a Chrome trace ("X" events, microseconds).
  bool WriteChromeTrace(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

struct LadderOutput {
  /// Per-layer metrics by name, in print order (microseconds unless
  /// the name says otherwise).
  std::vector<std::pair<std::string, double>> metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

/// Runs the ladder on `stack` (a zero-cap stack with a server) over
/// the keys of `ops`, alternating untraced and traced rounds; adds
/// every rung's p50/p99 plus obs.tracing_overhead_pct to `out`, and the
/// spans to `tracer`.
void RunLadder(Stack* stack, const std::vector<Op>& ops,
               OutputChecker* checker, Tracer* tracer, LadderOutput* out);

/// core.sched_lateness: a standalone DelayScheduler holding
/// `parked` background stalls; `probes` stalls of 20-50 ms are
/// submitted 1 ms apart and each is timed from its deadline to its
/// callback. Its inputs are fixed, not drawn from the workload seed.
void RunSchedulerRung(size_t parked, size_t probes, Tracer* tracer,
                      LadderOutput* out);

}  // namespace perfbench

#endif  // TARPIT_PERFBENCH_LADDER_H_
