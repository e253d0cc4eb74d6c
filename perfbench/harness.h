#ifndef TARPIT_PERFBENCH_HARNESS_H_
#define TARPIT_PERFBENCH_HARNESS_H_

// Measurement plumbing shared by every perfbench workload: clocks,
// percentile summaries, the generator-CPU subtraction, the output
// checker, a calibrated open-loop pacer, and registry window deltas.
// Kept free of workload logic so selftest.cc can exercise it directly.

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "storage/value.h"

namespace perfbench {

/// CLOCK_MONOTONIC in nanoseconds (the same source as steady_clock,
/// which the scheduler and event loops stamp with).
int64_t NowNs();
/// CPU consumed by the calling thread / the whole process.
int64_t ThreadCpuNs();
int64_t ProcessCpuNs();
/// Peak resident set of this process in MiB.
double PeakRssMb();
/// nanosleep for `ns` (no-op when <= 0); the in-process pacers' idle.
void SleepNs(int64_t ns);
/// Restricts the calling thread, and every thread it starts later, to
/// the highest-numbered CPU it may run on. Returns that CPU, or -1 when
/// the affinity could not be read or set.
int PinToOneCpu();

/// Median, p90 and p99 of a sample set, with its size. p99 is the
/// highest percentile reported: at 1,000+ samples it has ten or more
/// beyond it.
struct Summary {
  size_t count = 0;
  double p50_us = 0;
  double p90_us = 0;
  double p99_us = 0;
};

/// Linear-interpolated quantile (q in [0, 1]) of an ascending sample
/// vector; 0 when empty.
double Quantile(const std::vector<int64_t>& sorted, double q);

/// Sorts `samples_ns` and summarizes it in microseconds.
Summary Summarize(std::vector<int64_t> samples_ns);

/// Latency samples of a timed window, each stamped with its due time.
struct Series {
  std::vector<int64_t> due_ns;
  std::vector<int64_t> value_ns;

  void Add(int64_t due, int64_t value) {
    due_ns.push_back(due);
    value_ns.push_back(value);
  }
};

/// The q-quantile of a typical slice, in microseconds: the series is cut
/// into consecutive `slice_ns` windows of due time and the median of the
/// windows' own q-quantiles is returned (0 when empty). A stall that
/// spoils a few windows moves it little, unlike the whole run's
/// quantile.
double SlicedQuantileUs(const Series& s, int64_t slice_ns, double q);

/// CPU counters read at the edges of a timed window. The generator
/// thread's CPU is the load generator's own cost, except the part it
/// spends inside calls into the system under test (the in-process
/// workload submits requests on that thread), which stays charged to
/// the system.
struct CpuReading {
  int64_t process_ns = 0;
  int64_t generator_ns = 0;
  int64_t generator_in_system_ns = 0;
};

/// (process CPU - generator's own CPU) per completed op, in
/// microseconds; 0 when no op completed.
double CpuUsPerOp(const CpuReading& begin, const CpuReading& end,
                  uint64_t ops);

/// Validates what the system returned. Every row must be the requested
/// key with either its loaded value (key * 0.5) or a value the
/// benchmark itself wrote to that key. Writes are noted from one
/// thread; concurrent readers are safe only while no write is noted.
class OutputChecker {
 public:
  static double LoadedValue(int64_t key) {
    return static_cast<double>(key) * 0.5;
  }

  void NoteWrite(int64_t key, double value);

  /// An in-process result row.
  bool RowOk(int64_t key, const tarpit::Row& row) const;
  /// A wire response text: an optional "id,v" header line, then one
  /// "key<TAB>value" line, values printed as the server prints them.
  bool RowTextOk(int64_t key, std::string_view text) const;

  /// True when a stall completed before submit + charge: served short.
  /// The scheduler stamps whole microseconds, so one microsecond of
  /// truncation is not a short stall.
  static bool ServedShort(int64_t submit_ns, int64_t done_ns,
                          double charge_seconds);
  /// True when the charges the callers saw add up to the ledger's delta
  /// up to floating-point rounding.
  static bool ChargesReconcile(double reported_sum_seconds,
                               double ledger_delta_seconds);

 private:
  bool ValueOk(int64_t key, double value) const;
  bool ValueTextOk(int64_t key, std::string_view text) const;

  std::unordered_map<int64_t, std::vector<double>> written_;
};

/// Open-loop pacing for one generator thread: sets a 1 ns timer slack,
/// sleeps through `idle` until kSpinNs before each due time, then spins
/// (still polling `idle` with a zero budget so completions are read as
/// they arrive).
class Pacer {
 public:
  /// `idle(max_wait_ns)` waits for I/O at most that long (0 = poll).
  using Idle = std::function<void(int64_t max_wait_ns)>;
  /// Long enough to cover a wake from an idle vCPU (about 25 us), short
  /// enough that the generator stays a sleeper to the kernel's
  /// scheduler. A 100 us spin at 4,000/s made it a CPU hog that a busy
  /// neighbour on the same CPU then delayed by whole time slices.
  static constexpr int64_t kSpinNs = 50'000;

  explicit Pacer(Idle idle);

  /// Returns once NowNs() >= due_ns; the return value is NowNs().
  int64_t WaitUntil(int64_t due_ns);

  /// The harness floor: `ops` empty ops on a fixed `period_ns`
  /// schedule through WaitUntil, each timed from its due time.
  Summary Calibrate(size_t ops, int64_t period_ns);

 private:
  Idle idle_;
};

/// Registry deltas over a window: counters summed across label sets,
/// histograms merged across label sets and subtracted bucket-wise.
class RegistryWindow {
 public:
  RegistryWindow(tarpit::obs::RegistrySnapshot before,
                 tarpit::obs::RegistrySnapshot after)
      : before_(std::move(before)), after_(std::move(after)) {}

  int64_t Count(std::string_view name) const;
  /// Histogram delta (count, sum and buckets; min/max from `after`).
  tarpit::obs::HistogramSnapshot Histogram(std::string_view name) const;

 private:
  tarpit::obs::RegistrySnapshot before_;
  tarpit::obs::RegistrySnapshot after_;
};

/// Ratio helper that reads 0 on an empty denominator.
inline double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace perfbench

#endif  // TARPIT_PERFBENCH_HARNESS_H_
