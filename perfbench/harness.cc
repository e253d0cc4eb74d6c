#include "harness.h"

#include <sched.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

int64_t ClockNs(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// The last non-empty line of `text`.
std::string_view LastLine(std::string_view text) {
  while (!text.empty() && text.back() == '\n') text.remove_suffix(1);
  const size_t nl = text.rfind('\n');
  return nl == std::string_view::npos ? text : text.substr(nl + 1);
}

}  // namespace

int64_t NowNs() { return ClockNs(CLOCK_MONOTONIC); }
int64_t ThreadCpuNs() { return ClockNs(CLOCK_THREAD_CPUTIME_ID); }
int64_t ProcessCpuNs() { return ClockNs(CLOCK_PROCESS_CPUTIME_ID); }

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux.
}

void SleepNs(int64_t ns) {
  if (ns <= 0) return;
  const timespec ts{static_cast<time_t>(ns / 1'000'000'000),
                    static_cast<long>(ns % 1'000'000'000)};
  nanosleep(&ts, nullptr);
}

int PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return -1;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof one, &one) == 0 ? cpu : -1;
  }
  return -1;
}

double Quantile(const std::vector<int64_t>& sorted, double q) {
  if (sorted.empty()) return 0;
  const double pos = std::clamp(q, 0.0, 1.0) *
                     static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return static_cast<double>(sorted[lo]) +
         frac * static_cast<double>(sorted[hi] - sorted[lo]);
}

Summary Summarize(std::vector<int64_t> samples_ns) {
  std::sort(samples_ns.begin(), samples_ns.end());
  Summary s;
  s.count = samples_ns.size();
  s.p50_us = Quantile(samples_ns, 0.50) / 1e3;
  s.p90_us = Quantile(samples_ns, 0.90) / 1e3;
  s.p99_us = Quantile(samples_ns, 0.99) / 1e3;
  return s;
}

double SlicedQuantileUs(const Series& s, int64_t slice_ns, double q) {
  if (s.due_ns.empty()) return 0;
  const int64_t t0 = *std::min_element(s.due_ns.begin(), s.due_ns.end());
  std::vector<std::vector<int64_t>> slices;
  for (size_t i = 0; i < s.due_ns.size(); ++i) {
    const auto k = static_cast<size_t>((s.due_ns[i] - t0) / slice_ns);
    if (k >= slices.size()) slices.resize(k + 1);
    slices[k].push_back(s.value_ns[i]);
  }
  std::vector<int64_t> per_slice;
  for (auto& v : slices) {
    if (v.empty()) continue;
    std::sort(v.begin(), v.end());
    per_slice.push_back(static_cast<int64_t>(Quantile(v, q)));
  }
  std::sort(per_slice.begin(), per_slice.end());
  return Quantile(per_slice, 0.5) / 1e3;
}

double CpuUsPerOp(const CpuReading& begin, const CpuReading& end,
                  uint64_t ops) {
  if (ops == 0) return 0;
  const int64_t process = end.process_ns - begin.process_ns;
  const int64_t generator = end.generator_ns - begin.generator_ns;
  const int64_t in_system =
      end.generator_in_system_ns - begin.generator_in_system_ns;
  const int64_t system = process - (generator - in_system);
  return static_cast<double>(system) / 1e3 / static_cast<double>(ops);
}

void OutputChecker::NoteWrite(int64_t key, double value) {
  written_[key].push_back(value);
}

bool OutputChecker::ValueOk(int64_t key, double value) const {
  if (value == LoadedValue(key)) return true;
  auto it = written_.find(key);
  if (it == written_.end()) return false;
  return std::find(it->second.begin(), it->second.end(), value) !=
         it->second.end();
}

bool OutputChecker::ValueTextOk(int64_t key, std::string_view text) const {
  if (text == tarpit::Value(LoadedValue(key)).ToString()) return true;
  auto it = written_.find(key);
  if (it == written_.end()) return false;
  for (double v : it->second) {
    if (text == tarpit::Value(v).ToString()) return true;
  }
  return false;
}

bool OutputChecker::RowOk(int64_t key, const tarpit::Row& row) const {
  return row.size() == 2 && row[0].is_int() && row[0].AsInt() == key &&
         row[1].is_double() && ValueOk(key, row[1].AsDouble());
}

bool OutputChecker::RowTextOk(int64_t key, std::string_view text) const {
  const std::string_view line = LastLine(text);
  const size_t tab = line.find('\t');
  if (tab == std::string_view::npos) return false;
  if (line.substr(0, tab) != std::to_string(key)) return false;
  return ValueTextOk(key, line.substr(tab + 1));
}

bool OutputChecker::ServedShort(int64_t submit_ns, int64_t done_ns,
                                double charge_seconds) {
  const double owed_ns = charge_seconds * 1e9 - 1e3;
  return static_cast<double>(done_ns - submit_ns) < owed_ns;
}

bool OutputChecker::ChargesReconcile(double reported_sum_seconds,
                                     double ledger_delta_seconds) {
  const double tol =
      1e-9 * std::max(1.0, std::fabs(ledger_delta_seconds));
  return std::fabs(reported_sum_seconds - ledger_delta_seconds) <= tol;
}

Pacer::Pacer(Idle idle) : idle_(std::move(idle)) {
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
}

int64_t Pacer::WaitUntil(int64_t due_ns) {
  int64_t now = NowNs();
  while (now < due_ns - kSpinNs) {
    idle_(due_ns - kSpinNs - now);
    now = NowNs();
  }
  while (now < due_ns) {
    idle_(0);
    now = NowNs();
  }
  return now;
}

Summary Pacer::Calibrate(size_t ops, int64_t period_ns) {
  std::vector<int64_t> floor_ns;
  floor_ns.reserve(ops);
  const int64_t start = NowNs() + period_ns;
  for (size_t i = 0; i < ops; ++i) {
    const int64_t due = start + static_cast<int64_t>(i) * period_ns;
    WaitUntil(due);
    floor_ns.push_back(NowNs() - due);  // The empty op completes at once.
  }
  return Summarize(std::move(floor_ns));
}

int64_t RegistryWindow::Count(std::string_view name) const {
  auto sum = [&](const tarpit::obs::RegistrySnapshot& s) {
    int64_t total = 0;
    for (const auto& m : s.metrics) {
      if (m.name == name && m.kind != tarpit::obs::MetricKind::kHistogram) {
        total += m.value;
      }
    }
    return total;
  };
  return sum(after_) - sum(before_);
}

tarpit::obs::HistogramSnapshot RegistryWindow::Histogram(
    std::string_view name) const {
  tarpit::obs::HistogramSnapshot out;
  bool first = true;
  auto fold = [&](const tarpit::obs::RegistrySnapshot& s, int64_t sign) {
    for (const auto& m : s.metrics) {
      if (m.name != name || m.kind != tarpit::obs::MetricKind::kHistogram) {
        continue;
      }
      const auto& h = m.histogram;
      if (first) {
        out.sub_bits = h.sub_bits;
        out.unit = h.unit;
        out.buckets.assign(h.buckets.size(), 0);
        out.min = h.min;
        out.max = h.max;
        first = false;
      }
      if (h.buckets.size() != out.buckets.size()) continue;
      out.count += sign * h.count;
      out.sum += sign * h.sum;
      for (size_t i = 0; i < h.buckets.size(); ++i) {
        out.buckets[i] += static_cast<uint64_t>(sign) * h.buckets[i];
      }
      if (sign > 0) {
        out.min = std::min(out.min, h.min);
        out.max = std::max(out.max, h.max);
      }
    }
  };
  fold(after_, +1);
  fold(before_, -1);
  if (out.count <= 0) return tarpit::obs::HistogramSnapshot{};
  return out;
}

}  // namespace perfbench
