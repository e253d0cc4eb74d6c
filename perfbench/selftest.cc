// Self-test for the benchmark's own measurement and checking code.
// Run: .bench_build/perfbench/perfbench_selftest (built by run.py), or
// `python3 perfbench/run.py --selftest`. Exits non-zero on failure.

#include <cmath>
#include <cstdio>
#include <vector>

#include "harness.h"

using namespace perfbench;

namespace {

int failures = 0;

void Expect(bool cond, const char* what) {
  if (!cond) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void TestPercentiles() {
  std::vector<int64_t> ns;
  for (int64_t i = 100; i >= 1; --i) ns.push_back(i * 1000);  // Unsorted.
  const Summary s = Summarize(ns);
  Expect(s.count == 100, "sample count");
  Expect(Near(s.p50_us, 50.5), "p50 interpolates between 50 and 51 us");
  Expect(Near(s.p99_us, 99.01), "p99 interpolates between 99 and 100 us");
  const Summary empty = Summarize({});
  Expect(empty.count == 0 && empty.p50_us == 0 && empty.p99_us == 0,
         "empty summary is zero");
  const Summary one = Summarize({7000});
  Expect(one.count == 1 && Near(one.p50_us, 7) && Near(one.p99_us, 7),
         "single sample");
}

void TestSlicedQuantile() {
  // Five one-second slices of 100 samples, 1..100 us; slice 2 also has
  // a 50 ms stall under half its samples.
  Series s;
  for (int64_t slice = 0; slice < 5; ++slice) {
    for (int64_t i = 1; i <= 100; ++i) {
      const int64_t stall = slice == 2 && i > 50 ? 50'000'000 : 0;
      s.Add(slice * 1'000'000'000 + i, i * 1000 + stall);
    }
  }
  Expect(Near(SlicedQuantileUs(s, 1'000'000'000, 0.9), 90.1),
         "one stalled slice does not move the typical-second p90");
  Expect(SlicedQuantileUs(Series{}, 1'000'000'000, 0.9) == 0,
         "empty series");
}

void TestCpuSubtraction() {
  const CpuReading begin{1'000'000, 500'000, 100'000};
  // 10 ms of process CPU; the generator burned 4 ms, 1 ms of it inside
  // calls into the system, so the system's share is 10 - 3 = 7 ms.
  const CpuReading end{11'000'000, 4'500'000, 1'100'000};
  Expect(Near(CpuUsPerOp(begin, end, 1000), 7.0),
         "generator's own CPU is subtracted, its in-system CPU kept");
  Expect(CpuUsPerOp(begin, end, 0) == 0, "no ops, no per-op CPU");
}

void TestChecker() {
  OutputChecker c;
  const tarpit::Row good{tarpit::Value(int64_t{42}), tarpit::Value(21.0)};
  const tarpit::Row wrong_key{tarpit::Value(int64_t{43}), tarpit::Value(21.0)};
  const tarpit::Row wrong_value{tarpit::Value(int64_t{42}),
                                tarpit::Value(20.5)};
  const tarpit::Row written{tarpit::Value(int64_t{42}), tarpit::Value(-3.5)};
  Expect(c.RowOk(42, good), "loaded row accepted");
  Expect(!c.RowOk(42, wrong_key), "wrong row key rejected");
  Expect(!c.RowOk(42, wrong_value), "wrong value rejected");
  Expect(!c.RowOk(42, written), "unwritten value rejected");
  c.NoteWrite(42, -3.5);
  Expect(c.RowOk(42, written), "value the benchmark wrote accepted");
  Expect(!c.RowOk(7, written), "a write to another key does not count");

  Expect(c.RowTextOk(42, "id,v\n42\t21\n"), "wire row with header");
  Expect(c.RowTextOk(42, "42\t-3.5\n"), "wire row with written value");
  Expect(!c.RowTextOk(42, "id,v\n41\t21\n"), "wire row, wrong key");
  Expect(!c.RowTextOk(42, "id,v\n42\t22\n"), "wire row, wrong value");
  Expect(!c.RowTextOk(42, ""), "empty wire text");
  // Large keys print with six significant digits, as the server does.
  Expect(c.RowTextOk(999'999, "999999\t500000\n"), "rounded wire value");

  Expect(OutputChecker::ServedShort(0, 19'000'000, 0.020),
         "a 19 ms completion of a 20 ms stall is served short");
  Expect(!OutputChecker::ServedShort(0, 20'000'000, 0.020),
         "a completion at the charge is not short");
  Expect(!OutputChecker::ServedShort(0, 19'999'500, 0.020),
         "sub-microsecond stamp truncation is not short");

  Expect(OutputChecker::ChargesReconcile(1.5 + 1e-12, 1.5),
         "rounding-level difference reconciles");
  Expect(!OutputChecker::ChargesReconcile(1.5 - 0.02, 1.5),
         "a lost 20 ms charge does not reconcile");
}

}  // namespace

int main() {
  TestPercentiles();
  TestSlicedQuantile();
  TestCpuSubtraction();
  TestChecker();
  if (failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench selftest: all checks passed\n");
  return 0;
}
