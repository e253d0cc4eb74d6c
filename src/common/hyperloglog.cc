#include "common/hyperloglog.h"

#include <algorithm>
#include <cmath>

namespace tarpit {

namespace {

uint64_t Hash64(int64_t key) {
  // SplitMix64 finalizer: a strong enough mix for HLL register/rank
  // extraction.
  uint64_t z = static_cast<uint64_t>(key) + 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double AlphaFor(uint32_t m) {
  switch (m) {
    case 16: return 0.673;
    case 32: return 0.697;
    case 64: return 0.709;
    default: return 0.7213 / (1.0 + 1.079 / static_cast<double>(m));
  }
}

}  // namespace

HyperLogLog::HyperLogLog(int precision)
    : precision_(std::clamp(precision, 4, 16)) {
  const uint32_t m = 1u << precision_;
  alpha_mm_ = AlphaFor(m) * static_cast<double>(m) *
              static_cast<double>(m);
  Clear();
}

void HyperLogLog::Add(int64_t key) {
  ++items_added_;
  const uint64_t h = Hash64(key);
  const uint32_t idx = static_cast<uint32_t>(h >> (64 - precision_));
  const uint64_t rest = h << precision_;
  // Rank: position of the leftmost 1 in the remaining bits (1-based);
  // all-zero rest maps to the maximum rank.
  const uint8_t rank =
      rest == 0 ? static_cast<uint8_t>(64 - precision_ + 1)
                : static_cast<uint8_t>(__builtin_clzll(rest) + 1);
  const uint8_t old = registers_[idx];
  if (rank <= old) return;
  registers_[idx] = rank;
  harmonic_sum_ = harmonic_sum_ - Term(old) + Term(rank);
  if (old == 0) --zero_registers_;
}

double HyperLogLog::Estimate() const {
  const double m = static_cast<double>(registers_.size());
  const double sum =
      std::ldexp(static_cast<double>(harmonic_sum_), -(65 - precision_));
  double estimate = alpha_mm_ / sum;
  // Small-range correction: linear counting.
  if (estimate <= 2.5 * m && zero_registers_ != 0) {
    estimate = m * std::log(m / static_cast<double>(zero_registers_));
  }
  return estimate;
}

bool HyperLogLog::Merge(const HyperLogLog& other) {
  if (other.precision_ != precision_) return false;
  harmonic_sum_ = 0;
  zero_registers_ = 0;
  for (size_t i = 0; i < registers_.size(); ++i) {
    registers_[i] = std::max(registers_[i], other.registers_[i]);
    harmonic_sum_ += Term(registers_[i]);
    if (registers_[i] == 0) ++zero_registers_;
  }
  items_added_ += other.items_added_;
  return true;
}

void HyperLogLog::Clear() {
  const uint32_t m = 1u << precision_;
  registers_.assign(m, 0);
  harmonic_sum_ = static_cast<unsigned __int128>(m) * Term(0);
  zero_registers_ = m;
  items_added_ = 0;
}

}  // namespace tarpit
