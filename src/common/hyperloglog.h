#ifndef TARPIT_COMMON_HYPERLOGLOG_H_
#define TARPIT_COMMON_HYPERLOGLOG_H_

#include <cstdint>
#include <vector>

namespace tarpit {

/// HyperLogLog distinct-value sketch (Flajolet et al. 2007) with the
/// standard small-range (linear counting) correction. Used by the
/// coverage monitor to track how much of the keyspace each identity
/// has touched in O(2^precision) bytes instead of one bit per tuple.
///
/// Estimate() is O(1): the sketch keeps the harmonic sum
/// sum_i 2^-reg[i] in exact fixed point (scaled by 2^(65-precision),
/// so every term is an integer and the sum is at most 2^65) and the
/// count of zero registers beside the registers. Add() updates both
/// when a register rises; Merge() and Clear() rebuild them.
class HyperLogLog {
 public:
  /// 2^precision registers; standard error is about
  /// 1.04 / sqrt(2^precision) (~1.6% at precision 12). `precision` is
  /// clamped to [4, 16], so a bad option value degrades accuracy or
  /// memory instead of shifting past the hash width.
  explicit HyperLogLog(int precision = 12);

  /// Adds a 64-bit key (hashed internally).
  void Add(int64_t key);

  /// Estimated number of distinct keys added. Equal, bit for bit, to
  /// summing 2^-reg[i] over the registers in double precision whenever
  /// every register is <= 37 (each partial sum is then exact); past
  /// that the fixed-point sum is the more accurate of the two.
  double Estimate() const;

  /// Merges another sketch of the same precision into this one.
  /// Returns false on precision mismatch.
  bool Merge(const HyperLogLog& other);

  void Clear();

  int precision() const { return precision_; }
  uint64_t items_added() const { return items_added_; }
  const std::vector<uint8_t>& registers() const { return registers_; }

 private:
  /// Fixed-point weight of a register holding `rank`: 2^-rank scaled
  /// by 2^(65-precision). Ranks never exceed 65 - precision.
  unsigned __int128 Term(uint8_t rank) const {
    return static_cast<unsigned __int128>(1) << (65 - precision_ - rank);
  }
  /// sum_i 2^-reg[i] * 2^(65-precision), exact.
  unsigned __int128 harmonic_sum_ = 0;
  int precision_;
  uint32_t zero_registers_ = 0;
  double alpha_mm_;  // Bias constant * m^2, precomputed.
  std::vector<uint8_t> registers_;
  uint64_t items_added_ = 0;
};

}  // namespace tarpit

#endif  // TARPIT_COMMON_HYPERLOGLOG_H_
