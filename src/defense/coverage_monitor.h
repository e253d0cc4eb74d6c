#ifndef TARPIT_DEFENSE_COVERAGE_MONITOR_H_
#define TARPIT_DEFENSE_COVERAGE_MONITOR_H_

#include <cstdint>
#include <unordered_map>

#include "common/hyperloglog.h"
#include "defense/identity.h"

namespace tarpit {

/// Tuning for coverage-based delay escalation.
struct CoverageMonitorOptions {
  /// Coverage (distinct tuples / N) below which no escalation applies:
  /// legitimate users browse a tiny, popularity-skewed slice.
  double free_coverage = 0.01;
  /// Coverage at which the maximum escalation is reached.
  double max_coverage = 0.25;
  /// Multiplier applied to delays at max_coverage and beyond.
  double max_escalation = 100.0;
  /// HyperLogLog precision for per-principal distinct counting
  /// (clamped to [4, 16]).
  int hll_precision = 12;
};

/// Extension of the paper's scheme: per-principal *coverage tracking*.
///
/// The paper assigns delay purely from tuple popularity, so an
/// adversary pays only because it must eventually fetch unpopular
/// tuples. This monitor adds a second, orthogonal signal: how much of
/// the keyspace a principal (identity or subnet) has already touched.
/// A principal whose distinct-tuple coverage looks extraction-shaped
/// has its delays escalated multiplicatively -- popular tuples stop
/// being cheap for someone who is clearly walking the whole relation.
/// Distinct counting uses a HyperLogLog sketch per principal, so
/// memory stays O(kilobytes) per principal regardless of N.
class CoverageMonitor {
 public:
  explicit CoverageMonitor(CoverageMonitorOptions options = {});

  /// Records that `principal` retrieved tuple `key`.
  void RecordAccess(IdentityId principal, int64_t key);

  /// Estimated distinct tuples `principal` has retrieved.
  double DistinctTuples(IdentityId principal) const;

  /// Coverage fraction given the relation size `n`.
  double Coverage(IdentityId principal, uint64_t n) const;

  /// Delay multiplier for `principal` against a relation of `n`
  /// tuples: 1.0 up to free_coverage, rising linearly (in coverage) to
  /// max_escalation at max_coverage.
  double EscalationFactor(IdentityId principal, uint64_t n) const;

  /// The pure escalation curve: multiplier for an exact `coverage`
  /// fraction, independent of any sketch. Exposed separately because
  /// the sketch's estimate carries ~1.6% standard error (precision
  /// 12), so edge behavior (exactly AT free_coverage / max_coverage)
  /// can only be pinned down on exact inputs. Always >= 1.0, even
  /// under misconfigured max_escalation < 1; a degenerate
  /// free_coverage == max_coverage config is a step function (1.0 at
  /// the edge, max_escalation above it).
  double EscalationForCoverage(double coverage) const;

  /// Drops a principal's history (e.g., session expiry).
  void Forget(IdentityId principal);

  size_t tracked_principals() const { return sketches_.size(); }
  const CoverageMonitorOptions& options() const { return options_; }

 private:
  CoverageMonitorOptions options_;
  std::unordered_map<IdentityId, HyperLogLog> sketches_;
};

}  // namespace tarpit

#endif  // TARPIT_DEFENSE_COVERAGE_MONITOR_H_
