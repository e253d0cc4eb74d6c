#ifndef TARPIT_DEFENSE_QUERY_GATE_H_
#define TARPIT_DEFENSE_QUERY_GATE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>

#include "common/result.h"
#include "common/status.h"
#include "core/delay_scheduler.h"
#include "core/protected_db.h"
#include "core/resource_governor.h"
#include "defense/coverage_monitor.h"
#include "defense/identity.h"
#include "defense/registration_limiter.h"
#include "defense/reputation.h"
#include "defense/token_bucket.h"
#include "obs/event_ring.h"
#include "obs/risk.h"

namespace tarpit {

/// Perimeter policy knobs (paper section 2.4).
struct QueryGateOptions {
  /// One new account every this many seconds.
  double registration_seconds_per_account = 60.0;
  double registration_burst = 1.0;
  /// Per-identity query budget.
  double per_user_queries_per_second = 5.0;
  double per_user_burst = 20.0;
  /// Per-/24-subnet aggregate budget: forged or rented identities
  /// sharing a subnet share this bucket.
  double per_subnet_queries_per_second = 20.0;
  double per_subnet_burst = 50.0;
  /// Hard ceiling on lifetime queries per identity (0 = unlimited):
  /// the storefront defense. Exceeding it is PermissionDenied.
  uint64_t per_user_lifetime_query_limit = 0;
  /// Coverage-tracking escalation (extension, see CoverageMonitor):
  /// identities whose distinct-tuple coverage looks extraction-shaped
  /// have their delays multiplied.
  bool coverage_escalation = false;
  CoverageMonitorOptions coverage;
  /// Reputation-escalating delay. Not owned and
  /// deliberately external: one store can back several gates and the
  /// concurrent front door at once, and -- because it is keyed by
  /// identity/subnet, not session -- its penalties survive
  /// SessionManager eviction and gate re-creation. The gate feeds it
  /// rate-limit denials and coverage escalations as signals, feeds
  /// every served tuple as a breadth observation, and passes the
  /// principal's penalty factor accrued *before* the query (same
  /// no-retroactive-penalty rule as coverage escalation) into the
  /// database's one charge. Null disables reputation entirely.
  ReputationStore* reputation = nullptr;
  /// Overload governor (shed-before-collapse), typically shared with
  /// the concurrent front door. Consulted only by ExecuteSqlAsync
  /// before the charged stall parks: when the parked-stall budgets are
  /// exhausted the request completes with Status::Overloaded instead
  /// of occupying the wheel. The delay (including any coverage /
  /// reputation escalation) was already charged -- the accounting and
  /// reputation penalty stick, an extraction suspect cannot convert
  /// overload into free tuples. Not owned; must outlive the gate.
  ResourceGovernor* governor = nullptr;
  /// When non-null the gate publishes admission/denial counters and
  /// the delay-charged histograms (split legitimate vs flagged by the
  /// coverage monitor) here. Must outlive the gate.
  obs::MetricRegistry* metrics = nullptr;
  /// The forensics ring every perimeter decision is appended to
  /// (registrations, admissions, denials, escalations, sheds), stamped
  /// from the database's clock. Not owned; must outlive the gate. When
  /// null the gate owns a default 4096-slot ring that publishes to
  /// `metrics`.
  obs::DefenseEventRing* events = nullptr;
  /// When non-null the gate feeds the extraction-risk scorer: every
  /// served tuple (breadth + rate), every multi-tuple statement
  /// (volume-probe shape) and every denial/escalation (defense
  /// signal). Purely observational -- the scorer never changes a
  /// delay. Not owned; must outlive the gate.
  obs::RiskScorer* risk = nullptr;
};

/// The front door: account registration plus per-user and per-subnet
/// rate limiting wrapped around the delay-protected database. Every
/// path an adversary has into the data passes through here.
class QueryGate {
 public:
  /// `db` must outlive the gate; the gate reads time from the db's
  /// clock so simulations stay on one timeline.
  QueryGate(ProtectedDatabase* db, QueryGateOptions options);

  /// Registers a new account from `ipv4`. RateLimited when the
  /// registration quota is exhausted.
  Result<Identity> RegisterUser(uint32_t ipv4);

  /// Executes SQL as `identity`. RateLimited / PermissionDenied when a
  /// perimeter limit trips -- the statement is not executed.
  Result<ProtectedResult> ExecuteSql(const Identity& identity,
                                     const std::string& sql);

  using AsyncCompletion = std::function<void(Result<ProtectedResult>)>;

  /// Async perimeter execution: admit + compute + delay accounting run
  /// inline on the caller (the gate itself is single-threaded, like
  /// the serial ProtectedDatabase it fronts); the charged stall parks
  /// on `scheduler` and `done` fires on its driver thread at expiry
  /// (so `done` must be short and must not block).
  /// Perimeter denials and, on a real clock, a zero stall complete
  /// inline, before this returns. Requires the database to be
  /// opened with defer_delay_sleep, so the gate is the one who serves:
  /// the escalated charge parks whole. Without it the database has
  /// already served the stall at the statement's exit and a zero stall
  /// parks. `session` groups the parked stall for
  /// DelayScheduler::CancelGroup (session eviction).
  void ExecuteSqlAsync(const Identity& identity, const std::string& sql,
                       DelayScheduler* scheduler, AsyncCompletion done,
                       StallGroup session = 0);

  /// Seconds until `identity` may issue another query (0 = now).
  double RetryAfter(const Identity& identity);

  RegistrationLimiter* registration_limiter() { return &reg_limiter_; }
  CoverageMonitor* coverage_monitor() { return &coverage_monitor_; }
  /// The ring the gate appends its decisions to (options.events, or
  /// the gate's own).
  obs::DefenseEventRing* events() { return events_; }
  uint64_t LifetimeQueries(IdentityId id) const;
  const QueryGateOptions& options() const { return options_; }

 private:
  struct UserState {
    TokenBucket bucket;
    uint64_t lifetime_queries = 0;
  };

  UserState& UserFor(IdentityId id);
  TokenBucket& SubnetFor(uint32_t subnet);
  double NowSeconds() const;
  /// Appends one decision about `who` to the ring, stamped now.
  void Emit(obs::DefenseEventType type, const Identity& who,
            double magnitude, int64_t arg = 0);

  ProtectedDatabase* db_;
  QueryGateOptions options_;
  RegistrationLimiter reg_limiter_;
  CoverageMonitor coverage_monitor_;
  std::unique_ptr<obs::DefenseEventRing> owned_events_;
  obs::DefenseEventRing* events_ = nullptr;
  std::unordered_map<IdentityId, UserState> users_;
  std::unordered_map<uint32_t, TokenBucket> subnets_;

  // Registry-owned instruments; all null when options_.metrics is null.
  obs::Counter* m_admits_ = nullptr;
  obs::Counter* m_denied_lifetime_ = nullptr;
  obs::Counter* m_denied_subnet_ = nullptr;
  obs::Counter* m_denied_user_ = nullptr;
  obs::Counter* m_denied_overload_ = nullptr;
  obs::Counter* m_registrations_ = nullptr;
  obs::Counter* m_reg_denied_ = nullptr;
  obs::Counter* m_escalations_ = nullptr;
  obs::Counter* m_rep_escalations_ = nullptr;
  obs::Histogram* m_rep_factor_permille_ = nullptr;
  obs::Histogram* m_delay_legit_ns_ = nullptr;
  obs::Histogram* m_delay_flagged_ns_ = nullptr;
};

}  // namespace tarpit

#endif  // TARPIT_DEFENSE_QUERY_GATE_H_
