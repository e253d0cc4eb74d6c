#include "defense/query_gate.h"

#include <algorithm>
#include <cmath>

namespace tarpit {

QueryGate::QueryGate(ProtectedDatabase* db, QueryGateOptions options)
    : db_(db),
      options_(options),
      reg_limiter_(options.registration_seconds_per_account,
                   options.registration_burst),
      coverage_monitor_(options.coverage),
      events_(options.events) {
  if (events_ == nullptr) {
    obs::DefenseEventRingOptions ring;
    ring.metrics = options_.metrics;
    owned_events_ = std::make_unique<obs::DefenseEventRing>(ring);
    events_ = owned_events_.get();
  }
  if (options_.metrics != nullptr) {
    obs::MetricRegistry* m = options_.metrics;
    m_admits_ = m->GetCounter("tarpit_gate_admits_total");
    m_denied_lifetime_ = m->GetCounter("tarpit_gate_denials_total",
                                       {{"reason", "lifetime-cap"}});
    m_denied_subnet_ = m->GetCounter("tarpit_gate_denials_total",
                                     {{"reason", "subnet-rate"}});
    m_denied_user_ = m->GetCounter("tarpit_gate_denials_total",
                                   {{"reason", "user-rate"}});
    m_denied_overload_ = m->GetCounter("tarpit_gate_denials_total",
                                       {{"reason", "overload"}});
    m_registrations_ = m->GetCounter("tarpit_gate_registrations_total");
    m_reg_denied_ = m->GetCounter("tarpit_gate_denials_total",
                                  {{"reason", "registration"}});
    m_escalations_ =
        m->GetCounter("tarpit_gate_coverage_escalations_total");
    m_rep_escalations_ = m->GetCounter(
        "tarpit_reputation_escalations_total", {{"door", "serial"}});
    obs::HistogramOptions permille;
    permille.unit = "permille";
    // Factor 1.0 records as 1000, so quantiles read directly as
    // multipliers with 0.1% granularity.
    m_rep_factor_permille_ = m->GetHistogram(
        "tarpit_reputation_factor_permille", {{"door", "serial"}},
        permille);
    obs::HistogramOptions ns;
    ns.sub_bits = 11;
    ns.unit = "ns";
    const char* policy = DelayModeName(db_->options().mode);
    m_delay_legit_ns_ = m->GetHistogram(
        "tarpit_gate_delay_charged_ns",
        {{"policy", policy}, {"class", "legitimate"}}, ns);
    m_delay_flagged_ns_ = m->GetHistogram(
        "tarpit_gate_delay_charged_ns",
        {{"policy", policy}, {"class", "flagged"}}, ns);
  }
}

double QueryGate::NowSeconds() const {
  return db_->clock()->NowSeconds();
}

void QueryGate::Emit(obs::DefenseEventType type, const Identity& who,
                     double magnitude, int64_t arg) {
  // Stamped from the database's clock, so virtual-clock simulations
  // get reproducible timestamps.
  obs::DefenseEvent e;
  e.time_micros = db_->clock()->NowMicros();
  e.type = type;
  e.principal = who.id;
  e.subnet24 = who.Subnet24();
  e.magnitude = magnitude;
  e.arg = arg;
  events_->Append(e);
}

Result<Identity> QueryGate::RegisterUser(uint32_t ipv4) {
  Result<Identity> id = reg_limiter_.Register(ipv4, NowSeconds());
  // Registration events carry the full source address in `arg`.
  if (id.ok()) {
    Emit(obs::DefenseEventType::kRegistered, *id, 0.0, ipv4);
    if (m_registrations_ != nullptr) m_registrations_->Increment();
  } else {
    Identity denied;
    denied.ipv4 = ipv4;
    Emit(obs::DefenseEventType::kRegistrationDenied, denied,
         reg_limiter_.RetryAfter(NowSeconds()), ipv4);
    if (m_reg_denied_ != nullptr) m_reg_denied_->Increment();
  }
  return id;
}

QueryGate::UserState& QueryGate::UserFor(IdentityId id) {
  auto it = users_.find(id);
  if (it == users_.end()) {
    it = users_
             .emplace(id,
                      UserState{TokenBucket(
                                    options_.per_user_queries_per_second,
                                    options_.per_user_burst),
                                0})
             .first;
  }
  return it->second;
}

TokenBucket& QueryGate::SubnetFor(uint32_t subnet) {
  auto it = subnets_.find(subnet);
  if (it == subnets_.end()) {
    it = subnets_
             .emplace(subnet,
                      TokenBucket(options_.per_subnet_queries_per_second,
                                  options_.per_subnet_burst))
             .first;
  }
  return it->second;
}

Result<ProtectedResult> QueryGate::ExecuteSql(const Identity& identity,
                                              const std::string& sql) {
  const double now = NowSeconds();
  UserState& user = UserFor(identity.id);
  if (options_.per_user_lifetime_query_limit > 0 &&
      user.lifetime_queries >= options_.per_user_lifetime_query_limit) {
    Emit(obs::DefenseEventType::kLifetimeCapHit, identity, 0.0);
    if (m_denied_lifetime_ != nullptr) m_denied_lifetime_->Increment();
    // A tripped lifetime cap is the strongest perimeter signal there
    // is -- the storefront defense only fires on extraction-scale use.
    if (options_.risk != nullptr) {
      options_.risk->ObserveSignal(identity.id, 3.0, now);
    }
    return Status::PermissionDenied(
        "identity " + std::to_string(identity.id) +
        " exceeded its lifetime query limit");
  }
  // Check the subnet aggregate FIRST so a single Sybil cannot starve
  // its own subnet bucket of per-user tokens it failed to use.
  TokenBucket& subnet = SubnetFor(identity.Subnet24());
  if (!subnet.TryAcquire(now)) {
    Emit(obs::DefenseEventType::kRateLimitedSubnet, identity,
         subnet.RetryAfter(now));
    if (m_denied_subnet_ != nullptr) m_denied_subnet_->Increment();
    if (options_.reputation != nullptr) {
      options_.reputation->RecordSignal(identity.id, identity.Subnet24(),
                                        now,
                                        ReputationSignal::kRateAnomaly);
    }
    if (options_.risk != nullptr) {
      options_.risk->ObserveSignal(identity.id, 1.0, now);
    }
    return Status::RateLimited(
        "subnet " + Ipv4ToString(identity.Subnet24()) +
        "/24 rate limit; retry in " +
        std::to_string(subnet.RetryAfter(now)) + "s");
  }
  if (!user.bucket.TryAcquire(now)) {
    Emit(obs::DefenseEventType::kRateLimitedUser, identity,
         user.bucket.RetryAfter(now));
    if (m_denied_user_ != nullptr) m_denied_user_->Increment();
    if (options_.reputation != nullptr) {
      options_.reputation->RecordSignal(identity.id, identity.Subnet24(),
                                        now,
                                        ReputationSignal::kRateAnomaly);
    }
    if (options_.risk != nullptr) {
      options_.risk->ObserveSignal(identity.id, 1.0, now);
    }
    return Status::RateLimited(
        "identity " + std::to_string(identity.id) +
        " rate limit; retry in " +
        std::to_string(user.bucket.RetryAfter(now)) + "s");
  }
  ++user.lifetime_queries;
  if (m_admits_ != nullptr) m_admits_->Increment();

  // Coverage escalation uses the factor accrued *before* this query so
  // a first-time crossing is not penalized retroactively.
  double escalation = 1.0;
  uint64_t n = 0;
  if (options_.coverage_escalation) {
    n = db_->access_tracker()->universe_size();
    escalation = coverage_monitor_.EscalationFactor(identity.id, n);
  }
  // Reputation uses the factor accrued before this query too: the
  // penalty earned *by* this query lands on the next one.
  double rep_factor = 1.0;
  if (options_.reputation != nullptr) {
    rep_factor = std::max(
        1.0, options_.reputation->PenaltyFactor(
                 identity.id, identity.Subnet24(), now));
  }
  // Both factors go into the database's one charge: each tuple costs
  // base x escalation x reputation, accounted, ledgered and served once.
  Result<ProtectedResult> result =
      db_->ExecuteSql(sql, escalation * rep_factor);
  if (!result.ok()) return result;
  if (options_.coverage_escalation) {
    for (int64_t key : result->result.touched_keys) {
      coverage_monitor_.RecordAccess(identity.id, key);
    }
    if (escalation > 1.0 && result->delay_seconds > 0) {
      Emit(obs::DefenseEventType::kCoverageEscalated, identity, escalation);
      if (m_escalations_ != nullptr) m_escalations_->Increment();
    }
  }
  if (options_.reputation != nullptr) {
    ReputationStore* rep = options_.reputation;
    // Every served tuple feeds the store's breadth learning (HLL per
    // identity AND per subnet -- the subnet sketch is what identity
    // churn cannot shed).
    const uint64_t universe = db_->access_tracker()->universe_size();
    for (int64_t key : result->result.touched_keys) {
      rep->ObserveAccess(identity.id, identity.Subnet24(), key, universe,
                         now);
    }
    // A coverage-monitor escalation is itself an extraction signal.
    if (escalation > 1.0) {
      rep->RecordSignal(identity.id, identity.Subnet24(), now,
                        ReputationSignal::kExternal);
    }
    if (m_rep_factor_permille_ != nullptr) {
      m_rep_factor_permille_->Record(
          static_cast<int64_t>(std::llround(rep_factor * 1000.0)));
    }
    if (rep_factor > 1.0 && result->delay_seconds > 0) {
      Emit(obs::DefenseEventType::kReputationEscalated, identity,
           rep_factor);
      if (m_rep_escalations_ != nullptr) m_rep_escalations_->Increment();
    }
  }
  if (options_.risk != nullptr) {
    obs::RiskScorer* risk = options_.risk;
    for (int64_t key : result->result.touched_keys) {
      risk->ObserveQuery(identity.id, key, now);
    }
    // Multi-tuple statements are the volume-inference fingerprint
    // (wide range probes reconstruct the dataset fastest); single-key
    // point reads are not probes.
    if (result->result.touched_keys.size() > 1) {
      risk->ObserveRangeProbe(identity.id,
                              result->result.touched_keys.size(), now);
    }
    if (escalation > 1.0) risk->ObserveSignal(identity.id, 2.0, now);
    if (rep_factor > 1.0) risk->ObserveSignal(identity.id, 2.0, now);
  }
  // Per-class delay accounting: an identity the coverage monitor or
  // reputation store has escalated is "flagged"; everyone else is
  // "legitimate". The split is what lets a dashboard confirm the
  // defense's core promise -- extraction-shaped traffic pays, normal
  // traffic doesn't.
  obs::Histogram* delay_hist =
      (escalation > 1.0 || rep_factor > 1.0) ? m_delay_flagged_ns_
                                             : m_delay_legit_ns_;
  if (delay_hist != nullptr) {
    delay_hist->Record(obs::NanosFromSeconds(result->delay_seconds));
  }
  Emit(obs::DefenseEventType::kQueryAdmitted, identity,
       result->delay_seconds);
  return result;
}

void QueryGate::ExecuteSqlAsync(const Identity& identity,
                                const std::string& sql,
                                DelayScheduler* scheduler,
                                AsyncCompletion done,
                                StallGroup session) {
  // Perimeter checks + compute + accounting run inline (the gate is
  // not thread-safe; this is the same admit path as ExecuteSql). Only
  // a nonzero stall moves off-thread: it parks on the wheel and `done`
  // fires on the driver at expiry -- instantly, in submission order,
  // under a VirtualClock, which is how simulations drive the async
  // perimeter on one timeline. A zero stall on a real clock completes
  // here, inside Submit.
  Result<ProtectedResult> result = ExecuteSql(identity, sql);
  if (!result.ok()) {
    done(std::move(result));
    return;
  }
  // With defer_delay_sleep the caller serves the charge, so the whole
  // escalated delay is parked here; otherwise the database already
  // served it at the statement's exit and nothing is owed.
  const double park =
      db_->options().defer_delay_sleep ? result->delay_seconds : 0.0;
  ResourceGovernor* gov = options_.governor;
  if (gov != nullptr) {
    Status admit = gov->AdmitStall(0);
    if (!admit.ok()) {
      // Shed before park. The delay -- including any coverage or
      // reputation escalation -- is already charged and the served
      // tuples already fed breadth learning, so the suspect's penalty
      // sticks; only the wheel slot (and the tuple) is refused.
      Emit(obs::DefenseEventType::kOverloadShed, identity,
           result->delay_seconds);
      if (m_denied_overload_ != nullptr) m_denied_overload_->Increment();
      if (options_.risk != nullptr) {
        options_.risk->ObserveSignal(identity.id, 1.0, NowSeconds());
      }
      done(std::move(admit));
      return;
    }
  }
  auto shared = std::make_shared<Result<ProtectedResult>>(
      std::move(result));
  scheduler->Submit(
      park,
      [gov, shared, done = std::move(done)](bool cancelled) {
        if (gov != nullptr) gov->ReleaseStall(0);
        if (cancelled) {
          done(Status::Cancelled(
              "stall cancelled before expiry (session evicted or "
              "scheduler shut down)"));
        } else {
          done(std::move(*shared));
        }
      },
      session);
}

double QueryGate::RetryAfter(const Identity& identity) {
  const double now = NowSeconds();
  UserState& user = UserFor(identity.id);
  TokenBucket& subnet = SubnetFor(identity.Subnet24());
  return std::max(user.bucket.RetryAfter(now), subnet.RetryAfter(now));
}

uint64_t QueryGate::LifetimeQueries(IdentityId id) const {
  auto it = users_.find(id);
  return it == users_.end() ? 0 : it->second.lifetime_queries;
}

}  // namespace tarpit
