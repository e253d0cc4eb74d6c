#include "obs/risk.h"

#include <algorithm>
#include <cmath>

namespace tarpit {
namespace obs {

namespace {

double Clamp01(double x) {
  if (x < 0) return 0;
  if (x > 1) return 1;
  return x;
}

/// Saturating map: 0 at x=0, 0.5 at x=k, ->1 as x grows. Keeps every
/// component bounded so no single feed can pin the score alone.
double Saturate(double x, double k) {
  if (x <= 0) return 0;
  return x / (x + k);
}

size_t RoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

RiskScorer::RiskScorer(RiskScorerOptions options) : options_(options) {
  if (options_.max_principals == 0) options_.max_principals = 1;
  const size_t n = RoundUpPow2(std::max<size_t>(options_.stripes, 1));
  stripe_mask_ = n - 1;
  stripes_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    stripes_.push_back(std::make_unique<Stripe>());
  }
  per_stripe_cap_ = std::max<size_t>(options_.max_principals / n, 1);
  sample_mask_ =
      RoundUpPow2(std::max<size_t>(options_.query_sample_every, 1)) - 1;
  if (options_.metrics != nullptr) {
    MetricRegistry* m = options_.metrics;
    m_max_score_ = m->GetGauge("tarpit_risk_max_score_permille");
    m_tracked_ = m->GetGauge("tarpit_risk_tracked_principals");
    m_flagged_ = m->GetGauge("tarpit_risk_flagged_principals");
    m_observations_ = m->GetCounter("tarpit_risk_observations_total");
    m_evictions_ = m->GetCounter("tarpit_risk_evictions_total");
  }
}

RiskScorer::Stripe& RiskScorer::StripeFor(uint64_t principal) const {
  // Fibonacci mix: principal ids are typically small and sequential,
  // and adjacent ids must land on different stripes.
  const uint64_t h = principal * 0x9E3779B97F4A7C15ull;
  return *stripes_[static_cast<size_t>(h >> 32) & stripe_mask_];
}

std::vector<std::unique_lock<std::mutex>> RiskScorer::LockAll() const {
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(stripes_.size());
  for (const auto& s : stripes_) locks.emplace_back(s->mu);
  return locks;
}

double RiskScorer::Decayed(double value, double* updated, double now,
                           double half_life) {
  if (half_life <= 0) return value;
  const double dt = now - *updated;
  if (dt <= 0 || value == 0) {
    *updated = now;
    return value;
  }
  // Below 1/64 of a half-life the decay factor is >= 0.989: skip the
  // exp2 and leave the stamp alone (the skipped interval is decayed at
  // the next real update), trading <= 1.1% transient error for an
  // exp2-free hot path.
  if (dt < half_life * (1.0 / 64.0)) return value;
  *updated = now;
  return value * std::exp2(-dt / half_life);
}

RiskScorer::Entry* RiskScorer::TouchLocked(Stripe& stripe,
                                           uint64_t principal,
                                           double now_seconds) {
  auto it = stripe.entries.find(principal);
  if (it != stripe.entries.end()) {
    it->second.last_seen = now_seconds;
    return &it->second;
  }
  if (stripe.entries.size() >= per_stripe_cap_) {
    // Evict the quietest principal: lowest decayed activity + signal,
    // oldest on ties. A scoring extractor keeps its seat.
    auto victim = stripe.entries.end();
    double victim_mass = 0;
    for (auto e = stripe.entries.begin(); e != stripe.entries.end();
         ++e) {
      double a_upd = e->second.activity_updated;
      double s_upd = e->second.signal_updated;
      const double mass =
          Decayed(e->second.activity, &a_upd, now_seconds,
                  options_.rate_half_life_seconds) +
          Decayed(e->second.signal, &s_upd, now_seconds,
                  options_.signal_half_life_seconds);
      if (victim == stripe.entries.end() || mass < victim_mass ||
          (mass == victim_mass &&
           e->second.last_seen < victim->second.last_seen)) {
        victim = e;
        victim_mass = mass;
      }
    }
    if (victim != stripe.entries.end()) {
      stripe.entries.erase(victim);
      if (m_evictions_ != nullptr) m_evictions_->Increment();
    }
  }
  auto [inserted, ok] =
      stripe.entries.emplace(principal, Entry(options_.hll_precision));
  (void)ok;
  inserted->second.activity_updated = now_seconds;
  inserted->second.signal_updated = now_seconds;
  inserted->second.last_seen = now_seconds;
  return &inserted->second;
}

void RiskScorer::ObserveQuery(uint64_t principal, int64_t key,
                              double now_seconds) {
  // Hash-partition sampling: the same 1/N slice of the keyspace for
  // every principal, so breadth stays comparable across principals and
  // scaling by N is unbiased. The rejected path takes no lock.
  if (!AdmitsKey(key)) return;
  const double weight = static_cast<double>(sample_mask_ + 1);
  Stripe& stripe = StripeFor(principal);
  std::lock_guard<std::mutex> lock(stripe.mu);
  Entry* e = TouchLocked(stripe, principal, now_seconds);
  e->sketch.Add(key);
  e->queries += sample_mask_ + 1;  // Estimated true query count.
  e->activity = Decayed(e->activity, &e->activity_updated, now_seconds,
                        options_.rate_half_life_seconds) +
                weight;
  if (m_observations_ != nullptr) m_observations_->Increment();
}

void RiskScorer::ObserveRangeProbe(uint64_t principal,
                                   size_t keys_touched,
                                   double now_seconds) {
  Stripe& stripe = StripeFor(principal);
  std::lock_guard<std::mutex> lock(stripe.mu);
  Entry* e = TouchLocked(stripe, principal, now_seconds);
  ++e->probe_queries;
  e->probe_keys += static_cast<double>(keys_touched);
  if (m_observations_ != nullptr) m_observations_->Increment();
}

void RiskScorer::ObserveSignal(uint64_t principal, double weight,
                               double now_seconds) {
  Stripe& stripe = StripeFor(principal);
  std::lock_guard<std::mutex> lock(stripe.mu);
  Entry* e = TouchLocked(stripe, principal, now_seconds);
  e->signal = Decayed(e->signal, &e->signal_updated, now_seconds,
                      options_.signal_half_life_seconds) +
              weight;
  if (m_observations_ != nullptr) m_observations_->Increment();
}

void RiskScorer::PopulationLocked(double now, double* max_breadth,
                                  double* median_activity) const {
  *max_breadth = 1.0;
  const double scale = static_cast<double>(sample_mask_ + 1);
  std::vector<double> activities;
  for (const auto& s : stripes_) {
    for (const auto& [id, e] : s->entries) {
      *max_breadth = std::max(*max_breadth, e.sketch.Estimate() * scale);
      double upd = e.activity_updated;
      activities.push_back(Decayed(e.activity, &upd, now,
                                   options_.rate_half_life_seconds));
    }
  }
  if (activities.empty()) {
    *median_activity = 0;
    return;
  }
  auto mid = activities.begin() +
             static_cast<ptrdiff_t>(activities.size() / 2);
  std::nth_element(activities.begin(), mid, activities.end());
  *median_activity = *mid;
}

RiskScore RiskScorer::ScoreLocked(uint64_t principal, const Entry& e,
                                  double now, double max_breadth,
                                  double median_activity) const {
  RiskScore out;
  out.principal = principal;
  out.queries = e.queries;
  // The sketch holds the sampled hash partition; scale back to the
  // full keyspace (unbiased -- see query_sample_every).
  out.breadth =
      e.sketch.Estimate() * static_cast<double>(sample_mask_ + 1);

  const double norm = options_.keyspace_size > 0
                          ? static_cast<double>(options_.keyspace_size)
                          : max_breadth;
  out.breadth_component = Clamp01(norm > 0 ? out.breadth / norm : 0);

  double a_upd = e.activity_updated;
  const double activity = Decayed(e.activity, &a_upd, now,
                                  options_.rate_half_life_seconds);
  // 4x the population median is "anomalous" (component 0.5); a lone
  // principal compares against itself and scores ~0.2, not 1.
  const double baseline = std::max(median_activity, 1.0);
  out.rate_component = Saturate(activity / baseline, 4.0);

  if (e.queries + e.probe_queries > 0) {
    const double probe_frac =
        static_cast<double>(e.probe_queries) /
        static_cast<double>(e.queries + e.probe_queries);
    const double avg_width =
        e.probe_queries > 0
            ? e.probe_keys / static_cast<double>(e.probe_queries)
            : 0;
    // Wide scans are the volume-inference fingerprint: a 16-key
    // average probe at 100% probe traffic maxes the component.
    out.probe_component =
        Clamp01(probe_frac * std::log2(1.0 + avg_width) / 4.0);
  }

  double s_upd = e.signal_updated;
  const double signal = Decayed(e.signal, &s_upd, now,
                                options_.signal_half_life_seconds);
  out.signal_component = Saturate(signal, 8.0);

  out.score = 100.0 * (0.4 * out.breadth_component +
                       0.2 * out.rate_component +
                       0.2 * out.probe_component +
                       0.2 * out.signal_component);
  return out;
}

double RiskScorer::Score(uint64_t principal, double now_seconds) const {
  const auto locks = LockAll();
  const Entry* found = nullptr;
  for (const auto& s : stripes_) {
    auto it = s->entries.find(principal);
    if (it != s->entries.end()) {
      found = &it->second;
      break;
    }
  }
  if (found == nullptr) return 0;
  double max_breadth = 0, median_activity = 0;
  PopulationLocked(now_seconds, &max_breadth, &median_activity);
  return ScoreLocked(principal, *found, now_seconds, max_breadth,
                     median_activity)
      .score;
}

std::vector<RiskScore> RiskScorer::TopN(size_t n,
                                        double now_seconds) const {
  const auto locks = LockAll();
  double max_breadth = 0, median_activity = 0;
  PopulationLocked(now_seconds, &max_breadth, &median_activity);
  std::vector<RiskScore> scores;
  for (const auto& s : stripes_) {
    for (const auto& [id, e] : s->entries) {
      scores.push_back(ScoreLocked(id, e, now_seconds, max_breadth,
                                   median_activity));
    }
  }
  std::sort(scores.begin(), scores.end(),
            [](const RiskScore& a, const RiskScore& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.principal < b.principal;
            });
  if (scores.size() > n) scores.resize(n);
  return scores;
}

void RiskScorer::OnScrape(double now_seconds) {
  if (m_max_score_ == nullptr) return;
  const auto locks = LockAll();
  double max_breadth = 0, median_activity = 0;
  PopulationLocked(now_seconds, &max_breadth, &median_activity);
  double max_score = 0;
  int64_t flagged = 0;
  int64_t tracked = 0;
  for (const auto& s : stripes_) {
    for (const auto& [id, e] : s->entries) {
      const double score = ScoreLocked(id, e, now_seconds, max_breadth,
                                       median_activity)
                               .score;
      max_score = std::max(max_score, score);
      if (score >= options_.flag_threshold) ++flagged;
      ++tracked;
    }
  }
  m_max_score_->Set(static_cast<int64_t>(max_score * 10.0));
  m_tracked_->Set(tracked);
  m_flagged_->Set(flagged);
}

size_t RiskScorer::tracked_principals() const {
  const auto locks = LockAll();
  size_t n = 0;
  for (const auto& s : stripes_) n += s->entries.size();
  return n;
}

}  // namespace obs
}  // namespace tarpit
