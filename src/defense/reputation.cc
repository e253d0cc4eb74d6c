#include "defense/reputation.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace tarpit {

namespace {

// Mixes an identity id into a shard index (splitmix64 finalizer, same
// mixer the buffer pool uses -- sequential ids spread evenly).
uint64_t MixId(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

size_t RoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

const char* ReputationSignalName(ReputationSignal signal) {
  switch (signal) {
    case ReputationSignal::kBreadth:
      return "breadth";
    case ReputationSignal::kRateAnomaly:
      return "rate_anomaly";
    case ReputationSignal::kExternal:
      return "external";
  }
  return "unknown";
}

ReputationStore::ReputationStore(ReputationOptions options)
    : options_(options) {
  options_.growth = std::max(1.0, options_.growth);
  options_.subnet_growth = std::max(1.0, options_.subnet_growth);
  options_.max_penalty = std::max(1.0, options_.max_penalty);
  options_.max_subnet_penalty = std::max(1.0, options_.max_subnet_penalty);
  options_.half_life_seconds = std::max(1e-9, options_.half_life_seconds);
  options_.breadth_signal_stride =
      std::max(1e-9, options_.breadth_signal_stride);
  options_.max_identities_per_shard =
      std::max<size_t>(1, options_.max_identities_per_shard);
  log_growth_ = std::log(options_.growth);
  log_subnet_growth_ = std::log(options_.subnet_growth);
  max_log_penalty_ = std::log(options_.max_penalty);
  max_log_subnet_penalty_ = std::log(options_.max_subnet_penalty);

  size_t shards = RoundUpPow2(std::max<size_t>(1, options_.shards));
  identity_shards_.reserve(shards);
  for (size_t i = 0; i < shards; ++i) {
    identity_shards_.push_back(std::make_unique<Shard>());
  }

  if (options_.metrics != nullptr) {
    obs::MetricRegistry* r = options_.metrics;
    m_signals_breadth_ =
        r->GetCounter("tarpit_reputation_signals_total",
                      {{"source", "breadth"}});
    m_signals_rate_ =
        r->GetCounter("tarpit_reputation_signals_total",
                      {{"source", "rate_anomaly"}});
    m_signals_external_ =
        r->GetCounter("tarpit_reputation_signals_total",
                      {{"source", "external"}});
    m_evictions_ = r->GetCounter("tarpit_reputation_evictions_total");
    m_tracked_identities_ =
        r->GetGauge("tarpit_reputation_tracked_principals",
                    {{"scope", "identity"}});
    m_tracked_subnets_ =
        r->GetGauge("tarpit_reputation_tracked_principals",
                    {{"scope", "subnet24"}});
  }
}

ReputationStore::Shard& ReputationStore::IdentityShard(
    uint64_t identity) const {
  size_t mask = identity_shards_.size() - 1;
  return *identity_shards_[MixId(identity) & mask];
}

void ReputationStore::Decay(Entry* entry, double now_seconds) const {
  if (entry->log_penalty <= 0.0) {
    entry->decay_stamp_seconds = now_seconds;
    return;
  }
  double dt = now_seconds - entry->decay_stamp_seconds;
  if (dt > 0.0) {
    entry->log_penalty *= std::exp2(-dt / options_.half_life_seconds);
    if (entry->log_penalty < options_.baseline_epsilon) {
      entry->log_penalty = 0.0;  // Snap: fully back to baseline.
    }
  }
  entry->decay_stamp_seconds = now_seconds;
}

void ReputationStore::Bump(Entry* entry, double log_growth,
                           double strength, double max_log,
                           double now_seconds) {
  Decay(entry, now_seconds);
  entry->log_penalty =
      std::min(max_log, entry->log_penalty + log_growth * strength);
}

uint64_t ReputationStore::ObserveEntry(Entry* entry, int64_t key,
                                       uint64_t universe_n,
                                       double now_seconds,
                                       double log_growth,
                                       double max_log) {
  uint64_t fired = 0;

  // Breadth: one signal per stride of coverage past the free fraction.
  if (universe_n > 0) {
    if (entry->breadth == nullptr) {
      entry->breadth =
          std::make_unique<HyperLogLog>(options_.hll_precision);
    }
    entry->breadth->Add(key);
    double coverage =
        entry->breadth->Estimate() / static_cast<double>(universe_n);
    double past_free = coverage - options_.breadth_free_fraction;
    if (past_free > 0.0) {
      uint64_t due = static_cast<uint64_t>(
          past_free / options_.breadth_signal_stride);
      if (due > entry->breadth_signals) {
        uint64_t n = due - entry->breadth_signals;
        entry->breadth_signals = due;
        Bump(entry, log_growth, static_cast<double>(n), max_log,
             now_seconds);
        fired += n;
        CountSignal(ReputationSignal::kBreadth, n);
      }
    }
  }

  // Rate: at most one signal per window, once the window's count
  // implies a sustained rate above the threshold.
  if (options_.rate_threshold_per_second > 0.0) {
    if (now_seconds - entry->window_start_seconds >=
        options_.rate_window_seconds) {
      entry->window_start_seconds = now_seconds;
      entry->window_count = 0;
      entry->window_signaled = false;
    }
    entry->window_count++;
    double implied_rate = static_cast<double>(entry->window_count) /
                          options_.rate_window_seconds;
    if (!entry->window_signaled &&
        implied_rate > options_.rate_threshold_per_second) {
      entry->window_signaled = true;
      Bump(entry, log_growth, 1.0, max_log, now_seconds);
      fired += 1;
      CountSignal(ReputationSignal::kRateAnomaly);
    }
  }

  if (fired == 0) {
    // Pure benign observation: just advance decay.
    Decay(entry, now_seconds);
  }
  return fired;
}

void ReputationStore::EnforceShardBudget(Shard* shard) {
  while (shard->entries.size() > options_.max_identities_per_shard) {
    auto victim = shard->entries.end();
    double lowest = std::numeric_limits<double>::infinity();
    for (auto it = shard->entries.begin(); it != shard->entries.end();
         ++it) {
      if (it->second.log_penalty < lowest) {
        lowest = it->second.log_penalty;
        victim = it;
      }
    }
    if (victim == shard->entries.end()) break;
    shard->entries.erase(victim);
    identity_count_.fetch_sub(1, std::memory_order_relaxed);
    if (m_evictions_ != nullptr) m_evictions_->Increment();
  }
}

double ReputationStore::PenaltyFactor(uint64_t identity,
                                      uint32_t subnet24,
                                      double now_seconds) const {
  double log_id = 0.0;
  {
    Shard& shard = IdentityShard(identity);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.entries.find(identity);
    if (it != shard.entries.end()) {
      Decay(&it->second, now_seconds);
      log_id = it->second.log_penalty;
    }
  }
  double log_subnet = 0.0;
  {
    std::lock_guard<std::mutex> lock(subnet_mu_);
    auto it = subnets_.find(subnet24);
    if (it != subnets_.end()) {
      Decay(&it->second, now_seconds);
      log_subnet = it->second.log_penalty;
    }
  }
  double log_max = std::max(0.0, std::max(log_id, log_subnet));
  return std::exp(log_max);
}

void ReputationStore::ObserveAccess(uint64_t identity, uint32_t subnet24,
                                    int64_t key, uint64_t universe_n,
                                    double now_seconds) {
  {
    Shard& shard = IdentityShard(identity);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto [it, inserted] = shard.entries.try_emplace(identity);
    if (inserted) {
      identity_count_.fetch_add(1, std::memory_order_relaxed);
    }
    ObserveEntry(&it->second, key, universe_n, now_seconds, log_growth_,
                 max_log_penalty_);
    EnforceShardBudget(&shard);
    if (m_tracked_identities_ != nullptr) {
      m_tracked_identities_->Set(
          static_cast<int64_t>(tracked_identities()));
    }
  }
  {
    std::lock_guard<std::mutex> lock(subnet_mu_);
    Entry& entry = subnets_[subnet24];
    ObserveEntry(&entry, key, universe_n, now_seconds,
                 log_subnet_growth_, max_log_subnet_penalty_);
    if (m_tracked_subnets_ != nullptr) {
      m_tracked_subnets_->Set(static_cast<int64_t>(subnets_.size()));
    }
  }
}

void ReputationStore::RecordSignal(uint64_t identity, uint32_t subnet24,
                                   double now_seconds,
                                   ReputationSignal source,
                                   double strength) {
  if (strength <= 0.0) return;
  {
    Shard& shard = IdentityShard(identity);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto [it, inserted] = shard.entries.try_emplace(identity);
    if (inserted) {
      identity_count_.fetch_add(1, std::memory_order_relaxed);
    }
    Bump(&it->second, log_growth_, strength, max_log_penalty_,
         now_seconds);
    EnforceShardBudget(&shard);
    if (m_tracked_identities_ != nullptr) {
      m_tracked_identities_->Set(
          static_cast<int64_t>(tracked_identities()));
    }
  }
  {
    std::lock_guard<std::mutex> lock(subnet_mu_);
    Entry& entry = subnets_[subnet24];
    Bump(&entry, log_subnet_growth_, strength, max_log_subnet_penalty_,
         now_seconds);
    if (m_tracked_subnets_ != nullptr) {
      m_tracked_subnets_->Set(static_cast<int64_t>(subnets_.size()));
    }
  }
  CountSignal(source);
}

void ReputationStore::RecordBenign(uint64_t identity, uint32_t subnet24,
                                   double now_seconds) {
  {
    Shard& shard = IdentityShard(identity);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.entries.find(identity);
    if (it != shard.entries.end()) Decay(&it->second, now_seconds);
  }
  {
    std::lock_guard<std::mutex> lock(subnet_mu_);
    auto it = subnets_.find(subnet24);
    if (it != subnets_.end()) Decay(&it->second, now_seconds);
  }
}

double ReputationStore::IdentityPenalty(uint64_t identity,
                                        double now_seconds) const {
  Shard& shard = IdentityShard(identity);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.entries.find(identity);
  if (it == shard.entries.end()) return 1.0;
  Decay(&it->second, now_seconds);
  return std::exp(std::max(0.0, it->second.log_penalty));
}

double ReputationStore::SubnetPenalty(uint32_t subnet24,
                                      double now_seconds) const {
  std::lock_guard<std::mutex> lock(subnet_mu_);
  auto it = subnets_.find(subnet24);
  if (it == subnets_.end()) return 1.0;
  Decay(&it->second, now_seconds);
  return std::exp(std::max(0.0, it->second.log_penalty));
}

void ReputationStore::ForgetIdentity(uint64_t identity) {
  Shard& shard = IdentityShard(identity);
  std::lock_guard<std::mutex> lock(shard.mu);
  if (shard.entries.erase(identity) > 0) {
    identity_count_.fetch_sub(1, std::memory_order_relaxed);
  }
}

void ReputationStore::ForgetSubnet(uint32_t subnet24) {
  std::lock_guard<std::mutex> lock(subnet_mu_);
  subnets_.erase(subnet24);
}

size_t ReputationStore::tracked_identities() const {
  return identity_count_.load(std::memory_order_relaxed);
}

size_t ReputationStore::tracked_subnets() const {
  std::lock_guard<std::mutex> lock(subnet_mu_);
  return subnets_.size();
}

uint64_t ReputationStore::signals_total() const {
  return signal_count_.load(std::memory_order_relaxed);
}

void ReputationStore::CountSignal(ReputationSignal source, uint64_t n) {
  signal_count_.fetch_add(n, std::memory_order_relaxed);
  obs::Counter* c = nullptr;
  switch (source) {
    case ReputationSignal::kBreadth:
      c = m_signals_breadth_;
      break;
    case ReputationSignal::kRateAnomaly:
      c = m_signals_rate_;
      break;
    case ReputationSignal::kExternal:
      c = m_signals_external_;
      break;
  }
  if (c != nullptr) c->Increment(static_cast<int64_t>(n));
}

}  // namespace tarpit
