#include "core/resource_governor.h"

namespace tarpit {

ResourceGovernor::ResourceGovernor(ResourceGovernorOptions options)
    : options_(options) {
  if (options_.metrics != nullptr) {
    obs::MetricRegistry* m = options_.metrics;
    m_parked_stalls_ = m->GetGauge("tarpit_governor_parked_stalls");
    m_parked_bytes_ = m->GetGauge("tarpit_governor_parked_bytes");
    m_peak_parked_stalls_ =
        m->GetGauge("tarpit_governor_peak_parked_stalls");
    m_admitted_ = m->GetCounter("tarpit_governor_admitted_total");
    auto shed = [m](const char* reason) {
      return m->GetCounter("tarpit_governor_shed_total",
                           {{"reason", reason}});
    };
    m_shed_parked_stalls_ = shed("parked_stalls");
    m_shed_parked_bytes_ = shed("parked_bytes");
    m_shed_wal_backlog_ = shed("wal_backlog");
    m_shed_live_versions_ = shed("live_versions");
  }
}

Status ResourceGovernor::AdmitStall(uint64_t bytes) {
  const uint64_t b = EffectiveBytes(bytes);
  std::lock_guard<std::mutex> lock(mu_);
  if (options_.max_parked_stalls != 0 &&
      parked_stalls_ >= options_.max_parked_stalls) {
    if (m_shed_parked_stalls_ != nullptr) m_shed_parked_stalls_->Increment();
    return Status::Overloaded(
        "parked-stall budget exhausted (" +
        std::to_string(options_.max_parked_stalls) + " stalls)");
  }
  if (options_.max_parked_bytes != 0 &&
      parked_bytes_ + b > options_.max_parked_bytes) {
    if (m_shed_parked_bytes_ != nullptr) m_shed_parked_bytes_->Increment();
    return Status::Overloaded(
        "parked-stall memory budget exhausted (" +
        std::to_string(options_.max_parked_bytes) + " bytes)");
  }
  ++parked_stalls_;
  parked_bytes_ += b;
  if (parked_stalls_ > peak_parked_stalls_) {
    peak_parked_stalls_ = parked_stalls_;
    if (m_peak_parked_stalls_ != nullptr) {
      m_peak_parked_stalls_->Set(
          static_cast<int64_t>(peak_parked_stalls_));
    }
  }
  if (parked_bytes_ > peak_parked_bytes_) peak_parked_bytes_ = parked_bytes_;
  if (m_parked_stalls_ != nullptr) {
    m_parked_stalls_->Set(static_cast<int64_t>(parked_stalls_));
  }
  if (m_parked_bytes_ != nullptr) {
    m_parked_bytes_->Set(static_cast<int64_t>(parked_bytes_));
  }
  if (m_admitted_ != nullptr) m_admitted_->Increment();
  return Status::OK();
}

void ResourceGovernor::ReleaseStall(uint64_t bytes) {
  const uint64_t b = EffectiveBytes(bytes);
  std::lock_guard<std::mutex> lock(mu_);
  parked_stalls_ = parked_stalls_ > 0 ? parked_stalls_ - 1 : 0;
  parked_bytes_ = parked_bytes_ > b ? parked_bytes_ - b : 0;
  if (m_parked_stalls_ != nullptr) {
    m_parked_stalls_->Set(static_cast<int64_t>(parked_stalls_));
  }
  if (m_parked_bytes_ != nullptr) {
    m_parked_bytes_->Set(static_cast<int64_t>(parked_bytes_));
  }
}

Status ResourceGovernor::CheckWrite(uint64_t wal_backlog_bytes,
                                    uint64_t live_versions) {
  std::lock_guard<std::mutex> lock(mu_);
  if (options_.max_wal_backlog_bytes != 0 &&
      wal_backlog_bytes > options_.max_wal_backlog_bytes) {
    if (m_shed_wal_backlog_ != nullptr) m_shed_wal_backlog_->Increment();
    return Status::Overloaded(
        "wal backlog " + std::to_string(wal_backlog_bytes) +
        " bytes over budget (" +
        std::to_string(options_.max_wal_backlog_bytes) + ")");
  }
  if (options_.max_live_versions != 0 &&
      live_versions > options_.max_live_versions) {
    if (m_shed_live_versions_ != nullptr) {
      m_shed_live_versions_->Increment();
    }
    return Status::Overloaded(
        "version store " + std::to_string(live_versions) +
        " live versions over budget (" +
        std::to_string(options_.max_live_versions) + ")");
  }
  return Status::OK();
}

uint64_t ResourceGovernor::parked_stalls() const {
  std::lock_guard<std::mutex> lock(mu_);
  return parked_stalls_;
}

uint64_t ResourceGovernor::parked_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return parked_bytes_;
}

uint64_t ResourceGovernor::peak_parked_stalls() const {
  std::lock_guard<std::mutex> lock(mu_);
  return peak_parked_stalls_;
}

uint64_t ResourceGovernor::peak_parked_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return peak_parked_bytes_;
}

}  // namespace tarpit
