#include "obs/exposition.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <unordered_map>
#include <vector>

namespace tarpit {
namespace obs {

namespace {

void AppendLabelSet(std::string* out, const Labels& labels) {
  if (labels.empty()) return;
  out->push_back('{');
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out->push_back(',');
    first = false;
    out->append(k);
    out->append("=\"");
    out->append(v);
    out->push_back('"');
  }
  out->push_back('}');
}

void AppendLabelSetWithLe(std::string* out, const Labels& labels,
                          const std::string& le) {
  out->push_back('{');
  for (const auto& [k, v] : labels) {
    out->append(k);
    out->append("=\"");
    out->append(v);
    out->append("\",");
  }
  out->append("le=\"");
  out->append(le);
  out->append("\"}");
}

void AppendDouble(std::string* out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  out->append(buf);
}

void AppendJsonLabels(std::string* out, const Labels& labels) {
  out->append("\"labels\":{");
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out->push_back(',');
    first = false;
    out->push_back('"');
    out->append(k);
    out->append("\":\"");
    out->append(v);
    out->push_back('"');
  }
  out->push_back('}');
}

void AppendFamilyHeader(std::string* out, const MetricSnapshot& m) {
  static const char* kTypeNames[] = {"counter", "gauge", "histogram"};
  out->append("# TYPE ").append(m.name).append(" ");
  out->append(kTypeNames[static_cast<int>(m.kind)]).push_back('\n');
  if (m.kind == MetricKind::kHistogram && !m.histogram.unit.empty()) {
    out->append("# UNIT ").append(m.name).append(" ");
    out->append(m.histogram.unit).push_back('\n');
  }
}

void AppendSeries(std::string* out, const MetricSnapshot& m) {
  if (m.kind != MetricKind::kHistogram) {
    out->append(m.name);
    AppendLabelSet(out, m.labels);
    out->push_back(' ');
    out->append(std::to_string(m.value));
    out->push_back('\n');
    return;
  }
  const HistogramSnapshot& h = m.histogram;
  // Cumulative buckets at power-of-two upper bounds: indices whose
  // sub-bucket is 0 start a new octave, so summing up to (but
  // excluding) them yields `le = 2^k` exactly.
  const uint64_t sub_count = uint64_t{1} << h.sub_bits;
  uint64_t cum = 0;
  for (size_t i = 0; i < h.buckets.size(); ++i) {
    if (i >= sub_count && (i & (sub_count - 1)) == 0 && cum > 0) {
      out->append(m.name).append("_bucket");
      AppendLabelSetWithLe(
          out, m.labels,
          std::to_string(Histogram::BucketLowerBound(h.sub_bits, i)));
      out->push_back(' ');
      out->append(std::to_string(cum));
      out->push_back('\n');
    }
    cum += h.buckets[i];
  }
  out->append(m.name).append("_bucket");
  AppendLabelSetWithLe(out, m.labels, "+Inf");
  out->push_back(' ');
  out->append(std::to_string(cum));
  out->push_back('\n');
  out->append(m.name).append("_sum");
  AppendLabelSet(out, m.labels);
  out->push_back(' ');
  out->append(std::to_string(h.sum));
  out->push_back('\n');
  out->append(m.name).append("_count");
  AppendLabelSet(out, m.labels);
  out->push_back(' ');
  out->append(std::to_string(h.count));
  out->push_back('\n');
}

}  // namespace

std::string ToPrometheusText(const RegistrySnapshot& snapshot) {
  // One family per metric name, in first-registration order: its
  // metadata once, then all of its series together, however the
  // registry interleaved their registrations.
  std::vector<std::vector<const MetricSnapshot*>> families;
  std::unordered_map<std::string, size_t> family_of;
  for (const MetricSnapshot& m : snapshot.metrics) {
    auto [it, added] = family_of.try_emplace(m.name, families.size());
    if (added) families.emplace_back();
    families[it->second].push_back(&m);
  }
  std::string out;
  out.reserve(snapshot.metrics.size() * 64);
  for (const auto& family : families) {
    AppendFamilyHeader(&out, *family.front());
    for (const MetricSnapshot* m : family) AppendSeries(&out, *m);
  }
  return out;
}

std::string ToJson(const RegistrySnapshot& snapshot) {
  std::string out;
  out.reserve(snapshot.metrics.size() * 96);
  out.append("{\"metrics\":[");
  bool first_metric = true;
  for (const MetricSnapshot& m : snapshot.metrics) {
    if (!first_metric) out.push_back(',');
    first_metric = false;
    out.append("{\"name\":\"").append(m.name).append("\",");
    AppendJsonLabels(&out, m.labels);
    out.push_back(',');
    switch (m.kind) {
      case MetricKind::kCounter:
        out.append("\"type\":\"counter\",\"value\":");
        out.append(std::to_string(m.value));
        break;
      case MetricKind::kGauge:
        out.append("\"type\":\"gauge\",\"value\":");
        out.append(std::to_string(m.value));
        break;
      case MetricKind::kHistogram: {
        const HistogramSnapshot& h = m.histogram;
        out.append("\"type\":\"histogram\",\"unit\":\"");
        out.append(h.unit);
        out.append("\",\"count\":");
        out.append(std::to_string(h.count));
        out.append(",\"sum\":");
        out.append(std::to_string(h.sum));
        out.append(",\"min\":");
        out.append(std::to_string(h.min));
        out.append(",\"max\":");
        out.append(std::to_string(h.max));
        out.append(",\"p50\":");
        AppendDouble(&out, h.Quantile(0.5));
        out.append(",\"p90\":");
        AppendDouble(&out, h.Quantile(0.9));
        out.append(",\"p99\":");
        AppendDouble(&out, h.Quantile(0.99));
        out.append(",\"p999\":");
        AppendDouble(&out, h.Quantile(0.999));
        out.append(",\"buckets\":[");
        bool first_bucket = true;
        for (size_t i = 0; i < h.buckets.size(); ++i) {
          if (h.buckets[i] == 0) continue;
          if (!first_bucket) out.push_back(',');
          first_bucket = false;
          out.push_back('[');
          out.append(std::to_string(
              Histogram::BucketLowerBound(h.sub_bits, i)));
          out.push_back(',');
          out.append(std::to_string(
              Histogram::BucketUpperBound(h.sub_bits, i)));
          out.push_back(',');
          out.append(std::to_string(h.buckets[i]));
          out.push_back(']');
        }
        out.push_back(']');
        break;
      }
    }
    out.push_back('}');
  }
  out.append("]}");
  return out;
}

PeriodicExporter::PeriodicExporter(MetricRegistry* registry,
                                   PeriodicExporterOptions options)
    : registry_(registry), options_(std::move(options)) {
  if (options_.interval_seconds <= 0) options_.interval_seconds = 1.0;
  thread_ = std::thread([this] { Loop(); });
}

PeriodicExporter::~PeriodicExporter() { Stop(); }

bool PeriodicExporter::WriteOnce() {
  const RegistrySnapshot snap = registry_->Snapshot();
  const std::string body = options_.format ==
                                   PeriodicExporterOptions::Format::kJson
                               ? ToJson(snap)
                               : ToPrometheusText(snap);
  const std::string tmp = options_.path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) return false;
  const bool wrote =
      std::fwrite(body.data(), 1, body.size(), f) == body.size();
  std::fclose(f);
  if (!wrote || std::rename(tmp.c_str(), options_.path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++writes_;
  }
  return true;
}

void PeriodicExporter::Loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    const auto interval = std::chrono::duration<double>(
        options_.interval_seconds);
    if (cv_.wait_for(lock, interval, [this] { return stop_; })) break;
    lock.unlock();
    WriteOnce();
    lock.lock();
  }
}

void PeriodicExporter::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return;
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  if (options_.flush_on_stop) WriteOnce();
}

uint64_t PeriodicExporter::writes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return writes_;
}

}  // namespace obs
}  // namespace tarpit
