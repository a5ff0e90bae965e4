#include "obs/trace.h"

#include <atomic>
#include <cmath>
#include <cstdio>

#include "obs/json.h"

namespace gupt {
namespace obs {
namespace {

std::string FormatDuration(std::chrono::nanoseconds d) {
  const double ns = static_cast<double>(d.count());
  char buf[32];
  if (ns < 1e3) {
    std::snprintf(buf, sizeof(buf), "%.0fns", ns);
  } else if (ns < 1e6) {
    std::snprintf(buf, sizeof(buf), "%.1fus", ns / 1e3);
  } else if (ns < 1e9) {
    std::snprintf(buf, sizeof(buf), "%.1fms", ns / 1e6);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2fs", ns / 1e9);
  }
  return buf;
}

std::string FormatGauge(double value) {
  char buf[32];
  if (value == static_cast<double>(static_cast<long long>(value)) &&
      std::fabs(value) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(value));
  } else {
    std::snprintf(buf, sizeof(buf), "%g", value);
  }
  return buf;
}

}  // namespace

std::chrono::steady_clock::time_point TraceEpoch() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return epoch;
}

std::int64_t NanosSinceTraceEpoch(std::chrono::steady_clock::time_point tp) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(tp - TraceEpoch())
      .count();
}

namespace {
std::atomic<std::uint64_t>& QueryIdCounter() {
  static std::atomic<std::uint64_t> next{0};
  return next;
}
}  // namespace

std::uint64_t NextQueryId() {
  return QueryIdCounter().fetch_add(1, std::memory_order_relaxed) + 1;
}

std::uint64_t LastQueryId() {
  return QueryIdCounter().load(std::memory_order_relaxed);
}

void QueryTrace::SetGauge(const std::string& name, double value) {
  for (auto& [k, v] : gauges_) {
    if (k == name) {
      v = value;
      return;
    }
  }
  gauges_.emplace_back(name, value);
}

bool QueryTrace::HasStage(const std::string& name) const {
  for (const SpanRecord& span : spans_) {
    if (span.name == name) return true;
  }
  return false;
}

std::vector<std::string> QueryTrace::StageNames() const {
  std::vector<std::string> names;
  names.reserve(spans_.size());
  for (const SpanRecord& span : spans_) names.push_back(span.name);
  return names;
}

std::optional<double> QueryTrace::GaugeValue(const std::string& name) const {
  for (const auto& [k, v] : gauges_) {
    if (k == name) return v;
  }
  return std::nullopt;
}

std::chrono::nanoseconds QueryTrace::TotalDuration() const {
  std::chrono::nanoseconds total{0};
  for (const SpanRecord& span : spans_) total += span.duration;
  return total;
}

std::int64_t QueryTrace::TotalStageCpuNanos() const {
  std::int64_t total = 0;
  for (const SpanRecord& span : spans_) {
    if (span.cpu_ns > 0) total += span.cpu_ns;
  }
  return total;
}

std::string QueryTrace::Summary() const {
  std::string out;
  for (const SpanRecord& span : spans_) {
    if (!out.empty()) out += ' ';
    out += span.name;
    out += '=';
    out += FormatDuration(span.duration);
    if (!span.ok) out += "(err)";
  }
  if (!gauges_.empty()) {
    out += " |";
    for (const auto& [name, value] : gauges_) {
      out += ' ';
      out += name;
      out += '=';
      out += FormatGauge(value);
    }
  }
  return out;
}

std::string QueryTrace::ToJson() const {
  std::string out = "{\"query_id\":";
  out += std::to_string(query_id_);
  out += ",\"spans\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (i > 0) out += ',';
    const SpanRecord& span = spans_[i];
    out += "{\"name\":\"";
    out += JsonEscape(span.name);
    out += "\",\"start_ns\":";
    out += std::to_string(span.start_ns);
    out += ",\"duration_ns\":";
    out += std::to_string(span.duration.count());
    if (span.cpu_ns >= 0) {
      out += ",\"cpu_ns\":";
      out += std::to_string(span.cpu_ns);
    }
    out += ",\"ok\":";
    out += span.ok ? "true" : "false";
    if (!span.note.empty()) {
      out += ",\"note\":\"";
      out += JsonEscape(span.note);
      out += '"';
    }
    out += "}";
  }
  out += "],\"block_spans\":[";
  for (std::size_t i = 0; i < block_spans_.size(); ++i) {
    if (i > 0) out += ',';
    const BlockSpan& span = block_spans_[i];
    out += "{\"block\":";
    out += std::to_string(span.block_index);
    out += ",\"worker_id\":";
    out += std::to_string(span.worker_id);
    out += ",\"start_ns\":";
    out += std::to_string(span.start_ns);
    out += ",\"duration_ns\":";
    out += std::to_string(span.duration_ns);
    out += ",\"ok\":";
    out += span.ok ? "true" : "false";
    out += "}";
  }
  out += "],\"gauges\":{";
  for (std::size_t i = 0; i < gauges_.size(); ++i) {
    if (i > 0) out += ',';
    out += '"';
    out += JsonEscape(gauges_[i].first);
    out += "\":";
    out += JsonDouble(gauges_[i].second);
  }
  out += "}}";
  return out;
}

void ScopedTimer::Stop() {
  if (stopped_ || trace_ == nullptr) {
    stopped_ = true;
    return;
  }
  stopped_ = true;
  SpanRecord span;
  span.name = std::move(name_);
  span.start_ns = NanosSinceTraceEpoch(start_);
  span.duration = std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::steady_clock::now() - start_);
  span.ok = ok_;
  span.note = std::move(note_);
  trace_->AddSpan(std::move(span));
}

}  // namespace obs
}  // namespace gupt
