#include "obs/series/render.h"

#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>
#include <vector>

#include "obs/json.h"

namespace gupt {
namespace obs {
namespace series {

namespace {

std::string TextDouble(double value) {
  if (std::isinf(value)) return value > 0 ? "inf" : "-inf";
  if (std::isnan(value)) return "nan";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.6g", value);
  return buffer;
}

std::int64_t WindowMinTNs(const SeriesStore& store, double window_seconds) {
  if (window_seconds <= 0) return std::numeric_limits<std::int64_t>::min();
  // Anchored at the store's newest timestamp, not the wall clock, so a
  // paused collector still renders deterministically.
  const std::int64_t latest = store.LatestTimestampNs();
  return latest - static_cast<std::int64_t>(window_seconds * 1e9);
}

void AppendPointsJson(std::string* out,
                      const std::vector<SeriesPoint>& points) {
  *out += "\"samples\":[";
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (i > 0) *out += ',';
    *out += "{\"t_ns\":";
    *out += std::to_string(points[i].t_ns);
    *out += ",\"unix_ms\":";
    *out += std::to_string(points[i].unix_ms);
    *out += ",\"value\":";
    *out += JsonDouble(points[i].value);
    *out += '}';
  }
  *out += ']';
}

}  // namespace

std::string TimeserieszText(const SeriesStore& store,
                            const std::string& name_filter,
                            double window_seconds, const RenderInfo& info) {
  const std::int64_t min_t_ns = WindowMinTNs(store, window_seconds);
  std::vector<SeriesSummary> summaries = store.Summaries(name_filter, min_t_ns);
  std::ostringstream out;
  out << "timeseriesz: " << store.NumSeries() << " series tracked, "
      << summaries.size() << " matched, capacity " << store.capacity()
      << " points/series, ";
  if (info.period_ms > 0) {
    out << "period " << info.period_ms << " ms";
  } else {
    out << "manual ticks";
  }
  out << ", ticks " << info.ticks << "\n";
  if (window_seconds > 0) {
    out << "window: last " << TextDouble(window_seconds) << " s\n";
  } else {
    out << "window: all retained\n";
  }
  out << "\n";
  for (const SeriesSummary& s : summaries) {
    out << s.name << "  points=" << s.points;
    if (s.points > 0) {
      out << "  latest=" << TextDouble(s.last.value)
          << "  min=" << TextDouble(s.min) << "  mean=" << TextDouble(s.mean)
          << "  max=" << TextDouble(s.max) << "  span="
          << TextDouble(static_cast<double>(s.last.t_ns - s.first.t_ns) * 1e-9)
          << "s";
    }
    out << "\n";
  }
  // A narrow filter gets the raw points ("Grafana-less" triage: pipe this
  // through gnuplot/awk).
  if (!name_filter.empty() && !summaries.empty() && summaries.size() <= 4) {
    for (const SeriesSummary& s : summaries) {
      if (s.points == 0) continue;
      out << "\n# " << s.name << " (unix_ms t_ns value)\n";
      for (const SeriesPoint& p : store.Points(s.name, min_t_ns)) {
        out << p.unix_ms << ' ' << p.t_ns << ' ' << TextDouble(p.value)
            << "\n";
      }
    }
  }
  return out.str();
}

std::string TimeserieszJson(const SeriesStore& store,
                            const std::string& name_filter,
                            double window_seconds, const RenderInfo& info) {
  const std::int64_t min_t_ns = WindowMinTNs(store, window_seconds);
  std::vector<SeriesSummary> summaries = store.Summaries(name_filter, min_t_ns);
  const bool with_samples = !name_filter.empty();
  std::string out = "{\"tracked\":";
  out += std::to_string(store.NumSeries());
  out += ",\"matched\":";
  out += std::to_string(summaries.size());
  out += ",\"capacity\":";
  out += std::to_string(store.capacity());
  out += ",\"period_ms\":";
  out += std::to_string(info.period_ms);
  out += ",\"ticks\":";
  out += std::to_string(info.ticks);
  out += ",\"window_seconds\":";
  out += window_seconds > 0 ? JsonDouble(window_seconds) : "null";
  out += ",\"series\":[";
  bool first = true;
  for (const SeriesSummary& s : summaries) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"";
    out += JsonEscape(s.name);
    out += "\",\"points\":";
    out += std::to_string(s.points);
    if (s.points > 0) {
      out += ",\"latest\":";
      out += JsonDouble(s.last.value);
      out += ",\"min\":";
      out += JsonDouble(s.min);
      out += ",\"mean\":";
      out += JsonDouble(s.mean);
      out += ",\"max\":";
      out += JsonDouble(s.max);
      out += ",\"first_unix_ms\":";
      out += std::to_string(s.first.unix_ms);
      out += ",\"last_unix_ms\":";
      out += std::to_string(s.last.unix_ms);
    }
    if (with_samples) {
      out += ',';
      AppendPointsJson(&out, store.Points(s.name, min_t_ns));
    }
    out += '}';
  }
  out += "]}";
  return out;
}

std::string AlertzText(const AlertRuleEngine& engine) {
  std::vector<AlertInstanceStatus> instances = engine.Snapshot();
  std::size_t firing = 0;
  for (const AlertInstanceStatus& s : instances) {
    if (s.state == AlertState::kFiring) ++firing;
  }
  std::ostringstream out;
  out << "alertz: " << engine.NumRules() << " rules, " << instances.size()
      << " instances, " << firing << " firing, " << engine.Evaluations()
      << " evaluations\n\n";
  for (const AlertInstanceStatus& s : instances) {
    out << s.rule;
    if (!s.instance.empty()) out << "[" << s.instance << "]";
    out << "  severity=" << ToString(s.severity)
        << "  state=" << ToString(s.state);
    if (s.has_data) {
      out << "  value=" << TextDouble(s.value)
          << "  threshold=" << TextDouble(s.threshold);
    } else {
      out << "  value=<no data>";
    }
    out << "\n    " << s.detail << "\n    transitions=" << s.transitions
        << " fired=" << s.fire_count;
    if (s.pending_since_unix_ms > 0) {
      out << " pending_since=" << s.pending_since_unix_ms;
    }
    if (s.firing_since_unix_ms > 0) {
      out << " firing_since=" << s.firing_since_unix_ms;
    }
    if (s.resolved_unix_ms > 0) out << " resolved_at=" << s.resolved_unix_ms;
    if (s.transitions > 0) {
      out << " last_transition=" << s.last_transition_unix_ms << " qid="
          << s.last_transition_qid;
    }
    out << "\n";
  }
  return out.str();
}

std::string AlertzJson(const AlertRuleEngine& engine) {
  std::vector<AlertRule> rules = engine.Rules();
  std::vector<AlertInstanceStatus> instances = engine.Snapshot();
  std::string out = "{\"rules\":[";
  bool first = true;
  for (const AlertRule& r : rules) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"";
    out += JsonEscape(r.name);
    out += "\",\"severity\":\"";
    out += ToString(r.severity);
    out += "\",\"kind\":\"";
    out += r.burn_rate ? "burn_rate" : "threshold";
    out += "\"";
    if (!r.series.empty()) {
      out += ",\"series\":\"";
      out += JsonEscape(r.series);
      out += "\"";
    }
    if (!r.denominator.empty()) {
      out += ",\"denominator\":\"";
      out += JsonEscape(r.denominator);
      out += "\"";
    }
    if (!r.burn_rate) {
      out += ",\"agg\":\"";
      out += ToString(r.agg);
      out += "\",\"fire_below\":";
      out += r.fire_below ? "true" : "false";
    }
    if (!r.dataset.empty()) {
      out += ",\"dataset\":\"";
      out += JsonEscape(r.dataset);
      out += "\"";
    }
    out += ",\"threshold\":";
    out += JsonDouble(r.threshold);
    out += ",\"window_ms\":";
    out += std::to_string(r.window_ms);
    out += ",\"for_ms\":";
    out += std::to_string(r.for_ms);
    out += ",\"description\":\"";
    out += JsonEscape(r.description);
    out += "\"}";
  }
  out += "],\"instances\":[";
  first = true;
  for (const AlertInstanceStatus& s : instances) {
    if (!first) out += ',';
    first = false;
    out += "{\"rule\":\"";
    out += JsonEscape(s.rule);
    out += "\",\"instance\":\"";
    out += JsonEscape(s.instance);
    out += "\",\"severity\":\"";
    out += ToString(s.severity);
    out += "\",\"state\":\"";
    out += ToString(s.state);
    out += "\",\"has_data\":";
    out += s.has_data ? "true" : "false";
    out += ",\"value\":";
    out += JsonDouble(s.value);
    out += ",\"threshold\":";
    out += JsonDouble(s.threshold);
    out += ",\"detail\":\"";
    out += JsonEscape(s.detail);
    out += "\",\"pending_since_unix_ms\":";
    out += std::to_string(s.pending_since_unix_ms);
    out += ",\"firing_since_unix_ms\":";
    out += std::to_string(s.firing_since_unix_ms);
    out += ",\"resolved_unix_ms\":";
    out += std::to_string(s.resolved_unix_ms);
    out += ",\"last_transition_unix_ms\":";
    out += std::to_string(s.last_transition_unix_ms);
    out += ",\"last_transition_qid\":";
    out += std::to_string(s.last_transition_qid);
    out += ",\"transitions\":";
    out += std::to_string(s.transitions);
    out += ",\"fire_count\":";
    out += std::to_string(s.fire_count);
    out += ",\"last_evaluated_unix_ms\":";
    out += std::to_string(s.last_evaluated_unix_ms);
    out += '}';
  }
  out += "]}";
  return out;
}

}  // namespace series
}  // namespace obs
}  // namespace gupt
