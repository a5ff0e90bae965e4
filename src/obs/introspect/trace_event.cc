#include "obs/introspect/trace_event.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <set>

#include "obs/json.h"

namespace gupt {
namespace obs {
namespace introspect {
namespace {

/// Microseconds with nanosecond precision, as trace_event "ts"/"dur" want.
std::string Micros(std::int64_t ns) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(ns) / 1e3);
  return buf;
}

/// One complete event ("ph":"X"). `extra_args` is a pre-rendered fragment
/// like ",\"note\":\"...\"" appended inside the args object.
std::string CompleteEvent(const std::string& name, const std::string& cat,
                          int tid, std::int64_t ts_ns, std::int64_t dur_ns,
                          std::uint64_t query_id,
                          const std::string& extra_args) {
  std::string out = "{\"name\":\"" + JsonEscape(name) + "\",\"cat\":\"" + cat +
                    "\",\"ph\":\"X\",\"pid\":1,\"tid\":" + std::to_string(tid) +
                    ",\"ts\":" + Micros(ts_ns) +
                    ",\"dur\":" + Micros(std::max<std::int64_t>(dur_ns, 1)) +
                    ",\"args\":{\"query_id\":" + std::to_string(query_id) +
                    extra_args + "}}";
  return out;
}

}  // namespace

std::string ExportChromeTrace(const std::vector<CompletedTrace>& traces) {
  std::string events;
  std::set<int> tids;
  auto append = [&events](const std::string& event) {
    if (!events.empty()) events += ",\n";
    events += event;
  };

  for (const CompletedTrace& completed : traces) {
    const QueryTrace& trace = completed.trace;
    tids.insert(completed.coordinator_tid);

    // The query's extent on the shared timeline: earliest known start to
    // latest known end across stage and block spans.
    std::int64_t first_start = -1;
    std::int64_t last_end = 0;
    for (const SpanRecord& span : trace.spans()) {
      if (span.start_ns < 0) continue;
      if (first_start < 0 || span.start_ns < first_start) {
        first_start = span.start_ns;
      }
      last_end = std::max(last_end, span.start_ns + span.duration.count());
    }
    for (const BlockSpan& span : trace.block_spans()) {
      if (first_start < 0 || span.start_ns < first_start) {
        first_start = span.start_ns;
      }
      last_end = std::max(last_end, span.start_ns + span.duration_ns);
    }
    if (first_start < 0) first_start = 0;
    if (last_end < first_start) {
      last_end = first_start + trace.TotalDuration().count();
    }

    // Enclosing per-query span carrying the labels and DP gauges.
    std::string query_args;
    query_args += ",\"dataset\":\"" + JsonEscape(completed.dataset) + "\"";
    query_args += ",\"program\":\"" + JsonEscape(completed.program) + "\"";
    query_args += ",\"analyst\":\"" + JsonEscape(completed.analyst) + "\"";
    query_args += std::string(",\"ok\":") + (completed.ok ? "true" : "false");
    for (const auto& [name, value] : trace.gauges()) {
      query_args += ",\"" + JsonEscape(name) + "\":" + JsonDouble(value);
    }
    append(CompleteEvent(
        "query " + std::to_string(trace.query_id()) + " " + completed.program,
        "query", completed.coordinator_tid, first_start,
        last_end - first_start, trace.query_id(), query_args));

    // Stage spans on the coordinator's lane. Spans without a recorded
    // start are laid end-to-end from the query's first timestamp.
    std::int64_t cursor = first_start;
    for (const SpanRecord& span : trace.spans()) {
      std::int64_t start = span.start_ns >= 0 ? span.start_ns : cursor;
      cursor = start + span.duration.count();
      std::string args = std::string(",\"ok\":") + (span.ok ? "true" : "false");
      if (!span.note.empty()) {
        args += ",\"note\":\"" + JsonEscape(span.note) + "\"";
      }
      append(CompleteEvent(span.name, "stage", completed.coordinator_tid,
                           start, span.duration.count(), trace.query_id(),
                           args));
    }

    // Block spans on their worker threads' lanes: this is where a gamma>1
    // fan-out becomes visibly cross-thread.
    for (const BlockSpan& span : trace.block_spans()) {
      tids.insert(span.worker_id);
      std::string args = ",\"block\":" + std::to_string(span.block_index) +
                         ",\"ok\":" + (span.ok ? "true" : "false");
      append(CompleteEvent("block", "block", span.worker_id, span.start_ns,
                           span.duration_ns, trace.query_id(), args));
    }
  }

  // Thread-name metadata so the lanes are labelled in the viewer.
  std::string metadata;
  for (int tid : tids) {
    std::string name =
        tid == 0 ? "main-thread" : "pool-worker-" + std::to_string(tid);
    if (!metadata.empty()) metadata += ",\n";
    metadata += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" +
                std::to_string(tid) + ",\"args\":{\"name\":\"" + name +
                "\"}}";
  }

  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  out += metadata;
  if (!metadata.empty() && !events.empty()) out += ",\n";
  out += events;
  out += "\n]}\n";
  return out;
}

}  // namespace introspect
}  // namespace obs
}  // namespace gupt
