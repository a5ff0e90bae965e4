// End-to-end benchmark of the hosted GUPT service with a per-layer split.
//
// Drives GuptService through its analyst API (SubmitQuery) as deployed:
// ledger persisted, query cache off, ServiceOptions defaults (including the
// series collector) and an explicit runtime seed derived from the workload
// seed. Closed loop: each analyst is one thread that submits a query and
// waits for the answer before sending the next.
//
//   --trace 0  one untraced window; prints the end-to-end metrics.
//   --trace 1  splits the window into an untraced half and a traced half,
//              then makes direct calls into single layers; prints the
//              per-layer metrics. Spans are kept in memory and written to
//              <work-dir>/traces/<workload>.jsonl when the run ends.
//
// Every layer is measured from outside: by timing calls into public
// functions and by reading what the API already returns
// (QueryReport::trace stage and block spans, QueryReport::resources).
//
// The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// `correct` is the correctness gate: self-tests, every release near the
// non-private reference and their mean within a few standard errors of it,
// the in-memory budget equal to the replies, the on-disk ledger holding at
// least that spend, no fallback block, and (traced) a split with no hole.
// If the ledger's private tmpfs cannot be mounted perfbench_service exits 1
// without a result.

#include <sched.h>
#include <sys/mount.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <unistd.h>
#include <utility>
#include <vector>

#include "common/arena.h"
#include "common/rng.h"
#include "data/budget_store.h"
#include "data/dataset_manager.h"
#include "data/partitioner.h"
#include "exec/chamber_pool.h"
#include "exec/computation_manager.h"
#include "harness.h"
#include "obs/trace.h"
#include "selftest.h"
#include "service/gupt_service.h"
#include "service/program_registry.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr char kDataset[] = "bench";
constexpr double kLo = 0.0;
constexpr double kHi = 150.0;
constexpr double kWidth = kHi - kLo;
constexpr double kEpsilon = 0.1;  // every query, and every pre-seeded charge
constexpr double kTotalBudget = 1e5;  // never runs out
constexpr double kWarmupSeconds = 1.0;
/// Analyst threads of every workload, and the service's admission workers:
/// the host's core count.
constexpr std::size_t kAnalysts = 4;
// latency_p95_ms is the median, over sub-windows of about this length, of
// the p95 within each: at 130-180 qps a 2 s sub-window holds 10 or more
// samples beyond its p95.
constexpr double kTailWindowSeconds = 2.0;
/// Set-ups per --trace 0 run, and timed calls per direct layer probe.
constexpr std::size_t kSetupReps = 41;
constexpr std::size_t kDirectReps = 9;
/// Release gate: every |release - reference| <= kNoiseScales * noise scale +
/// kWidthShare * range width, and |mean(release) - reference| <=
/// kMeanSigmas standard errors of the noise + kWidthShare * range width.
constexpr double kNoiseScales = 25.0;
constexpr double kWidthShare = 0.01;
constexpr double kMeanSigmas = 6.0;
/// The traced split may leave at most this share of request time
/// unattributed (service.gap_share).
constexpr double kMaxGapShare = 0.05;
/// Budget gate tolerance, relative to the dataset's total budget.
constexpr double kBudgetTolerance = 1e-9;

/// Sub-seed purposes (DeriveSeed).
enum Purpose : std::uint64_t {
  kDataSeed = 1,
  kRuntimeSeed = 2,
  kDirectSeed = 3,
};

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".bench_build/perfbench/run";
  std::size_t rows = 10000;
  std::string program = "mean";
  std::size_t pool_workers = 0;
  std::size_t preseed_charges = 0;
};

bool ParseConfig(int argc, char** argv, Config* cfg, std::string* error) {
  std::map<std::string, std::function<void(const std::string&)>> flags = {
      {"workload", [&](const std::string& v) { cfg->workload = v; }},
      {"seed", [&](const std::string& v) { cfg->seed = std::stoull(v); }},
      {"seconds", [&](const std::string& v) { cfg->seconds = std::stod(v); }},
      {"trace", [&](const std::string& v) { cfg->trace = v == "1"; }},
      {"work-dir", [&](const std::string& v) { cfg->work_dir = v; }},
      {"rows", [&](const std::string& v) { cfg->rows = std::stoull(v); }},
      {"program", [&](const std::string& v) { cfg->program = v; }},
      {"pool-workers",
       [&](const std::string& v) { cfg->pool_workers = std::stoull(v); }},
      {"preseed-charges",
       [&](const std::string& v) { cfg->preseed_charges = std::stoull(v); }},
  };
  for (int i = 1; i < argc; i += 2) {
    const std::string arg = argv[i];
    auto it = arg.rfind("--", 0) == 0 ? flags.find(arg.substr(2)) : flags.end();
    if (it == flags.end() || i + 1 >= argc) {
      *error = "bad argument: " + arg;
      return false;
    }
    try {
      it->second(argv[i + 1]);
    } catch (const std::exception&) {
      *error = "bad value for " + arg + ": " + argv[i + 1];
      return false;
    }
  }
  if (cfg->workload.empty() || cfg->rows == 0 || cfg->seconds <= 0.0) {
    *error = "need --workload and positive --rows/--seconds";
    return false;
  }
  return true;
}

double Ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

std::int64_t Now() { return gupt::obs::NanosSinceTraceEpoch(Clock::now()); }

std::int64_t ProcessCpuNanos() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto ns = [](const timeval& tv) {
    return static_cast<std::int64_t>(tv.tv_sec) * 1000000000 +
           static_cast<std::int64_t>(tv.tv_usec) * 1000;
  };
  return ns(usage.ru_utime) + ns(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is kB
}

/// wchar and syscw of /proc/self/io (bytes and write calls issued).
struct IoCounters {
  double write_bytes = 0.0;
  double write_calls = 0.0;
};

IoCounters ReadIo() {
  IoCounters io;
  std::ifstream in("/proc/self/io");
  std::string key;
  double value = 0.0;
  while (in >> key >> value) {
    if (key == "wchar:") io.write_bytes = value;
    if (key == "syscw:") io.write_calls = value;
  }
  return io;
}

/// Every input of a run, generated from the workload seed.
struct Inputs {
  std::vector<double> column;
  gupt::Dataset data;
  double reference = 0.0;  // non-private mean or median of `column`
};

Inputs MakeInputs(const Config& cfg) {
  Inputs in;
  in.column = GaussianColumn(DeriveSeed(cfg.seed, kDataSeed), cfg.rows, 40.0,
                             10.0, kLo, kHi);
  in.data = gupt::Dataset::FromColumn(in.column).value();
  in.reference = cfg.program == "median" ? Median(in.column) : Mean(in.column);
  return in;
}

gupt::QueryRequest MakeRequest(const Config& cfg) {
  gupt::QueryRequest request;
  request.analyst = "perfbench";
  request.dataset = kDataset;
  request.program.name = cfg.program;
  request.epsilon = kEpsilon;
  request.range_mode = gupt::RangeMode::kTight;
  request.output_ranges = {gupt::Range{kLo, kHi}};
  return request;
}

gupt::DatasetOptions BudgetOptions() {
  gupt::DatasetOptions options;
  options.total_epsilon = kTotalBudget;
  return options;
}

gupt::ServiceOptions ServiceOptionsFor(const Config& cfg,
                                       const std::string& ledger_path) {
  gupt::ServiceOptions options;  // defaults: cache off, collector at 1 s
  options.runtime.seed = DeriveSeed(cfg.seed, kRuntimeSeed);
  options.chamber_pool_workers = cfg.pool_workers;
  options.admission_workers = kAnalysts;
  options.ledger_path = ledger_path;
  return options;
}

/// One completed SubmitQuery call.
struct Record {
  std::int64_t start_ns = 0;  // since the trace epoch
  std::int64_t end_ns = 0;
  bool ok = false;
  double epsilon_spent = 0.0;
  std::size_t num_blocks = 0;
  std::size_t fallback_blocks = 0;
  std::int64_t child_cpu_ns = 0;
  double release = 0.0;
  double noise_scale = 0.0;
  double error_over_scale = 0.0;
  std::optional<gupt::obs::QueryTrace> trace;  // traced window only
};

/// What one closed-loop window produced.
struct Window {
  std::vector<Record> records;
  std::int64_t start_ns = 0;  // measured interval (after warm-up)
  std::int64_t end_ns = 0;
  std::int64_t cpu_ns = 0;  // process CPU over the interval
  IoCounters io;            // /proc/self/io deltas over the interval
  double epsilon_accepted = 0.0;  // every accepted reply, warm-up included
  std::size_t release_violations = 0;
  std::string first_violation;
  std::string first_failure;

  bool InWindow(const Record& r) const { return r.start_ns >= start_ns; }
  bool Completed(const Record& r) const {
    return r.ok && r.end_ns >= start_ns && r.end_ns <= end_ns;
  }
};

/// Runs the analysts closed-loop for `warmup_seconds` + `seconds`.
Window RunWindow(gupt::GuptService& service, const Config& cfg,
                 const Inputs& in, double warmup_seconds, double seconds,
                 bool traced) {
  const gupt::QueryRequest request = MakeRequest(cfg);
  const Clock::time_point begin = Clock::now();
  const auto to_duration = [](double s) {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(s));
  };
  const Clock::time_point measure_from = begin + to_duration(warmup_seconds);
  const Clock::time_point measure_to = measure_from + to_duration(seconds);

  struct Lane {
    std::vector<Record> records;
    double epsilon = 0.0;
    std::size_t violations = 0;
    std::string first_violation;
    std::string first_failure;
  };
  std::vector<Lane> lanes(kAnalysts);
  auto analyst = [&](std::size_t a) {
    Lane& lane = lanes[a];
    for (;;) {
      const Clock::time_point start = Clock::now();
      if (start >= measure_to) break;
      gupt::Result<gupt::QueryReport> reply = service.SubmitQuery(request);
      const Clock::time_point end = Clock::now();
      Record r;
      r.start_ns = gupt::obs::NanosSinceTraceEpoch(start);
      r.end_ns = gupt::obs::NanosSinceTraceEpoch(end);
      r.ok = reply.ok();
      if (!r.ok) {
        if (lane.first_failure.empty()) {
          lane.first_failure = reply.status().ToString();
        }
        lane.records.push_back(std::move(r));
        continue;
      }
      gupt::QueryReport& report = reply.value();
      r.epsilon_spent = report.epsilon_spent;
      r.num_blocks = report.num_blocks;
      r.fallback_blocks = report.fallback_blocks;
      r.child_cpu_ns = report.resources.child_user_cpu_ns +
                       report.resources.child_sys_cpu_ns;
      lane.epsilon += report.epsilon_spent;
      // SAF noise scale: range width / (blocks x per-dimension epsilon).
      r.noise_scale = kWidth / (static_cast<double>(report.num_blocks) *
                                report.epsilon_saf_per_dim);
      const double release =
          report.output.empty() ? std::nan("") : report.output[0];
      r.release = release;
      const double error = std::fabs(release - in.reference);
      r.error_over_scale = error / r.noise_scale;
      if (!(error <= kNoiseScales * r.noise_scale + kWidthShare * kWidth)) {
        if (lane.violations++ == 0) {
          std::ostringstream msg;
          msg.precision(17);
          msg << "release " << release << " vs reference " << in.reference
              << " (noise scale " << r.noise_scale << ")";
          lane.first_violation = msg.str();
        }
      }
      if (traced) r.trace = std::move(report.trace);
      lane.records.push_back(std::move(r));
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(kAnalysts);
  for (std::size_t a = 0; a < kAnalysts; ++a) {
    threads.emplace_back(analyst, a);
  }
  Window w;
  std::this_thread::sleep_until(measure_from);
  const std::int64_t cpu0 = ProcessCpuNanos();
  const IoCounters io0 = ReadIo();
  std::this_thread::sleep_until(measure_to);
  const std::int64_t cpu1 = ProcessCpuNanos();
  const IoCounters io1 = ReadIo();
  for (std::thread& t : threads) t.join();

  w.start_ns = gupt::obs::NanosSinceTraceEpoch(measure_from);
  w.end_ns = gupt::obs::NanosSinceTraceEpoch(measure_to);
  w.cpu_ns = cpu1 - cpu0;
  w.io.write_bytes = io1.write_bytes - io0.write_bytes;
  w.io.write_calls = io1.write_calls - io0.write_calls;
  for (Lane& lane : lanes) {
    w.epsilon_accepted += lane.epsilon;
    w.release_violations += lane.violations;
    if (w.first_violation.empty()) w.first_violation = lane.first_violation;
    if (w.first_failure.empty()) w.first_failure = lane.first_failure;
    for (Record& r : lane.records) w.records.push_back(std::move(r));
  }
  return w;
}

/// Metric name -> (value, unit), in insertion order.
class Metrics {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    entries_.push_back({name, value, unit, note});
  }

  void PrintTable() const {
    for (const Entry& e : entries_) {
      std::printf("  %-34s %16.6f %-8s %s\n", e.name.c_str(), e.value,
                  e.unit.c_str(), e.note.c_str());
    }
  }

  std::string Json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      // JSON has no infinity; a failed request pins a tail at the largest
      // finite double.
      const double v = std::isfinite(e.value)
                           ? e.value
                           : std::numeric_limits<double>::max();
      char number[64];
      std::snprintf(number, sizeof(number), "%.17g", v);
      out += (i == 0 ? "\"" : ", \"") + e.name + "\": {\"value\": " + number +
             ", \"unit\": \"" + e.unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
    std::string note;
  };
  std::vector<Entry> entries_;
};

/// Summary of one window's end-to-end figures.
struct EndToEnd {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t completed = 0;  // accepted and finished inside the interval
  double throughput_qps = 0.0;
  double mean_ms = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  std::size_t tail_windows = 0;      // sub-windows behind p95_ms
  double supported_percentile = 0.0;  // by the smallest such sub-window
  double cpu_ms_per_query = 0.0;
  double write_bytes_per_query = 0.0;
  double write_calls_per_query = 0.0;
};

EndToEnd Summarize(const Window& w, double seconds) {
  EndToEnd e;
  std::vector<double> latency_ms;
  std::vector<TimedSample> timed_ms;
  std::int64_t child_cpu_ns = 0;
  for (const Record& r : w.records) {
    if (w.InWindow(r)) {
      ++e.attempted;
      if (!r.ok) ++e.failed;
      // A failed request misses every latency limit.
      latency_ms.push_back(r.ok ? Ms(r.end_ns - r.start_ns)
                                : std::numeric_limits<double>::infinity());
      timed_ms.push_back({r.start_ns, latency_ms.back()});
    }
    if (w.Completed(r)) {
      ++e.completed;
      child_cpu_ns += r.child_cpu_ns;
    }
  }
  e.throughput_qps = static_cast<double>(e.completed) / seconds;
  double sum_ms = 0.0;
  for (double ms : latency_ms) sum_ms += ms;
  e.mean_ms = latency_ms.empty()
                  ? std::numeric_limits<double>::quiet_NaN()
                  : sum_ms / static_cast<double>(latency_ms.size());
  e.p50_ms = Quantile(latency_ms, 0.50);
  const auto tail_windows = static_cast<std::size_t>(
      std::max(1.0, std::round(seconds / kTailWindowSeconds)));
  const WindowedQuantile p95 = MedianOfWindowQuantiles(
      timed_ms, w.start_ns, w.end_ns, tail_windows, 0.95);
  e.p95_ms = p95.value;
  e.tail_windows = p95.windows_used;
  e.supported_percentile = HighestSupportedPercentile(p95.min_samples);
  const double per = e.completed > 0 ? 1.0 / static_cast<double>(e.completed)
                                     : 0.0;
  e.cpu_ms_per_query = Ms(w.cpu_ns + child_cpu_ns) * per;
  e.write_bytes_per_query = w.io.write_bytes * per;
  e.write_calls_per_query = w.io.write_calls * per;
  return e;
}

/// Spans of the traced window, and the per-request split derived from them.
struct Split {
  std::vector<Span> spans;
  std::map<std::string, std::vector<double>> per_query_ms;
  std::vector<double> block_ms;
  std::vector<double> fanout_efficiency;
  double request_ns = 0.0;
  double gap_ns = 0.0;
};

Split SplitRequests(const Window& w) {
  Split s;
  std::uint64_t request_id = 0;
  for (const Record& r : w.records) {
    if (!w.InWindow(r) || !r.ok || !r.trace.has_value()) continue;
    const gupt::obs::QueryTrace& trace = *r.trace;
    if (trace.spans().empty()) continue;
    ++request_id;
    const auto root = static_cast<std::int64_t>(s.spans.size());
    s.spans.push_back({"request", r.start_ns, r.end_ns, -1, request_id});
    std::int64_t first = r.end_ns;
    std::int64_t last = r.start_ns;
    std::int64_t execute_index = -1;
    std::vector<Span> stages;
    for (const gupt::obs::SpanRecord& span : trace.spans()) {
      const std::int64_t start = span.start_ns;
      const std::int64_t end = start + span.duration.count();
      first = std::min(first, start);
      last = std::max(last, end);
      stages.push_back({span.name, start, end, root, request_id});
      s.per_query_ms["core." + span.name + "_ms"].push_back(
          Ms(end - start));
    }
    s.spans.push_back({"admission_wait", r.start_ns, first, root, request_id});
    for (Span& stage : stages) {
      if (stage.name == "execute_blocks") {
        execute_index = static_cast<std::int64_t>(s.spans.size());
      }
      s.spans.push_back(std::move(stage));
    }
    s.spans.push_back({"post_release", last, r.end_ns, root, request_id});
    std::vector<BlockInterval> fanout;
    for (const gupt::obs::BlockSpan& block : trace.block_spans()) {
      const std::int64_t end = block.start_ns + block.duration_ns;
      s.spans.push_back({"block", block.start_ns, end, execute_index,
                         request_id});
      s.block_ms.push_back(Ms(block.duration_ns));
      fanout.push_back({block.worker_id, block.start_ns, end});
    }
    if (!fanout.empty()) {
      s.fanout_efficiency.push_back(FanoutEfficiency(fanout));
    }
    s.per_query_ms["service.admission_wait_ms"].push_back(
        Ms(first - r.start_ns));
    s.per_query_ms["service.post_release_ms"].push_back(Ms(r.end_ns - last));
  }
  // The request's self time is whatever neither admission_wait, a stage
  // span nor post_release covers: the split's hole.
  const std::vector<std::int64_t> self = SelfTimes(s.spans);
  for (std::size_t i = 0; i < s.spans.size(); ++i) {
    if (s.spans[i].name != "request") continue;
    s.per_query_ms["service.gap_ms"].push_back(Ms(self[i]));
    s.gap_ns += static_cast<double>(self[i]);
    s.request_ns +=
        static_cast<double>(s.spans[i].end_ns - s.spans[i].start_ns);
  }
  return s;
}

/// Times `reps` calls of `body`, after `reps` untimed warm-up calls (the
/// allocator and caches settle, as they have inside a running service), and
/// returns their median in ms. Each timed call is recorded as a root span
/// named `name`.
double TimeDirect(const std::string& name, std::size_t reps,
                  std::vector<Span>* spans,
                  const std::function<void()>& body) {
  for (std::size_t i = 0; i < reps; ++i) body();
  std::vector<double> ms;
  for (std::size_t i = 0; i < reps; ++i) {
    const std::int64_t start = Now();
    body();
    const std::int64_t end = Now();
    ms.push_back(Ms(end - start));
    spans->push_back({name, start, end, -1, 0});
  }
  return P50(ms);
}

void WriteTrace(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path, std::ios::trunc);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << "{\"id\": " << i << ", \"name\": \"" << s.name
        << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << ", \"parent\": " << s.parent << ", \"request\": " << s.request
        << "}\n";
  }
  for (const auto& [name, ns] : SelfTimeByName(spans)) {
    out << "{\"self_time\": \"" << name << "\", \"ns\": " << ns << "}\n";
  }
}

/// The correctness gate's budget half: the service's in-memory remaining
/// budget and the on-disk ledger both account for every accepted reply.
/// Returns the empty string on success, else what failed.
std::string CheckBudget(const gupt::GuptService& service,
                        const Inputs& in, const std::string& ledger_path,
                        double expected_spent) {
  const double tolerance = kBudgetTolerance * kTotalBudget;
  std::ostringstream msg;
  msg.precision(17);
  gupt::Result<double> remaining = service.RemainingBudget(kDataset);
  if (!remaining.ok()) return remaining.status().ToString();
  const double expected_remaining = kTotalBudget - expected_spent;
  if (!(std::fabs(*remaining - expected_remaining) <= tolerance)) {
    msg << "RemainingBudget " << *remaining << " != total - spent "
        << expected_remaining;
    return msg.str();
  }
  gupt::DatasetManager fresh;
  gupt::Status registered =
      fresh.Register(kDataset, in.data, BudgetOptions());
  if (!registered.ok()) return registered.ToString();
  gupt::Status loaded = gupt::LoadBudgets(&fresh, ledger_path);
  if (!loaded.ok()) return "LoadBudgets: " + loaded.ToString();
  const double on_disk =
      fresh.Get(kDataset).value()->accountant().spent_epsilon();
  // Summation order differs between the ledger and this tally, hence the
  // tolerance; one lost charge (0.1 epsilon) is far above it.
  if (!(on_disk >= expected_spent - tolerance)) {
    msg << "on-disk ledger spent " << on_disk << " < replied "
        << expected_spent;
    return msg.str();
  }
  return "";
}

void WriteProcFile(const char* path, const std::string& text) {
  std::ofstream out(path);
  out << text;
}

/// Mounts a tmpfs on `dir` in a private user + mount namespace, so the
/// ledger lives in memory inside the checkout and vanishes with the
/// process. Must run before the process starts a thread. Returns the empty
/// string on success, else why the mount failed.
std::string MountPrivateTmpfs(const std::string& dir) {
  const uid_t uid = getuid();
  const gid_t gid = getgid();
  if (unshare(CLONE_NEWUSER | CLONE_NEWNS) != 0) {
    return std::string("unshare: ") + std::strerror(errno);
  }
  WriteProcFile("/proc/self/setgroups", "deny");
  WriteProcFile("/proc/self/uid_map", "0 " + std::to_string(uid) + " 1");
  WriteProcFile("/proc/self/gid_map", "0 " + std::to_string(gid) + " 1");
  if (mount(nullptr, "/", nullptr, MS_REC | MS_PRIVATE, nullptr) != 0) {
    return std::string("private remount: ") + std::strerror(errno);
  }
  if (mount("perfbench", dir.c_str(), "tmpfs", MS_NOSUID | MS_NODEV,
            "size=256m,mode=0700") != 0) {
    return std::string("tmpfs mount: ") + std::strerror(errno);
  }
  return "";
}

int Run(const Config& cfg) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(cfg.work_dir);
  fs::create_directories(dir / "ledger");
  fs::create_directories(dir / "traces");
  // Every run measures the ledger on the same tmpfs; without it there is
  // no comparable result.
  const std::string tmpfs_error = MountPrivateTmpfs((dir / "ledger").string());
  if (!tmpfs_error.empty()) {
    std::fprintf(stderr, "cannot put the ledger on a private tmpfs: %s\n",
                 tmpfs_error.c_str());
    return 1;
  }
  const bool selftests_ok = RunSelfTests(false) == 0;
  const std::string tag =
      cfg.workload + "-" + std::to_string(static_cast<long>(getpid()));
  const std::string ledger_path = (dir / "ledger" / (tag + ".ledger")).string();
  const std::string preseed_path =
      (dir / "ledger" / (tag + ".preseed.ledger")).string();
  const std::string probe_path =
      (dir / "ledger" / (tag + ".save-probe.ledger")).string();
  for (const std::string& p : {ledger_path, preseed_path, probe_path}) {
    fs::remove(p);
  }

  const Inputs in = MakeInputs(cfg);

  // Pre-seed the ledger through the library (never by writing its format):
  // the run's ledger and a pristine copy for the budget_store.load probe.
  double preseed_spent = 0.0;
  if (cfg.preseed_charges > 0) {
    gupt::DatasetManager seeded;
    if (!seeded.Register(kDataset, in.data, BudgetOptions()).ok()) {
      std::fprintf(stderr, "pre-seed registration failed\n");
      return 1;
    }
    gupt::dp::PrivacyAccountant& accountant =
        seeded.Get(kDataset).value()->accountant();
    for (std::size_t i = 0; i < cfg.preseed_charges; ++i) {
      if (!accountant.Charge(kEpsilon, "preseed mean [tight]").ok()) {
        std::fprintf(stderr, "pre-seed charge failed\n");
        return 1;
      }
      preseed_spent += kEpsilon;
    }
    for (const std::string& p : {ledger_path, preseed_path}) {
      gupt::Status saved = gupt::SaveBudgets(seeded, p);
      if (!saved.ok()) {
        std::fprintf(stderr, "pre-seed save failed: %s\n",
                     saved.ToString().c_str());
        return 1;
      }
    }
  }

  // Set-up: construction (chamber-pool pre-fork included), registration and
  // ledger restore, repeated; the last service stays up for the run. All
  // repetitions run before the analysts start: after the run the process
  // is larger, and forking the chamber pool from it costs more.
  std::vector<double> setup_s;
  std::unique_ptr<gupt::GuptService> service;
  const std::size_t setup_reps = cfg.trace ? 1 : kSetupReps;
  for (std::size_t rep = 0; rep < setup_reps; ++rep) {
    service.reset();
    gupt::Dataset data = in.data;  // shares the store; copies three words
    const Clock::time_point t0 = Clock::now();
    service = std::make_unique<gupt::GuptService>(
        ServiceOptionsFor(cfg, ledger_path),
        gupt::ProgramRegistry::WithStandardPrograms());
    gupt::Status status = service->RegisterDataset(kDataset, std::move(data),
                                                   BudgetOptions());
    if (status.ok()) status = service->RestoreLedger();
    const Clock::time_point t1 = Clock::now();
    if (!status.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", status.ToString().c_str());
      return 1;
    }
    setup_s.push_back(std::chrono::duration<double>(t1 - t0).count());
  }

  // With --trace 1 the measured time is split: half untraced (the
  // baseline of trace.overhead_ratio and the process counters), half traced.
  const double window_s = cfg.trace ? cfg.seconds / 2.0 : cfg.seconds;
  const Window plain =
      RunWindow(*service, cfg, in, kWarmupSeconds, window_s, false);
  const double peak_rss_mb = PeakRssMb();
  std::optional<Window> traced;
  if (cfg.trace) {
    traced = RunWindow(*service, cfg, in, 0.0, window_s, true);
  }

  // Correctness gate.
  std::vector<std::string> violations;
  if (!selftests_ok) violations.push_back("benchmark self-tests failed");
  double replied = 0.0;
  std::size_t fallback_blocks = 0;
  std::size_t blocks_run = 0;
  std::vector<double> releases;
  std::vector<double> noise_scales;
  const Window* windows[] = {&plain, traced ? &*traced : nullptr};
  for (const Window* w : windows) {
    if (w == nullptr) continue;
    replied += w->epsilon_accepted;
    if (w->release_violations > 0) {
      violations.push_back(std::to_string(w->release_violations) +
                           " releases out of bounds, first: " +
                           w->first_violation);
    }
    for (const Record& r : w->records) {
      fallback_blocks += r.fallback_blocks;
      blocks_run += r.num_blocks;
      if (r.ok) {
        releases.push_back(r.release);
        noise_scales.push_back(r.noise_scale);
      }
    }
  }
  const ReleaseMeanCheck release_mean = CheckReleaseMean(
      releases, noise_scales, in.reference, kMeanSigmas, kWidthShare * kWidth);
  if (!release_mean.ok) {
    std::ostringstream msg;
    msg.precision(17);
    msg << "mean of " << releases.size() << " releases is "
        << release_mean.error << " from the reference " << in.reference
        << ", allowed " << release_mean.allowed;
    violations.push_back(msg.str());
  }
  if (fallback_blocks > 0) {
    violations.push_back(std::to_string(fallback_blocks) +
                         " blocks fell back");
  }
  const std::string budget =
      CheckBudget(*service, in, ledger_path, preseed_spent + replied);
  if (!budget.empty()) violations.push_back(budget);
  service.reset();  // joins every service thread before any direct call

  const EndToEnd e2e = Summarize(plain, window_s);
  const Window& shown = traced ? *traced : plain;
  const EndToEnd shown_e2e = traced ? Summarize(*traced, window_s) : e2e;
  if (!shown.first_failure.empty()) {
    std::fprintf(stderr, "first failed query: %s\n",
                 shown.first_failure.c_str());
  }

  std::printf("workload %s seed %llu: %zu analysts, %s on %zu rows, "
              "%.1f s window, ledger on a private tmpfs\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              kAnalysts, cfg.program.c_str(), cfg.rows, window_s);
  std::printf("release mean: %zu releases, %.6f from the reference "
              "(allowed %.6f)\n",
              releases.size(), release_mean.error, release_mean.allowed);
  Metrics end_to_end;
  end_to_end.Add("throughput_qps", e2e.throughput_qps, "1/s",
                 std::to_string(e2e.completed) + " accepted in window");
  // The mean, not the median: charge_heavy's round trips fall in two modes
  // (about 14 and 25 ms), and the median sits in the valley between them,
  // so a small shift of the mixture moves it by several ms.
  end_to_end.Add("latency_mean_ms", e2e.mean_ms, "ms",
                 "n=" + std::to_string(e2e.attempted) + ", p50 " +
                     std::to_string(e2e.p50_ms) + " ms");
  end_to_end.Add("latency_p95_ms", e2e.p95_ms, "ms",
                 "median over " + std::to_string(e2e.tail_windows) +
                     " sub-windows of their p95; highest percentile the "
                     "smallest supports: p" +
                     std::to_string(e2e.supported_percentile));
  if (!cfg.trace) {
    end_to_end.Add("setup_s", P50(setup_s), "s",
                   "median of n=" + std::to_string(setup_s.size()));
  }
  end_to_end.Add("peak_rss_mb", peak_rss_mb, "MB", "getrusage max RSS");
  std::printf("end-to-end (untraced window): attempted %zu, failed %zu\n",
              e2e.attempted, e2e.failed);
  end_to_end.PrintTable();

  Metrics layers;
  if (cfg.trace) {
    Split split = SplitRequests(*traced);
    auto p50 = [&split](const std::string& name) {
      auto it = split.per_query_ms.find(name);
      return it == split.per_query_ms.end() ? 0.0 : P50(it->second);
    };
    auto n_of = [&split](const std::string& name) {
      auto it = split.per_query_ms.find(name);
      return "n=" + std::to_string(
                        it == split.per_query_ms.end() ? 0 : it->second.size());
    };

    // Direct layer calls, each its own root span.
    std::vector<Span>& spans = split.spans;
    const std::size_t reps = kDirectReps;
    std::vector<double> blocks_per_query;
    std::vector<double> noise_scale;
    std::vector<double> error_over_scale;
    double epsilon_charged = 0.0;
    std::int64_t child_cpu_ns = 0;
    std::size_t traced_ok = 0;
    for (const Record& r : traced->records) {
      if (!traced->InWindow(r) || !r.ok) continue;
      ++traced_ok;
      blocks_per_query.push_back(static_cast<double>(r.num_blocks));
      noise_scale.push_back(r.noise_scale);
      error_over_scale.push_back(r.error_over_scale);
      epsilon_charged += r.epsilon_spent;
      child_cpu_ns += r.child_cpu_ns;
    }
    const double per =
        traced_ok > 0 ? 1.0 / static_cast<double>(traced_ok) : 0.0;
    const auto num_blocks = static_cast<std::size_t>(
        std::max(1.0, std::round(P50(blocks_per_query))));

    gupt::DatasetManager loaded;
    bool direct_ok =
        loaded.Register(kDataset, in.data, BudgetOptions()).ok() &&
        gupt::LoadBudgets(&loaded, ledger_path).ok();
    const double save_ms =
        TimeDirect("budget_store.save", reps, &spans, [&] {
          direct_ok = gupt::SaveBudgets(loaded, probe_path).ok() && direct_ok;
        });
    // What set-up's RestoreLedger reads: the pre-seeded ledger, or nothing
    // (kNotFound) when the workload starts with an empty ledger.
    const double load_ms =
        TimeDirect("budget_store.load", reps, &spans, [&] {
          gupt::DatasetManager fresh;
          direct_ok =
              fresh.Register(kDataset, in.data, BudgetOptions()).ok() &&
              direct_ok;
          gupt::Status status = gupt::LoadBudgets(&fresh, preseed_path);
          direct_ok = (status.ok() || (cfg.preseed_charges == 0 &&
                                       status.code() ==
                                           gupt::StatusCode::kNotFound)) &&
                      direct_ok;
        });
    std::error_code size_error;
    const auto ledger_bytes = fs::file_size(ledger_path, size_error);

    gupt::Rng rng(DeriveSeed(cfg.seed, kDirectSeed));
    gupt::Arena arena;
    const double view_ms =
        TimeDirect("partitioner.view", reps, &spans, [&] {
          arena.Reset();
          direct_ok = gupt::PartitionDisjointView(in.data, num_blocks, &rng,
                                                  &arena)
                          .ok() &&
                      direct_ok;
        });

    // A block set of the workload's geometry on the manager the service
    // runs: sequential in-thread chambers, or a pre-forked chamber pool.
    gupt::Result<gupt::BlockSet> blocks =
        gupt::PartitionDisjointView(in.data, num_blocks, &rng);
    const gupt::ProgramRegistry registry =
        gupt::ProgramRegistry::WithStandardPrograms();
    gupt::Result<gupt::ProgramFactory> factory =
        registry.Build(gupt::ProgramSpec{cfg.program, {}});
    double execute_ms = 0.0;
    if (blocks.ok() && factory.ok()) {
      const gupt::ChamberPolicy policy;
      std::unique_ptr<gupt::ChamberPool> chamber_pool;
      std::string token;
      if (cfg.pool_workers > 0) {
        // Forked before any other thread of this process exists.
        chamber_pool =
            std::make_unique<gupt::ChamberPool>(policy, cfg.pool_workers);
        chamber_pool->SetProgramResolver(
            [registry](const std::string& name) {
              return registry.Build(gupt::ProgramSpec{name, {}});
            });
        direct_ok = chamber_pool->Start().ok() && direct_ok;
        token = cfg.program;
      }
      const gupt::ComputationManager manager(nullptr, policy,
                                             chamber_pool.get());
      const gupt::Row fallback = {0.5 * (kLo + kHi)};
      execute_ms = TimeDirect("exec.execute_on_blocks", reps, &spans, [&] {
        gupt::Result<gupt::BlockExecutionReport> report =
            manager.ExecuteOnBlocks(*factory, *blocks, fallback, token);
        direct_ok =
            report.ok() && report->fallback_count == 0 && direct_ok;
      });
    } else {
      direct_ok = false;
    }
    if (!direct_ok) violations.push_back("a direct layer call failed");

    const double gap_share =
        split.request_ns > 0.0 ? split.gap_ns / split.request_ns : 1.0;
    if (!(gap_share <= kMaxGapShare)) {
      violations.push_back("the traced split leaves " +
                           std::to_string(gap_share) +
                           " of request time unattributed (max " +
                           std::to_string(kMaxGapShare) + ")");
    }
    layers.Add("service.admission_wait_ms", p50("service.admission_wait_ms"),
               "ms", n_of("service.admission_wait_ms"));
    layers.Add("service.post_release_ms", p50("service.post_release_ms"),
               "ms", n_of("service.post_release_ms"));
    layers.Add("service.gap_ms", p50("service.gap_ms"), "ms",
               n_of("service.gap_ms"));
    layers.Add("service.gap_share", gap_share, "ratio",
               "sum of gaps / sum of request time; gated at <= 0.05");
    layers.Add("service.requests_attempted",
               static_cast<double>(shown_e2e.attempted), "count");
    layers.Add("service.requests_failed",
               static_cast<double>(shown_e2e.failed), "count");
    layers.Add("budget_store.save_ms", save_ms, "ms",
               "direct, n=" + std::to_string(reps));
    layers.Add("budget_store.load_ms", load_ms, "ms",
               "direct, n=" + std::to_string(reps));
    layers.Add("budget_store.ledger_bytes", static_cast<double>(ledger_bytes),
               "bytes", "ledger size at the end of the run");
    layers.Add("process.write_bytes_per_query", e2e.write_bytes_per_query,
               "bytes", "/proc/self/io wchar, untraced window");
    layers.Add("process.write_calls_per_query", e2e.write_calls_per_query,
               "count", "/proc/self/io syscw, untraced window");
    for (const char* stage : {"block_plan", "budget_derive", "budget_charge",
                              "partition", "execute_blocks", "clamp_average",
                              "noise"}) {
      const std::string name = std::string("core.") + stage + "_ms";
      layers.Add(name, p50(name), "ms", n_of(name));
    }
    layers.Add("partitioner.view_ms", view_ms, "ms",
               "direct, l=" + std::to_string(num_blocks) + ", n=" +
                   std::to_string(reps));
    layers.Add("exec.block_ms", P50(split.block_ms), "ms",
               "n=" + std::to_string(split.block_ms.size()));
    layers.Add("exec.execute_on_blocks_ms", execute_ms, "ms",
               "direct, n=" + std::to_string(reps));
    layers.Add("exec.fanout_efficiency", P50(split.fanout_efficiency), "ratio",
               "n=" + std::to_string(split.fanout_efficiency.size()));
    layers.Add("exec.blocks_per_query", P50(blocks_per_query), "count");
    layers.Add("exec.fallback_ratio",
               blocks_run > 0 ? static_cast<double>(fallback_blocks) /
                                    static_cast<double>(blocks_run)
                              : 0.0,
               "ratio");
    layers.Add("exec.child_cpu_ms_per_query", Ms(child_cpu_ns) * per, "ms");
    layers.Add("dp.noise_scale", P50(noise_scale), "value",
               "range width / (blocks x epsilon)");
    layers.Add("dp.epsilon_charged_per_query", epsilon_charged * per,
               "epsilon");
    layers.Add("dp.error_over_scale_p50", P50(error_over_scale), "ratio");
    layers.Add("process.cpu_ms_per_query", e2e.cpu_ms_per_query, "ms",
               "self + chamber children, untraced window");
    layers.Add("trace.overhead_ratio", shown_e2e.mean_ms / e2e.mean_ms,
               "ratio", "traced / untraced latency_mean_ms");
    std::printf("per-layer (traced window): attempted %zu, failed %zu\n",
                shown_e2e.attempted, shown_e2e.failed);
    layers.PrintTable();
    std::printf("self time per span name (ms):\n");
    for (const auto& [name, ns] : SelfTimeByName(spans)) {
      std::printf("  %-34s %16.3f\n", name.c_str(), Ms(ns));
    }
    const std::string trace_path =
        (dir / "traces" / (cfg.workload + ".jsonl")).string();
    WriteTrace(trace_path, spans);
    std::printf("spans written to %s\n", trace_path.c_str());
  }

  for (const std::string& p : {ledger_path, preseed_path, probe_path}) {
    fs::remove(p);
  }
  for (const std::string& v : violations) {
    std::fprintf(stderr, "correctness gate: %s\n", v.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              violations.empty() ? "true" : "false", shown_e2e.attempted,
              shown_e2e.failed,
              cfg.trace ? layers.Json().c_str() : end_to_end.Json().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc == 2 && std::string(argv[1]) == "--selftest") {
    const int failures = perfbench::RunSelfTests(true);
    std::printf("%d self-test failures\n", failures);
    return failures == 0 ? 0 : 1;
  }
  perfbench::Config cfg;
  std::string error;
  if (!perfbench::ParseConfig(argc, argv, &cfg, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }
  return perfbench::Run(cfg);
}
