#include "exec/chamber_pool.h"

#include <limits.h>
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/uio.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <optional>
#include <thread>
#include <type_traits>
#include <utility>

#include "obs/prof/profiler.h"
#include "testing/failpoints/failpoints.h"

namespace gupt {
namespace {

using Clock = std::chrono::steady_clock;

// Parent -> worker commands. kCmdCrash is the lease crash failpoint made
// real: the worker _exits before writing a response byte, so the parent
// observes the same EOF a genuine mid-lease SIGSEGV would produce.
constexpr std::uint32_t kCmdRun = 1;
constexpr std::uint32_t kCmdCrash = 2;
constexpr std::uint32_t kCmdShutdown = 3;

// Worker -> parent response statuses (a superset of the process-chamber
// frame: workers resolve program tokens themselves and can fail at that).
constexpr std::uint64_t kOk = 1;
constexpr std::uint64_t kProgramError = 2;
constexpr std::uint64_t kDimensionMismatch = 3;
constexpr std::uint64_t kResolverError = 4;

// One lease is one request frame and one response frame. Both headers are
// fixed-width with no padding, so the bytes on the pipe are the structs.
//
// Request:  RequestHeader | token_len token bytes |
//           num_dims column slices of num_rows doubles each
// Response: ResponseHeader | exactly expected_dims doubles (zeros unless
//           status == kOk)
//
// The response size is fixed by the request, so the parent reads it with
// one deadline-bounded read; anything shorter (EOF) is a crashed worker.
// Crash and shutdown commands are a bare header.
struct RequestHeader {
  std::uint32_t cmd;
  std::uint32_t token_len;
  std::uint32_t num_dims;
  std::uint32_t expected_dims;
  std::uint64_t num_rows;
};
static_assert(std::is_trivially_copyable_v<RequestHeader> &&
                  sizeof(RequestHeader) == 24,
              "request header is shipped as raw bytes");

struct ResponseHeader {
  std::uint64_t status;
  std::uint64_t violations;
  std::int64_t cpu_user_ns;
  std::int64_t cpu_sys_ns;
  std::int64_t max_rss_kb;
};
static_assert(std::is_trivially_copyable_v<ResponseHeader> &&
                  sizeof(ResponseHeader) == 40,
              "response header is shipped as raw bytes");

using IoVecs = std::vector<struct iovec>;

struct iovec Span(const void* data, std::size_t len) {
  struct iovec v;
  v.iov_base = const_cast<void*>(data);
  v.iov_len = len;
  return v;
}

/// Drops the first `n` transferred bytes from `iov[*first..]`, and any
/// empty spans that are then at the front.
void Advance(IoVecs* iov, std::size_t* first, std::size_t n) {
  while (*first < iov->size() && n >= (*iov)[*first].iov_len) {
    n -= (*iov)[*first].iov_len;
    ++*first;
  }
  if (n > 0) {
    struct iovec& v = (*iov)[*first];
    v.iov_base = static_cast<char*>(v.iov_base) + n;
    v.iov_len -= n;
  }
}

int IovBatch(const IoVecs& iov, std::size_t first) {
  return static_cast<int>(std::min<std::size_t>(iov.size() - first, IOV_MAX));
}

/// Writes every byte of `iov` (a blocking pipe normally takes the whole
/// frame in one writev).
bool WriteFully(int fd, IoVecs iov) {
  std::size_t first = 0;
  Advance(&iov, &first, 0);
  while (first < iov.size()) {
    ssize_t n = ::writev(fd, &iov[first], IovBatch(iov, first));
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    Advance(&iov, &first, static_cast<std::size_t>(n));
  }
  return true;
}

/// Fills every byte of `iov`, honouring an absolute deadline (nullopt =
/// block without one; workers have no deadline of their own — the parent
/// enforces deadlines and kills overrunners). EOF before the last byte is
/// a failure: the peer died mid-frame.
bool ReadFully(int fd, IoVecs iov,
               const std::optional<Clock::time_point>& deadline,
               bool* timed_out) {
  std::size_t first = 0;
  // Empty spans are skipped up front: a zero-byte readv returns 0, which
  // would read as EOF.
  Advance(&iov, &first, 0);
  while (first < iov.size()) {
    if (deadline) {
      auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
          *deadline - Clock::now());
      if (remaining.count() <= 0) {
        *timed_out = true;
        return false;
      }
      struct pollfd pfd;
      pfd.fd = fd;
      pfd.events = POLLIN;
      pfd.revents = 0;
      int ready = ::poll(&pfd, 1, static_cast<int>(remaining.count()) + 1);
      if (ready < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      if (ready == 0) {
        *timed_out = true;
        return false;
      }
    }
    ssize_t n = ::readv(fd, &iov[first], IovBatch(iov, first));
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;
    Advance(&iov, &first, static_cast<std::size_t>(n));
  }
  return true;
}

bool ReadFully(int fd, IoVecs iov) {
  bool timed_out = false;
  return ReadFully(fd, std::move(iov), std::nullopt, &timed_out);
}

std::int64_t TimevalNs(const struct timeval& tv) {
  return static_cast<std::int64_t>(tv.tv_sec) * 1'000'000'000 +
         static_cast<std::int64_t>(tv.tv_usec) * 1'000;
}

}  // namespace

ChamberPool::ChamberPool(ChamberPolicy policy, std::size_t num_workers)
    : policy_(std::move(policy)) {
  slots_.resize(num_workers == 0 ? 1 : num_workers);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Get();
  workers_gauge_ = registry.GetGauge(
      "gupt_chamber_pool_workers_count",
      "Live pre-warmed chamber pool workers (leased or idle).");
  spawned_counter_ = registry.GetCounter(
      "gupt_chamber_pool_spawned_total",
      "Pool worker processes forked (initial spawns plus respawns).");
  leases_counter_ = registry.GetCounter(
      "gupt_chamber_pool_leases_total",
      "Blocks dispatched to pooled workers (one lease per block).");
  resets_counter_ = registry.GetCounter(
      "gupt_chamber_pool_resets_total",
      "Clean leases after which the worker was reset and reused.");
  respawns_counter_ = registry.GetCounter(
      "gupt_chamber_pool_respawns_total",
      "Workers discarded (crash, timeout, or reset failpoint) and replaced.");
  shipped_bytes_counter_ = registry.GetCounter(
      "gupt_chamber_pool_shipped_bytes_total",
      "Request-frame bytes shipped to pool workers (header, token and "
      "columns).");
  lease_wait_histogram_ = registry.GetHistogram(
      "gupt_chamber_pool_lease_wait_seconds",
      "Time a block waited for a free pool worker.",
      obs::Histogram::DurationBuckets());
}

ChamberPool::~ChamberPool() { Shutdown(); }

void ChamberPool::SetProgramResolver(ProgramResolver resolver) {
  std::lock_guard<std::mutex> lock(mu_);
  resolver_ = std::move(resolver);
}

[[noreturn]] void ChamberPool::WorkerMain(int request_fd,
                                          int response_fd) const {
  for (;;) {
    RequestHeader request;
    if (!ReadFully(request_fd, {Span(&request, sizeof(request))})) {
      ::_exit(0);
    }
    if (request.cmd == kCmdShutdown) ::_exit(0);
    if (request.cmd == kCmdCrash) ::_exit(9);

    std::string token(request.token_len, '\0');
    std::vector<std::vector<double>> columns(request.num_dims);
    IoVecs body = {Span(token.data(), token.size())};
    for (std::vector<double>& column : columns) {
      column.resize(request.num_rows);
      body.push_back(Span(column.data(), column.size() * sizeof(double)));
    }
    if (!ReadFully(request_fd, std::move(body))) ::_exit(1);

    struct rusage before;
    struct rusage after;
    std::memset(&before, 0, sizeof(before));
    std::memset(&after, 0, sizeof(after));
    ::getrusage(RUSAGE_SELF, &before);

    ResponseHeader response;
    response.status = kOk;
    response.violations = 0;
    Row output(request.expected_dims, 0.0);
    Result<ProgramFactory> factory =
        resolver_ ? resolver_(token)
                  : Result<ProgramFactory>(Status::Internal(
                        "chamber pool has no program resolver"));
    if (!factory.ok()) {
      response.status = kResolverError;
    } else {
      ChamberServices services(policy_);
      Result<Row> result = Status::Internal("never ran");
      try {
        Result<Dataset> block = Dataset::FromColumns(std::move(columns));
        if (!block.ok()) {
          result = block.status();
        } else {
          std::unique_ptr<AnalysisProgram> program = factory.value()();
          result = program->RunWithServices(block.value(), &services);
        }
      } catch (...) {
        result = Status::PolicyViolation("program threw");
      }
      response.violations =
          static_cast<std::uint64_t>(services.violation_count());
      if (!result.ok()) {
        response.status = kProgramError;
      } else if (result.value().size() != request.expected_dims) {
        response.status = kDimensionMismatch;
      } else {
        output = std::move(result).value();
      }
    }

    ::getrusage(RUSAGE_SELF, &after);
    // Per-lease rusage delta reported by the worker itself: the parent
    // cannot wait4() a worker that stays alive across leases. Max RSS is a
    // process high-water mark, not a delta.
    response.cpu_user_ns =
        TimevalNs(after.ru_utime) - TimevalNs(before.ru_utime);
    response.cpu_sys_ns =
        TimevalNs(after.ru_stime) - TimevalNs(before.ru_stime);
    response.max_rss_kb = static_cast<std::int64_t>(after.ru_maxrss);

    if (!WriteFully(response_fd,
                    {Span(&response, sizeof(response)),
                     Span(output.data(), output.size() * sizeof(double))})) {
      ::_exit(1);
    }
  }
}

Status ChamberPool::SpawnSlotLocked(std::size_t slot) {
  GUPT_FAILPOINT_STATUS("exec.pool.spawn");
  int to_child[2];
  int from_child[2];
  if (::pipe(to_child) != 0) {
    return Status::Internal("pipe() failed: " +
                            std::string(std::strerror(errno)));
  }
  if (::pipe(from_child) != 0) {
    ::close(to_child[0]);
    ::close(to_child[1]);
    return Status::Internal("pipe() failed: " +
                            std::string(std::strerror(errno)));
  }
  pid_t pid = ::fork();
  if (pid < 0) {
    ::close(to_child[0]);
    ::close(to_child[1]);
    ::close(from_child[0]);
    ::close(from_child[1]);
    return Status::Internal("fork() failed: " +
                            std::string(std::strerror(errno)));
  }
  if (pid == 0) {
    ::close(to_child[1]);
    ::close(from_child[0]);
    WorkerMain(to_child[0], from_child[1]);
  }
  ::close(to_child[0]);
  ::close(from_child[1]);
  Worker& w = slots_[slot];
  w.pid = pid;
  w.to_child = to_child[1];
  w.from_child = from_child[0];
  w.alive = true;
  free_slots_.push_back(slot);
  ++stats_.spawned;
  ++stats_.workers_alive;
  spawned_counter_->Increment();
  workers_gauge_->Set(static_cast<double>(stats_.workers_alive));
  return Status::OK();
}

void ChamberPool::DiscardSlotLocked(std::size_t slot, bool kill) {
  Worker& w = slots_[slot];
  if (!w.alive) return;
  if (kill) ::kill(w.pid, SIGKILL);
  ::close(w.to_child);
  ::close(w.from_child);
  while (::waitpid(w.pid, nullptr, 0) < 0 && errno == EINTR) {
  }
  w.pid = -1;
  w.to_child = -1;
  w.from_child = -1;
  w.alive = false;
  --stats_.workers_alive;
  workers_gauge_->Set(static_cast<double>(stats_.workers_alive));
}

Status ChamberPool::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (started_) return Status::InvalidArgument("chamber pool already started");
  // Writes to a worker that died mid-lease must surface as EPIPE on the
  // write, not kill the whole service.
  ::signal(SIGPIPE, SIG_IGN);
  for (std::size_t slot = 0; slot < slots_.size(); ++slot) {
    // A failed spawn (exec.pool.spawn, ENOMEM, ...) leaves the slot dead;
    // it is retried at the next lease. Only a pool with zero live workers
    // is unusable.
    (void)SpawnSlotLocked(slot);
  }
  if (free_slots_.empty()) {
    return Status::Internal("chamber pool failed to spawn any worker");
  }
  started_ = true;
  return Status::OK();
}

void ChamberPool::Shutdown() {
  std::lock_guard<std::mutex> lock(mu_);
  if (shutdown_) return;
  shutdown_ = true;
  for (std::size_t slot = 0; slot < slots_.size(); ++slot) {
    Worker& w = slots_[slot];
    if (!w.alive) continue;
    RequestHeader request{};
    request.cmd = kCmdShutdown;
    (void)WriteFully(w.to_child, {Span(&request, sizeof(request))});
    DiscardSlotLocked(slot, /*kill=*/false);
  }
  worker_free_.notify_all();
}

int ChamberPool::LeaseSlotLocked(std::unique_lock<std::mutex>* lock) {
  for (;;) {
    if (shutdown_) return -1;
    if (!free_slots_.empty()) {
      std::size_t slot = free_slots_.back();
      free_slots_.pop_back();
      ++leased_count_;
      return static_cast<int>(slot);
    }
    // Revive dead slots before waiting: a crashed worker's slot is
    // respawned lazily, here, by whichever lease needs it next.
    bool revived = false;
    for (std::size_t slot = 0; slot < slots_.size(); ++slot) {
      if (!slots_[slot].alive &&
          SpawnSlotLocked(slot).ok()) {
        ++stats_.respawns;
        respawns_counter_->Increment();
        revived = true;
        break;
      }
    }
    if (revived) continue;
    if (leased_count_ == 0) return -1;  // nothing running, nothing leasable
    worker_free_.wait(*lock);
  }
}

Result<ChamberRun> ChamberPool::Execute(const std::string& program_token,
                                        const DatasetView& block,
                                        const Row& fallback) {
  if (fallback.empty()) {
    return Status::InvalidArgument("fallback must be non-empty");
  }
  if (block.num_rows() == 0 || block.num_dims() == 0) {
    return Status::InvalidArgument("pooled execution needs a non-empty block");
  }
  obs::prof::ScopedStageTag stage_tag("chamber_pool");

  const auto start = Clock::now();
  std::optional<Clock::time_point> deadline;
  if (policy_.deadline.count() > 0) {
    deadline = start + policy_.deadline;
  }

  ChamberRun run;
  auto finish = [&](ChamberRun&& r) -> Result<ChamberRun> {
    if (policy_.pad_to_deadline && deadline) {
      std::this_thread::sleep_until(*deadline);
    }
    r.elapsed = Clock::now() - start;
    return std::move(r);
  };

  // The lease verdict is drawn parent-side (like the process chamber's
  // pre-fork verdict): kError substitutes the fallback without touching a
  // worker; kCrash sends kCmdCrash so the worker dies for real and the
  // whole EOF -> fallback -> respawn path is exercised.
  failpoints::Outcome lease_fp = failpoints::EvalDetailed("exec.pool.lease");
  if (lease_fp.fired && lease_fp.delay.count() > 0) {
    std::this_thread::sleep_for(lease_fp.delay);
  }
  if (lease_fp.fired && lease_fp.action == failpoints::FireAction::kError) {
    run.used_fallback = true;
    run.output = fallback;
    run.program_status =
        Status::Internal(failpoints::InjectedMessage("exec.pool.lease"));
    return finish(std::move(run));
  }
  const bool inject_crash =
      lease_fp.fired && lease_fp.action == failpoints::FireAction::kCrash;

  int slot = -1;
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (!started_) {
      return Status::InvalidArgument("chamber pool is not started");
    }
    slot = LeaseSlotLocked(&lock);
    if (slot < 0) {
      return Status::Internal("chamber pool has no leasable worker");
    }
    ++stats_.leases;
  }
  leases_counter_->Increment();
  lease_wait_histogram_->Observe(
      std::chrono::duration<double>(Clock::now() - start).count());
  Worker& w = slots_[static_cast<std::size_t>(slot)];  // stable after Start

  // Ship the request frame in one writev loop (a crash command is a bare
  // header). A failed write means the worker is already dead (EPIPE);
  // that is the same story as EOF below.
  RequestHeader request{};
  request.cmd = inject_crash ? kCmdCrash : kCmdRun;
  IoVecs frame = {Span(&request, sizeof(request))};
  if (!inject_crash) {
    request.token_len = static_cast<std::uint32_t>(program_token.size());
    request.num_dims = static_cast<std::uint32_t>(block.num_dims());
    request.expected_dims = static_cast<std::uint32_t>(fallback.size());
    request.num_rows = static_cast<std::uint64_t>(block.num_rows());
    frame.push_back(Span(program_token.data(), program_token.size()));
    for (std::size_t d = 0; d < block.num_dims(); ++d) {
      frame.push_back(Span(block.col(d), block.num_rows() * sizeof(double)));
    }
  }
  std::uint64_t frame_bytes = 0;
  for (const struct iovec& span : frame) frame_bytes += span.iov_len;
  const bool shipped = WriteFully(w.to_child, std::move(frame));
  shipped_bytes_counter_->Increment(static_cast<double>(frame_bytes));

  // Read the fixed-size response frame under the deadline (when shipping
  // already failed we skip straight to the crash handling below).
  ResponseHeader response{};
  Row output(fallback.size());
  bool timed_out = false;
  const bool frame_ok =
      shipped &&
      ReadFully(w.from_child,
                {Span(&response, sizeof(response)),
                 Span(output.data(), output.size() * sizeof(double))},
                deadline, &timed_out);

  const bool worker_healthy = frame_ok && !timed_out;
  bool discard = !worker_healthy;
  if (worker_healthy) {
    // exec.pool.reset: the reset-and-reuse step fails — the answer is
    // kept, but the worker is discarded instead of returning to the free
    // list, forcing the respawn path without losing a block.
    if (failpoints::Eval("exec.pool.reset") != failpoints::FireAction::kNone) {
      discard = true;
    }
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    --leased_count_;
    stats_.shipped_bytes += frame_bytes;
    if (discard) {
      DiscardSlotLocked(static_cast<std::size_t>(slot),
                        /*kill=*/timed_out || !frame_ok);
    } else {
      ++stats_.resets;
      resets_counter_->Increment();
      free_slots_.push_back(static_cast<std::size_t>(slot));
    }
  }
  worker_free_.notify_one();

  if (timed_out) {
    // The partial frame is not trustworthy: no rusage, no violations.
    run.deadline_exceeded = true;
    run.used_fallback = true;
    run.output = fallback;
    run.program_status =
        Status::DeadlineExceeded("pooled block exceeded cycle budget");
  } else if (!frame_ok) {
    run.used_fallback = true;
    run.output = fallback;
    run.program_status = Status::PolicyViolation(
        "pool worker crashed or sent a malformed frame");
  } else {
    run.policy_violations = static_cast<std::size_t>(response.violations);
    run.child_user_cpu_ns = response.cpu_user_ns;
    run.child_sys_cpu_ns = response.cpu_sys_ns;
    run.child_max_rss_kb = response.max_rss_kb;
    if (response.status == kOk) {
      run.output = std::move(output);
      run.program_status = Status::OK();
    } else {
      run.used_fallback = true;
      run.output = fallback;
      if (response.status == kDimensionMismatch) {
        run.program_status =
            Status::PolicyViolation("pooled program returned wrong arity");
      } else if (response.status == kResolverError) {
        run.program_status =
            Status::Internal("pool worker could not resolve program token");
      } else {
        run.program_status =
            Status::NumericalError("pooled program reported an error");
      }
    }
  }
  return finish(std::move(run));
}

ChamberPoolStats ChamberPool::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace gupt
