// Chamber-pool micro-benchmark: pre-warmed workers vs fork-per-block vs
// the in-thread chamber, and zero-copy columnar block views vs the
// row-copy partitioning they replaced.
//
// Two claims are made machine-checkable here (BENCH_chamber_pool.json, run
// through tools/bench_runner.py so regressions gate on the _s/_ratio
// fields):
//
//   1. Leasing a pre-warmed worker per block beats forking a fresh chamber
//      child per block by >= 5x on paper-shaped blocks, because the fork/
//      page-table/exit tax dwarfs a mean over a few hundred rows.
//   2. The columnar partitioner copies each cell exactly once (the single
//      block-shuffled gather); the row-major flow it replaced copied every
//      cell twice — once gathering the block Subset, once handing the
//      chamber its private row copy — before counting per-Row allocation
//      overhead.
//
// It also reports the price of process isolation itself: the pooled
// per-block time over the in-thread ExecutionChamber's
// (pool_over_inthread_ratio), with no threshold attached.

#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "data/partitioner.h"
#include "exec/chamber.h"
#include "exec/chamber_pool.h"
#include "exec/process_chamber.h"
#include "obs/metrics.h"

namespace gupt {
namespace {

constexpr std::size_t kRows = 80000;
constexpr std::size_t kDims = 2;
constexpr std::size_t kNumBlocks = 400;  // 200 rows per block

Dataset MakeData() {
  Rng rng(4242);
  std::vector<std::vector<double>> columns(kDims);
  for (std::size_t d = 0; d < kDims; ++d) {
    columns[d].reserve(kRows);
    for (std::size_t i = 0; i < kRows; ++i) {
      columns[d].push_back(rng.Gaussian(40.0, 10.0));
    }
  }
  return Dataset::FromColumns(std::move(columns)).value();
}

ProgramFactory MeanFactory() {
  return MakeProgramFactory("mean0", 1,
                            [](const Dataset& block) -> Result<Row> {
                              double sum = 0.0;
                              const double* col = block.col(0);
                              for (std::size_t r = 0; r < block.num_rows();
                                   ++r) {
                                sum += col[r];
                              }
                              return Row{sum / static_cast<double>(
                                                   block.num_rows())};
                            });
}

double PartitionCounterValue() {
  return obs::MetricsRegistry::Get()
      .GetCounter("gupt_data_partition_copied_bytes_total", "")
      ->Value();
}

struct CopyCosts {
  double columnar_bytes = 0.0;
  double row_bytes = 0.0;
};

/// Bytes copied to stand up kNumBlocks executable blocks, columnar vs the
/// row-major replica of the pre-refactor flow.
CopyCosts MeasureCopiedBytes(const Dataset& data) {
  CopyCosts costs;

  // Columnar: one block-shuffled gather; every view after it is free.
  Rng rng(7);
  double before = PartitionCounterValue();
  auto set = PartitionDisjointView(data, kNumBlocks, &rng);
  if (!set.ok()) std::exit(1);
  costs.columnar_bytes = PartitionCounterValue() - before;
  for (std::size_t b = 0; b < kNumBlocks; ++b) {
    DatasetView view = set->view(b);  // zero-copy by construction
    if (view.num_rows() == 0) std::exit(1);
  }

  // Row replica: the flow this refactor replaced — gather each block's
  // rows into a table of its own (a per-block Subset), then give the
  // chamber its private row-major copy.
  for (std::size_t b = 0; b < kNumBlocks; ++b) {
    std::vector<std::size_t> rows(set->slices[b].length);
    std::iota(rows.begin(), rows.end(), std::size_t{0});
    auto block = set->block(b).Subset(rows);
    if (!block.ok()) std::exit(1);
    costs.row_bytes +=
        static_cast<double>(rows.size() * kDims * sizeof(double));
    std::vector<Row> private_copy = block->MaterializeRows();
    costs.row_bytes +=
        static_cast<double>(private_copy.size() * kDims * sizeof(double));
  }
  return costs;
}

/// Seconds per block forking a fresh chamber child per block.
double ForkSecondsPerBlock(const BlockSet& set, const Row& fallback) {
  ProcessChamber chamber{ChamberPolicy{}};
  ProgramFactory factory = MeanFactory();
  double seconds = bench::TimeSeconds([&] {
    for (std::size_t b = 0; b < set.slices.size(); ++b) {
      auto run = chamber.Execute(factory, set.block(b), fallback);
      if (!run.ok() || run->used_fallback) std::exit(1);
    }
  });
  return seconds / static_cast<double>(set.slices.size());
}

/// Seconds per block in the in-thread chamber: a fresh program instance
/// and policed services, no process boundary.
double InThreadSecondsPerBlock(const BlockSet& set, const Row& fallback) {
  ExecutionChamber chamber{ChamberPolicy{}};
  ProgramFactory factory = MeanFactory();
  double seconds = bench::TimeSeconds([&] {
    for (std::size_t b = 0; b < set.slices.size(); ++b) {
      auto run = chamber.Execute(factory, set.block(b), fallback);
      if (!run.ok() || run->used_fallback) std::exit(1);
    }
  });
  return seconds / static_cast<double>(set.slices.size());
}

/// Seconds per block leasing one pre-warmed worker (sequential leases, the
/// apples-to-apples shape against the sequential fork loop).
double PooledSecondsPerBlock(const BlockSet& set, const Row& fallback) {
  ChamberPool pool(ChamberPolicy{}, 1);
  pool.SetProgramResolver(
      [](const std::string& token) -> Result<ProgramFactory> {
        if (token != "mean0") {
          return Status::InvalidArgument("unknown token: " + token);
        }
        return MeanFactory();
      });
  if (!pool.Start().ok()) std::exit(1);
  double seconds = bench::TimeSeconds([&] {
    for (std::size_t b = 0; b < set.slices.size(); ++b) {
      auto run = pool.Execute("mean0", set.view(b), fallback);
      if (!run.ok() || run->used_fallback) std::exit(1);
    }
  });
  ChamberPoolStats stats = pool.Stats();
  std::printf("# pool: %llu leases, %llu resets, %llu respawns, %.1f KB "
              "shipped\n",
              static_cast<unsigned long long>(stats.leases),
              static_cast<unsigned long long>(stats.resets),
              static_cast<unsigned long long>(stats.respawns),
              static_cast<double>(stats.shipped_bytes) / 1024.0);
  if (stats.respawns != 0) std::exit(1);  // a crash would skew the timing
  return seconds / static_cast<double>(set.slices.size());
}

int Run() {
  bench::PrintHeader(
      "chamber_pool",
      "per-block isolation cost: pre-warmed pool lease vs fork-per-block, "
      "and bytes copied standing up blocks: columnar views vs row Subsets",
      "pooled leases beat fork-per-block by >= 5x; the columnar partitioner "
      "copies each cell once where the row flow copied it twice");

  Dataset data = MakeData();
  Rng rng(7);
  auto set = PartitionDisjointView(data, kNumBlocks, &rng);
  if (!set.ok()) std::exit(1);
  Row fallback{0.0};

  // Warm both paths once so first-touch costs stay out of the timing.
  double fork_block_s = ForkSecondsPerBlock(*set, fallback);
  double pool_block_s = PooledSecondsPerBlock(*set, fallback);
  double inthread_block_s = InThreadSecondsPerBlock(*set, fallback);
  double speedup = fork_block_s / pool_block_s;
  double pool_over_inthread = pool_block_s / inthread_block_s;

  CopyCosts costs = MeasureCopiedBytes(data);
  double copied_bytes_ratio = costs.columnar_bytes / costs.row_bytes;

  bench::PrintRow({"path", "block_ns", "blocks_per_s"});
  bench::PrintRow({"fork_per_block", bench::Fmt(fork_block_s * 1e9, 0),
                   bench::Fmt(1.0 / fork_block_s, 1)});
  bench::PrintRow({"pooled_lease", bench::Fmt(pool_block_s * 1e9, 0),
                   bench::Fmt(1.0 / pool_block_s, 1)});
  bench::PrintRow({"in_thread", bench::Fmt(inthread_block_s * 1e9, 0),
                   bench::Fmt(1.0 / inthread_block_s, 1)});
  bench::PrintRow({"fork_over_pool_speedup", bench::Fmt(speedup, 2)});
  bench::PrintRow(
      {"pool_over_inthread_ratio", bench::Fmt(pool_over_inthread, 2)});
  bench::PrintRow({"columnar_copied_mb",
                   bench::Fmt(costs.columnar_bytes / 1048576.0, 2)});
  bench::PrintRow(
      {"row_copied_mb", bench::Fmt(costs.row_bytes / 1048576.0, 2)});
  bench::PrintRow({"copied_bytes_ratio", bench::Fmt(copied_bytes_ratio, 4)});
  std::printf("# speedup %s the >= 5x claim\n",
              speedup >= 5.0 ? "meets" : "MISSES");

  std::FILE* out = std::fopen("BENCH_chamber_pool.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_chamber_pool.json\n");
    return 1;
  }
  std::fprintf(out,
               "{\"num_blocks\": %zu, \"block_rows\": %zu, "
               "\"fork_block_s\": %.9f, \"pool_block_s\": %.9f, "
               "\"inthread_block_s\": %.9f, "
               "\"fork_over_pool_speedup\": %.3f, "
               "\"pool_over_inthread_ratio\": %.3f, "
               "\"columnar_copied_bytes\": %.0f, "
               "\"row_copied_bytes\": %.0f, "
               "\"copied_bytes_ratio\": %.6f}\n",
               kNumBlocks, kRows / kNumBlocks, fork_block_s, pool_block_s,
               inthread_block_s, speedup, pool_over_inthread,
               costs.columnar_bytes, costs.row_bytes, copied_bytes_ratio);
  std::fclose(out);
  std::printf("# wrote BENCH_chamber_pool.json\n");
  return speedup >= 5.0 ? 0 : 1;
}

}  // namespace
}  // namespace gupt

int main() { return gupt::Run(); }
