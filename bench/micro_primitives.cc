// Micro-benchmarks of the DP substrate: the per-operation costs that
// determine the runtime's fixed overheads (Figure 6's offsets are made of
// exactly these pieces).

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "data/partitioner.h"
#include "dp/accountant.h"
#include "dp/laplace.h"
#include "dp/percentile.h"

namespace gupt {
namespace {

void BM_LaplaceSample(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.Laplace(1.0));
  }
}
BENCHMARK(BM_LaplaceSample);

void BM_LaplaceMechanism(benchmark::State& state) {
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dp::LaplaceMechanism(1.0, 1.0, 0.5, &rng));
  }
}
BENCHMARK(BM_LaplaceMechanism);

void BM_PrivatePercentile(benchmark::State& state) {
  Rng data_rng(3);
  std::vector<double> values(static_cast<std::size_t>(state.range(0)));
  for (double& v : values) v = data_rng.UniformDouble(0.0, 100.0);
  dp::PercentileOptions opts;
  opts.lo = 0.0;
  opts.hi = 100.0;
  opts.epsilon = 1.0;
  Rng rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dp::PrivatePercentile(values, opts, &rng));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_PrivatePercentile)->Range(1 << 8, 1 << 15)->Complexity();

void BM_AccountantCharge(benchmark::State& state) {
  dp::PrivacyAccountant accountant(1e18);
  for (auto _ : state) {
    benchmark::DoNotOptimize(accountant.Charge(1e-6, "bench"));
  }
}
BENCHMARK(BM_AccountantCharge);

// One-column dataset of n rows, the input of the partition benchmarks.
Dataset PartitionInput(std::size_t n) {
  std::vector<double> values(n);
  for (std::size_t i = 0; i < n; ++i) values[i] = static_cast<double>(i);
  return Dataset::FromColumn(values).value();
}

// Partition + gather, with the scratch arena recycled per call as
// PartitionStage does.
void BM_PartitionDisjointView(benchmark::State& state) {
  Rng rng(5);
  auto n = static_cast<std::size_t>(state.range(0));
  Dataset data = PartitionInput(n);
  Arena scratch;
  for (auto _ : state) {
    scratch.Reset();
    benchmark::DoNotOptimize(
        PartitionDisjointView(data, DefaultNumBlocks(n), &rng, &scratch));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_PartitionDisjointView)->Range(1 << 10, 1 << 16)->Complexity();

void BM_PartitionResampledView(benchmark::State& state) {
  Rng rng(6);
  auto n = static_cast<std::size_t>(state.range(0));
  Dataset data = PartitionInput(n);
  Arena scratch;
  for (auto _ : state) {
    scratch.Reset();
    benchmark::DoNotOptimize(
        PartitionResampledView(data, n / 16, 4, &rng, &scratch));
  }
}
BENCHMARK(BM_PartitionResampledView)->Range(1 << 10, 1 << 16);

}  // namespace
}  // namespace gupt

BENCHMARK_MAIN();
