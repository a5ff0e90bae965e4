#include "exec/chamber_pool.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "exec/chamber.h"
#include "exec/program.h"

namespace gupt {
namespace {

using std::chrono::milliseconds;

Dataset OneColumn(std::vector<double> values) {
  return Dataset::FromColumn(values).value();
}

ProgramFactory SumFactory() {
  return MakeProgramFactory("sum", 1, [](const Dataset& block) -> Result<Row> {
    double sum = 0.0;
    const double* col = block.col(0);
    for (std::size_t r = 0; r < block.num_rows(); ++r) sum += col[r];
    return Row{sum};
  });
}

/// Arity-3 program over a 3-column block: per column, a sum of squares
/// weighted by 1/(row + 3) (rounding-sensitive, so any reordering or lost
/// bit in transit shows).
ProgramFactory ColumnMomentsFactory() {
  return MakeProgramFactory(
      "moments", 3, [](const Dataset& block) -> Result<Row> {
        Row out(block.num_dims(), 0.0);
        for (std::size_t d = 0; d < block.num_dims(); ++d) {
          const double* col = block.col(d);
          for (std::size_t r = 0; r < block.num_rows(); ++r) {
            out[d] += col[r] * col[r] / static_cast<double>(r + 3);
          }
        }
        return out;
      });
}

Dataset ThreeColumns(std::size_t rows) {
  std::vector<std::vector<double>> columns(3);
  for (std::size_t r = 0; r < rows; ++r) {
    columns[0].push_back(0.1 * static_cast<double>(r) + 1.0 / 3.0);
    columns[1].push_back(-17.25 + 1e-9 * static_cast<double>(r * r));
    columns[2].push_back(static_cast<double>(r % 7) / 11.0);
  }
  return Dataset::FromColumns(std::move(columns)).value();
}

/// Resolver covering every behaviour the protocol must carry: a clean
/// program, a wrong-arity program, a failing program, a stalling one, a
/// multi-column one and one that kills its worker.
ProgramResolver TestResolver() {
  return [](const std::string& token) -> Result<ProgramFactory> {
    if (token == "sum") return SumFactory();
    if (token == "moments") return ColumnMomentsFactory();
    if (token == "abort") {
      return MakeProgramFactory("abort", 1, [](const Dataset&) -> Result<Row> {
        std::abort();
      });
    }
    if (token == "pair") {
      return MakeProgramFactory("pair", 2, [](const Dataset&) -> Result<Row> {
        return Row{1.0, 2.0};
      });
    }
    if (token == "fails") {
      return MakeProgramFactory("fails", 1, [](const Dataset&) -> Result<Row> {
        return Status::NumericalError("synthetic program failure");
      });
    }
    if (token == "stall") {
      return MakeProgramFactory("stall", 1, [](const Dataset&) -> Result<Row> {
        std::this_thread::sleep_for(milliseconds(400));
        return Row{1.0};
      });
    }
    return Status::InvalidArgument("unknown token: " + token);
  };
}

TEST(ChamberPoolTest, RunsResolvedProgramOnPooledWorker) {
  ChamberPool pool(ChamberPolicy{}, 2);
  pool.SetProgramResolver(TestResolver());
  ASSERT_TRUE(pool.Start().ok());
  Dataset data = OneColumn({1, 2, 3});
  auto run = pool.Execute("sum", data.view(), Row{0.0});
  ASSERT_TRUE(run.ok());
  EXPECT_FALSE(run->used_fallback);
  EXPECT_EQ(run->output, (Row{6.0}));
  EXPECT_TRUE(run->program_status.ok());
  ChamberPoolStats stats = pool.Stats();
  EXPECT_EQ(stats.spawned, 2u);
  EXPECT_EQ(stats.leases, 1u);
  EXPECT_EQ(stats.resets, 1u);
  EXPECT_EQ(stats.respawns, 0u);
  EXPECT_GT(stats.shipped_bytes, 3 * sizeof(double));
}

TEST(ChamberPoolTest, OutputMatchesInProcessChamberBitForBit) {
  // Same deterministic program, same block: the pooled answer must be the
  // in-process chamber's answer exactly (the golden pipeline test pins the
  // same property end to end).
  Dataset data = OneColumn({0.1, 0.2, 0.30000000000000004, 17.25});
  ExecutionChamber chamber{ChamberPolicy{}};
  auto direct = chamber.Execute(SumFactory(), data, Row{0.0});
  ASSERT_TRUE(direct.ok());

  ChamberPool pool(ChamberPolicy{}, 1);
  pool.SetProgramResolver(TestResolver());
  ASSERT_TRUE(pool.Start().ok());
  auto pooled = pool.Execute("sum", data.view(), Row{0.0});
  ASSERT_TRUE(pooled.ok());
  ASSERT_EQ(pooled->output.size(), direct->output.size());
  EXPECT_EQ(pooled->output[0], direct->output[0]);
}

TEST(ChamberPoolTest, MultiColumnOutputMatchesInProcessChamberBitForBit) {
  Dataset data = ThreeColumns(257);
  ExecutionChamber chamber{ChamberPolicy{}};
  Row fallback{0.0, 0.0, 0.0};
  auto direct = chamber.Execute(ColumnMomentsFactory(), data, fallback);
  ASSERT_TRUE(direct.ok());
  ASSERT_FALSE(direct->used_fallback);

  ChamberPool pool(ChamberPolicy{}, 1);
  pool.SetProgramResolver(TestResolver());
  ASSERT_TRUE(pool.Start().ok());
  auto pooled = pool.Execute("moments", data.view(), fallback);
  ASSERT_TRUE(pooled.ok());
  EXPECT_FALSE(pooled->used_fallback);
  ASSERT_EQ(pooled->output.size(), 3u);
  for (std::size_t d = 0; d < 3; ++d) {
    EXPECT_EQ(pooled->output[d], direct->output[d]) << "dim " << d;
  }
}

TEST(ChamberPoolTest, ShippedBytesPinTheRequestFrameLayout) {
  ChamberPool pool(ChamberPolicy{}, 1);
  pool.SetProgramResolver(TestResolver());
  ASSERT_TRUE(pool.Start().ok());
  constexpr std::size_t kRows = 41;
  Dataset data = ThreeColumns(kRows);
  auto run = pool.Execute("moments", data.view(), Row{0.0, 0.0, 0.0});
  ASSERT_TRUE(run.ok());
  ASSERT_FALSE(run->used_fallback);
  // One frame: a 24-byte header (cmd, token length, dims, expected dims:
  // 4 bytes each; rows: 8 bytes), the token, then every column slice.
  constexpr std::size_t kHeaderBytes = 24;
  const std::string token = "moments";
  EXPECT_EQ(pool.Stats().shipped_bytes,
            kHeaderBytes + token.size() + kRows * 3 * sizeof(double));
}

TEST(ChamberPoolTest, AbortingProgramFallsBackAndTheSlotRespawns) {
  // A real crash inside the worker, no failpoint involved: the parent sees
  // EOF on the response pipe, substitutes the fallback and discards the
  // worker; the next lease respawns the slot and is healthy.
  ChamberPool pool(ChamberPolicy{}, 1);
  pool.SetProgramResolver(TestResolver());
  ASSERT_TRUE(pool.Start().ok());
  Dataset data = OneColumn({4, 5});
  auto crashed = pool.Execute("abort", data.view(), Row{-1.0});
  ASSERT_TRUE(crashed.ok());
  EXPECT_TRUE(crashed->used_fallback);
  EXPECT_FALSE(crashed->deadline_exceeded);
  EXPECT_EQ(crashed->output, (Row{-1.0}));
  EXPECT_EQ(crashed->program_status.code(), StatusCode::kPolicyViolation);
  EXPECT_EQ(crashed->child_user_cpu_ns, 0);
  EXPECT_EQ(pool.Stats().workers_alive, 0u);

  auto next = pool.Execute("sum", data.view(), Row{0.0});
  ASSERT_TRUE(next.ok());
  EXPECT_FALSE(next->used_fallback);
  EXPECT_EQ(next->output, (Row{9.0}));
  ChamberPoolStats stats = pool.Stats();
  EXPECT_EQ(stats.spawned, 2u);
  EXPECT_EQ(stats.respawns, 1u);
  EXPECT_EQ(stats.resets, 1u);
  EXPECT_EQ(stats.workers_alive, 1u);
}

TEST(ChamberPoolTest, OneWorkerIsReusedNotRespawned) {
  ChamberPool pool(ChamberPolicy{}, 1);
  pool.SetProgramResolver(TestResolver());
  ASSERT_TRUE(pool.Start().ok());
  Dataset data = OneColumn({2, 3});
  for (int i = 0; i < 5; ++i) {
    auto run = pool.Execute("sum", data.view(), Row{0.0});
    ASSERT_TRUE(run.ok());
    EXPECT_EQ(run->output, (Row{5.0}));
  }
  ChamberPoolStats stats = pool.Stats();
  EXPECT_EQ(stats.spawned, 1u);  // forked once, ever
  EXPECT_EQ(stats.leases, 5u);
  EXPECT_EQ(stats.resets, 5u);
  EXPECT_EQ(stats.respawns, 0u);
  EXPECT_EQ(stats.workers_alive, 1u);
}

TEST(ChamberPoolTest, ProgramErrorSubstitutesFallback) {
  ChamberPool pool(ChamberPolicy{}, 1);
  pool.SetProgramResolver(TestResolver());
  ASSERT_TRUE(pool.Start().ok());
  Dataset data = OneColumn({1});
  auto run = pool.Execute("fails", data.view(), Row{0.5});
  ASSERT_TRUE(run.ok());
  EXPECT_TRUE(run->used_fallback);
  EXPECT_EQ(run->output, (Row{0.5}));
  EXPECT_EQ(run->program_status.code(), StatusCode::kNumericalError);
  // A clean error frame is a healthy worker: reset, not discarded.
  EXPECT_EQ(pool.Stats().resets, 1u);
}

TEST(ChamberPoolTest, WrongArityIsAPolicyViolationFallback) {
  ChamberPool pool(ChamberPolicy{}, 1);
  pool.SetProgramResolver(TestResolver());
  ASSERT_TRUE(pool.Start().ok());
  Dataset data = OneColumn({1});
  auto run = pool.Execute("pair", data.view(), Row{0.25});
  ASSERT_TRUE(run.ok());
  EXPECT_TRUE(run->used_fallback);
  EXPECT_EQ(run->output, (Row{0.25}));
  EXPECT_EQ(run->program_status.code(), StatusCode::kPolicyViolation);
}

TEST(ChamberPoolTest, UnresolvableTokenFallsBackWithInternalStatus) {
  ChamberPool pool(ChamberPolicy{}, 1);
  pool.SetProgramResolver(TestResolver());
  ASSERT_TRUE(pool.Start().ok());
  Dataset data = OneColumn({1});
  auto run = pool.Execute("no_such_program", data.view(), Row{0.75});
  ASSERT_TRUE(run.ok());
  EXPECT_TRUE(run->used_fallback);
  EXPECT_EQ(run->output, (Row{0.75}));
  EXPECT_EQ(run->program_status.code(), StatusCode::kInternal);
}

TEST(ChamberPoolTest, DeadlineKillsTheWorkerAndRespawnsLazily) {
  ChamberPolicy policy;
  policy.deadline = std::chrono::microseconds(30000);  // 30ms vs 400ms stall
  ChamberPool pool(policy, 1);
  pool.SetProgramResolver(TestResolver());
  ASSERT_TRUE(pool.Start().ok());
  Dataset data = OneColumn({1});
  auto run = pool.Execute("stall", data.view(), Row{9.0});
  ASSERT_TRUE(run.ok());
  EXPECT_TRUE(run->deadline_exceeded);
  EXPECT_TRUE(run->used_fallback);
  EXPECT_EQ(run->output, (Row{9.0}));
  EXPECT_EQ(pool.Stats().workers_alive, 0u);  // overrunner was SIGKILLed

  // The next lease revives the slot and the pool keeps answering.
  auto next = pool.Execute("sum", data.view(), Row{0.0});
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next->output, (Row{1.0}));
  ChamberPoolStats stats = pool.Stats();
  EXPECT_EQ(stats.respawns, 1u);
  EXPECT_EQ(stats.workers_alive, 1u);
}

TEST(ChamberPoolTest, PadToDeadlineStretchesElapsed) {
  ChamberPolicy policy;
  policy.deadline = std::chrono::microseconds(50000);  // 50ms
  policy.pad_to_deadline = true;
  ChamberPool pool(policy, 1);
  pool.SetProgramResolver(TestResolver());
  ASSERT_TRUE(pool.Start().ok());
  Dataset data = OneColumn({1, 2});
  auto run = pool.Execute("sum", data.view(), Row{0.0});
  ASSERT_TRUE(run.ok());
  EXPECT_FALSE(run->used_fallback);
  EXPECT_GE(run->elapsed, std::chrono::nanoseconds(policy.deadline));
}

TEST(ChamberPoolTest, ReportsWorkerRusage) {
  ChamberPool pool(ChamberPolicy{}, 1);
  pool.SetProgramResolver(TestResolver());
  ASSERT_TRUE(pool.Start().ok());
  std::vector<double> values(50000, 1.0);
  Dataset data = OneColumn(values);
  auto run = pool.Execute("sum", data.view(), Row{0.0});
  ASSERT_TRUE(run.ok());
  EXPECT_GE(run->child_user_cpu_ns + run->child_sys_cpu_ns, 0);
  EXPECT_GT(run->child_max_rss_kb, 0);
}

TEST(ChamberPoolTest, RejectsCallerBugs) {
  ChamberPool pool(ChamberPolicy{}, 1);
  pool.SetProgramResolver(TestResolver());
  Dataset data = OneColumn({1});
  // Not started yet.
  EXPECT_FALSE(pool.Execute("sum", data.view(), Row{0.0}).ok());
  ASSERT_TRUE(pool.Start().ok());
  // Empty fallback.
  EXPECT_FALSE(pool.Execute("sum", data.view(), Row{}).ok());
  // Double start.
  EXPECT_FALSE(pool.Start().ok());
}

TEST(ChamberPoolTest, ConcurrentLeasesShareTwoWorkers) {
  ChamberPool pool(ChamberPolicy{}, 2);
  pool.SetProgramResolver(TestResolver());
  ASSERT_TRUE(pool.Start().ok());
  Dataset data = OneColumn({1, 2, 3, 4});
  std::vector<std::thread> threads;
  std::vector<int> ok_flags(8, 0);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 4; ++i) {
        auto run = pool.Execute("sum", data.view(), Row{0.0});
        if (!run.ok() || run->output != Row{10.0}) return;
      }
      ok_flags[t] = 1;
    });
  }
  for (auto& thread : threads) thread.join();
  for (int t = 0; t < 8; ++t) EXPECT_EQ(ok_flags[t], 1) << "thread " << t;
  ChamberPoolStats stats = pool.Stats();
  EXPECT_EQ(stats.leases, 32u);
  EXPECT_EQ(stats.spawned, 2u);
  EXPECT_EQ(stats.respawns, 0u);
}

TEST(ChamberPoolTest, ShutdownIsIdempotentAndStopsLeasing) {
  ChamberPool pool(ChamberPolicy{}, 2);
  pool.SetProgramResolver(TestResolver());
  ASSERT_TRUE(pool.Start().ok());
  pool.Shutdown();
  pool.Shutdown();
  EXPECT_EQ(pool.Stats().workers_alive, 0u);
  Dataset data = OneColumn({1});
  EXPECT_FALSE(pool.Execute("sum", data.view(), Row{0.0}).ok());
}

}  // namespace
}  // namespace gupt
