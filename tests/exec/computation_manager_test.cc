#include "exec/computation_manager.h"

#include <gtest/gtest.h>

#include <atomic>

#include "common/vec.h"

namespace gupt {
namespace {

Dataset Counting(std::size_t n) {
  std::vector<Row> rows;
  for (std::size_t i = 0; i < n; ++i) rows.push_back({static_cast<double>(i)});
  return Dataset::Create(std::move(rows)).value();
}

ProgramFactory BlockMean() {
  return MakeProgramFactory("block_mean", 1,
                            [](const Dataset& block) -> Result<Row> {
                              GUPT_ASSIGN_OR_RETURN(auto col, block.Column(0));
                              return Row{stats::Mean(col)};
                            });
}

// `num_blocks` equal contiguous slices directly over the dataset's own
// store (num_blocks must divide its row count): blocks without a gather.
BlockSet SequentialBlocks(const Dataset& data, std::size_t num_blocks) {
  BlockSet set;
  set.store = data.store();
  const std::size_t length = data.num_rows() / num_blocks;
  for (std::size_t b = 0; b < num_blocks; ++b) {
    set.slices.push_back(BlockSlice{data.offset() + b * length, length});
  }
  return set;
}

TEST(ComputationManagerTest, SequentialExecutesEveryBlock) {
  ComputationManager manager(nullptr, ChamberPolicy{});
  Dataset data = Counting(20);
  auto report = manager.ExecuteOnBlocks(BlockMean(),
                                        SequentialBlocks(data, 4), Row{0.0});
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->runs.size(), 4u);
  EXPECT_EQ(report->fallback_count, 0u);
  // Block means average to the global mean for equal-size blocks.
  std::vector<Row> outputs = report->Outputs();
  double sum = 0.0;
  for (const Row& o : outputs) sum += o[0];
  EXPECT_NEAR(sum / 4.0, 9.5, 1e-9);
}

TEST(ComputationManagerTest, ParallelMatchesSequentialOutputs) {
  Dataset data = Counting(100);
  BlockSet blocks = SequentialBlocks(data, 10);
  ComputationManager sequential(nullptr, ChamberPolicy{});
  ThreadPool pool(4);
  ComputationManager parallel(&pool, ChamberPolicy{});
  auto a = sequential.ExecuteOnBlocks(BlockMean(), blocks, Row{0.0});
  auto b = parallel.ExecuteOnBlocks(BlockMean(), blocks, Row{0.0});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // Same blocks, deterministic program: identical per-block outputs in order.
  EXPECT_EQ(a->Outputs(), b->Outputs());
}

TEST(ComputationManagerTest, CountsFallbacks) {
  // Blocks whose first value is even fail; the rest succeed.
  auto flaky = MakeProgramFactory(
      "flaky", 1, [](const Dataset& block) -> Result<Row> {
        if (static_cast<int>(block.row(0)[0]) % 2 == 0) {
          return Status::NumericalError("even block");
        }
        return Row{1.0};
      });
  ComputationManager manager(nullptr, ChamberPolicy{});
  auto report = manager.ExecuteOnBlocks(
      flaky, SequentialBlocks(Counting(4), 4), Row{-1.0});
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->fallback_count, 2u);
  EXPECT_EQ(report->Outputs()[0], (Row{-1.0}));
  EXPECT_EQ(report->Outputs()[1], (Row{1.0}));
}

TEST(ComputationManagerTest, EmptyPlanRejected) {
  ComputationManager manager(nullptr, ChamberPolicy{});
  EXPECT_FALSE(manager.ExecuteOnBlocks(BlockMean(), BlockSet{}, Row{0.0}).ok());
}

TEST(ComputationManagerTest, BadBlockIndexRejectedBeforeExecution) {
  std::atomic<int> executions{0};
  auto counting_program = MakeProgramFactory(
      "counting", 1, [&executions](const Dataset&) -> Result<Row> {
        executions.fetch_add(1);
        return Row{0.0};
      });
  Dataset data = Counting(5);
  ComputationManager manager(nullptr, ChamberPolicy{});
  BlockSet past_end = SequentialBlocks(data, 5);
  past_end.slices[1] = BlockSlice{99, 1};  // row 99 of a 5-row store
  EXPECT_FALSE(
      manager.ExecuteOnBlocks(counting_program, past_end, Row{0.0}).ok());
  BlockSet empty_block = SequentialBlocks(data, 5);
  empty_block.slices[2].length = 0;
  EXPECT_FALSE(
      manager.ExecuteOnBlocks(counting_program, empty_block, Row{0.0}).ok());
  EXPECT_EQ(executions.load(), 0);  // no untrusted code ran
}

TEST(ComputationManagerTest, AggregatesPolicyViolationCounts) {
  class Noisy final : public AnalysisProgram {
   public:
    Result<Row> Run(const Dataset&) override { return Row{0.0}; }
    Result<Row> RunWithServices(const Dataset&,
                                ChamberServices* services) override {
      (void)services->OpenNetworkConnection("x");
      return Row{0.0};
    }
    std::size_t output_dims() const override { return 1; }
    std::string name() const override { return "noisy"; }
  };
  ProgramFactory factory = [] { return std::make_unique<Noisy>(); };
  ComputationManager manager(nullptr, ChamberPolicy{});
  auto report = manager.ExecuteOnBlocks(
      factory, SequentialBlocks(Counting(3), 3), Row{0.0});
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->policy_violation_count, 3u);
}

}  // namespace
}  // namespace gupt
