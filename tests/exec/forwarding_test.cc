// Tests for the forwarding agent (the chamber's one allowed channel).

#include <gtest/gtest.h>

#include "exec/chamber.h"
#include "exec/computation_manager.h"

namespace gupt {
namespace {

Dataset OneColumn(std::vector<double> values) {
  return Dataset::FromColumn(values).value();
}

class ChattyProgram final : public AnalysisProgram {
 public:
  explicit ChattyProgram(std::size_t messages) : messages_(messages) {}

  Result<Row> Run(const Dataset& block) override {
    return RunWithServices(block, nullptr);
  }
  Result<Row> RunWithServices(const Dataset& block,
                              ChamberServices* services) override {
    if (services != nullptr) {
      for (std::size_t i = 0; i < messages_; ++i) {
        (void)services->SendToManager("progress " + std::to_string(i));
      }
    }
    return Row{static_cast<double>(block.num_rows())};
  }
  std::size_t output_dims() const override { return 1; }
  std::string name() const override { return "chatty"; }

 private:
  std::size_t messages_;
};

TEST(ForwardingAgentTest, MessagesReachTheTrustedSide) {
  ProgramFactory factory = [] { return std::make_unique<ChattyProgram>(3); };
  ExecutionChamber chamber{ChamberPolicy{}};
  auto run = chamber.Execute(factory, OneColumn({1, 2}), Row{0.0});
  ASSERT_TRUE(run.ok());
  ASSERT_EQ(run->forwarded_messages.size(), 3u);
  EXPECT_EQ(run->forwarded_messages[0], "progress 0");
  EXPECT_EQ(run->policy_violations, 0u);
  EXPECT_FALSE(run->used_fallback);
}

TEST(ForwardingAgentTest, CapEnforcedAndCountedAsViolation) {
  ChamberPolicy policy;
  policy.max_forwarded_messages = 2;
  ProgramFactory factory = [] { return std::make_unique<ChattyProgram>(5); };
  ExecutionChamber chamber{policy};
  auto run = chamber.Execute(factory, OneColumn({1}), Row{0.0});
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->forwarded_messages.size(), 2u);
  EXPECT_EQ(run->policy_violations, 3u);  // three dropped sends
  EXPECT_FALSE(run->used_fallback);       // the run itself still succeeds
}

TEST(ForwardingAgentTest, MessagesDoNotCrossRuns) {
  ProgramFactory factory = [] { return std::make_unique<ChattyProgram>(1); };
  ExecutionChamber chamber{ChamberPolicy{}};
  auto first = chamber.Execute(factory, OneColumn({1}), Row{0.0});
  auto second = chamber.Execute(factory, OneColumn({1}), Row{0.0});
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->forwarded_messages.size(), 1u);
  EXPECT_EQ(second->forwarded_messages.size(), 1u);  // not accumulated
}

TEST(ForwardingAgentTest, VisibleThroughComputationManagerRuns) {
  ProgramFactory factory = [] { return std::make_unique<ChattyProgram>(1); };
  ComputationManager manager(nullptr, ChamberPolicy{});
  BlockSet blocks;
  blocks.store = OneColumn({1, 2}).store();
  blocks.slices = {BlockSlice{0, 1}, BlockSlice{1, 1}};
  auto report = manager.ExecuteOnBlocks(factory, blocks, Row{0.0});
  ASSERT_TRUE(report.ok());
  for (const ChamberRun& run : report->runs) {
    EXPECT_EQ(run.forwarded_messages.size(), 1u);
  }
}

}  // namespace
}  // namespace gupt
