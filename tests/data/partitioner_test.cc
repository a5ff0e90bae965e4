#include "data/partitioner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <vector>

namespace gupt {
namespace {

using Blocks = std::vector<std::vector<std::size_t>>;

// Two-column dataset whose values encode their row index, so gather order
// is directly checkable: row i = {i, 1000 + i}.
Dataset IndexedDataset(std::size_t n) {
  std::vector<double> a(n), b(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = static_cast<double>(i);
    b[i] = 1000.0 + static_cast<double>(i);
  }
  return Dataset::FromColumns({a, b}).value();
}

// The source row indices each block holds, read back from the
// index-valued column (and checked against the second column, so a torn
// gather cannot pass).
Blocks BlockRows(const BlockSet& set) {
  Blocks blocks(set.num_blocks());
  for (std::size_t b = 0; b < set.num_blocks(); ++b) {
    DatasetView view = set.view(b);
    for (std::size_t r = 0; r < view.num_rows(); ++r) {
      EXPECT_EQ(view.at(r, 1), 1000.0 + view.at(r, 0));
      blocks[b].push_back(static_cast<std::size_t>(view.at(r, 0)));
    }
  }
  return blocks;
}

std::map<std::size_t, std::size_t> Multiplicity(const Blocks& blocks) {
  std::map<std::size_t, std::size_t> counts;
  for (const auto& block : blocks) {
    for (std::size_t i : block) ++counts[i];
  }
  return counts;
}

TEST(PartitionDisjointTest, CoversEveryIndexExactlyOnce) {
  Rng rng(1);
  BlockSet set = PartitionDisjointView(IndexedDataset(100), 7, &rng).value();
  EXPECT_EQ(set.num_blocks(), 7u);
  EXPECT_EQ(set.gamma, 1u);
  std::map<std::size_t, std::size_t> counts = Multiplicity(BlockRows(set));
  EXPECT_EQ(counts.size(), 100u);
  for (const auto& [idx, count] : counts) {
    EXPECT_EQ(count, 1u) << "index " << idx;
    EXPECT_LT(idx, 100u);
  }
}

TEST(PartitionDisjointTest, BlockSizesDifferByAtMostOne) {
  Rng rng(2);
  BlockSet set = PartitionDisjointView(IndexedDataset(100), 7, &rng).value();
  std::size_t min_size = 100, max_size = 0, total = 0;
  for (const BlockSlice& slice : set.slices) {
    min_size = std::min(min_size, slice.length);
    max_size = std::max(max_size, slice.length);
    total += slice.length;
  }
  EXPECT_LE(max_size - min_size, 1u);
  EXPECT_EQ(total, 100u);
}

TEST(PartitionDisjointTest, SingleBlockHoldsEverything) {
  Rng rng(3);
  BlockSet set = PartitionDisjointView(IndexedDataset(10), 1, &rng).value();
  ASSERT_EQ(set.num_blocks(), 1u);
  EXPECT_EQ(set.slices[0].length, 10u);
}

TEST(PartitionDisjointTest, NBlocksOfOne) {
  Rng rng(4);
  BlockSet set = PartitionDisjointView(IndexedDataset(10), 10, &rng).value();
  for (const BlockSlice& slice : set.slices) EXPECT_EQ(slice.length, 1u);
}

TEST(PartitionDisjointTest, RejectsBadArguments) {
  Rng rng(5);
  Dataset data = IndexedDataset(10);
  EXPECT_FALSE(PartitionDisjointView(Dataset{}, 1, &rng).ok());
  const std::vector<std::size_t> none;
  EXPECT_FALSE(PartitionDisjointView(data, 1, &rng, nullptr, &none).ok());
  const std::vector<std::size_t> three = {1, 4, 7};
  EXPECT_FALSE(PartitionDisjointView(data, 4, &rng, nullptr, &three).ok());
  EXPECT_TRUE(PartitionDisjointView(data, 3, &rng, nullptr, &three).ok());
}

TEST(PartitionDisjointTest, IsRandomized) {
  Rng rng(6);
  Dataset data = IndexedDataset(50);
  Blocks a = BlockRows(PartitionDisjointView(data, 5, &rng).value());
  Blocks b = BlockRows(PartitionDisjointView(data, 5, &rng).value());
  EXPECT_NE(a, b);
}

TEST(PartitionResampledTest, EveryRecordAppearsExactlyGammaTimes) {
  Rng rng(7);
  const std::size_t n = 60, beta = 10, gamma = 4;
  BlockSet set =
      PartitionResampledView(IndexedDataset(n), beta, gamma, &rng).value();
  EXPECT_EQ(set.gamma, gamma);
  EXPECT_EQ(set.num_blocks(), gamma * (n / beta));
  std::map<std::size_t, std::size_t> counts = Multiplicity(BlockRows(set));
  EXPECT_EQ(counts.size(), n);
  for (const auto& [idx, count] : counts) {
    EXPECT_EQ(count, gamma) << "index " << idx;
  }
}

TEST(PartitionResampledTest, NoDuplicateWithinAnyBlock) {
  Rng rng(8);
  BlockSet set = PartitionResampledView(IndexedDataset(50), 7, 5, &rng).value();
  for (const auto& block : BlockRows(set)) {
    std::set<std::size_t> unique(block.begin(), block.end());
    EXPECT_EQ(unique.size(), block.size());
  }
}

TEST(PartitionResampledTest, BlockSizeRespected) {
  Rng rng(9);
  const std::size_t n = 53, beta = 10;  // does not divide evenly
  BlockSet set =
      PartitionResampledView(IndexedDataset(n), beta, 3, &rng).value();
  // Each group has ceil(53/10) = 6 blocks: five of size 10, one of size 3.
  EXPECT_EQ(set.num_blocks(), 3u * 6u);
  for (const BlockSlice& slice : set.slices) {
    EXPECT_LE(slice.length, beta);
    EXPECT_GE(slice.length, 1u);
  }
}

TEST(PartitionResampledTest, GammaOneMatchesDisjointSemantics) {
  Rng rng(10);
  BlockSet set = PartitionResampledView(IndexedDataset(40), 8, 1, &rng).value();
  EXPECT_EQ(set.num_blocks(), 5u);
  std::map<std::size_t, std::size_t> counts = Multiplicity(BlockRows(set));
  EXPECT_EQ(counts.size(), 40u);
  for (const auto& [idx, count] : counts) EXPECT_EQ(count, 1u) << idx;
}

TEST(PartitionResampledTest, RejectsBadArguments) {
  Rng rng(11);
  Dataset data = IndexedDataset(10);
  EXPECT_FALSE(PartitionResampledView(Dataset{}, 1, 1, &rng).ok());
  EXPECT_FALSE(PartitionResampledView(data, 0, 1, &rng).ok());
  EXPECT_FALSE(PartitionResampledView(data, 11, 1, &rng).ok());
  EXPECT_FALSE(PartitionResampledView(data, 2, 0, &rng).ok());
}

TEST(DefaultNumBlocksTest, FollowsNToThePointFour) {
  // 26733^0.4 ~= 58.7 -> 59 blocks.
  EXPECT_EQ(DefaultNumBlocks(26733), 59u);
  // 10000^0.4 ~= 39.8 -> 40.
  EXPECT_EQ(DefaultNumBlocks(10000), 40u);
}

TEST(DefaultNumBlocksTest, EdgeCases) {
  EXPECT_EQ(DefaultNumBlocks(0), 1u);
  EXPECT_EQ(DefaultNumBlocks(1), 1u);
  EXPECT_GE(DefaultNumBlocks(2), 1u);
  EXPECT_LE(DefaultNumBlocks(2), 2u);
}

TEST(PartitionViewTest, ViewsAliasOneSharedStore) {
  Dataset data = IndexedDataset(30);
  Rng rng(22);
  BlockSet set = PartitionDisjointView(data, 5, &rng).value();
  // Every block's column pointer lies inside the one gathered store, at
  // its slice offset — no per-block copies.
  for (std::size_t b = 0; b < set.num_blocks(); ++b) {
    EXPECT_EQ(set.view(b).col(0),
              set.store->columns[0].data() + set.slices[b].offset);
    EXPECT_EQ(set.block(b).col(0),
              set.store->columns[0].data() + set.slices[b].offset);
  }
}

// The literals are the block membership (and the next RNG draw) of the
// index-plan partitioner these views replaced, captured while both existed
// and were asserted equal. Any change to the permutation, the deal or the
// number of RNG draws shows up here, and in every golden that depends on
// them.
TEST(PartitionViewTest, DisjointViewMatchesPlanPathExactly) {
  Rng rng(33);
  BlockSet set = PartitionDisjointView(IndexedDataset(53), 7, &rng).value();
  EXPECT_EQ(set.gamma, 1u);
  const Blocks expected = {
      {19, 5, 29, 48, 35, 37, 21, 23}, {44, 2, 41, 26, 47, 34, 7, 20},
      {46, 16, 43, 24, 14, 40, 27, 50}, {38, 8, 49, 13, 52, 22, 15, 3},
      {12, 33, 6, 9, 17, 32, 36},       {42, 4, 10, 39, 18, 28, 25},
      {51, 11, 0, 31, 45, 30, 1},
  };
  EXPECT_EQ(BlockRows(set), expected);
  EXPECT_EQ(rng.UniformUint64(1u << 30), 213231184u)
      << "the partitioner consumed a different number of RNG draws";
}

TEST(PartitionViewTest, ResampledViewMatchesPlanPathExactly) {
  Rng rng(34);
  Arena scratch;
  BlockSet set =
      PartitionResampledView(IndexedDataset(53), 10, 3, &rng, &scratch)
          .value();
  EXPECT_EQ(set.gamma, 3u);
  const Blocks expected = {
      {42, 33, 6, 2, 16, 32, 11, 28, 29, 48},
      {40, 36, 1, 19, 21, 25, 27, 26, 12, 3},
      {35, 38, 5, 34, 4, 30, 45, 23, 9, 15},
      {41, 17, 39, 51, 46, 49, 20, 8, 44, 43},
      {50, 18, 0, 10, 31, 52, 7, 22, 24, 13},
      {47, 37, 14},
      {6, 7, 35, 27, 19, 14, 51, 43, 22, 17},
      {21, 1, 45, 33, 47, 20, 41, 36, 10, 0},
      {13, 44, 11, 8, 5, 49, 48, 29, 32, 50},
      {34, 4, 23, 42, 40, 52, 28, 12, 18, 2},
      {46, 15, 30, 16, 26, 39, 24, 38, 31, 3},
      {9, 37, 25},
      {45, 36, 52, 23, 49, 25, 24, 10, 11, 4},
      {9, 33, 18, 22, 6, 28, 46, 40, 37, 14},
      {26, 34, 48, 15, 29, 1, 42, 32, 31, 43},
      {38, 17, 0, 5, 44, 21, 8, 2, 19, 47},
      {35, 20, 41, 12, 7, 30, 13, 3, 27, 16},
      {50, 39, 51},
  };
  EXPECT_EQ(BlockRows(set), expected);
  EXPECT_EQ(rng.UniformUint64(1u << 30), 481652411u)
      << "the partitioner consumed a different number of RNG draws";
}

// The amplified path hands the kept row indices to the partitioner, which
// gathers them straight out of the registered dataset. It must equal the
// two-copy reference — Subset(keep), then partition that copy — cell for
// cell, with the same RNG draws.
TEST(PartitionViewTest, SubsampledGatherMatchesSubsetThenPartition) {
  Dataset data = IndexedDataset(400);
  for (std::uint64_t seed : {1u, 7u, 42u, 1234u}) {
    for (double rate : {0.05, 0.25, 0.5, 0.9}) {
      Rng keep_rng(seed, 99);
      std::vector<std::size_t> keep;
      for (std::size_t i = 0; i < data.num_rows(); ++i) {
        if (keep_rng.Bernoulli(rate)) keep.push_back(i);
      }
      ASSERT_FALSE(keep.empty());
      const std::size_t blocks =
          std::min<std::size_t>(DefaultNumBlocks(keep.size()), keep.size());
      Rng fused_rng(seed), reference_rng(seed);
      Arena scratch;
      BlockSet fused =
          PartitionDisjointView(data, blocks, &fused_rng, &scratch, &keep)
              .value();
      BlockSet reference =
          PartitionDisjointView(data.Subset(keep).value(), blocks,
                                &reference_rng)
              .value();
      ASSERT_EQ(fused.num_blocks(), reference.num_blocks());
      for (std::size_t b = 0; b < fused.num_blocks(); ++b) {
        ASSERT_EQ(fused.slices[b].offset, reference.slices[b].offset);
        ASSERT_EQ(fused.slices[b].length, reference.slices[b].length);
      }
      EXPECT_EQ(fused.store->num_rows, keep.size());
      EXPECT_EQ(fused.store->columns, reference.store->columns)
          << "seed " << seed << " rate " << rate;
      EXPECT_EQ(fused_rng.UniformUint64(1u << 30),
                reference_rng.UniformUint64(1u << 30));
      // Only kept rows ever reach a block.
      std::set<std::size_t> kept(keep.begin(), keep.end());
      for (const auto& block : BlockRows(fused)) {
        for (std::size_t row : block) EXPECT_EQ(kept.count(row), 1u) << row;
      }
    }
  }
}

TEST(PartitionViewTest, ArenaScratchIsReusableAcrossQueries) {
  Dataset data = IndexedDataset(100);
  Arena scratch;
  Rng rng(35);
  BlockSet first = PartitionDisjointView(data, 9, &rng, &scratch).value();
  // The BlockSet's store owns its rows — resetting the scratch arena (as
  // PartitionStage does at the start of the next query) must not disturb
  // the previous result.
  std::vector<double> before(first.store->columns[0]);
  scratch.Reset();
  BlockSet second =
      PartitionResampledView(data, 10, 2, &rng, &scratch).value();
  EXPECT_EQ(first.store->columns[0], before);
  EXPECT_EQ(second.num_blocks(), 2u * 10u);
}

TEST(PartitionViewTest, RejectsBadArguments) {
  Dataset data = IndexedDataset(10);
  Rng rng(36);
  EXPECT_FALSE(PartitionDisjointView(data, 0, &rng).ok());
  EXPECT_FALSE(PartitionDisjointView(data, 11, &rng).ok());
  EXPECT_FALSE(PartitionResampledView(data, 0, 1, &rng).ok());
  EXPECT_FALSE(PartitionResampledView(data, 11, 1, &rng).ok());
  EXPECT_FALSE(PartitionResampledView(data, 2, 0, &rng).ok());
}

// Property sweep: the resampled partition invariants hold across shapes.
struct ResampleParam {
  std::size_t n, beta, gamma;
};

class ResampleSweep : public ::testing::TestWithParam<ResampleParam> {};

TEST_P(ResampleSweep, MultiplicityAndBlockInvariants) {
  const auto& p = GetParam();
  Rng rng(99);
  BlockSet set =
      PartitionResampledView(IndexedDataset(p.n), p.beta, p.gamma, &rng)
          .value();
  Blocks blocks = BlockRows(set);
  for (const auto& block : blocks) {
    std::set<std::size_t> unique(block.begin(), block.end());
    ASSERT_EQ(unique.size(), block.size());  // no within-block duplicates
  }
  std::map<std::size_t, std::size_t> counts = Multiplicity(blocks);
  ASSERT_EQ(counts.size(), p.n);
  for (const auto& [idx, count] : counts) {
    EXPECT_EQ(count, p.gamma) << idx;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ResampleSweep,
    ::testing::Values(ResampleParam{10, 1, 1}, ResampleParam{10, 10, 3},
                      ResampleParam{100, 9, 2}, ResampleParam{1000, 33, 7},
                      ResampleParam{17, 5, 4}));

}  // namespace
}  // namespace gupt
