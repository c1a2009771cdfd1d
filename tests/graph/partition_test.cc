// ShardPartition / PartitionCandidates: the shard-assignment function the
// whole sharded serve layer hangs off. The properties proven here —
// stability, disjoint cover, per-slice increasing global ids — are what
// ShardRouter and ShardedIngestor assume without re-checking.

#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "src/graph/partition.h"

namespace activeiter {
namespace {

TEST(ShardPartitionTest, ValidateRejectsZeroes) {
  ShardPartition p;
  EXPECT_TRUE(p.Validate().ok());  // defaults: 1 shard, block 1
  p.num_shards = 0;
  EXPECT_EQ(p.Validate().code(), StatusCode::kInvalidArgument);
  p.num_shards = 2;
  p.block_size = 0;
  EXPECT_EQ(p.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(ShardPartitionTest, SingleShardOwnsEverything) {
  ShardPartition p;
  for (NodeId u = 0; u < 100; ++u) EXPECT_EQ(p.ShardOfFirstUser(u), 0u);
}

TEST(ShardPartitionTest, BlockStripingRotatesRanges) {
  ShardPartition p;
  p.num_shards = 3;
  p.block_size = 4;
  // Ids 0..3 → shard 0, 4..7 → shard 1, 8..11 → shard 2, 12..15 → shard 0.
  EXPECT_EQ(p.ShardOfFirstUser(0), 0u);
  EXPECT_EQ(p.ShardOfFirstUser(3), 0u);
  EXPECT_EQ(p.ShardOfFirstUser(4), 1u);
  EXPECT_EQ(p.ShardOfFirstUser(11), 2u);
  EXPECT_EQ(p.ShardOfFirstUser(12), 0u);
}

TEST(ShardPartitionTest, StripingBalancesGrowingIdSpace) {
  // New users always get the highest ids; striping keeps arrivals spread
  // instead of funnelling them into the last shard.
  ShardPartition p;
  p.num_shards = 4;
  std::vector<size_t> count(4, 0);
  for (NodeId u = 1000; u < 1000 + 403; ++u) ++count[p.ShardOfFirstUser(u)];
  for (size_t s = 0; s < 4; ++s) {
    EXPECT_GE(count[s], 100u);
    EXPECT_LE(count[s], 101u);
  }
}

TEST(PartitionCandidatesTest, SlicesAreADisjointCoverWithIncreasingIds) {
  CandidateLinkSet candidates;
  for (NodeId u1 = 0; u1 < 17; ++u1) {
    candidates.Add(u1, (u1 * 7) % 13);
    candidates.Add(u1, (u1 * 3 + 1) % 13);
  }
  ShardPartition p;
  p.num_shards = 3;
  p.block_size = 2;
  std::vector<CandidateSlice> slices = PartitionCandidates(candidates, p);
  ASSERT_EQ(slices.size(), 3u);

  std::set<size_t> seen;
  size_t total = 0;
  for (size_t s = 0; s < slices.size(); ++s) {
    const CandidateSlice& slice = slices[s];
    ASSERT_EQ(slice.links.size(), slice.global_ids.size());
    total += slice.links.size();
    for (size_t i = 0; i < slice.links.size(); ++i) {
      const auto& [u1, u2] = slice.links.link(i);
      // Ownership respects the partition function.
      EXPECT_EQ(p.ShardOfFirstUser(u1), s);
      // The global id points back at the identical unsharded candidate.
      const size_t gid = slice.global_ids[i];
      EXPECT_TRUE(seen.insert(gid).second) << "global id owned twice";
      EXPECT_EQ(candidates.link(gid), std::make_pair(u1, u2));
      // Per-slice ids are strictly increasing (submission order survives).
      if (i > 0) {
        EXPECT_GT(gid, slice.global_ids[i - 1]);
      }
    }
  }
  EXPECT_EQ(total, candidates.size());
}

TEST(PartitionCandidatesTest, AllCandidatesOfAUserShareAShard) {
  CandidateLinkSet candidates;
  for (NodeId u1 = 0; u1 < 10; ++u1) {
    for (NodeId u2 = 0; u2 < 5; ++u2) candidates.Add(u1, u2);
  }
  ShardPartition p;
  p.num_shards = 4;
  std::vector<CandidateSlice> slices = PartitionCandidates(candidates, p);
  for (size_t s = 0; s < slices.size(); ++s) {
    for (size_t i = 0; i < slices[s].links.size(); ++i) {
      EXPECT_EQ(p.ShardOfFirstUser(slices[s].links.link(i).first), s);
    }
  }
}

}  // namespace
}  // namespace activeiter
