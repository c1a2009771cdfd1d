#include "src/datagen/aligned_generator.h"

#include <gtest/gtest.h>

#include "src/datagen/presets.h"
#include "src/datagen/stats.h"

namespace activeiter {
namespace {

TEST(GeneratorConfigTest, DefaultValidates) {
  GeneratorConfig cfg;
  EXPECT_TRUE(cfg.Validate().ok());
}

TEST(GeneratorConfigTest, RejectsZeroUsers) {
  GeneratorConfig cfg;
  cfg.shared_users = 0;
  EXPECT_EQ(cfg.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(GeneratorConfigTest, RejectsBadProbabilities) {
  GeneratorConfig cfg;
  cfg.first.follow_keep_prob = 1.5;
  EXPECT_FALSE(cfg.Validate().ok());
  cfg = GeneratorConfig();
  cfg.second.event_fidelity = -0.1;
  EXPECT_FALSE(cfg.Validate().ok());
  cfg = GeneratorConfig();
  cfg.preferential_attachment = 2.0;
  EXPECT_FALSE(cfg.Validate().ok());
}

TEST(GeneratorConfigTest, RejectsEmptyUniverses) {
  GeneratorConfig cfg;
  cfg.num_locations = 0;
  EXPECT_FALSE(cfg.Validate().ok());
}

TEST(GeneratorConfigTest, RejectsInvertedEventBounds) {
  GeneratorConfig cfg;
  cfg.min_events_per_user = 9;
  cfg.max_events_per_user = 3;
  EXPECT_FALSE(cfg.Validate().ok());
}

TEST(GeneratorTest, ProducesConfiguredCounts) {
  GeneratorConfig cfg = TinyPreset();
  auto pair = AlignedNetworkGenerator(cfg).Generate();
  ASSERT_TRUE(pair.ok());
  const AlignedPair& p = pair.value();
  EXPECT_EQ(p.first().NodeCount(NodeType::kUser),
            cfg.shared_users + cfg.first.extra_users);
  EXPECT_EQ(p.second().NodeCount(NodeType::kUser),
            cfg.shared_users + cfg.second.extra_users);
  EXPECT_EQ(p.anchor_count(), cfg.shared_users);
}

TEST(GeneratorTest, SharedAttributeUniversesMatch) {
  auto pair = AlignedNetworkGenerator(TinyPreset()).Generate();
  ASSERT_TRUE(pair.ok());
  EXPECT_TRUE(pair.value().ValidateSharedAttributes().ok());
}

TEST(GeneratorTest, DeterministicForSameSeed) {
  auto a = AlignedNetworkGenerator(TinyPreset(5)).Generate();
  auto b = AlignedNetworkGenerator(TinyPreset(5)).Generate();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().anchors(), b.value().anchors());
  EXPECT_EQ(a.value().first().TotalEdgeCount(),
            b.value().first().TotalEdgeCount());
  EXPECT_TRUE(
      a.value().first().AdjacencyMatrix(RelationType::kFollow).Equals(
          b.value().first().AdjacencyMatrix(RelationType::kFollow)));
}

TEST(GeneratorTest, DifferentSeedsDiffer) {
  auto a = AlignedNetworkGenerator(TinyPreset(5)).Generate();
  auto b = AlignedNetworkGenerator(TinyPreset(6)).Generate();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_FALSE(
      a.value().first().AdjacencyMatrix(RelationType::kFollow).Equals(
          b.value().first().AdjacencyMatrix(RelationType::kFollow)));
}

TEST(GeneratorTest, AnchorsAreOneToOne) {
  auto pair = AlignedNetworkGenerator(TinyPreset()).Generate();
  ASSERT_TRUE(pair.ok());
  std::vector<bool> seen1(pair.value().first().NodeCount(NodeType::kUser));
  std::vector<bool> seen2(pair.value().second().NodeCount(NodeType::kUser));
  for (const auto& a : pair.value().anchors()) {
    EXPECT_FALSE(seen1[a.u1]);
    EXPECT_FALSE(seen2[a.u2]);
    seen1[a.u1] = true;
    seen2[a.u2] = true;
  }
}

TEST(GeneratorTest, EveryUserWritesAtLeastOnePost) {
  auto pair = AlignedNetworkGenerator(TinyPreset()).Generate();
  ASSERT_TRUE(pair.ok());
  const HeteroNetwork& net = pair.value().first();
  std::vector<bool> wrote(net.NodeCount(NodeType::kUser), false);
  for (const auto& [u, p] : net.Edges(RelationType::kWrite)) {
    (void)p;
    wrote[u] = true;
  }
  for (bool w : wrote) EXPECT_TRUE(w);
}

TEST(GeneratorTest, EveryPostHasLocationAndTimestamp) {
  auto pair = AlignedNetworkGenerator(TinyPreset()).Generate();
  ASSERT_TRUE(pair.ok());
  const HeteroNetwork& net = pair.value().second();
  EXPECT_EQ(net.EdgeCount(RelationType::kCheckin),
            net.NodeCount(NodeType::kPost));
  EXPECT_EQ(net.EdgeCount(RelationType::kAt),
            net.NodeCount(NodeType::kPost));
}

TEST(GeneratorTest, PlantedSignalAnchoredPairsShareAttributes) {
  // The planted persona model must make anchored pairs share (loc, time)
  // events far more often than random pairs — otherwise alignment would be
  // impossible. Verify via a simple overlap statistic.
  GeneratorConfig cfg = TinyPreset(11);
  auto pair_or = AlignedNetworkGenerator(cfg).Generate();
  ASSERT_TRUE(pair_or.ok());
  const AlignedPair& pair = pair_or.value();

  auto post_attrs = [](const HeteroNetwork& net) {
    // map user -> set of (loc, time) pairs.
    std::vector<std::pair<NodeId, NodeId>> post_owner(
        net.NodeCount(NodeType::kPost));
    std::vector<std::vector<uint64_t>> events(
        net.NodeCount(NodeType::kUser));
    std::vector<NodeId> loc(net.NodeCount(NodeType::kPost)),
        ts(net.NodeCount(NodeType::kPost));
    for (const auto& [p, l] : net.Edges(RelationType::kCheckin)) loc[p] = l;
    for (const auto& [p, t] : net.Edges(RelationType::kAt)) ts[p] = t;
    for (const auto& [u, p] : net.Edges(RelationType::kWrite)) {
      events[u].push_back((static_cast<uint64_t>(loc[p]) << 32) | ts[p]);
    }
    return events;
  };
  auto events1 = post_attrs(pair.first());
  auto events2 = post_attrs(pair.second());

  auto overlap = [](const std::vector<uint64_t>& a,
                    const std::vector<uint64_t>& b) {
    size_t hits = 0;
    for (uint64_t x : a) {
      for (uint64_t y : b) {
        if (x == y) {
          ++hits;
          break;
        }
      }
    }
    return static_cast<double>(hits);
  };

  double anchored = 0.0, random = 0.0;
  size_t count = 0;
  for (const auto& a : pair.anchors()) {
    anchored += overlap(events1[a.u1], events2[a.u2]);
    // compare to a mismatched pair (shifted partner)
    const auto& other = pair.anchors()[(count + 7) % pair.anchor_count()];
    random += overlap(events1[a.u1], events2[other.u2]);
    ++count;
  }
  EXPECT_GT(anchored, 3.0 * random + 1.0);
}

TEST(StatsTest, TableContainsCounts) {
  auto pair = AlignedNetworkGenerator(TinyPreset()).Generate();
  ASSERT_TRUE(pair.ok());
  NetworkStats stats = ComputeNetworkStats(pair.value().first());
  EXPECT_EQ(stats.users, pair.value().first().NodeCount(NodeType::kUser));
  EXPECT_GT(stats.posts, 0u);
  EXPECT_GT(stats.follow_links, 0u);
  std::string table = RenderDatasetTable(pair.value());
  EXPECT_NE(table.find("# anchor links"), std::string::npos);
  EXPECT_NE(table.find("twitter-like"), std::string::npos);
}

TEST(PresetsTest, AllPresetsValidate) {
  EXPECT_TRUE(TinyPreset().Validate().ok());
  EXPECT_TRUE(BenchmarkPreset().Validate().ok());
  EXPECT_TRUE(FoursquareTwitterPreset().Validate().ok());
}

TEST(PresetsTest, FoursquareTwitterAsymmetry) {
  GeneratorConfig cfg = FoursquareTwitterPreset(3);
  auto pair = AlignedNetworkGenerator(cfg).Generate();
  ASSERT_TRUE(pair.ok());
  // Twitter side writes several times more posts than the Foursquare side.
  EXPECT_GT(pair.value().first().NodeCount(NodeType::kPost),
            2 * pair.value().second().NodeCount(NodeType::kPost));
}

TEST(MultiNetworkGenerationTest, ThreeSidesShareUsers) {
  GeneratorConfig cfg = TinyPreset(31);
  auto multi = AlignedNetworkGenerator(cfg).GenerateMany(3);
  ASSERT_TRUE(multi.ok()) << multi.status();
  const MultiAlignedNetworks& m = multi.value();
  EXPECT_EQ(m.side_count(), 3u);
  EXPECT_EQ(m.shared_user_count(), cfg.shared_users);
  // Sides alternate first/second extra-user counts.
  EXPECT_EQ(m.networks[0].NodeCount(NodeType::kUser),
            cfg.shared_users + cfg.first.extra_users);
  EXPECT_EQ(m.networks[1].NodeCount(NodeType::kUser),
            cfg.shared_users + cfg.second.extra_users);
  EXPECT_EQ(m.networks[2].NodeCount(NodeType::kUser),
            cfg.shared_users + cfg.first.extra_users);
}

TEST(MultiNetworkGenerationTest, PairwiseAnchorsAreConsistent) {
  auto multi = AlignedNetworkGenerator(TinyPreset(32)).GenerateMany(3);
  ASSERT_TRUE(multi.ok());
  auto a01 = multi.value().AnchorsBetween(0, 1);
  auto a12 = multi.value().AnchorsBetween(1, 2);
  auto a02 = multi.value().AnchorsBetween(0, 2);
  ASSERT_TRUE(a01.ok() && a12.ok() && a02.ok());
  // Ground truth must be perfectly transitive: shared user k's anchor
  // between sides 0 and 2 runs through its side-1 account.
  const size_t shared = multi.value().shared_user_count();
  ASSERT_EQ(a01.value().size(), shared);
  ASSERT_EQ(a12.value().size(), shared);
  ASSERT_EQ(a02.value().size(), shared);
  for (size_t k = 0; k < shared; ++k) {
    EXPECT_EQ(a01.value()[k].u2, a12.value()[k].u1) << "shared user " << k;
    EXPECT_EQ(a02.value()[k],
              (AnchorLink{a01.value()[k].u1, a12.value()[k].u2}))
        << "shared user " << k;
  }
}

TEST(MultiNetworkGenerationTest, MakePairBuildsValidAlignedPair) {
  auto multi = AlignedNetworkGenerator(TinyPreset(33)).GenerateMany(4);
  ASSERT_TRUE(multi.ok());
  auto pair = multi.value().MakePair(1, 3);
  ASSERT_TRUE(pair.ok()) << pair.status();
  EXPECT_EQ(pair.value().anchor_count(),
            multi.value().shared_user_count());
  EXPECT_TRUE(pair.value().ValidateSharedAttributes().ok());
}

TEST(MultiNetworkGenerationTest, RejectsBadArguments) {
  auto multi = AlignedNetworkGenerator(TinyPreset(34)).GenerateMany(1);
  EXPECT_FALSE(multi.ok());
  auto ok = AlignedNetworkGenerator(TinyPreset(34)).GenerateMany(2);
  ASSERT_TRUE(ok.ok());
  EXPECT_FALSE(ok.value().MakePair(0, 0).ok());
  EXPECT_FALSE(ok.value().MakePair(0, 5).ok());
}

TEST(MultiNetworkGenerationTest, TwoSidedMatchesGenerate) {
  GeneratorConfig cfg = TinyPreset(35);
  auto pair = AlignedNetworkGenerator(cfg).Generate();
  auto multi = AlignedNetworkGenerator(cfg).GenerateMany(2);
  ASSERT_TRUE(pair.ok() && multi.ok());
  auto pair2 = multi.value().MakePair(0, 1);
  ASSERT_TRUE(pair2.ok());
  EXPECT_EQ(pair.value().anchors(), pair2.value().anchors());
  EXPECT_TRUE(
      pair.value().first().AdjacencyMatrix(RelationType::kFollow).Equals(
          pair2.value().first().AdjacencyMatrix(RelationType::kFollow)));
}

}  // namespace
}  // namespace activeiter
