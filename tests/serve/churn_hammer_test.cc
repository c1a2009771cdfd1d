// Mixed grow/shrink concurrency hammer: reader threads pound the
// ShardRouter while the coordinator drains a CHURNED stream — every wave
// followed by edge removals, anchor retractions and candidate removals,
// with one re-add batch at the end. Run under TSan (the serve_ CI job)
// this covers the removal/compaction path racing snapshot readers.
//
// One invariant is deliberately weaker than the grow-only hammer: a link
// returned by TopKFor may be REMOVED before the follow-up ScorePair, so
// NotFound there is legal shrinkage, not a violation. Any other error
// status still counts as one.

#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/datagen/aligned_generator.h"
#include "src/datagen/presets.h"
#include "src/serve/delta_stream.h"
#include "src/serve/shard.h"

namespace activeiter {
namespace {

TEST(ChurnHammerTest, ReadersRaceCoordinatedGrowShrinkIngest) {
  auto full = AlignedNetworkGenerator(TinyPreset(79)).Generate();
  ASSERT_TRUE(full.ok());
  DeltaStreamOptions carve;
  carve.num_batches = 6;
  carve.initial_fraction = 0.3;
  carve.np_ratio = 4.0;
  carve.seed = 80;
  carve.churn_fraction = 0.4;
  auto stream = CarveDeltaStream(full.value(), carve);
  ASSERT_TRUE(stream.ok());
  DeltaStream& s = stream.value();
  const size_t batches = s.batches.size();

  ThreadPool pool(2);
  IngestorOptions options;
  options.partition.num_shards = 2;
  options.serve.features.pool = &pool;
  ShardedIngestor sharded(std::move(s.initial), s.train_anchors,
                          std::move(s.initial_candidates), options);
  ASSERT_TRUE(sharded.Start().ok());
  const QueryBackend& backend = sharded.backend();

  constexpr size_t kReaders = 4;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> queries{0};
  std::atomic<uint64_t> violations{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  const size_t users = sharded.pair().first().NodeCount(NodeType::kUser);
  for (size_t t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(3000 + t);
      uint64_t last_epoch = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const uint64_t epoch = backend.epoch();
        if (epoch == QueryBackend::kNoEpoch || epoch < last_epoch) {
          violations.fetch_add(1, std::memory_order_relaxed);
        } else {
          last_epoch = epoch;
        }
        NodeId u1 = static_cast<NodeId>(rng.UniformInt(users + 8));
        auto top = backend.TopKFor(u1, 4);
        if (!top.ok()) {
          violations.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        double prev_score = 0.0;
        size_t prev_id = 0;
        for (size_t i = 0; i < top.value().size(); ++i) {
          const ScoredLink& link = top.value()[i];
          if (i > 0 && (link.score > prev_score ||
                        (link.score == prev_score &&
                         link.link_id <= prev_id))) {
            violations.fetch_add(1, std::memory_order_relaxed);
          }
          prev_score = link.score;
          prev_id = link.link_id;
          // Under churn an epoch may shrink between the two calls:
          // NotFound means the link was just removed, which is fine.
          // Every other failure is still a violation.
          auto scored = backend.ScorePair(link.u1, link.u2);
          if (!scored.ok() &&
              scored.status().code() != StatusCode::kNotFound) {
            violations.fetch_add(1, std::memory_order_relaxed);
          }
        }
        queries.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  sharded.StartBackground();
  // Flush per submit: a fully-coalesced backlog would cancel every
  // removal against the final re-add batch, so force each shrink wave to
  // actually land (readers race every individual drain instead of one).
  for (ServeDelta& batch : s.batches) {
    sharded.Submit(std::move(batch));
    sharded.Flush();
  }
  sharded.Stop();
  ASSERT_TRUE(sharded.background_status().ok());
  stop.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();

  EXPECT_EQ(violations.load(), 0u);
  EXPECT_GT(queries.load(), 0u);
  const IngestStats stats = sharded.stats();
  EXPECT_EQ(stats.deltas_applied, batches);
  EXPECT_GE(backend.epoch(), 1u);
  // The churned stream genuinely shrank the model along the way.
  EXPECT_GT(stats.rows_removed, 0u);
  // Exact under concurrent absorbs: each shard counts its own refits.
  EXPECT_EQ(stats.full_factorisations, 2 * stats.epochs_published);
}

}  // namespace
}  // namespace activeiter
