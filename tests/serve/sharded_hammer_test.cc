// Sharded concurrency hammer: reader threads pound the ShardRouter while
// the coordinator drains batches, advances the shared FeaturePlane and
// fans shard realigns out in parallel. Run under TSan (the dedicated CI
// job) this validates the plane's publish/consume hand-off and the
// per-shard snapshot swaps; under any build it checks reader-visible
// invariants — the router's min-epoch never regresses, merged answers are
// internally ordered, and ScorePair agrees with TopKFor's world.

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

TEST(ShardedHammerTest, ReadersRaceCoordinatedShardIngest) {
  auto full = AlignedNetworkGenerator(TinyPreset(77)).Generate();
  ASSERT_TRUE(full.ok());
  DeltaStreamOptions carve;
  carve.num_batches = 6;
  carve.initial_fraction = 0.3;
  carve.np_ratio = 4.0;
  carve.seed = 78;
  auto stream = CarveDeltaStream(full.value(), carve);
  ASSERT_TRUE(stream.ok());
  DeltaStream& s = stream.value();

  // Shards share the kernel pool — concurrent ParallelFor submitters are
  // part of what the TSan job must see.
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
      Rng rng(2000 + t);
      uint64_t last_epoch = 0;
      while (!stop.load(std::memory_order_acquire)) {
        // The router's completed epoch is monotone per reader.
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
          // Merged output is in serving order: score desc, id-tied asc.
          if (i > 0 && (link.score > prev_score ||
                        (link.score == prev_score &&
                         link.link_id <= prev_id))) {
            violations.fetch_add(1, std::memory_order_relaxed);
          }
          prev_score = link.score;
          prev_id = link.link_id;
          // The owning shard must know every link the merge returned.
          // (Epoch may advance between the calls; swaps only grow H, so
          // NotFound is a real violation.)
          auto scored = backend.ScorePair(link.u1, link.u2);
          if (!scored.ok()) {
            violations.fetch_add(1, std::memory_order_relaxed);
          }
        }
        queries.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  sharded.StartBackground();
  for (ServeDelta& batch : s.batches) sharded.Submit(std::move(batch));
  sharded.Flush();
  sharded.Stop();
  ASSERT_TRUE(sharded.background_status().ok());
  stop.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();

  EXPECT_EQ(violations.load(), 0u);
  EXPECT_GT(queries.load(), 0u);
  const IngestStats stats = sharded.stats();
  EXPECT_EQ(stats.deltas_applied, s.batches.size());
  EXPECT_GE(backend.epoch(), 1u);
  EXPECT_EQ(stats.deltas_applied - stats.coalesced_batches,
            stats.epochs_published - 1);
  // Exact under concurrent absorbs: each shard counts its own refits.
  EXPECT_EQ(stats.full_factorisations, 2 * stats.epochs_published);
}

}  // namespace
}  // namespace activeiter
