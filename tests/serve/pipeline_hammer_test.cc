// Pipelined-coordinator concurrency hammer: reader threads pound the
// ShardRouter while the coordinator runs with ACTIVE backpressure — a
// submit queue capped at 2 forces the producer to block on the shards,
// and per-delta drains keep both pipeline stages busy, so TSan (the
// dedicated CI job picks this up via the serve_ regex) sees the full
// hand-off surface: the plane refreshing drain N+1 while executors read
// drain N's tables, the two-drains-in-flight wait, executor mailboxes,
// per-shard snapshot swaps racing TopK readers, and the Submit-side stall
// path. Under any build it checks reader-visible invariants: the router's
// min-epoch never regresses, merged answers stay in serving order, and
// ScorePair agrees with TopKFor's world.

#include <atomic>
#include <thread>
#include <utility>
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

TEST(PipelineHammerTest, ReadersRacePipelinedIngestUnderBackpressure) {
  auto full = AlignedNetworkGenerator(TinyPreset(107)).Generate();
  ASSERT_TRUE(full.ok());
  DeltaStreamOptions carve;
  carve.num_batches = 10;
  carve.initial_fraction = 0.3;
  carve.np_ratio = 4.0;
  carve.seed = 108;
  auto stream = CarveDeltaStream(full.value(), carve);
  ASSERT_TRUE(stream.ok());
  DeltaStream& s = stream.value();

  // Shards share the kernel pool — concurrent ParallelFor submitters from
  // the coordinator's refresh and the executors' realigns are part of
  // what the TSan job must see.
  ThreadPool pool(2);
  IngestorOptions options;
  options.partition.num_shards = 2;
  options.serve.features.pool = &pool;
  options.drain = DrainPolicy::kPerDelta;
  // Two queued batches max: with 10 per-delta submits the producer MUST
  // hit backpressure and block on the shards.
  options.submit_queue_limit = 2;
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
  EXPECT_EQ(stats.coalesced_batches, 0u);
  EXPECT_GE(backend.epoch(), 1u);
  // Exact under concurrent absorbs: each shard counts its own refits.
  EXPECT_EQ(stats.full_factorisations, 2 * stats.epochs_published);
  // Backpressure fired: a capped queue fed 10 rapid submits must block
  // the producer at least once, and the ring bounds the drains in
  // flight at depth + 1.
  EXPECT_GE(stats.pipeline_stalls, 1u);
  EXPECT_LE(stats.max_inflight_planes, 2u);
}

}  // namespace
}  // namespace activeiter
