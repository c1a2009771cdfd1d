// Concurrency hammer: N reader threads pound the query API while the
// background ingestor applies batches and swaps epochs under them. Run
// under TSan (the dedicated CI job) this validates the snapshot-swap
// protocol; under any build it checks reader-visible invariants — epochs
// never regress, every observed snapshot is internally consistent, and
// readers holding a pre-swap snapshot keep a coherent world.

#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/datagen/aligned_generator.h"
#include "src/datagen/presets.h"
#include "src/serve/delta_stream.h"
#include "src/serve/shard.h"

namespace activeiter {
namespace {

TEST(ConcurrentHammerTest, QueriesRaceIngestSafely) {
  auto full = AlignedNetworkGenerator(TinyPreset(21)).Generate();
  ASSERT_TRUE(full.ok());
  DeltaStreamOptions carve;
  carve.num_batches = 6;
  carve.initial_fraction = 0.3;
  carve.np_ratio = 4.0;
  carve.seed = 22;
  auto stream = CarveDeltaStream(full.value(), carve);
  ASSERT_TRUE(stream.ok());
  DeltaStream& s = stream.value();

  ShardedIngestor ingestor(std::move(s.initial), s.train_anchors,
                           std::move(s.initial_candidates));
  ASSERT_TRUE(ingestor.Start().ok());
  const AlignmentService& service = ingestor.shard_service(0);

  constexpr size_t kReaders = 4;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> queries{0};
  std::atomic<uint64_t> violations{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (size_t t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(1000 + t);
      uint64_t last_epoch = 0;
      while (!stop.load(std::memory_order_acquire)) {
        auto snap = service.snapshot();
        if (snap == nullptr) continue;
        // Epochs are monotone per reader.
        if (snap->epoch < last_epoch) {
          violations.fetch_add(1, std::memory_order_relaxed);
        }
        last_epoch = snap->epoch;
        // Snapshots are internally consistent however mid-swap we load.
        if (snap->scores.size() != snap->links.size() ||
            snap->y.size() != snap->links.size()) {
          violations.fetch_add(1, std::memory_order_relaxed);
        }
        NodeId u1 = static_cast<NodeId>(
            rng.UniformInt(snap->users_first() > 0 ? snap->users_first()
                                                   : 1));
        auto top = service.TopKFor(u1, 3);
        if (top.ok()) {
          for (const ScoredLink& link : top.value()) {
            auto scored = service.ScorePair(link.u1, link.u2);
            // The pair may legitimately vanish only if the service swapped
            // between the two calls — and swaps only ever grow H, so a
            // NotFound here is a real violation.
            if (!scored.ok()) {
              violations.fetch_add(1, std::memory_order_relaxed);
            }
          }
        }
        queries.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  ingestor.StartBackground();
  for (ServeDelta& batch : s.batches) ingestor.Submit(std::move(batch));
  ingestor.Flush();
  ingestor.Stop();
  ASSERT_TRUE(ingestor.background_status().ok());
  stop.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();

  EXPECT_EQ(violations.load(), 0u);
  EXPECT_GT(queries.load(), 0u);
  // Under DrainPolicy::kCoalesce (the default) a burst of B submits lands
  // in anywhere between 1 and B drains depending on worker timing — but
  // every submit is applied, and drains = applied - coalesced.
  const IngestStats stats = ingestor.stats();
  EXPECT_EQ(stats.deltas_applied, s.batches.size());
  EXPECT_GE(service.epoch(), 1u);
  EXPECT_LE(service.epoch(), s.batches.size());
  EXPECT_EQ(stats.epochs_published, service.epoch() + 1);
  EXPECT_EQ(stats.deltas_applied - stats.coalesced_batches,
            stats.epochs_published - 1);
  EXPECT_EQ(stats.full_factorisations, 1u);
}

}  // namespace
}  // namespace activeiter
