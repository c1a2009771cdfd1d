// Observability through the real ingest pipeline: every stage emits its
// span, the coordinator's epoch-lag gauge settles back to zero after
// Flush, and the query surface populates its latency histograms — at one
// shard and across several.

#include <map>
#include <sstream>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "src/datagen/aligned_generator.h"
#include "src/datagen/presets.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/serve/delta_stream.h"
#include "src/serve/shard.h"

namespace activeiter {
namespace {

DeltaStream CarvedStream(uint64_t seed) {
  auto full = AlignedNetworkGenerator(TinyPreset(seed)).Generate();
  EXPECT_TRUE(full.ok());
  DeltaStreamOptions carve;
  carve.num_batches = 5;
  carve.initial_fraction = 0.4;
  carve.np_ratio = 4.0;
  carve.seed = seed ^ 0x5EEDULL;
  auto stream = CarveDeltaStream(full.value(), carve);
  EXPECT_TRUE(stream.ok());
  return std::move(stream).ValueOrDie();
}

void ExpectStage(const std::map<std::string, Tracer::StageTotal>& totals,
                 const std::string& name) {
  EXPECT_EQ(totals.count(name), 1u) << "no span recorded for " << name;
}

TEST(ObsIntegrationTest, SingleShardEmitsEveryStageAndSettlesLag) {
  DeltaStream s = CarvedStream(61);
  const size_t batches = s.batches.size();
  MetricsRegistry registry;
  Tracer tracer;
  IngestorOptions options;
  options.obs.metrics = &registry;
  options.obs.tracer = &tracer;

  ShardedIngestor ingestor(std::move(s.initial), s.train_anchors,
                           std::move(s.initial_candidates), options);
  ASSERT_TRUE(ingestor.Start().ok());
  const AlignmentService& service = ingestor.shard_service(0);
  ingestor.StartBackground();
  for (ServeDelta& batch : s.batches) ingestor.Submit(std::move(batch));
  ingestor.Flush();

  // Every submitted batch is applied (or discarded) once Flush returns,
  // so the lag gauge must read 0 — the CI smoke asserts the same thing
  // through serve_cli's --metrics_json.
  const Gauge* lag = registry.FindGauge("serve.ingest.epoch_lag");
  ASSERT_NE(lag, nullptr);
  EXPECT_EQ(lag->value(), 0);

  ingestor.Stop();
  ASSERT_TRUE(ingestor.background_status().ok());

  const auto totals = tracer.StageTotals();
  ExpectStage(totals, "ingest.start");
  ExpectStage(totals, "ingest.submit");
  ExpectStage(totals, "ingest.drain_coalesce");
  ExpectStage(totals, "ingest.plane_apply");
  ExpectStage(totals, "ingest.plane_refresh");
  ExpectStage(totals, "ingest.plane_extract");
  ExpectStage(totals, "ingest.apply_slice");
  ExpectStage(totals, "ingest.append_rows");
  ExpectStage(totals, "ingest.realign");
  ExpectStage(totals, "ingest.snapshot_publish");
  EXPECT_EQ(totals.at("ingest.submit").count, batches);
  EXPECT_EQ(tracer.dropped_events(), 0u);

  // Query-side histograms populate through the service surface.
  ASSERT_TRUE(service.TopKFor(0, 4).ok());
  (void)service.ScorePair(0, 1);
  const Histogram* topk = registry.FindHistogram("serve.query.topk_us");
  const Histogram* pair = registry.FindHistogram("serve.query.score_pair_us");
  ASSERT_NE(topk, nullptr);
  ASSERT_NE(pair, nullptr);
  EXPECT_GE(topk->count(), 1u);
  EXPECT_GE(pair->count(), 1u);
  EXPECT_GT(topk->Percentile(0.99), 0.0);

  // The registry dump carries the settled gauge and the histograms.
  std::ostringstream json;
  registry.WriteJson(json);
  EXPECT_NE(json.str().find("\"serve.ingest.epoch_lag\": 0"),
            std::string::npos);
  EXPECT_NE(json.str().find("\"serve.query.topk_us\""), std::string::npos);
}

TEST(ObsIntegrationTest, ShardedIngestorEmitsCoordinatorStagesAndRouterLatency) {
  DeltaStream s = CarvedStream(67);
  MetricsRegistry registry;
  Tracer tracer;
  IngestorOptions options;
  options.partition.num_shards = 2;
  options.obs.metrics = &registry;
  options.obs.tracer = &tracer;

  ShardedIngestor sharded(std::move(s.initial), s.train_anchors,
                          std::move(s.initial_candidates), options);
  ASSERT_TRUE(sharded.Start().ok());
  sharded.StartBackground();
  for (ServeDelta& batch : s.batches) sharded.Submit(std::move(batch));
  sharded.Flush();

  const Gauge* lag = registry.FindGauge("serve.ingest.epoch_lag");
  ASSERT_NE(lag, nullptr);
  EXPECT_EQ(lag->value(), 0);
  // Once Flush returns no drain is in flight, so the pipeline-depth
  // gauge has settled back to 0 too (CI asserts the same via serve_cli).
  const Gauge* depth = registry.FindGauge("ingest.pipeline.depth");
  ASSERT_NE(depth, nullptr);
  EXPECT_EQ(depth->value(), 0);
  ASSERT_NE(registry.FindCounter("ingest.pipeline.stalls"), nullptr);

  sharded.Stop();
  ASSERT_TRUE(sharded.background_status().ok());

  const auto totals = tracer.StageTotals();
  ExpectStage(totals, "ingest.start");
  ExpectStage(totals, "ingest.submit");
  ExpectStage(totals, "ingest.drain_coalesce");
  ExpectStage(totals, "ingest.route");
  ExpectStage(totals, "ingest.plane_apply");
  ExpectStage(totals, "ingest.plane_refresh");
  ExpectStage(totals, "ingest.apply_slice");
  ExpectStage(totals, "ingest.realign");
  ExpectStage(totals, "ingest.snapshot_publish");
  // Every background drain runs through the pipelined prepare stage.
  ExpectStage(totals, "ingest.pipeline.prepare");
  EXPECT_GE(totals.at("ingest.pipeline.prepare").count, 1u);
  // Both shards realign on every drain (start + 1 coalesced drain here).
  EXPECT_GE(totals.at("ingest.apply_slice").count, 2u);

  // Queries through the router populate BOTH the router- and the
  // per-shard service-level histograms.
  ASSERT_TRUE(sharded.backend().TopKFor(0, 4).ok());
  (void)sharded.backend().ScorePair(0, 1);
  const Histogram* router_topk =
      registry.FindHistogram("serve.router.topk_us");
  const Histogram* service_topk =
      registry.FindHistogram("serve.query.topk_us");
  ASSERT_NE(router_topk, nullptr);
  ASSERT_NE(service_topk, nullptr);
  EXPECT_GE(router_topk->count(), 1u);
  // The fan-out hits every shard, so the service histogram sees at least
  // as many samples as the router one.
  EXPECT_GE(service_topk->count(), router_topk->count());
  ASSERT_NE(registry.FindHistogram("serve.router.score_pair_us"), nullptr);

  // The trace itself mentions every coordinator stage.
  std::ostringstream trace_json;
  tracer.WriteJson(trace_json);
  for (const char* name :
       {"ingest.route", "ingest.plane_refresh", "ingest.apply_slice",
        "ingest.snapshot_publish"}) {
    EXPECT_NE(trace_json.str().find(name), std::string::npos)
        << "trace JSON missing " << name;
  }
}

TEST(ObsIntegrationTest, ChurnIngestEmitsRemovalSpanAndKernelCounters) {
  auto full = AlignedNetworkGenerator(TinyPreset(73)).Generate();
  ASSERT_TRUE(full.ok());
  DeltaStreamOptions carve;
  carve.num_batches = 4;
  carve.initial_fraction = 0.4;
  carve.np_ratio = 4.0;
  carve.seed = 73 ^ 0x5EEDULL;
  carve.churn_fraction = 0.4;
  auto stream = CarveDeltaStream(full.value(), carve);
  ASSERT_TRUE(stream.ok());
  DeltaStream s = std::move(stream).ValueOrDie();

  MetricsRegistry registry;
  Tracer tracer;
  IngestorOptions options;
  options.obs.metrics = &registry;
  options.obs.tracer = &tracer;

  // Kernel-layer counters live on the process-wide default registry no
  // matter which registry the ingestor attaches; snapshot before.
  Counter* rows_removed =
      MetricsRegistry::Default().GetCounter("serve.ingest.rows_removed");
  Counter* downdates = MetricsRegistry::Default().GetCounter(
      "linalg.cholesky.rank_one_downdates");
  const uint64_t rows_removed_before = rows_removed->value();
  const uint64_t downdates_before = downdates->value();

  ShardedIngestor ingestor(std::move(s.initial), s.train_anchors,
                           std::move(s.initial_candidates), options);
  ASSERT_TRUE(ingestor.Start().ok());
  for (ServeDelta& batch : s.batches) {
    ASSERT_TRUE(ingestor.ApplyOnce(std::move(batch)).ok());
  }

  // The churned stream really removed rows, traced the removal stage and
  // drove the factor through the rank-one downdate kernel.
  EXPECT_GT(ingestor.stats().rows_removed, 0u);
  EXPECT_EQ(rows_removed->value() - rows_removed_before,
            ingestor.stats().rows_removed);
  EXPECT_GE(downdates->value() - downdates_before,
            ingestor.stats().rows_removed);
  const auto totals = tracer.StageTotals();
  ExpectStage(totals, "ingest.remove_coalesce");
  ExpectStage(totals, "ingest.apply_slice");
  EXPECT_GT(totals.at("ingest.remove_coalesce").count, 0u);
}

TEST(ObsIntegrationTest, DetachedIngestRegistersNothing) {
  DeltaStream s = CarvedStream(71);
  IngestorOptions options;  // obs defaults to detached
  ShardedIngestor ingestor(std::move(s.initial), s.train_anchors,
                           std::move(s.initial_candidates), options);
  ASSERT_TRUE(ingestor.Start().ok());
  ASSERT_TRUE(
      ingestor.ApplyOnce(MergeServeDeltas(std::move(s.batches))).ok());
  ASSERT_TRUE(ingestor.backend().TopKFor(0, 4).ok());
  // Nothing to assert on a registry (there is none) — the contract is
  // simply that the fully-detached pipeline runs and serves.
  EXPECT_EQ(ingestor.backend().epoch(), 1u);
}

}  // namespace
}  // namespace activeiter
