// The three ingest workloads: ingest_backlog, serve_steady, serve_churn.
//
// Per round: generate the `bench` pair and carve it into an initial state
// plus growth batches (np-ratio 40) — with ShardedIngestor construction and
// Start() that is the set-up. The single generator thread then drives the
// live run tick by tick (see load.h): it submits batches (all at t = 0, or
// one every 100 ms), watches min over shards of deltas_applied to stamp each
// batch's freshness, checks the router epoch never moves backwards, and —
// in the serve workloads only — issues the open-loop Zipf read stream
// against the router. After the live run the settled replay reads the
// final snapshots closed-loop.
//
// ingest_backlog first replays the same stream serially, layer by layer,
// through the public calls the coordinator makes — ValidateCandidate
// Endpoints, FeaturePlane::Apply and Refresh, RouteServeDelta, then
// ModelShard::ApplySlice per shard. The replay's snapshots are the bitwise
// reference for the live run, and its per-drain times are serial costs of
// each layer, not pipelined wall time.

#ifndef ACTIVEITER_BENCH_E2E_INGEST_H_
#define ACTIVEITER_BENCH_E2E_INGEST_H_

#include <algorithm>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench_e2e/pass.h"
#include "src/datagen/aligned_generator.h"
#include "src/datagen/presets.h"
#include "src/learn/metrics.h"
#include "src/linalg/cholesky.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/serve/delta_stream.h"
#include "src/serve/shard.h"

namespace activeiter {
namespace e2e {

struct IngestSpec {
  size_t batches = 0;           // growth waves carved from the pair
  double churn_fraction = 0.0;  // > 0: grow → shrink → grow stream
  DrainPolicy drain = IngestorOptions{}.drain;
  // Every batch submitted at t = 0, after a serial layer-by-layer replay
  // of the same stream; otherwise one batch every kPace after a warm-up.
  bool backlog = false;
};

constexpr size_t kShards = 2;
constexpr double kNpRatio = 40.0;
// The last batches of a stream take about three times as long to become
// visible as the first ones (the model has grown). Paced every 50 ms, the
// last drains fell behind and queued, so any host slowdown was amplified
// into the freshness tail and fresh_p90_ms spread by more than 25% between
// runs. On a 4-vCPU virtual machine no drain queued at 70 ms, so 100 ms
// leaves a host about 1.7 times slower below saturation. A slower pace did
// not help: at 200 ms, one 25.6-s stream per run, the pipeline threads sat
// idle three quarters of the time, and over ten seeds fresh_p90_ms spread
// by 44% where two 100-ms streams per run spread by 8%.
constexpr std::chrono::milliseconds kPace{100};
constexpr size_t kWarmupBatches = 16;
constexpr std::chrono::seconds kLiveTimeout{120};

inline IngestorOptions IngestOptions(const IngestSpec& spec, ObsSinks obs) {
  IngestorOptions options;
  options.partition.num_shards = kShards;
  options.drain = spec.drain;
  options.obs = obs;
  return options;
}

/// FNV-1a over every shard snapshot's epoch, links, scores and labels —
/// the fingerprint bench/serve_scaling.cc cross-checks pipelined against
/// serial ingest with.
inline uint64_t Fingerprint(
    const std::vector<const AlignmentService*>& shards) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  auto mix_double = [&mix](double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    mix(bits);
  };
  for (const AlignmentService* service : shards) {
    auto snap = service->snapshot();
    if (snap == nullptr) continue;
    mix(snap->epoch);
    mix(snap->links.size());
    for (const auto& [u1, u2] : snap->links) {
      mix(static_cast<uint64_t>(u1));
      mix(static_cast<uint64_t>(u2));
    }
    for (size_t j = 0; j < snap->scores.size(); ++j) {
      mix_double(snap->scores(j));
    }
    for (size_t j = 0; j < snap->y.size(); ++j) mix_double(snap->y(j));
  }
  return h;
}

inline std::vector<const AlignmentService*> Services(
    const ShardedIngestor& ingestor) {
  std::vector<const AlignmentService*> out;
  for (size_t s = 0; s < ingestor.num_shards(); ++s) {
    out.push_back(&ingestor.shard_service(s));
  }
  return out;
}

/// F1 of the served labels against the planted anchors, over every served
/// candidate except the labeled bridge L+ (pinned positive, not inferred).
inline double ServedF1(const ShardedIngestor& ingestor,
                       const std::vector<AnchorLink>& train) {
  std::unordered_set<uint64_t> labeled;
  for (const AnchorLink& a : train) {
    labeled.insert((static_cast<uint64_t>(a.u1) << 32) | a.u2);
  }
  BinaryMetrics m;
  for (const AlignmentService* service : Services(ingestor)) {
    auto snap = service->snapshot();
    for (size_t j = 0; j < snap->links.size(); ++j) {
      const auto& [u1, u2] = snap->links[j];
      if (labeled.count((static_cast<uint64_t>(u1) << 32) | u2) != 0) continue;
      const bool truth = ingestor.pair().IsAnchor(u1, u2);
      const bool predicted = snap->y(j) > 0.5;
      if (truth && predicted) ++m.tp;
      if (!truth && predicted) ++m.fp;
      if (truth && !predicted) ++m.fn;
      if (!truth && !predicted) ++m.tn;
    }
  }
  return m.F1();
}

/// Per-drain serial costs of the layer-by-layer replay.
struct ReplayTimes {
  std::vector<double> apply_ms;   // ValidateCandidateEndpoints + Apply
  std::vector<double> refresh_ms;
  std::vector<double> route_ms;
  std::vector<double> absorb_crit_ms;  // slowest shard's ApplySlice
  std::vector<double> absorb_sum_ms;   // all shards' ApplySlice
  uint64_t fingerprint = 0;
  double live_wall_s = 0.0;  // the live run of the same stream
};

inline bool Replay(const DeltaStream& stream, const IngestorOptions& options,
                   Tracer* tracer, ReplayTimes* out, Report& report) {
  FeaturePlane plane(stream.initial, stream.train_anchors,
                     options.serve.features);
  plane.set_obs(options.obs);
  std::vector<CandidateSlice> slices =
      PartitionCandidates(stream.initial_candidates, options.partition);
  std::vector<std::unique_ptr<AlignmentService>> services;
  std::vector<std::unique_ptr<ModelShard>> shards;
  std::vector<const AlignmentService*> views;
  for (CandidateSlice& slice : slices) {
    services.push_back(std::make_unique<AlignmentService>());
    views.push_back(services.back().get());
    shards.push_back(std::make_unique<ModelShard>(
        std::move(slice.links), std::move(slice.global_ids),
        services.back().get(), options));
  }
  for (auto& shard : shards) {
    const Status started = shard->Start(plane);
    report.Check(started.ok(), "replay: ModelShard::Start");
    if (!started.ok()) return false;
  }
  size_t next_global_id = stream.initial_candidates.size();
  for (const ServeDelta& batch : stream.batches) {
    TraceSpan drain(tracer, "bench.replay.drain");
    double apply = 0.0, refresh = 0.0, route = 0.0;
    const Status applied =
        Timed(tracer, "bench.serve.plane_apply", &apply, [&] {
          Status st = ValidateCandidateEndpoints(plane.pair(), batch);
          return st.ok() ? plane.Apply(batch.graph) : st;
        });
    report.Check(applied.ok(), "replay: validate + FeaturePlane::Apply");
    if (!applied.ok()) return false;
    const std::vector<size_t> dirty =
        Timed(tracer, "bench.serve.plane_refresh", &refresh,
              [&] { return plane.Refresh(); });
    const std::vector<ServeDelta> routed =
        Timed(tracer, "bench.serve.route", &route, [&] {
          return RouteServeDelta(batch, options.partition, next_global_id);
        });
    next_global_id += batch.new_candidates.size();
    double crit = 0.0, sum = 0.0;
    for (size_t s = 0; s < shards.size(); ++s) {
      double ms = 0.0;
      const Status absorbed =
          Timed(tracer, "bench.serve.apply_slice", &ms, [&] {
            return shards[s]->ApplySlice(plane, dirty, routed[s], 1);
          });
      report.Check(absorbed.ok(), "replay: ModelShard::ApplySlice");
      if (!absorbed.ok()) return false;
      crit = std::max(crit, ms);
      sum += ms;
    }
    out->apply_ms.push_back(apply);
    out->refresh_ms.push_back(refresh);
    out->route_ms.push_back(route);
    out->absorb_crit_ms.push_back(crit);
    out->absorb_sum_ms.push_back(sum);
  }
  out->fingerprint = Fingerprint(views);
  return true;
}

/// What the generator thread saw during one live run.
struct LiveRun {
  std::vector<double> fresh_ms;  // per batch: Submit → first visible tick
  double wall_s = 0.0;           // first Submit → Flush returns
  size_t visible = 0;
  uint64_t backlog_max = 0;      // submitted but not yet visible
  uint64_t epoch_regressions = 0;
  ReadStats reads;
  std::vector<double> late_us;
};

/// Drives `ingestor` (started, not yet in the background) through
/// `batches` from this thread, then flushes and stops it.
inline LiveRun DriveLive(ShardedIngestor& ingestor,
                         std::vector<ServeDelta> batches,
                         const std::vector<size_t>& visible_users,
                         bool backlog, uint64_t seed) {
  LiveRun out;
  const size_t n = batches.size();
  std::vector<Clock::time_point> submitted(n);
  // The backlog measures the write path alone: no reads compete with it.
  const bool reads = !backlog;
  ReadLoad load(&ingestor.backend(), seed);
  load.SetVisibleUsers(visible_users[0]);
  ingestor.StartBackground();
  uint64_t last_epoch = ingestor.backend().epoch();
  size_t next = 0;
  Ticker ticker;
  for (size_t tick = 0; out.visible < n; ++tick) {
    const Clock::time_point now = ticker.WaitFor(tick);
    if (now - ticker.start() > kLiveTimeout ||
        !ingestor.background_status().ok()) {
      break;
    }
    // Batch i is visible once every shard has applied i batches.
    uint64_t applied = std::numeric_limits<uint64_t>::max();
    for (size_t s = 0; s < ingestor.num_shards(); ++s) {
      applied = std::min(applied, ingestor.shard_stats(s).deltas_applied);
    }
    const size_t was_visible = out.visible;
    while (out.visible < next && out.visible < applied) {
      out.fresh_ms.push_back(Millis(now - submitted[out.visible]));
      ++out.visible;
    }
    if (reads && out.visible != was_visible) {
      load.SetVisibleUsers(visible_users[out.visible]);
    }
    const uint64_t epoch = ingestor.backend().epoch();
    if (epoch < last_epoch) ++out.epoch_regressions;
    last_epoch = epoch;
    if (out.visible == n) break;

    while (next < n &&
           (backlog || ticker.Due(tick) >= ticker.start() + next * kPace)) {
      submitted[next] = Clock::now();
      ingestor.Submit(std::move(batches[next]));
      ++next;
    }
    out.backlog_max = std::max<uint64_t>(out.backlog_max, next - out.visible);
    if (reads) load.IssueTick();
  }
  ingestor.Flush();
  out.wall_s = Seconds(Clock::now() - submitted[0]);
  ingestor.Stop();
  out.reads = load.stats();
  out.late_us = ticker.late_us();
  return out;
}

inline double StageMs(const std::map<std::string, Tracer::StageTotal>& after,
                      const std::map<std::string, Tracer::StageTotal>& before,
                      const std::string& name) {
  auto a = after.find(name);
  if (a == after.end()) return 0.0;
  auto b = before.find(name);
  return (a->second.total_us - (b == before.end() ? 0.0 : b->second.total_us)) /
         1000.0;
}

inline uint64_t DefaultCounter(const char* name) {
  const Counter* c = MetricsRegistry::Default().FindCounter(name);
  return c == nullptr ? 0 : c->value();
}

/// The carved workload of one round. Deterministic in (spec, seed).
inline Result<DeltaStream> MakeStream(const IngestSpec& spec, uint64_t seed) {
  auto generated =
      AlignedNetworkGenerator(FoursquareTwitterPreset(seed)).Generate();
  if (!generated.ok()) return generated.status();
  DeltaStreamOptions carve;
  carve.num_batches = spec.batches;
  carve.initial_fraction = 0.5;
  carve.np_ratio = kNpRatio;
  carve.churn_fraction = spec.churn_fraction;
  carve.seed = seed ^ 0xCA4EULL;
  return CarveDeltaStream(generated.value(), carve);
}

/// First-network users visible after 0, 1, …, n batches. Ids are assigned
/// in reveal order, so the visible users are exactly [0, count).
inline std::vector<size_t> VisibleUsers(const DeltaStream& stream) {
  std::vector<size_t> users{stream.initial.first().NodeCount(NodeType::kUser)};
  for (const ServeDelta& batch : stream.batches) {
    users.push_back(users.back() +
                    batch.graph.first.NodeGrowth(NodeType::kUser));
  }
  return users;
}

/// Before the first round, on its stream: the serial replay (`replay`
/// non-null), or a discarded run of the first batches at the live pace
/// (`warm_up`), so page faults and allocator growth are not billed to the
/// measured run.
inline bool WarmUp(const IngestSpec& spec, uint64_t seed, bool warm_up,
                   ObsSinks obs, ReplayTimes* replay, Report& report) {
  if (replay == nullptr && !warm_up) return true;
  auto stream = MakeStream(spec, seed);
  report.Check(stream.ok(), "ingest: generate + carve");
  if (!stream.ok()) return false;
  const DeltaStream& s = stream.value();
  if (replay != nullptr &&
      !Replay(s, IngestOptions(spec, obs), obs.tracer, replay, report)) {
    return false;
  }
  if (warm_up) {
    ShardedIngestor warm(s.initial, s.train_anchors, s.initial_candidates,
                         IngestOptions(spec, {}));
    const Status started = warm.Start();
    report.Check(started.ok(), "warm-up: ShardedIngestor::Start");
    if (!started.ok()) return false;
    const size_t count = std::min(kWarmupBatches, s.batches.size());
    DriveLive(warm, {s.batches.begin(), s.batches.begin() + count},
              VisibleUsers(s), spec.backlog, ~seed);
  }
  return true;
}

/// One round: set-up (kSetupReps times, the last one kept), the live run,
/// checks — against the serial replay when `replay` is non-null.
inline bool RunIngestRound(const IngestSpec& spec, uint64_t seed,
                           ObsSinks obs, Pass& pass, ReplayTimes* replay,
                           Report& report) {
  const IngestorOptions options = IngestOptions(spec, obs);
  std::optional<DeltaStream> stream;
  std::vector<size_t> visible_users;
  std::unique_ptr<ShardedIngestor> owned;
  for (size_t rep = 0; rep < kSetupReps; ++rep) {
    owned.reset();
    stream.reset();
    const Clock::time_point begin = Clock::now();
    auto carved = MakeStream(spec, seed);
    report.Check(carved.ok(), "ingest: generate + carve");
    if (!carved.ok()) return false;
    stream.emplace(std::move(carved).value());
    visible_users = VisibleUsers(*stream);
    owned = std::make_unique<ShardedIngestor>(
        std::move(stream->initial), stream->train_anchors,
        std::move(stream->initial_candidates), options);
    const Status started = owned->Start();
    pass.setup_s.push_back(Seconds(Clock::now() - begin));
    report.Check(started.ok(), "ingest: ShardedIngestor::Start");
    if (!started.ok()) return false;
  }
  ShardedIngestor& ingestor = *owned;
  const std::vector<AnchorLink>& train = stream->train_anchors;
  const size_t rows = stream->StreamedCandidateCount();
  const size_t n = stream->batches.size();

  std::map<std::string, Tracer::StageTotal> stages_before;
  if (obs.tracer != nullptr) stages_before = obs.tracer->StageTotals();
  const uint64_t factors_before = CholeskyFactor::TotalFactorCount();
  const uint64_t rank1_before = CholeskyFactor::TotalRankOneUpdateCount();
  const uint64_t spliced_before = DefaultCounter("linalg.spgemm.rows_spliced");
  const uint64_t recomputed_before =
      DefaultCounter("linalg.spgemm.rows_recomputed");

  LiveRun live = DriveLive(ingestor, std::move(stream->batches), visible_users,
                           spec.backlog, seed ^ 0x5EADULL);

  pass.factorisations += CholeskyFactor::TotalFactorCount() - factors_before;
  pass.rank_one_updates +=
      CholeskyFactor::TotalRankOneUpdateCount() - rank1_before;
  pass.rows_spliced +=
      DefaultCounter("linalg.spgemm.rows_spliced") - spliced_before;
  pass.rows_recomputed +=
      DefaultCounter("linalg.spgemm.rows_recomputed") - recomputed_before;

  const IngestStats stats = ingestor.stats();
  const Status status = ingestor.background_status();
  report.Check(status.ok(), "ingest: background_status OK (" +
                                status.ToString() + ")");
  report.Check(live.visible == n, "ingest: every batch became visible");
  report.Check(live.epoch_regressions == 0,
               "ingest: router epoch never moved backwards");
  report.Check(stats.deltas_applied - stats.coalesced_batches ==
                   stats.epochs_published - 1,
               "ingest: deltas_applied - coalesced_batches == "
               "epochs_published - 1");
  if (obs.metrics != nullptr) {
    // Every submitted batch was published, so the attached lag and
    // in-flight gauges must have settled back to zero.
    for (const char* gauge :
         {"serve.ingest.epoch_lag", "ingest.pipeline.depth"}) {
      const Gauge* g = obs.metrics->FindGauge(gauge);
      report.Check(g != nullptr && g->value() == 0,
                   std::string("ingest: gauge ") + gauge + " settled to 0");
    }
  }
  if (replay != nullptr) {
    report.Check(Fingerprint(Services(ingestor)) == replay->fingerprint,
                 "ingest: live snapshots bitwise equal to the serial replay");
    replay->live_wall_s = live.wall_s;
  }
  // The serve workloads replay the users their live reads issued; the
  // backlog, which read nothing, a Zipf draw over its final users.
  const SettledReads settled = ReplaySettled(
      ingestor.backend(),
      [&](NodeId u) -> const QueryBackend& {
        return ingestor.shard_service(ingestor.partition().ShardOfFirstUser(u));
      },
      spec.backlog
          ? ZipfUsers(visible_users.back(), kSettledCalls, seed ^ 0x5E77ULL)
          : live.reads.users);
  report.Check(settled.mismatches == 0,
               "ingest: router answers equal the owning shard's");

  pass.live_reads = !spec.backlog;
  pass.f1.push_back(ServedF1(ingestor, train));
  pass.AddRound(static_cast<double>(rows), live.wall_s, live.fresh_ms);
  pass.reads.Merge(live.reads);
  pass.late_us.insert(pass.late_us.end(), live.late_us.begin(),
                      live.late_us.end());
  pass.settled.Merge(settled);
  pass.writes_attempted += n;
  pass.writes_failed += n - live.visible;
  pass.ingest += stats;
  pass.backlog_max = std::max(pass.backlog_max, live.backlog_max);

  if (obs.tracer != nullptr) {
    const auto after = obs.tracer->StageTotals();
    auto ms = [&](const std::string& name) {
      return StageMs(after, stages_before, name);
    };
    pass.graph_ms += ms("ingest.plane_apply");
    pass.metadiagram_ms += ms("ingest.plane_refresh");
    pass.learn_ms += ms("ingest.replace_rows") + ms("ingest.append_rows") +
                     ms("ingest.remove_coalesce");
    pass.align_ms += ms("ingest.realign");
    pass.publish_ms += ms("ingest.snapshot_publish");
    for (const auto& [name, total] : after) {
      if (name.rfind("ingest.", 0) != 0) continue;
      auto b = stages_before.find(name);
      const uint64_t count =
          total.count - (b == stages_before.end() ? 0 : b->second.count);
      if (count == 0) continue;  // a set-up stage (start, plane_extract)
      auto& c = pass.layer_extras["stage." + name + ".count"];
      c.first += static_cast<double>(count);
      c.second = "count";
      auto& t = pass.layer_extras["stage." + name + ".total_ms"];
      t.first += ms(name);
      t.second = "ms";
    }
  }
  return true;
}

/// Runs the scheduled rounds of an ingest workload.
inline Pass RunIngestPass(const IngestSpec& spec, uint64_t seed,
                          RoundSchedule schedule, bool warm_up, ObsSinks obs,
                          Report& report) {
  Pass pass;
  ReplayTimes replay;
  // The backlog's serial replay of the first round's stream warms the
  // process and is that round's bitwise reference.
  ReplayTimes* reference = spec.backlog ? &replay : nullptr;
  bool ok = WarmUp(spec, RoundSeed(seed, 0), warm_up, obs, reference, report);
  ReleaseFreedMemory();
  for (size_t r = 0; ok && schedule.More(r); ++r) {
    ok = RunIngestRound(spec, RoundSeed(seed, r), obs, pass,
                        r == 0 ? reference : nullptr, report);
    ReleaseFreedMemory();
    if (ok) ++pass.rounds;
  }
  for (auto& [name, metric] : pass.layer_extras) {
    metric.first = pass.PerRound(metric.first);
  }
  if (!spec.backlog) return pass;

  auto set = [&pass](const std::string& name, double value, const char* unit) {
    pass.layer_extras[name] = {value, unit};
  };
  // The replay covers the first round's stream only.
  auto dist = [&](const std::string& name, const std::vector<double>& v) {
    set(name + ".p50", Quantile(v, 0.5), "ms");
    set(name + ".p90", Quantile(v, 0.9), "ms");
    set(name + ".total", Sum(v), "ms");
  };
  dist("serve.feature_plane.apply_ms", replay.apply_ms);
  dist("serve.feature_plane.refresh_ms", replay.refresh_ms);
  dist("serve.shard.absorb_crit_ms", replay.absorb_crit_ms);
  set("serve.shard.route_ms.total", Sum(replay.route_ms), "ms");
  set("serve.shard.absorb_sum_ms.total", Sum(replay.absorb_sum_ms), "ms");
  // Perfect prepare/absorb overlap would finish every drain in the longer
  // of its two stages; efficiency is that bound over the live wall time.
  double bound_ms = 0.0;
  for (size_t i = 0; i < replay.apply_ms.size(); ++i) {
    bound_ms += std::max(
        replay.apply_ms[i] + replay.refresh_ms[i] + replay.route_ms[i],
        replay.absorb_crit_ms[i]);
  }
  set("pipeline.bound_s", bound_ms / 1000.0, "s");
  set("pipeline.efficiency", Ratio(bound_ms / 1000.0, replay.live_wall_s),
      "ratio");
  return pass;
}

}  // namespace e2e
}  // namespace activeiter

#endif  // ACTIVEITER_BENCH_E2E_INGEST_H_
