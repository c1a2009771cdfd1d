// offline_activeiter: the paper's offline experiment, fold by fold.
//
// Per round: generate the `bench` pair (the Foursquare–Twitter-like preset
// the ingest workloads carve; |H| = 20,400 per fold), build the §IV-B.1
// protocol (θ = 50, γ = 0.6, 10 folds) and materialise folds 0–2 — that is
// the set-up. Not the figure benches' `large` pair: its folds take twice
// as long, so a 30-second run held only 9–12 of them and fresh_p90_ms was
// its slowest fold or two. Each fold then runs, in order, IncidenceIndex →
// FeatureExtractor::Extract → AlignmentProblem::Prepare(1.0, pool) →
// ActiveIterModel::Run (ActiveIter-100, conflict strategy, batch 5); that
// is the timed fold (activeiter_s, rows_per_s). One ThreadPool(min(4,
// nproc)) goes to every call that accepts a pool. No ingest layer runs
// and nothing reads while a fold trains. Once it has, the fold's model is published behind a
// one-shard ShardRouter (fresh_* ends there) and the settled replay reads
// it closed-loop for query_*.

#ifndef ACTIVEITER_BENCH_E2E_OFFLINE_H_
#define ACTIVEITER_BENCH_E2E_OFFLINE_H_

#include <algorithm>
#include <memory>
#include <thread>
#include <unordered_set>
#include <vector>

#include "bench_e2e/pass.h"
#include "src/align/active_iter.h"
#include "src/align/oracle.h"
#include "src/align/session.h"
#include "src/common/thread_pool.h"
#include "src/datagen/aligned_generator.h"
#include "src/datagen/presets.h"
#include "src/eval/protocol.h"
#include "src/learn/metrics.h"
#include "src/linalg/cholesky.h"
#include "src/metadiagram/features.h"
#include "src/serve/router.h"
#include "src/serve/service.h"
#include "src/serve/snapshot.h"

namespace activeiter {
namespace e2e {

constexpr size_t kOfflineFolds = 3;  // folds 0–2 of 10

inline size_t OfflinePoolThreads() {
  return std::clamp<size_t>(std::thread::hardware_concurrency(), 1, 4);
}

/// One round: set-up plus three folds. Returns false (after recording a
/// failed check) when the library rejects an input.
inline bool RunOfflineRound(uint64_t seed, ThreadPool* pool, Tracer* tracer,
                            Pass& pass, Report& report) {
  // Folds keep a pointer to the pair, so it lives outside the set-up loop.
  std::unique_ptr<AlignedPair> pair;
  std::vector<FoldData> folds;
  for (size_t rep = 0; rep < kSetupReps; ++rep) {
    folds.clear();
    const Clock::time_point begin = Clock::now();
    auto generated = AlignedNetworkGenerator(FoursquareTwitterPreset(seed)).Generate();
    report.Check(generated.ok(), "offline: pair generation");
    if (!generated.ok()) return false;
    pair = std::make_unique<AlignedPair>(std::move(generated).value());
    ProtocolConfig config;
    config.np_ratio = 50.0;
    config.sample_ratio = 0.6;
    config.num_folds = 10;
    config.seed = seed ^ 0xF01DULL;
    auto protocol = Protocol::Create(*pair, config);
    report.Check(protocol.ok(), "offline: fold protocol");
    if (!protocol.ok()) return false;
    for (size_t f = 0; f < kOfflineFolds; ++f) {
      folds.push_back(protocol.value().MakeFold(f));
    }
    pass.setup_s.push_back(Seconds(Clock::now() - begin));
  }

  const size_t users = pair->first().NodeCount(NodeType::kUser);
  size_t inner_iterations = 0;
  double rows = 0.0;
  double work_s = 0.0;
  std::vector<double> fresh_ms;
  for (size_t f = 0; f < folds.size(); ++f) {
    const FoldData& fold = folds[f];
    ++pass.writes_attempted;
    const uint64_t factors_before = CholeskyFactor::TotalFactorCount();
    const Clock::time_point begin = Clock::now();

    auto index = Timed(tracer, "bench.graph.incidence", &pass.graph_ms, [&] {
      return std::make_unique<IncidenceIndex>(*pair, fold.candidates);
    });
    const Matrix x =
        Timed(tracer, "bench.metadiagram.extract", &pass.metadiagram_ms, [&] {
          FeatureExtractorOptions options;
          options.pool = pool;
          return FeatureExtractor(*pair, fold.train_anchors, options)
              .Extract(fold.candidates);
        });
    AlignmentProblem problem;
    problem.x = &x;
    problem.index = index.get();
    problem.pinned.assign(fold.size(), Pin::kFree);
    for (size_t id : fold.train_pos) problem.pinned[id] = Pin::kPositive;
    auto session = Timed(tracer, "bench.learn.prepare", &pass.learn_ms,
                         [&] { return problem.Prepare(1.0, pool); });
    report.Check(session.ok(), "offline: AlignmentProblem::Prepare");
    if (!session.ok()) {
      ++pass.writes_failed;
      return false;
    }
    ActiveIterOptions options;
    options.budget = 100;
    options.batch_size = 5;
    options.strategy = QueryStrategyKind::kConflict;
    options.seed = seed ^ (0xAC71ULL + f);
    Oracle oracle(*pair, options.budget);
    auto run = Timed(tracer, "bench.align.active_run", &pass.align_ms, [&] {
      return ActiveIterModel(options).Run(session.value(), &oracle);
    });
    report.Check(run.ok(), "offline: ActiveIterModel::Run");
    if (!run.ok()) {
      ++pass.writes_failed;
      return false;
    }
    const ActiveIterResult& r = run.value();
    const Clock::time_point fitted = Clock::now();

    AlignmentService service;
    Timed(tracer, "bench.serve.publish", &pass.publish_ms, [&] {
      service.Publish(std::make_shared<const ModelSnapshot>(
          BuildSnapshot(0, *index, r.scores, r.y, r.w)));
      return 0;
    });
    ShardRouter router({&service}, ShardPartition{});
    const Clock::time_point readable = Clock::now();

    const uint64_t factorisations =
        CholeskyFactor::TotalFactorCount() - factors_before;
    report.Check(factorisations == 1,
                 "offline: exactly one factorisation per fold");
    pass.factorisations += factorisations;
    fresh_ms.push_back(Millis(readable - begin));
    rows += static_cast<double>(fold.size());
    work_s += Seconds(fitted - begin);
    for (const IterationTrace& t : r.round_traces) {
      inner_iterations += t.iterations();
    }

    // Queried links are excluded from evaluation (§IV-B.3), as in
    // FoldRunner::RunActive.
    std::unordered_set<size_t> queried;
    for (const QueryRecord& q : r.queries) queried.insert(q.link_id);
    std::vector<size_t> eval_ids;
    for (size_t id : fold.test_ids) {
      if (queried.count(id) == 0) eval_ids.push_back(id);
    }
    pass.f1.push_back(ComputeBinaryMetricsOn(fold.truth, r.y, eval_ids).F1());

    const SettledReads settled = ReplaySettled(
        router, [&](NodeId) -> const QueryBackend& { return service; },
        ZipfUsers(users, kSettledCalls, seed ^ (0x5EADULL + f)));
    report.Check(settled.mismatches == 0,
                 "offline: router answers equal the service's");
    pass.settled.Merge(settled);
  }
  pass.AddRound(rows, work_s, fresh_ms);
  pass.layer_extras["align.inner_iterations"].first +=
      static_cast<double>(inner_iterations);
  pass.layer_extras["align.inner_iterations"].second = "count";
  return true;
}

/// Runs the scheduled rounds and reports the offline-only metrics.
inline Pass RunOfflinePass(uint64_t seed, RoundSchedule schedule,
                           Tracer* tracer, Report& report) {
  Pass pass;
  ThreadPool pool(OfflinePoolThreads());
  for (size_t r = 0; schedule.More(r); ++r) {
    const bool ok =
        RunOfflineRound(RoundSeed(seed, r), &pool, tracer, pass, report);
    ReleaseFreedMemory();
    if (!ok) break;
    ++pass.rounds;
  }
  // activeiter_s is the wall time of one round's three folds, median over
  // rounds.
  const double inner = pass.layer_extras["align.inner_iterations"].first;
  pass.layer_extras["align.inner_iterations"].first = pass.PerRound(inner);
  pass.layer_extras["align.ms_per_inner_iteration"] = {
      Ratio(pass.align_ms, inner), "ms"};
  // The offline calls under their own names, seconds per round.
  pass.layer_extras["metadiagram.extract_s"] = {
      pass.PerRound(pass.metadiagram_ms) / 1000.0, "s"};
  pass.layer_extras["learn.prepare_s"] = {pass.PerRound(pass.learn_ms) / 1000.0,
                                          "s"};
  pass.layer_extras["align.active_run_s"] = {
      pass.PerRound(pass.align_ms) / 1000.0, "s"};
  pass.e2e_extras["activeiter_s"] = {pass.WorkSeconds(), "s"};
  return pass;
}

}  // namespace e2e
}  // namespace activeiter

#endif  // ACTIVEITER_BENCH_E2E_OFFLINE_H_
