// Micro-benchmarks of the kernels the experiments are built from:
// SpGEMM / Hadamard (meta-diagram counting), ridge solve (step 1-1),
// greedy and Hungarian selection (step 1-2), the conflict query round
// (external step 2), and full feature extraction.
//
// Two modes:
//   * default — Google Benchmark CLI (filters, repetitions, etc.);
//   * --record=PATH — hand-timed record of the ridge kernels
//     (RidgePrepared::Create and Predict at the offline fold's shape, the
//     tiled dense solve, and a serve shard's per-drain ridge refit from its
//     CSR X), of the selection kernels (greedy selection and the conflict
//     query round at 20,000 links, and greedy selection on separable scores
//     over K_{143,143}) and of feature extraction (the offline fold's
//     Extract, bench-scale delta refreshes over a growth and a churn
//     stream, and a shard's gather from the refreshed tables), written as
//     compact JSON. CI re-records it as BENCH_kernels.json; the committed
//     copy is the PR's perf baseline.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include <benchmark/benchmark.h>

#include "src/align/greedy_selection.h"
#include "src/align/hungarian.h"
#include "src/align/query_strategy.h"
#include "src/common/rng.h"
#include "src/common/stopwatch.h"
#include "src/common/thread_pool.h"
#include "src/datagen/aligned_generator.h"
#include "src/datagen/presets.h"
#include "src/eval/protocol.h"
#include "src/graph/partition.h"
#include "src/learn/ridge.h"
#include "src/linalg/cholesky.h"
#include "src/linalg/sparse_ops.h"
#include "src/metadiagram/features.h"
#include "src/serve/delta_stream.h"

namespace activeiter {
namespace {

SparseMatrix RandomSparse(size_t rows, size_t cols, double density,
                          uint64_t seed) {
  Rng rng(seed);
  std::vector<Triplet> trips;
  size_t expected = static_cast<size_t>(density * rows * cols);
  trips.reserve(expected);
  for (size_t k = 0; k < expected; ++k) {
    trips.push_back({static_cast<uint32_t>(rng.UniformInt(rows)),
                     static_cast<uint32_t>(rng.UniformInt(cols)),
                     rng.UniformDouble() + 0.1});
  }
  return SparseMatrix::FromTriplets(rows, cols, std::move(trips));
}

void BM_SpGemm(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  SparseMatrix a = RandomSparse(n, n, 16.0 / n, 1);
  SparseMatrix b = RandomSparse(n, n, 16.0 / n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SpGemm(a, b));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(a.nnz()));
}
BENCHMARK(BM_SpGemm)->Arg(256)->Arg(1024)->Arg(4096);

// Serial vs pooled SpGemm at the relation-matrix scales the table benches
// operate at: n = 8192 ≈ the `bench` generator scale, n = 32768 ≈ `large`.
// Args are {n, threads}; threads = 1 is the serial engine, so the tracked
// JSON carries the speedup directly.
void BM_SpGemmPooled(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t threads = static_cast<size_t>(state.range(1));
  SparseMatrix a = RandomSparse(n, n, 64.0 / n, 11);
  SparseMatrix b = RandomSparse(n, n, 64.0 / n, 12);
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SpGemm(a, b, pool.get()));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(a.nnz()));
}
BENCHMARK(BM_SpGemmPooled)
    ->ArgNames({"n", "threads"})
    ->Args({8192, 1})
    ->Args({8192, 4})
    ->Args({32768, 1})
    ->Args({32768, 4})
    ->Unit(benchmark::kMillisecond);

void BM_Hadamard(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  SparseMatrix a = RandomSparse(n, n, 32.0 / n, 3);
  SparseMatrix b = RandomSparse(n, n, 32.0 / n, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Hadamard(a, b));
  }
}
BENCHMARK(BM_Hadamard)->Arg(1024)->Arg(4096);

// The shape of an offline fold's meta-diagram design matrix: the bias in
// the last of d columns, half the rows bias-only, and in the other half
// each feature present with probability 0.05 (at least one per row), so
// ~6% of the entries are nonzero.
Matrix RidgeBenchDesign(size_t rows, size_t d) {
  Rng rng(5);
  Matrix x(rows, d);
  for (size_t i = 0; i < rows; ++i) {
    x(i, d - 1) = 1.0;
    if (rng.Bernoulli(0.5)) continue;
    bool any = false;
    for (size_t j = 0; j + 1 < d; ++j) {
      if (!rng.Bernoulli(0.05)) continue;
      x(i, j) = rng.UniformDouble();
      any = true;
    }
    if (!any) x(i, rng.UniformInt(d - 1)) = rng.UniformDouble();
  }
  return x;
}

Vector RidgeBenchLabels(size_t rows) {
  Rng rng(6);
  Vector y(rows);
  for (size_t i = 0; i < rows; ++i) y(i) = rng.Bernoulli(0.02) ? 1.0 : 0.0;
  return y;
}

void BM_RidgeSolve(benchmark::State& state) {
  const size_t rows = static_cast<size_t>(state.range(0));
  auto solver = RidgeSolver::Create(RidgeBenchDesign(rows, 30), 1.0);
  const Vector y = RidgeBenchLabels(rows);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.value().Solve(y));
  }
}
BENCHMARK(BM_RidgeSolve)->Arg(2000)->Arg(20000);

// Scores Xw, once per inner alternation step, at the offline fold's
// |H| = 20,400.
void BM_RidgePredict(benchmark::State& state) {
  const size_t rows = static_cast<size_t>(state.range(0));
  auto solver = RidgeSolver::Create(RidgeBenchDesign(rows, 30), 1.0);
  const Vector w = solver.value().Solve(RidgeBenchLabels(rows));
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.value().Predict(w));
  }
}
BENCHMARK(BM_RidgePredict)->Arg(20400);

// The ridge cost of one full ActiveIter run: budget 100, batch 5 → 21
// external rounds against a fixed |H| × 30 design matrix. The pre-session
// engine rebuilt the compressed X, its Gram and its Cholesky factorisation
// every round; the AlignmentSession path prepares once and only
// re-solves. Same arithmetic per solve, so the gap is pure preparation
// reuse.
constexpr size_t kActiveIterRounds = 21;

void BM_RidgeRefactorPerRound(benchmark::State& state) {
  const size_t rows = static_cast<size_t>(state.range(0));
  Matrix x = RidgeBenchDesign(rows, 30);
  const Vector y = RidgeBenchLabels(rows);
  for (auto _ : state) {
    for (size_t round = 0; round < kActiveIterRounds; ++round) {
      auto solver = RidgeSolver::Create(x, 1.0);
      benchmark::DoNotOptimize(solver.value().Solve(y));
    }
  }
}
BENCHMARK(BM_RidgeRefactorPerRound)
    ->Arg(2048)
    ->Arg(8192)
    ->Arg(32768)
    ->Unit(benchmark::kMillisecond);

void BM_RidgePrepareOnce(benchmark::State& state) {
  const size_t rows = static_cast<size_t>(state.range(0));
  Matrix x = RidgeBenchDesign(rows, 30);
  const Vector y = RidgeBenchLabels(rows);
  for (auto _ : state) {
    RidgePrepared prepared = RidgePrepared::Create(x);
    auto solver = prepared.SolverFor(1.0);
    for (size_t round = 0; round < kActiveIterRounds; ++round) {
      benchmark::DoNotOptimize(solver.value().Solve(y));
    }
  }
}
BENCHMARK(BM_RidgePrepareOnce)
    ->Arg(2048)
    ->Arg(8192)
    ->Arg(32768)
    ->Unit(benchmark::kMillisecond);

// One "new user follows an old user" delta per iteration, served either by
// one extractor carried across epochs (migrate clean intermediates, carry
// follow-reachable products by their Δs) or by a fresh extractor's epoch 0.
// Both modes apply the same delta stream, so they walk identical graph
// states.
void BM_DeltaFeatureVsFullRebuild(benchmark::State& state) {
  const bool full_rebuild = state.range(0) != 0;
  GeneratorConfig cfg = TinyPreset(9);
  cfg.shared_users = 60;
  auto pair = AlignedNetworkGenerator(cfg).Generate();
  if (!pair.ok()) {
    state.SkipWithError("generator failed");
    return;
  }
  std::vector<AnchorLink> train(pair.value().anchors().begin(),
                                pair.value().anchors().begin() + 6);
  CandidateLinkSet candidates;
  Rng rng(10);
  for (size_t k = 0; k < 500; ++k) {
    candidates.Add(static_cast<NodeId>(rng.UniformInt(cfg.shared_users)),
                   static_cast<NodeId>(rng.UniformInt(cfg.shared_users)));
  }
  FeatureExtractor delta_extractor(pair.value(), train);
  delta_extractor.Extract(candidates);  // epoch 0 outside the loop
  for (auto _ : state) {
    PairDelta delta;
    delta.first.edges.push_back(
        {RelationType::kFollow,
         static_cast<NodeId>(rng.UniformInt(cfg.shared_users)),
         static_cast<NodeId>(rng.UniformInt(cfg.shared_users))});
    if (!pair.value().ApplyDelta(delta).ok()) {
      state.SkipWithError("delta failed");
      return;
    }
    if (full_rebuild) {
      FeatureExtractor extractor(pair.value(), train);
      benchmark::DoNotOptimize(extractor.Extract(candidates));
    } else {
      delta_extractor.NoteDelta(delta);
      benchmark::DoNotOptimize(delta_extractor.Extract(candidates));
    }
  }
}
BENCHMARK(BM_DeltaFeatureVsFullRebuild)
    ->ArgNames({"full_rebuild"})
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

/// Random SPD Gram-style matrix for the dense solve record.
Matrix BenchSpd(size_t d, uint64_t seed) {
  Rng rng(seed);
  Matrix b(d, d);
  for (size_t i = 0; i < d; ++i) {
    for (size_t j = 0; j < d; ++j) b(i, j) = rng.Normal();
  }
  Matrix a = b.Gram();
  a.AddDiagonal(1.0);
  return a;
}

Matrix BenchPanel(size_t k, size_t d, uint64_t seed) {
  Rng rng(seed);
  Matrix panel(k, d);
  for (size_t t = 0; t < k; ++t) {
    for (size_t i = 0; i < d; ++i) panel(t, i) = rng.Normal(0.0, 0.05);
  }
  return panel;
}

/// A mutated twin of `a`: `changed` random distinct rows each gain one
/// extra entry. Returns the new matrix and the sorted changed-row list.
std::pair<SparseMatrix, std::vector<uint32_t>> MutateRows(
    const SparseMatrix& a, size_t changed, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint32_t> rows;
  std::vector<bool> used(a.rows(), false);
  while (rows.size() < changed) {
    const uint32_t r = static_cast<uint32_t>(rng.UniformInt(a.rows()));
    if (used[r]) continue;
    used[r] = true;
    rows.push_back(r);
  }
  std::sort(rows.begin(), rows.end());
  std::vector<Triplet> trips;
  trips.reserve(a.nnz() + changed);
  a.ForEach([&](size_t i, size_t j, double v) {
    trips.push_back({static_cast<uint32_t>(i), static_cast<uint32_t>(j), v});
  });
  for (uint32_t r : rows) {
    trips.push_back({r, static_cast<uint32_t>(rng.UniformInt(a.cols())),
                     rng.UniformDouble() + 0.1});
  }
  return {SparseMatrix::FromTriplets(a.rows(), a.cols(), std::move(trips)),
          rows};
}

// A delta touching `permille`/1000 of A's rows, folded into the cached
// product A·B either by the full SpGemm recompute or the way the feature
// engine carries a product forward: SpGemmDelta of the change, then
// AddDelta onto the old product. Args {n, permille, delta}; the delta = 0
// rows are the full-recompute baseline.
void BM_SpGemmDeltaVsFull(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t permille = static_cast<size_t>(state.range(1));
  const bool carry = state.range(2) != 0;
  SparseMatrix a = RandomSparse(n, n, 16.0 / n, 43);
  SparseMatrix b = RandomSparse(n, n, 16.0 / n, 44);
  SparseMatrix base = SpGemm(a, b);
  auto [a2, rows] =
      MutateRows(a, std::max<size_t>(1, n * permille / 1000), 45);
  const SparseMatrix da = RowsDelta(a2, a, rows);
  for (auto _ : state) {
    if (carry) {
      benchmark::DoNotOptimize(
          AddDelta(base, SpGemmDelta(a2, &da, b, nullptr)));
    } else {
      benchmark::DoNotOptimize(SpGemm(a2, b));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(rows.size()));
}
BENCHMARK(BM_SpGemmDeltaVsFull)
    ->ArgNames({"n", "permille", "delta"})
    ->Args({4096, 10, 0})
    ->Args({4096, 10, 1})
    ->Args({4096, 100, 0})
    ->Args({4096, 100, 1})
    ->Unit(benchmark::kMillisecond);

struct SelectionFixture {
  AlignedPair pair;
  CandidateLinkSet candidates;
  std::unique_ptr<IncidenceIndex> index;
  Vector scores;
  std::vector<Pin> pins;

  /// `links` random links scored in the offline workload's shape: half
  /// of them tie at one score, as the bias-only rows of a fold's X all
  /// score exactly w_bias, and the rest are uniform around that tie with
  /// 0.8% below the threshold 0, so 99.6% of the links are above it.
  explicit SelectionFixture(size_t users, size_t links) : pair(Nets(users)) {
    Rng rng(6);
    for (size_t k = 0; k < links; ++k) {
      candidates.Add(static_cast<NodeId>(rng.UniformInt(users)),
                     static_cast<NodeId>(rng.UniformInt(users)));
    }
    index = std::make_unique<IncidenceIndex>(pair, candidates);
    scores = Vector(candidates.size());
    constexpr double kBiasOnlyScore = 0.5;
    for (size_t k = 0; k < candidates.size(); ++k) {
      scores(k) = rng.Bernoulli(0.5) ? kBiasOnlyScore
                                     : rng.UniformDouble() - 0.008;
    }
    pins.assign(candidates.size(), Pin::kFree);
  }
  /// The complete bipartite K_{users,users}, link (u, v) scored
  /// f(u) + g(v) = u / users + v / users², increasing in both and
  /// distinct: every user ranks the other side alike.
  explicit SelectionFixture(size_t users) : pair(Nets(users)) {
    const double scale = static_cast<double>(users);
    for (size_t u = 0; u < users; ++u) {
      for (size_t v = 0; v < users; ++v) {
        candidates.Add(static_cast<NodeId>(u), static_cast<NodeId>(v));
      }
    }
    index = std::make_unique<IncidenceIndex>(pair, candidates);
    scores = Vector(candidates.size());
    for (size_t k = 0; k < candidates.size(); ++k) {
      const auto& [u, v] = candidates.link(k);
      scores(k) = u / scale + v / (scale * scale);
    }
    pins.assign(candidates.size(), Pin::kFree);
  }
  static AlignedPair Nets(size_t users) {
    HeteroNetwork a(NetworkSchema::SocialNetwork(), "a");
    a.AddNodes(NodeType::kUser, users);
    HeteroNetwork b(NetworkSchema::SocialNetwork(), "b");
    b.AddNodes(NodeType::kUser, users);
    return AlignedPair(std::move(a), std::move(b));
  }
};

void BM_GreedySelect(benchmark::State& state) {
  SelectionFixture f(500, static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(GreedySelect(f.scores, *f.index, f.pins, 0.0));
  }
}
BENCHMARK(BM_GreedySelect)->Arg(2000)->Arg(20000);

void BM_GreedySelectSeparable(benchmark::State& state) {
  SelectionFixture f(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(GreedySelect(f.scores, *f.index, f.pins, 0.0));
  }
}
BENCHMARK(BM_GreedySelectSeparable)->Arg(143);

/// One conflict query round (k = 5) against the greedy labels of `f`.
std::vector<size_t> ConflictQueryRound(const SelectionFixture& f,
                                       const Vector& y) {
  QueryContext ctx;
  ctx.scores = &f.scores;
  ctx.y = &y;
  ctx.index = f.index.get();
  ctx.pinned = &f.pins;
  Rng unused(0);
  return ConflictQueryStrategy().SelectQueries(ctx, 5, &unused);
}

void BM_ConflictQuery(benchmark::State& state) {
  SelectionFixture f(500, static_cast<size_t>(state.range(0)));
  const Vector y = GreedySelect(f.scores, *f.index, f.pins, 0.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ConflictQueryRound(f, y));
  }
}
BENCHMARK(BM_ConflictQuery)->Arg(2000)->Arg(20000);

void BM_HungarianSelect(benchmark::State& state) {
  SelectionFixture f(200, static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        HungarianSelect(f.scores, *f.index, f.pins, 0.0));
  }
}
BENCHMARK(BM_HungarianSelect)->Arg(2000)->Arg(8000);

void BM_FeatureExtraction(benchmark::State& state) {
  GeneratorConfig cfg = TinyPreset(9);
  cfg.shared_users = static_cast<size_t>(state.range(0));
  auto pair = AlignedNetworkGenerator(cfg).Generate();
  if (!pair.ok()) {
    state.SkipWithError("generator failed");
    return;
  }
  std::vector<AnchorLink> train(
      pair.value().anchors().begin(),
      pair.value().anchors().begin() +
          static_cast<ptrdiff_t>(cfg.shared_users / 10));
  CandidateLinkSet candidates;
  Rng rng(10);
  for (size_t k = 0; k < 2000; ++k) {
    candidates.Add(
        static_cast<NodeId>(rng.UniformInt(cfg.shared_users)),
        static_cast<NodeId>(rng.UniformInt(cfg.shared_users)));
  }
  for (auto _ : state) {
    FeatureExtractor extractor(pair.value(), train);
    benchmark::DoNotOptimize(extractor.Extract(candidates));
  }
}
BENCHMARK(BM_FeatureExtraction)->Arg(60)->Arg(200)->Unit(
    benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// --record=PATH mode: hand-timed speedup record (BENCH_kernels.json).
// ---------------------------------------------------------------------------

/// Milliseconds for one invocation of `fn`, minimum over `trials` timed
/// loops of `reps` calls each (min filters scheduler noise), after one
/// untimed call, so that a kernel timed first in a fresh process is not
/// charged for growing the allocator's heap (glibc serves large buffers
/// from fresh mmap pages until it has freed one that size; pinning its
/// mmap and trim thresholds closes the same gap).
template <typename Fn>
double TimeMs(size_t trials, size_t reps, Fn&& fn) {
  fn();
  double best = 1e300;
  for (size_t t = 0; t < trials; ++t) {
    Stopwatch watch;
    for (size_t r = 0; r < reps; ++r) fn();
    best = std::min(best, watch.ElapsedMillis() / static_cast<double>(reps));
  }
  return best;
}

struct ExtractionRecord {
  size_t fold_candidates = 0;
  double extract_ms = 0.0;
  size_t refresh_batches = 0;
  double refresh_p50_ms = 0.0;
  size_t gather_candidates = 0;
  double shard_gather_ms = 0.0;
  size_t churn_batches = 0;
  double churn_refresh_p50_ms = 0.0;
  double readd_refresh_ms = 0.0;
};

/// Each batch of `stream` applied, noted and refreshed in turn, as
/// FeaturePlane does per batch; returns every Refresh's wall time (epoch 0,
/// which computes every diagram, excluded) and leaves the last candidate
/// set in `candidates`.
std::vector<double> TimeRefreshes(DeltaStream& stream,
                                  FeatureExtractor& extractor,
                                  CandidateLinkSet* candidates) {
  (void)extractor.Refresh();
  std::vector<double> refresh_ms;
  for (const ServeDelta& batch : stream.batches) {
    (void)stream.initial.ApplyDelta(batch.graph);
    extractor.NoteDelta(batch.graph);
    for (const auto& [u1, u2] : batch.new_candidates) candidates->Add(u1, u2);
    Stopwatch watch;
    (void)extractor.Refresh();
    refresh_ms.push_back(watch.ElapsedMillis());
  }
  return refresh_ms;
}

double Median(std::vector<double> values) {
  std::nth_element(values.begin(), values.begin() + values.size() / 2,
                   values.end());
  return values[values.size() / 2];
}

// All serial, on the Foursquare–Twitter-like pair at seed 42: Extract of
// fold 0 under the offline workload's protocol (θ = 50, γ = 0.6, 10
// folds), the median Refresh over a stream carved like the ingest
// workloads' (128 batches, np-ratio 40) — each delta applied, noted and
// refreshed in turn, as FeaturePlane does per batch — and then
// ProximityTables::Gather from the last refresh's tables over one of two
// shards' slices of the stream's final candidates (about half), as a
// serve shard gathers its X every drain. Last, three passes over a stream
// carved as serve_churn carves it at seed 42 (64 waves, churn 0.3: 129
// batches), each with a fresh extractor: the median of all their
// refreshes, and the median Refresh of its final batch, which re-adds
// every withdrawn edge at once — the largest delta any workload
// refreshes.
ExtractionRecord RecordExtraction() {
  ExtractionRecord rec;
  auto pair = AlignedNetworkGenerator(FoursquareTwitterPreset(42)).Generate();
  ProtocolConfig config;
  config.np_ratio = 50.0;
  config.sample_ratio = 0.6;
  config.num_folds = 10;
  config.seed = 42 ^ 0xF01DULL;
  auto protocol = Protocol::Create(pair.value(), config);
  const FoldData fold = protocol.value().MakeFold(0);
  rec.fold_candidates = fold.size();
  rec.extract_ms = TimeMs(3, 1, [&] {
    (void)FeatureExtractor(pair.value(), fold.train_anchors)
        .Extract(fold.candidates);
  });

  DeltaStreamOptions carve;
  carve.num_batches = 128;
  carve.np_ratio = 40.0;
  auto stream = CarveDeltaStream(pair.value(), carve);
  FeatureExtractor extractor(stream.value().initial,
                             stream.value().train_anchors);
  CandidateLinkSet candidates = stream.value().initial_candidates;
  const std::vector<double> refresh_ms =
      TimeRefreshes(stream.value(), extractor, &candidates);
  rec.refresh_batches = refresh_ms.size();
  rec.refresh_p50_ms = Median(refresh_ms);

  ShardPartition halves;
  halves.num_shards = 2;
  const CandidateSlice slice =
      std::move(PartitionCandidates(candidates, halves).front());
  rec.gather_candidates = slice.links.size();
  const auto tables = extractor.tables();
  rec.shard_gather_ms =
      TimeMs(5, 20, [&] { (void)tables->Gather(slice.links); });

  DeltaStreamOptions churn;
  churn.num_batches = 64;
  churn.initial_fraction = 0.5;
  churn.np_ratio = 40.0;
  churn.churn_fraction = 0.3;
  churn.seed = 42 ^ 0xCA4EULL;
  constexpr size_t kChurnPasses = 3;
  std::vector<double> churn_ms, readd_ms;
  for (size_t pass = 0; pass < kChurnPasses; ++pass) {
    auto churn_stream = CarveDeltaStream(pair.value(), churn);
    FeatureExtractor churn_extractor(churn_stream.value().initial,
                                     churn_stream.value().train_anchors);
    CandidateLinkSet churn_candidates =
        churn_stream.value().initial_candidates;
    const std::vector<double> pass_ms = TimeRefreshes(
        churn_stream.value(), churn_extractor, &churn_candidates);
    churn_ms.insert(churn_ms.end(), pass_ms.begin(), pass_ms.end());
    readd_ms.push_back(pass_ms.back());
  }
  rec.churn_batches = churn_ms.size() / kChurnPasses;
  rec.churn_refresh_p50_ms = Median(churn_ms);
  rec.readd_refresh_ms = Median(readd_ms);
  return rec;
}

int RunRecord(const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }

  // The ridge kernels at the offline fold's shape: RidgePrepared::Create
  // (compress the rows, transpose them, form the Gram) and one Predict.
  const size_t prepare_rows = 20400;
  const Matrix design = RidgeBenchDesign(prepare_rows, 30);
  const double prepare_ms =
      TimeMs(5, 4, [&] { (void)RidgePrepared::Create(design); });
  auto design_solver = RidgePrepared::Create(design).SolverFor(1.0);
  const Vector weights =
      design_solver.value().Solve(RidgeBenchLabels(prepare_rows));
  const double predict_ms =
      TimeMs(5, 20, [&] { (void)design_solver.value().Predict(weights); });
  Matrix spd = BenchSpd(256, 48);
  auto factor = CholeskyFactor::Factor(spd);
  Matrix rhs = BenchPanel(128, 256, 49).Transpose();  // 256×128 RHS block
  const double solve_ms =
      TimeMs(5, 4, [&] { (void)factor.value().SolveMatrix(rhs); });
  // A serve shard's per-drain refit at its operating point (~4,800 rows
  // of d = 30) from the CSR X its gather built (compressed once, outside
  // the timer): one RidgePrepared::Create plus one factorisation of
  // I + cG.
  const auto shard_design = std::make_shared<const SparseMatrix>(
      CompressDense(RidgeBenchDesign(4800, 30)));
  const double refit_ms = TimeMs(5, 20, [&] {
    (void)RidgePrepared::Create(shard_design).SolverFor(1.0);
  });
  std::fprintf(stderr,
               "dense    prepare %zux30 %.3f ms, predict %.3f ms, solve "
               "256x128rhs %.3f ms, refit 4800x30 %.3f ms\n",
               prepare_rows, prepare_ms, predict_ms, solve_ms, refit_ms);

  // Label inference and the conflict query round at 500 users per side.
  const size_t selection_users = 500;
  const size_t selection_links = 20000;
  SelectionFixture selection(selection_users, selection_links);
  const Vector greedy_y =
      GreedySelect(selection.scores, *selection.index, selection.pins, 0.0);
  const double greedy_ms = TimeMs(5, 20, [&] {
    (void)GreedySelect(selection.scores, *selection.index, selection.pins,
                       0.0);
  });
  const double conflict_query_ms =
      TimeMs(5, 20, [&] { (void)ConflictQueryRound(selection, greedy_y); });
  // Separable scores over K_{143,143} (20,449 links).
  const size_t separable_users = 143;
  SelectionFixture separable(separable_users);
  const double greedy_separable_ms = TimeMs(5, 20, [&] {
    (void)GreedySelect(separable.scores, *separable.index, separable.pins,
                       0.0);
  });
  std::fprintf(stderr,
               "select   users=%zu links=%zu: greedy %.3f ms, conflict "
               "query %.3f ms; separable K%zu,%zu greedy %.3f ms\n",
               selection_users, selection_links, greedy_ms,
               conflict_query_ms, separable_users, separable_users,
               greedy_separable_ms);

  ExtractionRecord extraction = RecordExtraction();
  std::fprintf(stderr,
               "extract  fold 0 (%zu links): %.3f ms; refresh p50 over %zu "
               "batches: %.3f ms; shard gather (%zu links): %.3f ms; churn "
               "refresh p50 over %zu batches: %.3f ms, final re-add %.3f "
               "ms\n",
               extraction.fold_candidates, extraction.extract_ms,
               extraction.refresh_batches, extraction.refresh_p50_ms,
               extraction.gather_candidates, extraction.shard_gather_ms,
               extraction.churn_batches, extraction.churn_refresh_p50_ms,
               extraction.readd_refresh_ms);

  std::fprintf(out, "{\n  \"bench\": \"kernels\",\n");
  std::fprintf(out,
               "  \"dense\": {\"prepare_rows\": %zu, \"prepare_d\": 30, "
               "\"prepare_ms\": %.4f, \"predict_ms\": %.4f, "
               "\"solve_dim\": 256, \"solve_nrhs\": 128, \"solve_ms\": %.4f, "
               "\"refit_rows\": 4800, \"refit_ms\": %.4f},\n",
               prepare_rows, prepare_ms, predict_ms, solve_ms, refit_ms);
  std::fprintf(out,
               "  \"selection\": {\"users\": %zu, \"links\": %zu, "
               "\"greedy_ms\": %.4f, \"conflict_query_ms\": %.4f, "
               "\"separable_users\": %zu, \"greedy_separable_ms\": %.4f},\n",
               selection_users, selection_links, greedy_ms,
               conflict_query_ms, separable_users, greedy_separable_ms);
  std::fprintf(out,
               "  \"extraction\": {\"fold_candidates\": %zu, "
               "\"extract_ms\": %.4f, \"refresh_batches\": %zu, "
               "\"refresh_p50_ms\": %.4f, \"gather_candidates\": %zu, "
               "\"shard_gather_ms\": %.4f, \"churn_batches\": %zu, "
               "\"churn_refresh_p50_ms\": %.4f, "
               "\"readd_refresh_ms\": %.4f}\n}\n",
               extraction.fold_candidates, extraction.extract_ms,
               extraction.refresh_batches, extraction.refresh_p50_ms,
               extraction.gather_candidates, extraction.shard_gather_ms,
               extraction.churn_batches, extraction.churn_refresh_p50_ms,
               extraction.readd_refresh_ms);
  std::fclose(out);
  std::fprintf(stderr, "wrote %s\n", path.c_str());
  return 0;
}

}  // namespace
}  // namespace activeiter

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--record=", 9) == 0) {
      return activeiter::RunRecord(argv[i] + 9);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
