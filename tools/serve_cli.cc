// serve_cli — drives the sharded online alignment subsystem with a mixed
// query/ingest workload carved from a datagen preset.
//
//   serve_cli [--scale tiny|bench] [--seed N] [--batches N]
//             [--initial-frac F] [--np-ratio F] [--train-frac F]
//             [--churn-frac F]
//             [--query-threads N] [--queries-per-thread N] [--topk K]
//             [--threads N] [--shards LIST] [--shard-block N]
//             [--drain coalesce|per-delta] [--submit-limit N]
//             [--stats_json PATH] [--metrics_json PATH] [--trace_out PATH]
//
// For each shard count in `--shards` (comma-separated, e.g. "1,2,4") the
// same carved workload runs once: a ShardedIngestor coordinator drains the
// growth batches in the background (shared FeaturePlane refresh, then a
// parallel per-shard realign fan-out) while reader threads hammer the
// query surface. Queries go exclusively through the
// QueryBackend interface — this binary never touches AlignmentService or
// a raw ModelSnapshot, by design: it is the reference consumer of the
// narrowed serve API.
//
// `--stats_json` writes one JSON document with per-shard-count ingest
// throughput and query latency percentiles — the serve-layer perf record
// CI captures on every PR so the trajectory is visible.
//
// `--metrics_json` attaches the process-wide MetricsRegistry to the
// ingestors and dumps every counter/gauge/histogram (kernel counters
// included) after the last run. `--trace_out` attaches a Tracer and
// writes Chrome trace-event JSON covering every ingest stage — open it
// at chrome://tracing or https://ui.perfetto.dev.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "src/common/rng.h"
#include "src/common/stopwatch.h"
#include "src/common/string_util.h"
#include "src/common/table.h"
#include "src/common/thread_pool.h"
#include "src/datagen/aligned_generator.h"
#include "src/datagen/presets.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/serve/backend.h"
#include "src/serve/delta_stream.h"
#include "src/serve/shard.h"

namespace activeiter {
namespace {

struct Flags {
  uint64_t seed = 42;
  std::string scale = "tiny";
  size_t batches = 4;
  double initial_frac = 0.5;
  double np_ratio = 5.0;
  double train_frac = 0.3;
  double churn_frac = 0.0;  // > 0 interleaves shrink batches (see carver)
  size_t query_threads = 4;
  size_t queries_per_thread = 2000;
  size_t topk = 10;
  size_t threads = 0;  // kernel pool; 0 = serial
  std::vector<size_t> shards = {1};
  size_t shard_block = 1;
  std::string drain = "coalesce";
  size_t submit_limit = 0;  // 0 = unbounded queue (no backpressure)
  std::string stats_json;
  std::string metrics_json;
  std::string trace_out;
};

bool ParseShardList(const std::string& list, std::vector<size_t>* out) {
  out->clear();
  size_t pos = 0;
  while (pos < list.size()) {
    size_t comma = list.find(',', pos);
    if (comma == std::string::npos) comma = list.size();
    const size_t value =
        std::strtoull(list.substr(pos, comma - pos).c_str(), nullptr, 10);
    if (value == 0) return false;
    out->push_back(value);
    pos = comma + 1;
  }
  return !out->empty();
}

bool ParseFlags(int argc, char** argv, Flags* flags) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--seed" && (v = next())) {
      flags->seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--scale" && (v = next())) {
      flags->scale = v;
    } else if (arg == "--batches" && (v = next())) {
      flags->batches = std::strtoull(v, nullptr, 10);
    } else if (arg == "--initial-frac" && (v = next())) {
      flags->initial_frac = std::strtod(v, nullptr);
    } else if (arg == "--np-ratio" && (v = next())) {
      flags->np_ratio = std::strtod(v, nullptr);
    } else if (arg == "--train-frac" && (v = next())) {
      flags->train_frac = std::strtod(v, nullptr);
    } else if (arg == "--churn-frac" && (v = next())) {
      flags->churn_frac = std::strtod(v, nullptr);
    } else if (arg == "--query-threads" && (v = next())) {
      flags->query_threads = std::strtoull(v, nullptr, 10);
    } else if (arg == "--queries-per-thread" && (v = next())) {
      flags->queries_per_thread = std::strtoull(v, nullptr, 10);
    } else if (arg == "--topk" && (v = next())) {
      flags->topk = std::strtoull(v, nullptr, 10);
    } else if (arg == "--threads" && (v = next())) {
      flags->threads = std::strtoull(v, nullptr, 10);
    } else if (arg == "--shards" && (v = next())) {
      if (!ParseShardList(v, &flags->shards)) {
        std::cerr << "--shards wants a comma-separated list of counts\n";
        return false;
      }
    } else if (arg == "--shard-block" && (v = next())) {
      flags->shard_block = std::strtoull(v, nullptr, 10);
    } else if (arg == "--drain" && (v = next())) {
      flags->drain = v;
    } else if (arg == "--submit-limit" && (v = next())) {
      flags->submit_limit = std::strtoull(v, nullptr, 10);
    } else if (arg == "--stats_json" && (v = next())) {
      flags->stats_json = v;
    } else if (arg == "--metrics_json" && (v = next())) {
      flags->metrics_json = v;
    } else if (arg == "--trace_out" && (v = next())) {
      flags->trace_out = v;
    } else {
      std::cerr << "unknown or incomplete flag: " << arg << "\n";
      return false;
    }
  }
  if (flags->drain != "coalesce" && flags->drain != "per-delta") {
    std::cerr << "--drain wants coalesce or per-delta\n";
    return false;
  }
  if (flags->topk == 0) {
    std::cerr << "--topk wants k >= 1\n";
    return false;
  }
  return true;
}

uint64_t PairKey(NodeId u1, NodeId u2) {
  return (static_cast<uint64_t>(u1) << 32) | u2;
}

struct RunResult {
  size_t shard_count = 0;
  double ingest_seconds = 0.0;
  size_t streamed_candidates = 0;
  size_t candidates_served = 0;
  uint64_t queries = 0;
  uint64_t epoch_regressions = 0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  uint64_t final_epoch = 0;
  size_t matched = 0;
  size_t correct = 0;
  size_t total_anchors = 0;
  IngestStats stats;
  bool ok = false;
};

double Percentile(std::vector<double>* sorted_in_place, double p) {
  if (sorted_in_place->empty()) return 0.0;
  std::sort(sorted_in_place->begin(), sorted_in_place->end());
  const size_t idx = static_cast<size_t>(
      p * static_cast<double>(sorted_in_place->size() - 1));
  return (*sorted_in_place)[idx];
}

/// One full workload run at a fixed shard count. Queries go through the
/// QueryBackend surface only.
RunResult RunOnce(const Flags& flags, size_t shard_count, ThreadPool* pool,
                  ObsSinks obs) {
  RunResult result;
  result.shard_count = shard_count;

  GeneratorConfig cfg = flags.scale == "bench"
                            ? FoursquareTwitterPreset(flags.seed)
                            : TinyPreset(flags.seed);
  auto pair = AlignedNetworkGenerator(cfg).Generate();
  if (!pair.ok()) {
    std::cerr << "generation failed: " << pair.status() << "\n";
    return result;
  }
  const size_t users_first = pair.value().first().NodeCount(NodeType::kUser);

  DeltaStreamOptions carve;
  carve.num_batches = flags.batches;
  carve.initial_fraction = flags.initial_frac;
  carve.np_ratio = flags.np_ratio;
  carve.train_fraction = flags.train_frac;
  carve.churn_fraction = flags.churn_frac;
  carve.seed = flags.seed ^ 0x5EEDULL;
  auto stream = CarveDeltaStream(pair.value(), carve);
  if (!stream.ok()) {
    std::cerr << "carve failed: " << stream.status() << "\n";
    return result;
  }
  DeltaStream& s = stream.value();
  result.streamed_candidates = s.StreamedCandidateCount();

  // Ground truth for the final quality read-out, recorded up front — the
  // query surface deliberately has no way to reach the live graph.
  std::vector<std::pair<NodeId, NodeId>> all_candidates =
      s.initial_candidates.links();
  for (const ServeDelta& b : s.batches) {
    all_candidates.insert(all_candidates.end(), b.new_candidates.begin(),
                          b.new_candidates.end());
  }
  std::unordered_set<uint64_t> anchor_keys;
  for (const AnchorLink& a : s.initial.anchors()) {
    anchor_keys.insert(PairKey(a.u1, a.u2));
  }
  for (const ServeDelta& b : s.batches) {
    for (const AnchorLink& a : b.graph.new_anchors) {
      anchor_keys.insert(PairKey(a.u1, a.u2));
    }
  }
  result.total_anchors = anchor_keys.size();

  IngestorOptions options;
  options.serve.features.pool = pool;
  options.drain = flags.drain == "per-delta" ? DrainPolicy::kPerDelta
                                             : DrainPolicy::kCoalesce;
  options.partition.num_shards = shard_count;
  options.partition.block_size = flags.shard_block;
  options.submit_queue_limit = flags.submit_limit;
  options.obs = obs;

  ShardedIngestor ingestor(std::move(s.initial), s.train_anchors,
                           std::move(s.initial_candidates), options);
  Stopwatch start_watch;
  Status started = ingestor.Start();
  if (!started.ok()) {
    std::cerr << "start failed: " << started << "\n";
    return result;
  }
  const QueryBackend& backend = ingestor.backend();
  std::cout << "[shards " << shard_count << "] epoch 0 published in "
            << StrFormat("%.3f s", start_watch.ElapsedSeconds()) << "\n";

  // Readers hammer the query surface while the shards swap epochs under
  // them; each thread records its query latencies for the percentile
  // read-out and tallies epoch monotonicity violations.
  std::atomic<bool> querying{true};
  std::atomic<uint64_t> total_queries{0};
  std::atomic<uint64_t> epoch_regressions{0};
  std::vector<std::vector<double>> latencies(flags.query_threads);
  std::vector<std::thread> readers;
  readers.reserve(flags.query_threads);
  for (size_t t = 0; t < flags.query_threads; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(flags.seed ^ (0xD00D + t));
      std::vector<double>& lat = latencies[t];
      lat.reserve(flags.queries_per_thread);
      uint64_t last_epoch = 0;
      uint64_t done = 0;
      while (querying.load(std::memory_order_relaxed) &&
             done < flags.queries_per_thread) {
        const uint64_t epoch = backend.epoch();
        if (epoch == QueryBackend::kNoEpoch) continue;
        if (epoch < last_epoch) {
          epoch_regressions.fetch_add(1, std::memory_order_relaxed);
        }
        last_epoch = epoch;
        NodeId u1 = static_cast<NodeId>(rng.UniformInt(users_first));
        const auto begin = std::chrono::steady_clock::now();
        auto topk_result = backend.TopKFor(u1, flags.topk);
        const auto end = std::chrono::steady_clock::now();
        lat.push_back(
            std::chrono::duration<double, std::micro>(end - begin).count());
        if (topk_result.ok() && !topk_result.value().empty()) {
          const ScoredLink& best = topk_result.value().front();
          (void)backend.ScorePair(best.u1, best.u2);
        }
        ++done;
      }
      total_queries.fetch_add(done, std::memory_order_relaxed);
    });
  }

  Stopwatch ingest_watch;
  ingestor.StartBackground();
  for (ServeDelta& batch : s.batches) {
    ingestor.Submit(std::move(batch));
    // Churned streams flush per batch: a fully-coalesced backlog would
    // cancel every removal against the trailing re-add batch and the
    // shrink path would never run.
    if (flags.churn_frac > 0.0) ingestor.Flush();
  }
  ingestor.Flush();
  result.ingest_seconds = ingest_watch.ElapsedSeconds();
  ingestor.Stop();
  querying.store(false);
  for (auto& r : readers) r.join();
  Status background = ingestor.background_status();
  if (!background.ok()) {
    std::cerr << "ingest failed: " << background << "\n";
    return result;
  }

  std::vector<double> all_latencies;
  for (auto& lat : latencies) {
    all_latencies.insert(all_latencies.end(), lat.begin(), lat.end());
  }
  result.queries = total_queries.load();
  result.epoch_regressions = epoch_regressions.load();
  result.p99_us = Percentile(&all_latencies, 0.99);  // sorts in place
  result.p50_us = all_latencies.empty()
                      ? 0.0
                      : all_latencies[all_latencies.size() / 2];
  result.final_epoch = backend.epoch();

  // Final-epoch quality through the query surface: of the links the model
  // matched, how many are ground-truth anchors (precision), and how many
  // anchors were recovered (recall).
  for (const auto& [u1, u2] : all_candidates) {
    auto scored = backend.ScorePair(u1, u2);
    if (!scored.ok()) continue;
    ++result.candidates_served;
    if (!scored.value().matched) continue;
    ++result.matched;
    if (anchor_keys.count(PairKey(u1, u2)) != 0) ++result.correct;
  }
  result.stats = ingestor.stats();
  result.ok = true;
  return result;
}

void PrintRun(const RunResult& r) {
  TextTable table;
  table.SetHeader({"metric", "value"});
  auto u64 = [](uint64_t v) {
    return StrFormat("%llu", (unsigned long long)v);
  };
  table.AddRow({"shards", u64(r.shard_count)});
  table.AddRow({"final epoch (all shards)", u64(r.final_epoch)});
  table.AddRow({"candidates served", u64(r.candidates_served)});
  table.AddRow({"rows appended", u64(r.stats.rows_appended)});
  table.AddRow({"rows removed", u64(r.stats.rows_removed)});
  table.AddRow({"rows replaced", u64(r.stats.rows_replaced)});
  table.AddRow({"full factorisations", u64(r.stats.full_factorisations)});
  table.AddRow({"epochs published", u64(r.stats.epochs_published)});
  table.AddRow({"coalesced batches", u64(r.stats.coalesced_batches)});
  table.AddRow({"pipeline stalls", u64(r.stats.pipeline_stalls)});
  table.AddRow({"max in-flight planes", u64(r.stats.max_inflight_planes)});
  table.AddRow({"ingest wall-clock", StrFormat("%.3f s", r.ingest_seconds)});
  table.AddRow(
      {"ingest rows/s",
       StrFormat("%.0f", r.ingest_seconds > 0.0
                             ? double(r.stats.rows_appended) /
                                   r.ingest_seconds
                             : 0.0)});
  table.AddRow({"queries served", u64(r.queries)});
  table.AddRow({"query p50", StrFormat("%.1f us", r.p50_us)});
  table.AddRow({"query p99", StrFormat("%.1f us", r.p99_us)});
  table.AddRow({"epoch regressions observed", u64(r.epoch_regressions)});
  table.AddRow({"matched links", u64(r.matched)});
  table.AddRow({"matched precision",
                r.matched == 0
                    ? std::string("n/a")
                    : StrFormat("%.3f", double(r.correct) /
                                            double(r.matched))});
  table.AddRow({"anchor recall",
                r.total_anchors == 0
                    ? std::string("n/a")
                    : StrFormat("%.3f", double(r.correct) /
                                            double(r.total_anchors))});
  table.Print(std::cout);
}

bool WriteStatsJson(const Flags& flags,
                    const std::vector<RunResult>& runs) {
  std::ofstream out(flags.stats_json);
  if (!out) {
    std::cerr << "cannot open " << flags.stats_json << "\n";
    return false;
  }
  out << "{\n"
      << "  \"bench\": \"serve\",\n"
      << "  \"scale\": \"" << flags.scale << "\",\n"
      << "  \"seed\": " << flags.seed << ",\n"
      << "  \"batches\": " << flags.batches << ",\n"
      << "  \"drain\": \"" << flags.drain << "\",\n"
      << "  \"query_threads\": " << flags.query_threads << ",\n"
      << "  \"runs\": [\n";
  for (size_t i = 0; i < runs.size(); ++i) {
    const RunResult& r = runs[i];
    const double rows_per_sec =
        r.ingest_seconds > 0.0
            ? double(r.stats.rows_appended) / r.ingest_seconds
            : 0.0;
    out << "    {\"shards\": " << r.shard_count
        << ", \"ingest_seconds\": "
        << StrFormat("%.6f", r.ingest_seconds)
        << ", \"streamed_candidates\": " << r.streamed_candidates
        << ", \"rows_per_sec\": " << StrFormat("%.1f", rows_per_sec)
        << ", \"rows_removed\": " << r.stats.rows_removed
        << ", \"epochs_published\": " << r.stats.epochs_published
        << ", \"coalesced_batches\": " << r.stats.coalesced_batches
        << ", \"full_factorisations\": " << r.stats.full_factorisations
        << ", \"pipeline_stalls\": " << r.stats.pipeline_stalls
        << ", \"max_inflight_planes\": " << r.stats.max_inflight_planes
        << ", \"queries\": " << r.queries
        << ", \"query_p50_us\": " << StrFormat("%.1f", r.p50_us)
        << ", \"query_p99_us\": " << StrFormat("%.1f", r.p99_us)
        << ", \"epoch_regressions\": " << r.epoch_regressions
        << ", \"matched_precision\": "
        << (r.matched == 0
                ? std::string("null")
                : StrFormat("%.4f", double(r.correct) / double(r.matched)))
        << ", \"anchor_recall\": "
        << (r.total_anchors == 0
                ? std::string("null")
                : StrFormat("%.4f",
                            double(r.correct) / double(r.total_anchors)))
        << "}" << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return static_cast<bool>(out);
}

int Run(const Flags& flags) {
  std::unique_ptr<ThreadPool> pool;
  if (flags.threads > 1) pool = std::make_unique<ThreadPool>(flags.threads);

  // Observability sinks, attached only when a dump path asks for them —
  // detached runs stay on the zero-cost path. The metrics sink is the
  // process-wide registry so the kernel counters (Cholesky, SpGEMM,
  // diagram reuse) land in the same document as the serve metrics.
  ObsSinks obs;
  std::unique_ptr<Tracer> tracer;
  if (!flags.metrics_json.empty()) obs.metrics = &MetricsRegistry::Default();
  if (!flags.trace_out.empty()) {
    tracer = std::make_unique<Tracer>();
    obs.tracer = tracer.get();
  }

  std::vector<RunResult> runs;
  for (size_t shard_count : flags.shards) {
    RunResult result = RunOnce(flags, shard_count, pool.get(), obs);
    if (!result.ok) return 1;
    PrintRun(result);
    runs.push_back(std::move(result));
  }

  if (obs.metrics != nullptr) {
    std::ofstream out(flags.metrics_json);
    if (!out) {
      std::cerr << "cannot open " << flags.metrics_json << "\n";
      return 1;
    }
    obs.metrics->WriteJson(out);
    std::cout << "metrics dumped to " << flags.metrics_json << "\n";
  }
  if (tracer != nullptr) {
    std::ofstream out(flags.trace_out);
    if (!out) {
      std::cerr << "cannot open " << flags.trace_out << "\n";
      return 1;
    }
    tracer->WriteJson(out);
    std::cout << "trace dumped to " << flags.trace_out
              << " (open at chrome://tracing or ui.perfetto.dev)\n";
  }

  if (runs.size() > 1) {
    TextTable sweep;
    sweep.SetHeader({"shards", "ingest s", "rows/s", "p50 us", "p99 us"});
    for (const RunResult& r : runs) {
      sweep.AddRow(
          {StrFormat("%zu", r.shard_count),
           StrFormat("%.3f", r.ingest_seconds),
           StrFormat("%.0f", r.ingest_seconds > 0.0
                                 ? double(r.stats.rows_appended) /
                                       r.ingest_seconds
                                 : 0.0),
           StrFormat("%.1f", r.p50_us), StrFormat("%.1f", r.p99_us)});
    }
    std::cout << "\nshard sweep:\n";
    sweep.Print(std::cout);
  }

  if (!flags.stats_json.empty() && !WriteStatsJson(flags, runs)) return 1;

  for (const RunResult& r : runs) {
    if (r.epoch_regressions != 0) return 1;
  }
  return 0;
}

}  // namespace
}  // namespace activeiter

int main(int argc, char** argv) {
  activeiter::Flags flags;
  if (!activeiter::ParseFlags(argc, argv, &flags)) return 2;
  return activeiter::Run(flags);
}
