// One pass of a workload — all of its rounds, traced or not — in the
// vocabulary every workload shares, and the map from that vocabulary to
// the metric names of BENCHMARK.json.
//
// Every workload reports every end-to-end metric of BENCHMARK.json (runs
// are compared metric × workload), so each shared name is defined per
// workload here. None of them adds work to a workload while it is timed:
//
//   rows_per_s    candidate rows through the model ÷ the wall time they
//                 took, per round, median over rounds: Σ|H| ÷ Σ fold time
//                 (offline, where |H| is fixed, so this is 3|H| ÷
//                 activeiter_s); streamed candidate rows ÷ first Submit →
//                 Flush returns (ingest workloads; paced, so the serve
//                 workloads read their offered load unless ingest falls
//                 behind).
//   fresh_*_ms    input handed to the library → result readable through
//                 the router, per batch (ingest: 128 or 129 a round) or
//                 fold (offline: 3 a round). The quantile of every sample
//                 of the run, all rounds pooled: a serve run's two rounds
//                 give 256 or 258 samples, so p90 has 25 above it. (Of
//                 two rounds, a nearest-rank median is the lower round's
//                 value; pooled values spread less between runs.)
//   query_*_us    duration of each TopKFor call through the router, cut
//                 into 10,000-call windows: the open-loop reads under
//                 concurrent ingest (serve_*); the settled replay of a
//                 Zipf user draw on the finished model, after the timed
//                 work (offline, backlog). query_p99_us is the median over
//                 windows of each window's p99. query_p50_us is the tenth
//                 percentile over windows of each window's median — the
//                 call's cost in the run's quiet windows (see
//                 WindowedLatency::QuietP50).
//   f1            F1 of the inferred labels against the planted anchors:
//                 fold test links minus queried ones (offline), every
//                 served candidate except the labeled bridge L+ (ingest).
//
// Per-layer busy times come from benchmark-side spans around the offline
// calls and from the library's own ingest.* stage spans in the traced live
// run; they are per-round means, so runs of different length compare.

#ifndef ACTIVEITER_BENCH_E2E_PASS_H_
#define ACTIVEITER_BENCH_E2E_PASS_H_

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench_e2e/load.h"
#include "bench_e2e/report.h"
#include "src/serve/ingestor.h"

namespace activeiter {
namespace e2e {

/// Set-up runs this many times per round on the same inputs (the last one
/// is kept); setup_s is the median over every repetition of the run.
constexpr size_t kSetupReps = 5;

/// Which rounds a pass runs: `rounds` of them, so two runs with the same
/// seed and --seconds read the same inputs and f1 repeats exactly — unless
/// the host is so slow that the next round, taking as long as the last,
/// would end after `deadline_s`; then fewer, and always at least one.
class RoundSchedule {
 public:
  RoundSchedule(size_t rounds, double deadline_s)
      : rounds_(rounds),
        deadline_s_(deadline_s),
        start_(Clock::now()),
        round_start_(start_) {}

  /// Called before each round, with the number of rounds finished so far.
  bool More(size_t done) {
    const Clock::time_point now = Clock::now();
    const double last_round_s = Seconds(now - round_start_);
    round_start_ = now;
    if (done >= rounds_) return false;
    return done == 0 || Seconds(now - start_) + last_round_s <= deadline_s_;
  }

 private:
  size_t rounds_;
  double deadline_s_;
  Clock::time_point start_;
  Clock::time_point round_start_;
};

struct Pass {
  size_t rounds = 0;
  std::vector<double> setup_s;  // one per set-up repetition
  // Per round: candidate rows through the model and the wall time they
  // took. rows_per_s and activeiter_s are medians over rounds, so a round
  // the host slowed down is outvoted, not averaged in.
  std::vector<double> rows;
  std::vector<double> work_s;
  std::vector<double> fresh_ms;  // every round's samples, pooled
  std::vector<double> f1;
  bool live_reads = false;  // open-loop reads ran during the live run
  ReadStats reads;
  std::vector<double> late_us;
  SettledReads settled;
  uint64_t writes_attempted = 0;  // submitted batches / folds
  uint64_t writes_failed = 0;     // rejected or never visible

  // Layer busy time (ms) and counts, summed over rounds.
  double graph_ms = 0.0;
  double metadiagram_ms = 0.0;
  double learn_ms = 0.0;
  double align_ms = 0.0;
  double publish_ms = 0.0;
  uint64_t factorisations = 0;
  uint64_t rank_one_updates = 0;
  uint64_t rows_spliced = 0;
  uint64_t rows_recomputed = 0;
  IngestStats ingest;  // live-run stats summed over rounds
  uint64_t backlog_max = 0;

  // Workload-specific metrics: end-to-end ones and per-layer ones.
  std::map<std::string, std::pair<double, std::string>> e2e_extras;
  std::map<std::string, std::pair<double, std::string>> layer_extras;

  double PerRound(double total) const {
    return Ratio(total, static_cast<double>(rounds));
  }
  void AddRound(double round_rows, double round_work_s,
                const std::vector<double>& round_fresh_ms) {
    rows.push_back(round_rows);
    work_s.push_back(round_work_s);
    fresh_ms.insert(fresh_ms.end(), round_fresh_ms.begin(),
                    round_fresh_ms.end());
  }
  double WorkSeconds() const { return Quantile(work_s, 0.5); }
  double RowsPerSecond() const {
    std::vector<double> per_round;
    for (size_t r = 0; r < rows.size(); ++r) {
      per_round.push_back(Ratio(rows[r], work_s[r]));
    }
    return Quantile(per_round, 0.5);
  }
  double Fresh(double q) const { return Quantile(fresh_ms, q); }
  const WindowedLatency& Query() const {
    return live_reads ? reads.query : settled.router;
  }
  uint64_t Attempted() const {
    return reads.attempted + settled.attempted + writes_attempted;
  }
  uint64_t Failed() const {
    return reads.failed + settled.failed + writes_failed;
  }
};

/// The end-to-end metrics of an untraced pass.
inline void ReportEndToEnd(const Pass& p, Report& report) {
  report.Set("setup_s", Quantile(p.setup_s, 0.5), "s");
  report.Set("rows_per_s", p.RowsPerSecond(), "rows/s");
  report.Set("fresh_p50_ms", p.Fresh(0.5), "ms");
  report.Set("fresh_p90_ms", p.Fresh(0.9), "ms");
  report.Set("fresh.samples", static_cast<double>(p.fresh_ms.size()),
             "count");
  report.Set("query_p50_us", p.Query().QuietP50(), "us");
  report.Set("query.p50_us.median_window", p.Query().P50(), "us");
  report.Set("query_p99_us", p.Query().P99(), "us");
  report.Set("query.samples", static_cast<double>(p.Query().count()),
             "count");
  report.Set("query.windows", static_cast<double>(p.Query().windows()),
             "count");
  report.Set("f1", Ratio(Sum(p.f1), static_cast<double>(p.f1.size())),
             "ratio");
  report.Set("rounds", static_cast<double>(p.rounds), "count");
  report.Set("failed_frac",
             Ratio(static_cast<double>(p.Failed()),
                   static_cast<double>(p.Attempted())),
             "ratio");
  for (const auto& [name, metric] : p.e2e_extras) {
    report.Set(name, metric.first, metric.second);
  }
}

/// The per-layer metrics of a traced pass. `overhead_frac` compares the
/// traced pass's headline number with the untraced pass's.
inline void ReportLayers(const Pass& p, double overhead_frac,
                         Report& report) {
  report.Set("graph.busy_ms", p.PerRound(p.graph_ms), "ms");
  report.Set("metadiagram.busy_ms", p.PerRound(p.metadiagram_ms), "ms");
  report.Set("learn.busy_ms", p.PerRound(p.learn_ms), "ms");
  report.Set("align.busy_ms", p.PerRound(p.align_ms), "ms");
  report.Set("serve.publish_busy_ms", p.PerRound(p.publish_ms), "ms");
  report.Set("serve.router.topk_us.p50", p.settled.router.P50(), "us");
  report.Set("serve.router.topk_us.p99", p.settled.router.P99(), "us");
  report.Set("serve.service.topk_us.p50", p.settled.service.P50(), "us");
  report.Set("serve.service.topk_us.p99", p.settled.service.P99(), "us");
  report.Set("serve.router.overhead_us.p50",
             p.settled.router.P50() - p.settled.service.P50(), "us");
  report.Set("gen.late_us.p99", Quantile(p.late_us, 0.99), "us");
  report.Set("serve.query_empty_frac",
             Ratio(static_cast<double>(p.reads.empty),
                   static_cast<double>(p.reads.attempted)),
             "ratio");
  const auto count = [&](const char* name, uint64_t total) {
    report.Set(name, p.PerRound(static_cast<double>(total)), "count");
  };
  count("linalg.factorisations", p.factorisations);
  count("linalg.rank_one_updates", p.rank_one_updates);
  report.Set("linalg.spgemm.splice_frac",
             Ratio(static_cast<double>(p.rows_spliced),
                   static_cast<double>(p.rows_spliced + p.rows_recomputed)),
             "ratio");
  count("ingest.rows_replaced", p.ingest.rows_replaced);
  count("ingest.rows_removed", p.ingest.rows_removed);
  count("ingest.pipeline_stalls", p.ingest.pipeline_stalls);
  count("ingest.epochs_published", p.ingest.epochs_published);
  count("serve.coalesced_batches", p.ingest.coalesced_batches);
  report.Set("ingest.max_inflight_planes",
             static_cast<double>(p.ingest.max_inflight_planes), "count");
  report.Set("serve.backlog_max", static_cast<double>(p.backlog_max),
             "count");
  report.Set("trace.overhead_frac", overhead_frac, "ratio");
  for (const auto& [name, metric] : p.layer_extras) {
    report.Set(name, metric.first, metric.second);
  }
}

}  // namespace e2e
}  // namespace activeiter

#endif  // ACTIVEITER_BENCH_E2E_PASS_H_
