// bench_e2e: the repository's end-to-end benchmark. Every performance
// claim is measured with this binary; BENCHMARK.json (repo root) lists its
// workloads, metrics and regression bounds, and run.py drives it.
//
//   bench_e2e --workload=NAME --seed=N [--seconds=S] [--trace=DIR]
//             [--json=PATH]
//   bench_e2e                  all four workloads, each in its own child
//                              process (so setup_s and peak_rss_mb stay
//                              per workload), seed 42, one round each
//
// Every metric is printed as `name value unit`; the exit code is non-zero
// when any output check fails. All inputs — pair, carve, fold protocol and
// query stream — derive from --seed; the library only ever receives the
// generated inputs. A run is ⌊S / nominal round time⌋ rounds (at least
// one; fewer only on a host so slow that the run would overrun S by a
// tenth, see RoundSchedule in pass.h), each on fresh inputs from (seed,
// round), so both sides of a comparison run the same rounds on the same
// inputs. Load comes from one generator thread (this one).
//
// Workloads, and why each exists:
//   offline_activeiter  The paper's experiment (bench preset, θ = 50,
//                       γ = 0.6, folds 0–2 of 10, ActiveIter-100 with the
//                       conflict strategy, batch 5). ~90% of a fold is
//                       align, ~8% metadiagram extraction. No ingest layer
//                       runs and nothing reads while a fold trains, so its
//                       rows_per_s, fresh_* and f1 are the control for
//                       serve-side changes.
//   ingest_backlog      The write path at saturation: bench preset,
//                       np-ratio 40, 128 growth batches all submitted at
//                       t = 0, 2 shards, DrainPolicy::kPerDelta, no reads.
//                       The balance between plane (prepare) and shard
//                       absorb, and their overlap, set its throughput. 2
//                       shards, not 4: 4 executors plus the coordinator
//                       would be 5 busy threads on 4 cores, and much
//                       noisier.
//   serve_steady        What a serving user feels: 128 batches paced every
//                       100 ms (no drain queues, even at the end of the
//                       stream where drains cost most; see kPace in
//                       ingest.h), library default drain policy and
//                       pipeline depth, open-loop reads at 40k TopKFor/s
//                       with Zipf(1.0) users. Freshness below saturation and read latency
//                       under concurrent ingest; the read path runs under
//                       load only here and in serve_churn.
//   serve_churn         serve_steady on a grow → shrink → grow stream (64
//                       waves, churn 0.3, 129 batches): removals take the
//                       rank-k downdate, remove_coalesce and compaction
//                       paths, so a growth-path gain that costs shrinking
//                       shows up here.
// Every workload reports every end-to-end metric; pass.h defines each one
// per workload. offline_activeiter and ingest_backlog time their query_*
// on the finished model, after their timed work.
//
// Which end-to-end metric each per-layer metric of BENCHMARK.json should
// move, on which workload:
//   graph.busy_ms          incidence index (offline rows_per_s, fresh_*);
//                          plane apply (ingest_backlog rows_per_s, serve
//                          fresh_*)
//   metadiagram.busy_ms    FeatureExtractor::Extract (offline rows_per_s,
//                          fresh_*); plane refresh (ingest_backlog
//                          rows_per_s, serve fresh_*)
//   learn.busy_ms          AlignmentProblem::Prepare (offline); row
//                          absorbs, rank-k updates and downdates
//                          (ingest_backlog rows_per_s, serve fresh_*;
//                          downdates in serve_churn only)
//   align.busy_ms          ActiveIterModel::Run, with the active query
//                          strategy that runs nowhere else (offline
//                          rows_per_s, fresh_*); IterAligner realign in
//                          every shard (ingest_backlog rows_per_s, serve
//                          fresh_*)
//   serve.publish_busy_ms  snapshot publish (every fresh_*,
//                          ingest_backlog rows_per_s)
//   serve.router.*,        TopKFor through the router and on the owning
//   serve.service.*        shard, settled replay (query_* of every
//                          workload; under concurrent ingest in serve_*)
//   linalg.*, ingest.*,    counts behind learn, metadiagram and the
//   serve.coalesced_*,     pipeline (ingest_backlog rows_per_s, serve
//   serve.backlog_max      fresh_*); linalg.factorisations is 1 per
//                          offline fold
// Metrics that only some workloads have are printed but not listed there:
// metadiagram.extract_s, learn.prepare_s, align.active_run_s,
// align.inner_iterations and align.ms_per_inner_iteration (offline
// rows_per_s); the replay's serve.feature_plane.*, serve.shard.* and
// pipeline.* (ingest_backlog rows_per_s, serve fresh_*); gen.late_us.p99
// and serve.query_empty_frac of the live reads (serve fresh_*, query_*).
//
// rows_per_s counts streamed candidate rows only (appended rows, not
// replaced ones), so it cannot be compared with BENCH_serve.json's
// rows_per_sec_*, which also count replaced rows. The replay's per-drain
// numbers (serve.feature_plane.*, serve.shard.*) are serial costs of each
// layer, not pipelined wall time; pipeline.efficiency relates the two.
//
// --trace=DIR gives the untraced pass half of S, then repeats the
// workload on the same rounds with a Tracer and MetricsRegistry attached
// through IngestorOptions::obs plus benchmark-side spans around every
// layer call, writes DIR/<workload>.trace.json (Chrome trace format), and
// reports the per-layer metrics and trace.overhead_frac (traced headline
// over untraced, minus one). End-to-end metrics always come from the
// untraced pass.

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_e2e/ingest.h"
#include "bench_e2e/offline.h"
#include "bench_e2e/pass.h"
#include "bench_e2e/report.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace activeiter {
namespace e2e {
namespace {

struct Workload {
  const char* name;
  // A round's wall time on a 4-vCPU virtual machine, rounded up: a run of
  // S seconds is ⌊S / this⌋ rounds, at least one. The serve rounds are
  // paced (128 or 129 batches × 100 ms).
  double nominal_round_s;
  bool offline;
  IngestSpec ingest;
};

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> workloads = {
      {"offline_activeiter", 3.3, true, {}},
      {"ingest_backlog", 5.5, false,
       IngestSpec{128, 0.0, DrainPolicy::kPerDelta, /*backlog=*/true}},
      {"serve_steady", 13.5, false,
       IngestSpec{128, 0.0, IngestorOptions{}.drain, false}},
      {"serve_churn", 13.5, false,
       IngestSpec{64, 0.3, IngestorOptions{}.drain, false}},
  };
  return workloads;
}

/// A host slower than nominal may overrun --seconds by this share before
/// a pass stops adding rounds.
constexpr double kDeadlineSlack = 1.1;

struct Args {
  std::string workload;
  uint64_t seed = 42;
  double seconds = 0.0;
  std::string trace_dir;
  std::string json_path;
};

int Usage(const std::string& error) {
  std::cerr << "bench_e2e: " << error << "\n"
            << "usage: bench_e2e [--workload=NAME] [--seed=N] [--seconds=S] "
               "[--trace=DIR] [--json=PATH]\nworkloads:";
  for (const Workload& w : Workloads()) std::cerr << " " << w.name;
  std::cerr << "\n";
  return 2;
}

/// Parses `--flag=value` and `--flag value`. Returns false on bad input.
bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      *error = "missing value for " + arg;
      return false;
    }
    char* end = nullptr;
    if (arg == "--workload") {
      args->workload = value;
    } else if (arg == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') {
        *error = "bad --seed " + value;
        return false;
      }
    } else if (arg == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || args->seconds < 0.0) {
        *error = "bad --seconds " + value;
        return false;
      }
    } else if (arg == "--trace") {
      args->trace_dir = value;
    } else if (arg == "--json") {
      args->json_path = value;
    } else {
      *error = "unknown flag " + arg;
      return false;
    }
  }
  return true;
}

Pass RunPass(const Workload& w, const Args& args, RoundSchedule schedule,
             ObsSinks obs, Report& report) {
  if (w.offline) {
    return RunOfflinePass(args.seed, schedule, obs.tracer, report);
  }
  // The traced pass follows an untraced one in the same process, which
  // already warmed it.
  const bool warm_up = !w.ingest.backlog && !obs.attached();
  return RunIngestPass(w.ingest, args.seed, schedule, warm_up, obs, report);
}

/// How much slower the traced pass was on the workload's headline metric.
double OverheadFrac(const Workload& w, const Pass& untraced,
                    const Pass& traced) {
  if (w.offline) {
    return Ratio(traced.WorkSeconds(), untraced.WorkSeconds()) - 1.0;
  }
  if (w.ingest.backlog) {
    return Ratio(untraced.RowsPerSecond(), traced.RowsPerSecond()) - 1.0;
  }
  return Ratio(traced.Fresh(0.5), untraced.Fresh(0.5)) - 1.0;
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int RunWorkload(const Workload& w, const Args& args) {
  // With --trace, each of the two passes gets half of the seconds.
  const bool traced_too = !args.trace_dir.empty();
  const double seconds = args.seconds / (traced_too ? 2 : 1);
  const size_t rounds = std::max<size_t>(
      1, static_cast<size_t>(seconds / w.nominal_round_s));
  Report report;
  const Pass untraced =
      RunPass(w, args, RoundSchedule(rounds, kDeadlineSlack * seconds),
              ObsSinks{}, report);
  ReportEndToEnd(untraced, report);
  report.Set("peak_rss_mb", PeakRssMb(), "MB");
  uint64_t attempted = untraced.Attempted();
  uint64_t failed = untraced.Failed();

  if (traced_too) {
    MetricsRegistry registry;
    Tracer tracer;
    ObsSinks obs;
    obs.metrics = &registry;
    obs.tracer = &tracer;
    const Pass traced = RunPass(
        w, args, RoundSchedule(untraced.rounds, kDeadlineSlack * seconds),
        obs, report);
    ReportLayers(traced, OverheadFrac(w, untraced, traced), report);
    attempted += traced.Attempted();
    failed += traced.Failed();
    const std::string path =
        args.trace_dir + "/" + w.name + ".trace.json";
    std::ofstream out(path);
    tracer.WriteJson(out);
    out.close();
    report.Check(static_cast<bool>(out), "trace: wrote " + path);
  }
  report.CountOps(attempted, failed);

  std::cout << "# bench_e2e workload=" << w.name << " seed=" << args.seed
            << " rounds=" << untraced.rounds << "\n";
  report.Print(std::cout);
  std::cout.flush();
  if (!args.json_path.empty() &&
      !report.WriteJson(args.json_path, w.name, args.seed)) {
    return 1;
  }
  return report.correct() ? 0 : 1;
}

/// No --workload: every workload in its own child process, in order.
int RunAll(const Args& args) {
  int worst = 0;
  for (const Workload& w : Workloads()) {
    std::vector<std::string> child_args = {
        "bench_e2e", std::string("--workload=") + w.name,
        "--seed=" + std::to_string(args.seed),
        "--seconds=" + std::to_string(args.seconds)};
    if (!args.trace_dir.empty()) {
      child_args.push_back("--trace=" + args.trace_dir);
    }
    std::vector<char*> argv;
    for (std::string& a : child_args) argv.push_back(a.data());
    argv.push_back(nullptr);
    std::cout.flush();
    const pid_t pid = fork();
    if (pid < 0) {
      std::perror("fork");
      return 1;
    }
    if (pid == 0) {
      execv("/proc/self/exe", argv.data());
      std::perror("execv");
      _exit(127);
    }
    int status = 0;
    if (waitpid(pid, &status, 0) < 0) {
      std::perror("waitpid");
      return 1;
    }
    const int code = WIFEXITED(status) ? WEXITSTATUS(status) : 1;
    if (code != 0) {
      std::cerr << "bench_e2e: workload " << w.name << " exited " << code
                << "\n";
    }
    worst = std::max(worst, code);
  }
  return worst;
}

}  // namespace
}  // namespace e2e
}  // namespace activeiter

int main(int argc, char** argv) {
  using namespace activeiter::e2e;
  Args args;
  std::string error;
  if (!ParseArgs(argc, argv, &args, &error)) return Usage(error);
  if (args.workload.empty()) {
    if (!args.json_path.empty()) return Usage("--json needs --workload");
    return RunAll(args);
  }
  for (const Workload& w : Workloads()) {
    if (args.workload == w.name) return RunWorkload(w, args);
  }
  return Usage("unknown workload " + args.workload);
}
