// The read side of the load generator: an open-loop TopKFor stream with
// Zipf-skewed users, driven tick by tick from the single generator thread.
//
// Open loop: tick t is due at start + t·kTick whether or not earlier calls
// were slow; a late generator catches up by issuing the missed ticks back
// to back. Each call is timed on its own (the read path has no queue — it
// reads an immutable snapshot in the caller's thread), and how late the
// generator woke is recorded separately, so scheduling noise of the
// generator never masquerades as query latency.
//
// The settled replay reads a finished model closed-loop: after the live
// run of every ingest workload, and after each offline fold. Neither
// ingest_backlog nor offline_activeiter reads while it works.

#ifndef ACTIVEITER_BENCH_E2E_LOAD_H_
#define ACTIVEITER_BENCH_E2E_LOAD_H_

#include <memory>
#include <thread>
#include <vector>

#include "bench_e2e/report.h"
#include "src/common/rng.h"
#include "src/common/zipf.h"
#include "src/serve/backend.h"

namespace activeiter {
namespace e2e {

constexpr std::chrono::microseconds kTick{500};
constexpr size_t kQueriesPerTick = 20;  // 40k TopKFor calls per second
constexpr size_t kTopK = 10;
constexpr double kZipfExponent = 1.0;
/// Calls of one settled replay: the first users a live read stream issued,
/// or a fresh Zipf draw where no live reads run.
constexpr size_t kSettledCalls = size_t{1} << 17;

/// Tick clock of the generator thread.
///
/// The generator sleeps to each tick; it does not spin. A spinning
/// generator keeps a fourth core busy beside the coordinator and the two
/// shard executors, so on a 4-vCPU virtual machine any other busy process
/// took its core from the pipeline: with two such processes running,
/// serve_steady's fresh_p90_ms rose by 40–70% with a spinning generator
/// and not at all with a sleeping one. Sleeping costs read latency instead
/// (calls right after a wake-up run on colder caches: query_p99_us about
/// 2.0 µs against 1.4 µs), which the query metrics report as it is.
class Ticker {
 public:
  Ticker() : start_(Clock::now()) {}

  Clock::time_point start() const { return start_; }
  Clock::time_point Due(size_t tick) const { return start_ + tick * kTick; }

  /// Sleeps until tick `tick` is due; returns the wake time and records
  /// how late it was.
  Clock::time_point WaitFor(size_t tick) {
    const Clock::time_point due = Due(tick);
    std::this_thread::sleep_until(due);
    const Clock::time_point now = Clock::now();
    late_us_.push_back(Micros(now - due));
    return now;
  }

  const std::vector<double>& late_us() const { return late_us_; }

 private:
  Clock::time_point start_;
  std::vector<double> late_us_;
};

/// Everything the read stream observed.
struct ReadStats {
  WindowedLatency query;      // duration of each TopKFor call
  std::vector<NodeId> users;  // the first kSettledCalls issued users
  uint64_t attempted = 0;
  uint64_t failed = 0;  // non-OK results
  uint64_t empty = 0;   // OK but no candidate links for the user

  void Merge(const ReadStats& other) {
    query.Merge(other.query);
    attempted += other.attempted;
    failed += other.failed;
    empty += other.empty;
  }
};

/// Issues one tick's worth of TopKFor calls against `backend`. Users are
/// ranks of a Zipf(visible users, 1.0) draw: ids are assigned in reveal
/// order, so older users get more traffic.
class ReadLoad {
 public:
  ReadLoad(const QueryBackend* backend, uint64_t seed)
      : backend_(backend), rng_(seed) {}

  /// Rebuilds the sampler only when the visible population changed.
  void SetVisibleUsers(size_t n) {
    if (n == 0 || (sampler_ != nullptr && sampler_->n() == n)) return;
    sampler_ = std::make_unique<ZipfSampler>(n, kZipfExponent);
  }

  void IssueTick() {
    for (size_t q = 0; q < kQueriesPerTick; ++q) {
      const NodeId u = static_cast<NodeId>(sampler_->Sample(&rng_));
      const Clock::time_point begin = Clock::now();
      auto top = backend_->TopKFor(u, kTopK);
      const Clock::time_point end = Clock::now();
      stats_.query.Record(end - begin);
      if (stats_.users.size() < kSettledCalls) stats_.users.push_back(u);
      ++stats_.attempted;
      if (!top.ok()) {
        ++stats_.failed;
      } else if (top.value().empty()) {
        ++stats_.empty;
      }
    }
  }

  const ReadStats& stats() const { return stats_; }

 private:
  const QueryBackend* backend_;
  Rng rng_;
  std::unique_ptr<ZipfSampler> sampler_;
  ReadStats stats_;
};

/// `count` users drawn from Zipf(`visible_users`, 1.0): the read stream of
/// a workload that runs no reads while it ingests or trains.
inline std::vector<NodeId> ZipfUsers(size_t visible_users, size_t count,
                                     uint64_t seed) {
  const ZipfSampler sampler(visible_users, kZipfExponent);
  Rng rng(seed);
  std::vector<NodeId> users(count);
  for (NodeId& u : users) u = static_cast<NodeId>(sampler.Sample(&rng));
  return users;
}

/// Per-call durations of the router and of the owning shard's service,
/// replayed closed-loop on settled snapshots with a user sequence. Calls
/// alternate router/service per user so drift hits both sides evenly.
struct SettledReads {
  WindowedLatency router;
  WindowedLatency service;
  uint64_t attempted = 0;   // router calls
  uint64_t failed = 0;      // non-OK router answers
  uint64_t mismatches = 0;  // router answer != owning service's answer

  void Merge(const SettledReads& other) {
    router.Merge(other.router);
    service.Merge(other.service);
    attempted += other.attempted;
    failed += other.failed;
    mismatches += other.mismatches;
  }
};

template <typename OwnerFn>
SettledReads ReplaySettled(const QueryBackend& router, OwnerFn&& owner,
                           const std::vector<NodeId>& users) {
  SettledReads out;
  for (NodeId u : users) {
    Clock::time_point begin = Clock::now();
    auto routed = router.TopKFor(u, kTopK);
    Clock::time_point end = Clock::now();
    out.router.Record(end - begin);
    ++out.attempted;
    if (!routed.ok()) ++out.failed;
    const QueryBackend& service = owner(u);
    begin = Clock::now();
    auto direct = service.TopKFor(u, kTopK);
    end = Clock::now();
    out.service.Record(end - begin);
    // Under the first-endpoint partition only the owner holds u's links,
    // so the merged answer must be exactly the owner's.
    bool same = routed.ok() && direct.ok() &&
                routed.value().size() == direct.value().size();
    for (size_t i = 0; same && i < routed.value().size(); ++i) {
      same = routed.value()[i].link_id == direct.value()[i].link_id &&
             routed.value()[i].score == direct.value()[i].score;
    }
    if (!same) ++out.mismatches;
  }
  return out;
}

}  // namespace e2e
}  // namespace activeiter

#endif  // ACTIVEITER_BENCH_E2E_LOAD_H_
