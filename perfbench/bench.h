// Shared vocabulary of the pbc_perfbench program: run options, the result
// every workload returns, wall-clock helpers and order statistics.
//
// The benchmark reads the wall clock on purpose (it measures elapsed time);
// no clock value ever reaches library state, so simulated runs stay pure
// functions of their seeds.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "txn/transaction.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// \brief Command-line options shared by every workload.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  /// Wall seconds of measured work: episode loops stop at the first
  /// episode past it, and it sizes check-sweep's fixed sweep.
  double seconds = 10;
  /// Per-layer run: adds the untraced/traced/calibration passes.
  bool trace = false;
  /// When > 0, run exactly this many units (cells or episodes) instead of
  /// a time budget, so counts are comparable between runs.
  size_t units = 0;
  /// Shrinks every unit (smaller episodes, fewer txns) for self-tests.
  bool smoke = false;
  /// Where a traced run writes its spans at exit (empty = nowhere).
  std::string spans_out;

  /// Measured seconds of one pass: a traced run splits --seconds between
  /// its `passes` passes, so it takes about as long as an untraced run.
  double PassSeconds(int passes) const {
    return trace ? seconds / passes : seconds;
  }
};

/// \brief What a workload run returns to main().
struct Result {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Metric values by name; main() adds units from its metric table and
  /// reports 0 for a name a workload does not set.
  std::map<std::string, double> metrics;
  /// Deterministic counts (events, messages, commits, ...) plus an input
  /// digest; the self-test compares them between runs.
  std::map<std::string, uint64_t> counts;
  /// Human-readable reasons for correct == false.
  std::vector<std::string> errors;

  void Set(const std::string& name, double value) { metrics[name] = value; }
  void Fail(const std::string& why) {
    correct = false;
    if (errors.size() < 20) errors.push_back(why);
  }
};

/// Arithmetic mean of `v`; 0 for empty input.
double Mean(const std::vector<double>& v);

/// Linear-interpolated quantile (q in [0, 1]) of `v`; 0 for empty input.
double Quantile(std::vector<double> v, double q);
inline double Median(std::vector<double> v) {
  return Quantile(std::move(v), 0.5);
}

/// p99 of `v`; with fewer than 1000 samples, the highest quantile that
/// still has ten samples beyond it.
double TailQuantile(std::vector<double> v);

/// Mixes a run seed with a stream index into an independent 64-bit seed.
uint64_t MixSeed(uint64_t seed, uint64_t stream);

/// FNV-1a offset basis: the start value of every digest.
constexpr uint64_t kFnvBasis = 1469598103934665603ULL;

/// FNV-1a over `bytes`, folded into `h` (input digests for self-tests).
uint64_t Fnv1a(uint64_t h, const std::string& bytes);

/// Folds every op key of `txns` into `h` (input digests for self-tests).
uint64_t DigestKeys(uint64_t h,
                    const std::vector<pbc::txn::Transaction>& txns);

/// Runs `reset` (untimed: it frees what the previous set-up built) and
/// then `setup` (timed) seven times, and returns the median wall seconds of
/// `setup`; the last call's product is the one the workload keeps.
template <typename R, typename S>
double MedianSetupSeconds(R&& reset, S&& setup) {
  std::vector<double> times;
  for (int i = 0; i < 7; ++i) {
    reset();
    Clock::time_point t0 = Clock::now();
    setup();
    times.push_back(SecondsSince(t0));
  }
  return Median(times);
}

/// Runs `fn` as a job on a worker of `pool` and returns its result. The
/// measuring thread is then itself a pool worker, so a ThreadPool::Wait inside
/// `fn` helps run the fan-out instead of sleeping until another thread
/// wakes it: cross-thread wake-ups on a shared host made 2-worker timings
/// swing by a third between identical runs.
template <typename F>
auto OnPool(pbc::ThreadPool* pool, F&& fn) {
  return pool->SubmitWithFuture(std::forward<F>(fn)).get();
}

/// \brief The episodes one pass ran and the wall seconds they measured.
template <typename Episode>
struct Pass {
  std::vector<Episode> episodes;
  double seconds = 0;
};

/// Runs `episode(set, i)` for i = 0, 1, ... on `pool` (see OnPool), cycling
/// through `sets` input sets, until `budget_s` measured seconds have
/// accumulated, or exactly `fixed` episodes when `fixed` > 0. An episode
/// returns a struct whose `seconds` is the wall time it measured.
template <typename F>
auto RunPass(pbc::ThreadPool* pool, double budget_s, size_t fixed,
             size_t sets, F&& episode) {
  using Episode = decltype(episode(size_t{0}, uint64_t{0}));
  return OnPool(pool, [&] {
    Pass<Episode> pass;
    for (size_t i = 0; fixed > 0 ? i < fixed : pass.seconds < budget_s; ++i) {
      pass.episodes.push_back(episode(i % sets, i));
      pass.seconds += pass.episodes.back().seconds;
    }
    return pass;
  });
}

/// One block of blind writes setting every ZipfianKv key ("key<i>" for i
/// below `cold_keys`, "hot<i>" below `hot_keys`) to 0, so a peer's key
/// space exists before measurement and per-block cost is stationary.
std::vector<pbc::txn::Transaction> PreloadBlock(uint64_t cold_keys,
                                                uint64_t hot_keys);

/// \brief Calibration of the public crypto calls plus the host kernel.
void Calibrate(Result* out);

Result RunCheckSweep(const Options& opt);
Result RunPbftPipeline(const Options& opt);
Result RunLedgerContended(const Options& opt);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
