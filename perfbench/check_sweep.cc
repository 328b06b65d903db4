// check-sweep: a serial closed loop of check::RunOne cells over the whole
// protocol grid — what a user waits on in a seed sweep or nightly CI.
//
// The sweep is every protocol of check::KnownProtocols() at n=4 under the
// crash,partition nemesis with 40 txns, once inline and once in block mode
// (50-txn size cut), for cell seeds 0..R-1 — the fixed seed range the
// repository's sweeps use. R is sized from --seconds so the sweep takes
// about that long; --seed fixes the order the cells run in. Cell cost is
// heavy-tailed across cell seeds (a hotstuff cell takes 0.1-3 s, an ahl
// cell 0.3-4 s), so drawing cell seeds from --seed made the same code
// measure 20-30% apart between runs; a fixed range keeps the work equal.
//
// The workload is HMAC-, event-loop- and consensus-heavy and never touches
// arch, the MVCC gate or the durable log.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "check/harness.h"
#include "spans.h"

namespace perfbench {
namespace {

namespace check = pbc::check;

constexpr size_t kClusterSize = 4;
constexpr const char* kNemesis = "crash,partition";
constexpr size_t kTxns = 40;
constexpr size_t kSmokeTxns = 10;
constexpr size_t kBlockMaxTxns = 50;
// Mean wall seconds of one cell seed's 14 cells on a 4-core 2.1 GHz Xeon.
constexpr double kRoundSeconds = 6.0;
// Set-up warm-up seed; outside every measured seed range.
constexpr uint64_t kWarmupSeed = 4242;
// The cheap consensus protocols, 25-45 ms a cell, which the set-up warms.
const char* const kCheapProtocols[] = {"pbft", "raft", "tendermint", "paxos"};

// Hotstuff's idle pacemaker makes its cells ~50x the others; cells_per_s
// carries its cost, and the per-cell means leave it out so that they
// follow the other six protocols.
bool InCellMeans(const check::RunConfig& cfg) {
  return cfg.protocol != "hotstuff";
}

check::RunConfig Cell(const std::string& protocol, bool block, uint64_t seed,
                      bool smoke) {
  check::RunConfig cfg;
  cfg.protocol = protocol;
  cfg.cluster_size = kClusterSize;
  cfg.nemesis = kNemesis;
  cfg.seed = seed;
  cfg.txns = smoke ? kSmokeTxns : kTxns;
  cfg.block_max_txns = block ? kBlockMaxTxns : 0;
  return cfg;
}

// The measured sweep in run order: a --seed-driven Fisher-Yates shuffle.
std::vector<check::RunConfig> Sweep(const Options& opt) {
  // A traced run sweeps twice, untraced and traced.
  double sweep_s = opt.PassSeconds(2);
  size_t rounds = opt.units > 0
                      ? opt.units
                      : static_cast<size_t>(std::max(
                            1.0, std::round(sweep_s / kRoundSeconds)));
  std::vector<check::RunConfig> cells;
  for (uint64_t s = 0; s < rounds; ++s) {
    for (bool block : {false, true}) {
      for (const std::string& p : check::KnownProtocols()) {
        cells.push_back(Cell(p, block, s, opt.smoke));
      }
    }
  }
  for (size_t i = cells.size(); i > 1; --i) {
    std::swap(cells[i - 1], cells[MixSeed(opt.seed, i) % i]);
  }
  return cells;
}

struct CellOutcome {
  double ms = 0;
  bool live = false;
  size_t violations = 0;
  uint64_t committed = 0;
  uint64_t events = 0;
  uint64_t checker_calls = 0;

  bool SameRun(const CellOutcome& o) const {
    return live == o.live && violations == o.violations &&
           committed == o.committed && events == o.events &&
           checker_calls == o.checker_calls;
  }
};

CellOutcome RunCell(const check::RunConfig& cfg) {
  Clock::time_point t0 = Clock::now();
  check::RunResult res;
  {
    ScopedSpan span("check::RunOne", "check", cfg.seed);
    res = check::RunOne(cfg);
  }
  CellOutcome c;
  c.ms = SecondsSince(t0) * 1e3;
  c.live = res.live;
  c.violations = res.violations.size();
  c.committed = res.committed;
  c.events = res.sim_events;
  for (const auto& [name, n] : res.coverage) c.checker_calls += n;
  return c;
}

struct SweepPass {
  std::vector<CellOutcome> cells;
  double seconds = 0;
};

// Cells are spans of layer "check" inside one "sweep" span of layer
// "bench" when the tracer is on.
SweepPass RunSweep(const std::vector<check::RunConfig>& sweep) {
  SweepPass pass;
  Clock::time_point t0 = Clock::now();
  {
    ScopedSpan span("sweep", "bench", 0);
    for (const check::RunConfig& cfg : sweep) {
      pass.cells.push_back(RunCell(cfg));
    }
  }
  pass.seconds = SecondsSince(t0);
  return pass;
}

}  // namespace

Result RunCheckSweep(const Options& opt) {
  Result r;
  std::vector<check::RunConfig> sweep;
  // Set-up: the cell list plus warm-up cells of the cheap consensus
  // protocols in both modes, on a fixed seed no measured cell uses.
  double setup_s = MedianSetupSeconds([&] { sweep.clear(); }, [&] {
    sweep = Sweep(opt);
    for (bool block : {false, true}) {
      for (const char* p : kCheapProtocols) {
        check::RunOne(Cell(p, block, kWarmupSeed, opt.smoke));
      }
    }
  });

  SweepPass pass = RunSweep(sweep);
  const size_t n = sweep.size();
  uint64_t committed = 0, events = 0, calls = 0, live = 0, violations = 0;
  std::vector<double> cell_ms, block_ms, block_all_ms;
  uint64_t digest = kFnvBasis;
  for (size_t i = 0; i < n; ++i) {
    const CellOutcome& c = pass.cells[i];
    bool block = sweep[i].block_max_txns > 0;
    if (block) block_all_ms.push_back(c.ms);
    if (InCellMeans(sweep[i])) {
      cell_ms.push_back(c.ms);
      if (block) block_ms.push_back(c.ms);
    }
    committed += c.committed;
    events += c.events;
    calls += c.checker_calls;
    live += c.live ? 1 : 0;
    violations += c.violations;
    if (!c.live || c.violations > 0) ++r.failed;
    digest = Fnv1a(digest, sweep[i].ReproLine());
    if (c.violations > 0) {
      // A safety violation is a wrong output. Re-running the cell tells a
      // reader whether the repro line reproduces it.
      bool replays = RunCell(sweep[i]).SameRun(c);
      r.Fail(std::string("invariant violation (") +
             (replays ? "replays" : "does not replay") +
             "): " + sweep[i].ReproLine());
    }
  }
  r.attempted = n;
  r.counts = {{"cells", n},           {"live", live},
              {"committed", committed}, {"sim_events", events},
              {"checker_calls", calls}, {"violations", violations},
              {"input_digest", digest}};

  if (!opt.trace) {
    r.Set("setup_s", setup_s);
    r.Set("cells_per_s", static_cast<double>(n) / pass.seconds);
    // Means, not medians: the cells fall into cost groups (25-45 ms per
    // consensus protocol, ~0.3-0.4 s sharded), so a median sits where two
    // groups meet and jumps between them with host noise.
    r.Set("cell_ms_mean", Mean(cell_ms));
    r.Set("txn_per_s", static_cast<double>(committed) / pass.seconds);
    // Block-mode cells are the unit that commits through the block
    // pipeline here. There are far fewer than 1000, so the tail is the
    // highest quantile with ten cells beyond it: the maximum is a single
    // 2.5 s hotstuff cell and swung ±15% between identical runs.
    r.Set("block_ms_mean", Mean(block_ms));
    r.Set("block_ms_p99", TailQuantile(block_all_ms));
    return r;
  }

  GlobalTracer().set_enabled(true);
  SweepPass traced = RunSweep(sweep);
  GlobalTracer().set_enabled(false);
  std::map<std::string, std::vector<double>> by_protocol;
  double traced_cell_ms = 0;
  for (size_t i = 0; i < n; ++i) {
    const CellOutcome& c = traced.cells[i];
    if (!c.SameRun(pass.cells[i])) {
      r.Fail("traced replay diverged: " + sweep[i].ReproLine());
    }
    by_protocol[sweep[i].protocol].push_back(c.ms);
    traced_cell_ms += c.ms;
  }
  for (const auto& [protocol, ms] : by_protocol) {
    r.Set("check.cell_ms_p50." + protocol, Median(ms));
  }
  double per_cell = 1.0 / static_cast<double>(n);
  r.Set("check.checker_calls_per_cell", static_cast<double>(calls) * per_cell);
  r.Set("check.not_live_frac", static_cast<double>(n - live) * per_cell);
  r.Set("check.violations", static_cast<double>(violations));
  r.Set("sim.events_per_cell", static_cast<double>(events) * per_cell);
  r.Set("sim.events_per_txn",
        committed == 0 ? 0.0
                       : static_cast<double>(events) /
                             static_cast<double>(committed));
  r.Set("sim.us_per_event",
        events == 0 ? 0.0 : traced_cell_ms * 1e3 / static_cast<double>(events));
  ReportTrace(pass.seconds, n, &r);
  Calibrate(&r);
  return r;
}

}  // namespace perfbench
