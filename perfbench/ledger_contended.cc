// ledger-contended: plain Fabric XovArchitecture::ProcessBlock over
// pre-generated hot-key blocks (128 txns of 4 increments each, half of
// the keys drawn from 16 hot keys, so most txns abort at the MVCC gate).
//
// No simulator, consensus or HMAC runs: the workload isolates the
// read/validate/abort side of the MVCC gate and the KvStore, and is the
// bypass control for every sim, consensus and crypto-HMAC change.
//
// One unit is an episode: a copy of the preloaded peer processes the 64
// blocks of one input set. The expected ledger and state of each input
// set come from a SerialValidator replay made once, untimed. The traced
// run times the same XOV calls with one span per block, then re-composes
// XOV from public calls — txn::Execute over a SnapshotReader,
// block::GateAndCommit, ledger::Block::Make and Chain::Append — to split
// a block's time into phases.
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "arch/xov.h"
#include "bench.h"
#include "block/validator.h"
#include "common/thread_pool.h"
#include "ledger/block.h"
#include "ledger/chain.h"
#include "spans.h"
#include "workload/workload.h"

namespace perfbench {
namespace {

using namespace pbc;

constexpr size_t kBlockTxns = 128;
constexpr int kOpsPerTxn = 4;
constexpr uint64_t kHotKeys = 16;
constexpr double kHotProbability = 0.5;
constexpr uint64_t kColdKeys = 10000;
constexpr size_t kBlocksPerEpisode = 64;
constexpr size_t kSmokeBlocksPerEpisode = 4;
constexpr size_t kInputSets = 4;
// The measuring thread is the pool's only worker (see OnPool): a second
// worker put cross-thread hand-offs on every block and made the block
// latency tail swing 3x between identical runs.
constexpr size_t kPoolWorkers = 1;

using BlockTxns = std::vector<txn::Transaction>;

// What a correct peer holds after one input set: the SerialValidator's
// effective txn ids per non-empty ledger block, and the final state.
struct Expected {
  std::vector<std::vector<txn::TxnId>> ledger;
  store::KvStore state;
  uint64_t aborted = 0;
};

struct World {
  std::vector<std::vector<BlockTxns>> inputs;  // [input set][block]
  std::unique_ptr<ThreadPool> pool;
  std::unique_ptr<arch::XovArchitecture> peer;
  size_t preload_blocks = 0;
  std::vector<Expected> expected;
};

World Build(uint64_t seed, bool smoke) {
  World w;
  size_t blocks = smoke ? kSmokeBlocksPerEpisode : kBlocksPerEpisode;
  workload::ZipfianKv::Options zo;
  zo.cold_keys = kColdKeys;
  zo.hot_keys = kHotKeys;
  zo.hot_probability = kHotProbability;
  zo.ops_per_txn = kOpsPerTxn;
  for (size_t i = 0; i < kInputSets; ++i) {
    workload::ZipfianKv gen(zo, MixSeed(seed, i));
    std::vector<BlockTxns> set;
    for (size_t b = 0; b < blocks; ++b) set.push_back(gen.Block(kBlockTxns));
    w.inputs.push_back(std::move(set));
  }
  w.pool = std::make_unique<ThreadPool>(kPoolWorkers);
  w.peer = std::make_unique<arch::XovArchitecture>(w.pool.get());
  w.peer->ProcessBlock(PreloadBlock(kColdKeys, kHotKeys));
  w.preload_blocks = w.peer->chain().height();
  return w;
}

Expected SerialReplay(const World& w, const std::vector<BlockTxns>& blocks) {
  Expected e;
  e.state = w.peer->store();
  block::SerialValidator serial(&e.state);
  for (const BlockTxns& b : blocks) {
    std::vector<bool> valid = serial.ProcessBlock(b);
    std::vector<txn::TxnId> ids;
    for (size_t i = 0; i < b.size(); ++i) {
      if (valid[i]) {
        ids.push_back(b[i].id);
      } else {
        ++e.aborted;
      }
    }
    if (!ids.empty()) e.ledger.push_back(std::move(ids));
  }
  return e;
}

struct Episode {
  double seconds = 0;
  std::vector<double> block_ms;
  uint64_t txns = 0;
};

// Compares a peer's ledger (past the preload) and state with `want`;
// returns the number of txns in blocks that differ.
uint64_t Mismatches(const Expected& want, size_t preload_blocks,
                    const ledger::Chain& chain, const store::KvStore& state,
                    const std::vector<BlockTxns>& blocks, Result* r) {
  uint64_t bad = 0;
  if (chain.height() != preload_blocks + want.ledger.size()) {
    r->Fail("ledger length differs from the serial replay");
    for (const BlockTxns& b : blocks) bad += b.size();
    return bad;
  }
  for (size_t i = 0; i < want.ledger.size(); ++i) {
    const ledger::Block& got = chain.at(preload_blocks + i);
    bool same = got.txns.size() == want.ledger[i].size();
    for (size_t j = 0; same && j < got.txns.size(); ++j) {
      same = got.txns[j].id == want.ledger[i][j];
    }
    if (!same) {
      r->Fail("ledger block " + std::to_string(i) +
              " differs from the serial replay");
      bad += kBlockTxns;
    }
  }
  if (!state.SameLatestState(want.state)) {
    r->Fail("final state differs from the serial replay");
    if (bad == 0) bad = kBlockTxns;
  }
  return bad;
}

// The measured path: XovArchitecture::ProcessBlock per block, each block
// one span of layer "arch" when the tracer is on.
Episode RunXov(const World& w, size_t set, uint64_t id, Result* r) {
  Episode ep;
  const std::vector<BlockTxns>& blocks = w.inputs[set];
  Clock::time_point t0 = Clock::now();
  std::optional<ScopedSpan> span;
  span.emplace("episode", "bench", id);
  arch::XovArchitecture peer(*w.peer);
  for (const BlockTxns& b : blocks) {
    Clock::time_point b0 = Clock::now();
    {
      ScopedSpan s("XovArchitecture::ProcessBlock", "arch", id);
      peer.ProcessBlock(b);
    }
    ep.block_ms.push_back(SecondsSince(b0) * 1e3);
    ep.txns += b.size();
  }
  span.reset();
  ep.seconds = SecondsSince(t0);
  r->failed += Mismatches(w.expected[set], w.preload_blocks, peer.chain(),
                          peer.store(), blocks, r);
  return ep;
}

// The phase split: the same XOV block, re-composed from public calls so
// each phase is its own span. Endorsement fans out on the pool exactly as
// XovBase::EndorseAll does. It is not XOV's own code, so only the phase
// metrics come from it, never the trace overhead or the layer self times.
Episode RunComposed(const World& w, size_t set, uint64_t id, Result* r) {
  Episode ep;
  const std::vector<BlockTxns>& blocks = w.inputs[set];
  Clock::time_point t0 = Clock::now();
  std::optional<ScopedSpan> span;
  span.emplace("episode", "bench", id);
  store::KvStore state = w.peer->store();
  ledger::Chain chain = w.peer->chain();
  for (const BlockTxns& b : blocks) {
    std::vector<block::Endorsed> endorsed(b.size());
    {
      ScopedSpan s("txn::Execute", "txn", id);
      store::Version snapshot = state.last_committed();
      const store::KvStore* cstate = &state;
      w.pool->ParallelFor(b.size(), [&](size_t i) {
        endorsed[i].txn = &b[i];
        endorsed[i].result =
            txn::Execute(b[i], txn::SnapshotReader(cstate, snapshot));
      });
    }
    std::vector<size_t> order(b.size());
    std::iota(order.begin(), order.end(), size_t{0});
    {
      ScopedSpan s("block::GateAndCommit", "block", id);
      block::GateAndCommit(&endorsed, order, &state);
    }
    {
      ScopedSpan s("ledger::Chain::Append", "ledger", id);
      BlockTxns effective;
      for (const block::Endorsed& e : endorsed) {
        if (e.valid) effective.push_back(*e.txn);
      }
      if (!effective.empty()) {
        Status st = chain.Append(ledger::Block::Make(
            chain.height(), chain.TipHash(), std::move(effective)));
        if (!st.ok()) r->Fail("Chain::Append refused a composed block");
      }
    }
    ep.txns += b.size();
  }
  span.reset();
  ep.seconds = SecondsSince(t0);
  r->failed +=
      Mismatches(w.expected[set], w.preload_blocks, chain, state, blocks, r);
  return ep;
}

}  // namespace

Result RunLedgerContended(const Options& opt) {
  Result r;
  World w;
  // Set-up: input generation, the preloaded peer and one warm-up episode.
  double setup_s = MedianSetupSeconds([&] { w = World(); }, [&] {
    w = Build(opt.seed, opt.smoke);
    OnPool(w.pool.get(), [&] {
      arch::XovArchitecture warm(*w.peer);
      for (const BlockTxns& b : w.inputs[0]) warm.ProcessBlock(b);
    });
  });
  for (const std::vector<BlockTxns>& set : w.inputs) {
    w.expected.push_back(SerialReplay(w, set));
  }

  auto xov = [&](size_t set, uint64_t id) { return RunXov(w, set, id, &r); };
  // A traced run makes three passes: untraced, traced, re-composed.
  Pass<Episode> pass =
      RunPass(w.pool.get(), opt.PassSeconds(3), opt.units, kInputSets, xov);
  const size_t units = pass.episodes.size();
  uint64_t txns = 0, aborted = 0;
  std::vector<double> block_ms;
  // Every episode of an input set processes the same blocks in the same
  // order, so each distinct block has one time per repeat.
  const size_t set_blocks = w.inputs[0].size();
  std::vector<std::vector<double>> by_block(kInputSets * set_blocks);
  for (size_t i = 0; i < units; ++i) {
    const Episode& e = pass.episodes[i];
    block_ms.insert(block_ms.end(), e.block_ms.begin(), e.block_ms.end());
    for (size_t b = 0; b < e.block_ms.size(); ++b) {
      by_block[(i % kInputSets) * set_blocks + b].push_back(e.block_ms[b]);
    }
    txns += e.txns;
    aborted += w.expected[i % kInputSets].aborted;
  }
  uint64_t digest = kFnvBasis;
  for (const std::vector<BlockTxns>& set : w.inputs) {
    for (const BlockTxns& b : set) digest = DigestKeys(digest, b);
  }
  r.attempted = txns;
  r.counts = {{"episodes", units},
              {"txns", txns},
              {"commits", txns - aborted},
              {"aborts", aborted},
              {"input_digest", digest}};

  if (!opt.trace) {
    r.Set("setup_s", setup_s);
    r.Set("cells_per_s", static_cast<double>(units) / pass.seconds);
    r.Set("cell_ms_mean", pass.seconds * 1e3 / static_cast<double>(units));
    r.Set("txn_per_s", static_cast<double>(txns) / pass.seconds);
    r.Set("block_ms_mean", Mean(block_ms));
    // The tail over the distinct blocks of each block's median time: the
    // slowest blocks' cost. A tail over every timed block reads the host's
    // stalls instead, and ranged 0.90-1.37 ms over ten seeds.
    std::vector<double> block_medians;
    for (const std::vector<double>& times : by_block) {
      if (!times.empty()) block_medians.push_back(Median(times));
    }
    r.Set("block_ms_p99", TailQuantile(block_medians));
    return r;
  }

  // Overhead and self times from XOV itself, traced; then the phase split
  // from the re-composed blocks, whose span names no XOV pass uses.
  GlobalTracer().set_enabled(true);
  RunPass(w.pool.get(), 0, units, kInputSets, xov);
  ReportTrace(pass.seconds, units, &r);
  RunPass(w.pool.get(), 0, units, kInputSets, [&](size_t set, uint64_t id) {
    return RunComposed(w, set, id, &r);
  });
  GlobalTracer().set_enabled(false);
  const Tracer& tracer = GlobalTracer();
  double per_block = 1.0 / static_cast<double>(block_ms.size());
  r.Set("txn.endorse_ms_per_block",
        tracer.SelfMsOf("txn::Execute") * per_block);
  r.Set("block.gate_ms_per_block",
        tracer.SelfMsOf("block::GateAndCommit") * per_block);
  r.Set("ledger.append_ms_per_block",
        tracer.SelfMsOf("ledger::Chain::Append") * per_block);
  r.Set("arch.abort_frac",
        static_cast<double>(aborted) / static_cast<double>(txns));
  Calibrate(&r);
  return r;
}

}  // namespace perfbench
