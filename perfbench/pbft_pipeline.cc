// pbft-pipeline: order -> validate -> commit, the Hyperledger Fabric peer
// split, driven end to end.
//
// A PBFT n=4 cluster in block mode (50-txn size cut, 5 ms timer cut) with
// a MetricsRegistry and TraceLog attached, as every E-bench SimWorld has.
// An open loop submits low-contention ZipfianKv txns at a constant 10 k
// txn/s of simulated time. Replica 0's commit listener feeds each block to
// a FastFabric peer (ParallelValidator on a 2-worker pool) whose key space
// was preloaded during set-up, then DurableLedger::Persist writes it to a
// sim::Fs with a fixed snapshot interval.
//
// One unit is an episode: a fresh cluster, a copy of the preloaded peer
// and a fresh disk, driven until every txn of one input set is durably
// committed at the peer. Episodes keep the log, the chains and the RSS
// bounded whatever the machine's speed; they stay below PBFT's 256-seq
// window. Everything inside an episode is timed; the correctness gate
// after it is not.
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "arch/xov.h"
#include "bench.h"
#include "block/validator.h"
#include "common/thread_pool.h"
#include "consensus/cluster.h"
#include "consensus/pbft.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/fs.h"
#include "sim/network.h"
#include "spans.h"
#include "store/codec.h"
#include "store/durable_ledger.h"
#include "workload/workload.h"

namespace perfbench {
namespace {

using namespace pbc;

constexpr size_t kReplicas = 4;
constexpr size_t kBlockTxns = 50;
constexpr sim::Time kTimerCutUs = 5000;
constexpr sim::Time kArrivalGapUs = 100;  // 10 k txn/s of simulated time
constexpr size_t kEpisodeTxns = 4000;
constexpr size_t kSmokeEpisodeTxns = 1000;
constexpr size_t kInputSets = 4;
constexpr uint64_t kColdKeys = 10000;
constexpr uint64_t kSnapshotInterval = 16;
constexpr size_t kPoolWorkers = 2;
constexpr sim::Time kChunkUs = 5000;
constexpr sim::Time kSimDeadlineUs = 120'000'000;
const char* const kPeerDir = "peer";

struct Inputs {
  uint64_t sim_seed = 0;
  std::vector<txn::Transaction> txns;
};

// The benchmark's fixed state: inputs, pool and the preloaded peer.
struct World {
  std::vector<Inputs> inputs;
  std::unique_ptr<ThreadPool> pool;
  std::unique_ptr<arch::FastFabricArchitecture> peer;
  size_t preload_blocks = 0;
};

World Build(uint64_t seed, bool smoke) {
  World w;
  size_t n = smoke ? kSmokeEpisodeTxns : kEpisodeTxns;
  workload::ZipfianKv::Options zo;
  zo.cold_keys = kColdKeys;
  zo.ops_per_txn = 2;
  for (size_t i = 0; i < kInputSets; ++i) {
    workload::ZipfianKv gen(zo, MixSeed(seed, 2 * i));
    w.inputs.push_back(Inputs{MixSeed(seed, 2 * i + 1), gen.Block(n)});
  }
  w.pool = std::make_unique<ThreadPool>(kPoolWorkers);
  w.peer = std::make_unique<arch::FastFabricArchitecture>(w.pool.get());
  w.peer->ProcessBlock(PreloadBlock(kColdKeys, 0));
  w.preload_blocks = w.peer->chain().height();
  return w;
}

struct Episode {
  double seconds = 0;
  bool completed = false;
  std::vector<double> block_gap_ms;
  std::vector<double> persist_ms;
  uint64_t ordered_txns = 0;    ///< txns replica 0 delivered to the peer
  uint64_t committed_txns = 0;  ///< valid txns durably committed
  uint64_t aborted_txns = 0;
  uint64_t blocks = 0;
  uint64_t events = 0;
  uint64_t msgs = 0;
  uint64_t bytes = 0;
  uint64_t view_changes = 0;
  uint64_t fetches = 0;
  double sim_commit_p50_us = 0;
  double sim_commit_p99_us = 0;
  double recover_ms = 0;
};

// Correctness gate (untimed): exactly-once commit on every replica, chain
// agreement, peer ledger and state equal to a SerialValidator replay of
// replica 0's blocks, snapshot recovery equal to full log replay.
void Verify(const World& w, const Inputs& in,
            const consensus::Cluster<consensus::PbftReplica>& cluster,
            const arch::FastFabricArchitecture& peer, const sim::Fs& fs,
            Episode* ep, Result* r) {
  const size_t n = in.txns.size();
  if (!ep->completed) {
    r->Fail("episode did not commit all txns before the sim deadline");
  }
  for (size_t i = 0; i < cluster.size(); ++i) {
    std::set<txn::TxnId> ids;
    size_t total = 0;
    for (const ledger::Block& b : cluster.replica(i)->chain().blocks()) {
      for (const txn::Transaction& t : b.txns) {
        ids.insert(t.id);
        ++total;
      }
    }
    if (total != n || ids.size() != n || *ids.begin() != 1 ||
        *ids.rbegin() != n) {
      r->Fail("replica " + std::to_string(i) +
              " did not commit every txn exactly once");
    }
  }
  if (!cluster.ChainsConsistent()) r->Fail("replica chains diverged");

  store::KvStore oracle = w.peer->store();
  block::SerialValidator serial(&oracle);
  const ledger::Chain& peer_chain = peer.chain();
  size_t next = w.preload_blocks;
  for (const ledger::Block& b : cluster.replica(0)->chain().blocks()) {
    std::vector<bool> valid = serial.ProcessBlock(b.txns);
    std::vector<txn::TxnId> want;
    for (size_t i = 0; i < b.txns.size(); ++i) {
      if (valid[i]) want.push_back(b.txns[i].id);
    }
    if (want.empty()) continue;
    std::vector<txn::TxnId> got;
    if (next < peer_chain.height()) {
      for (const txn::Transaction& t : peer_chain.at(next).txns) {
        got.push_back(t.id);
      }
    }
    ++next;
    if (got != want) {
      r->Fail("peer ledger differs from the serial replay");
      break;
    }
  }
  if (next != peer_chain.height()) {
    r->Fail("peer ledger length differs from the serial replay");
  }
  if (!oracle.SameLatestState(peer.store())) {
    r->Fail("peer state differs from the serial replay");
  }

  sim::FsImage image = fs.DurableImage(std::string(kPeerDir) + "/");
  Clock::time_point t0 = Clock::now();
  store::DurableLedger::Recovered snap =
      store::DurableLedger::RecoverFromImage(image, kPeerDir, false, true);
  ep->recover_ms = SecondsSince(t0) * 1e3;
  store::DurableLedger::Recovered full =
      store::DurableLedger::RecoverFromImage(image, kPeerDir, false, false);
  bool snapshot_due = peer_chain.height() >= kSnapshotInterval;
  if (snap.used_snapshot != snapshot_due ||
      snap.height != peer_chain.height() ||
      full.height != snap.height || full.state != snap.state ||
      full.next_version != snap.next_version) {
    r->Fail("snapshot recovery differs from full-replay recovery");
  }
}

// Hash of everything an episode leaves behind: every replica's chain tip,
// the peer's ledger tip and state, and the peer's durable image.
uint64_t Fingerprint(const consensus::Cluster<consensus::PbftReplica>& cluster,
                     const arch::FastFabricArchitecture& peer,
                     const sim::Fs& fs) {
  auto bytes = [](const crypto::Hash256& h) {
    return std::string(h.bytes.begin(), h.bytes.end());
  };
  uint64_t h = kFnvBasis;
  for (size_t i = 0; i < cluster.size(); ++i) {
    h = Fnv1a(h, bytes(cluster.replica(i)->chain().TipHash()));
  }
  h = Fnv1a(h, bytes(peer.chain().TipHash()));
  h = Fnv1a(h, store::SerializeLatestState(peer.store()));
  for (const auto& [path, data] :
       fs.DurableImage(std::string(kPeerDir) + "/")) {
    h = Fnv1a(Fnv1a(h, path), data);
  }
  return h;
}

// Episodes are deterministic per input set: the first run of each set goes
// through the full Verify, and every repeat must reproduce its fingerprint.
using Fingerprints = std::vector<std::optional<uint64_t>>;

Episode RunEpisode(const World& w, size_t set, uint64_t id, bool attach_obs,
                   Fingerprints* verified, Result* r) {
  const Inputs& in = w.inputs[set];
  Episode ep;
  const size_t n = in.txns.size();
  Clock::time_point t0 = Clock::now();
  std::optional<ScopedSpan> episode_span;
  episode_span.emplace("episode", "bench", id);

  obs::MetricsRegistry metrics;
  obs::TraceLog trace;
  sim::Simulator simulator(in.sim_seed);
  sim::Network net(&simulator);
  net.SetDefaultLatency({500, 200});
  if (attach_obs) {
    simulator.AttachMetrics(&metrics);
    net.AttachObs(&metrics, &trace);
  }
  crypto::KeyRegistry registry;
  consensus::ClusterConfig cc;
  cc.block.enabled = true;
  cc.block.max_txns = kBlockTxns;
  cc.block.max_delay_us = kTimerCutUs;
  consensus::Cluster<consensus::PbftReplica> cluster(&net, &registry,
                                                     kReplicas, cc);

  arch::FastFabricArchitecture peer(*w.peer);
  sim::Fs fs(in.sim_seed ^ 0x4653ULL);
  store::DurableLedger::Options dopt;
  dopt.dir = kPeerDir;
  dopt.snapshot_interval = kSnapshotInterval;
  store::DurableLedger durable(&fs, dopt);
  {
    ScopedSpan s("DurableLedger::Persist", "store", 0);
    durable.Persist(peer.chain());  // the preloaded state
  }

  Clock::time_point last_commit;
  cluster.replica(0)->set_commit_listener(
      [&](sim::NodeId, uint64_t seq, const consensus::Batch& batch) {
        if (batch.txns.empty()) return;
        {
          ScopedSpan s("FastFabric::ProcessBlock", "arch", seq);
          peer.ProcessBlock(batch.txns);
        }
        Clock::time_point p0 = Clock::now();
        {
          ScopedSpan s("DurableLedger::Persist", "store", seq);
          durable.Persist(peer.chain());
        }
        Clock::time_point now = Clock::now();
        ep.persist_ms.push_back(
            std::chrono::duration<double, std::milli>(now - p0).count());
        if (ep.blocks > 0) {
          ep.block_gap_ms.push_back(
              std::chrono::duration<double, std::milli>(now - last_commit)
                  .count());
        }
        last_commit = now;
        ep.ordered_txns += batch.txns.size();
        ++ep.blocks;
      });
  net.Start();

  size_t next = 0;
  std::function<void()> arrive = [&] {
    cluster.Submit(in.txns[next]);
    if (++next < n) simulator.Schedule(kArrivalGapUs, arrive);
  };
  simulator.Schedule(0, arrive);
  while (simulator.now() < kSimDeadlineUs) {
    {
      ScopedSpan s("Simulator::Run", "consensus", id);
      simulator.Run(simulator.now() + kChunkUs);
    }
    if (ep.ordered_txns == n && cluster.MinCommitted() == n) {
      ep.completed = true;
      break;
    }
  }
  episode_span.reset();
  ep.seconds = SecondsSince(t0);

  const arch::ArchStats& base = w.peer->stats();
  ep.committed_txns = peer.stats().committed - base.committed;
  ep.aborted_txns = peer.stats().aborted - base.aborted;
  ep.events = simulator.executed_events();
  ep.msgs = net.stats().messages_sent;
  ep.bytes = net.stats().bytes_sent;
  ep.view_changes = metrics.CounterValue("consensus.view_changes");
  ep.fetches = metrics.CounterValue("net.sent.block-fetch");
  if (const obs::Histogram* h =
          metrics.FindHistogram("consensus.commit_latency_us")) {
    ep.sim_commit_p50_us = static_cast<double>(h->P50());
    ep.sim_commit_p99_us = static_cast<double>(h->P99());
  }
  uint64_t fp = Fingerprint(cluster, peer, fs);
  if (!(*verified)[set].has_value()) {
    Verify(w, in, cluster, peer, fs, &ep, r);
    (*verified)[set] = fp;
  } else if (*(*verified)[set] != fp) {
    r->Fail("episode on input set " + std::to_string(set) +
            " did not reproduce its verified outcome");
  }
  return ep;
}

}  // namespace

Result RunPbftPipeline(const Options& opt) {
  Result r;
  World w;
  // Set-up: input generation, the preloaded peer and one warm-up episode
  // whose outcome is discarded. The previous set-up's pool is torn down
  // before building anew.
  double setup_s = MedianSetupSeconds([&] { w = World(); }, [&] {
    w = Build(opt.seed, opt.smoke);
    Result discarded;
    Fingerprints none(kInputSets);
    OnPool(w.pool.get(),
           [&] { return RunEpisode(w, 0, 0, true, &none, &discarded); });
  });

  Fingerprints verified(kInputSets);
  auto episodes = [&](bool attach_obs) {
    return [&, attach_obs](size_t set, uint64_t id) {
      return RunEpisode(w, set, id, attach_obs, &verified, &r);
    };
  };
  // A traced run makes three passes: untraced, traced, obs detached.
  Pass<Episode> pass = RunPass(w.pool.get(), opt.PassSeconds(3), opt.units,
                               kInputSets, episodes(true));
  const size_t units = pass.episodes.size();

  uint64_t committed = 0, ordered = 0, aborted = 0, blocks = 0, events = 0,
           msgs = 0, bytes = 0, view_changes = 0, fetches = 0;
  std::vector<double> gaps, persist, commit_p50, commit_p99, recover;
  for (const Episode& e : pass.episodes) {
    gaps.insert(gaps.end(), e.block_gap_ms.begin(), e.block_gap_ms.end());
    committed += e.committed_txns;
    ordered += e.ordered_txns;
    aborted += e.aborted_txns;
    blocks += e.blocks;
    events += e.events;
    msgs += e.msgs;
    bytes += e.bytes;
    view_changes += e.view_changes;
    fetches += e.fetches;
  }
  uint64_t digest = kFnvBasis;
  for (const Inputs& in : w.inputs) {
    digest = DigestKeys(Fnv1a(digest, std::to_string(in.sim_seed)), in.txns);
  }
  r.attempted = units * w.inputs[0].txns.size();
  // A txn delivered twice is caught by Verify; it must not wrap this count.
  r.failed = ordered >= r.attempted ? 0 : r.attempted - ordered;
  r.counts = {{"episodes", units},   {"sim_events", events},
              {"messages", msgs},    {"bytes", bytes},
              {"commits", committed}, {"aborts", aborted},
              {"blocks", blocks},    {"view_changes", view_changes},
              {"input_digest", digest}};

  if (!opt.trace) {
    r.Set("setup_s", setup_s);
    r.Set("cells_per_s", static_cast<double>(units) / pass.seconds);
    r.Set("cell_ms_mean", pass.seconds * 1e3 / static_cast<double>(units));
    r.Set("txn_per_s", static_cast<double>(committed) / pass.seconds);
    // Episode wall time per durable peer commit: a total, because the gaps
    // between commits fall into groups (with or without a sim chunk or a
    // snapshot between them) and their median sits where two groups meet.
    r.Set("block_ms_mean",
          blocks == 0 ? 0.0
                      : pass.seconds * 1e3 / static_cast<double>(blocks));
    r.Set("block_ms_p99", TailQuantile(gaps));
    return r;
  }

  GlobalTracer().set_enabled(true);
  Pass<Episode> traced =
      RunPass(w.pool.get(), 0, units, kInputSets, episodes(true));
  GlobalTracer().set_enabled(false);
  Pass<Episode> detached =
      RunPass(w.pool.get(), 0, units, kInputSets, episodes(false));
  for (size_t i = 0; i < units; ++i) {
    const Episode& a = pass.episodes[i];
    for (const Episode* b : {&traced.episodes[i], &detached.episodes[i]}) {
      if (a.events != b->events || a.msgs != b->msgs ||
          a.committed_txns != b->committed_txns || a.blocks != b->blocks) {
        r.Fail("replayed episode " + std::to_string(i) + " diverged");
      }
    }
  }
  for (const Episode& e : pass.episodes) {
    if (e.recover_ms > 0) recover.push_back(e.recover_ms);
  }
  for (const Episode& e : traced.episodes) {
    persist.insert(persist.end(), e.persist_ms.begin(), e.persist_ms.end());
    commit_p50.push_back(e.sim_commit_p50_us);
    commit_p99.push_back(e.sim_commit_p99_us);
  }
  const Tracer& tracer = GlobalTracer();
  double per_block = blocks == 0 ? 0.0 : 1.0 / static_cast<double>(blocks);
  double per_txn = ordered == 0 ? 0.0 : 1.0 / static_cast<double>(ordered);
  double per_episode = 1.0 / static_cast<double>(units);
  double step_ms = tracer.SelfMsOf("Simulator::Run");
  r.Set("sim.events_per_cell", static_cast<double>(events) * per_episode);
  r.Set("sim.events_per_txn", static_cast<double>(events) * per_txn);
  r.Set("sim.us_per_event",
        events == 0 ? 0.0 : step_ms * 1e3 / static_cast<double>(events));
  r.Set("consensus.order_ms_per_block", step_ms * per_block);
  r.Set("net.msgs_per_txn", static_cast<double>(msgs) * per_txn);
  r.Set("net.bytes_per_txn", static_cast<double>(bytes) * per_txn);
  r.Set("consensus.txns_per_block", static_cast<double>(ordered) * per_block);
  r.Set("consensus.view_changes",
        static_cast<double>(view_changes) * per_episode);
  r.Set("block.fetches", static_cast<double>(fetches) * per_episode);
  r.Set("consensus.sim_commit_us_p50", Median(commit_p50));
  r.Set("consensus.sim_commit_us_p99", Median(commit_p99));
  r.Set("arch.validate_ms_per_block",
        tracer.SelfMsOf("FastFabric::ProcessBlock") * per_block);
  r.Set("arch.abort_frac", static_cast<double>(aborted) * per_txn);
  r.Set("store.persist_ms_p50", Median(persist));
  r.Set("store.persist_ms_p99", TailQuantile(persist));
  r.Set("store.recover_ms", Median(recover));
  r.Set("obs.attached_overhead_frac", pass.seconds / detached.seconds - 1.0);
  ReportTrace(pass.seconds, units, &r);
  Calibrate(&r);
  return r;
}

}  // namespace perfbench
