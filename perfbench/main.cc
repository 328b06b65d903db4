// pbc_perfbench: the repository benchmark program.
//
//   pbc_perfbench --workload <check-sweep|pbft-pipeline|ledger-contended>
//                 --seed <n> --seconds <s> --trace <0|1>
//                 [--units <n>] [--smoke] [--spans-out <path>]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. --trace 0 reports the end-to-end
// metrics, --trace 1 the per-layer ones (see README.md). Deterministic
// counts go to standard error as one `counts {...}` line for the self-test.
// Exit code 1 on a wrong output or bad flags.
#include <malloc.h>
#include <sys/resource.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "spans.h"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Every workload reports every name of its run kind; a layer a workload
// never enters reports 0 there (the bypass prediction).
const std::vector<MetricSpec>& EndToEndSpecs() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},           {"peak_rss_mb", "MB"},
      {"cells_per_s", "1/s"},     {"cell_ms_mean", "ms"},
      {"txn_per_s", "1/s"},       {"block_ms_mean", "ms"},
      {"block_ms_p99", "ms"},
  };
  return specs;
}

const std::vector<MetricSpec>& PerLayerSpecs() {
  static const std::vector<MetricSpec> specs = {
      {"check.cell_ms_p50.pbft", "ms"},
      {"check.cell_ms_p50.raft", "ms"},
      {"check.cell_ms_p50.hotstuff", "ms"},
      {"check.cell_ms_p50.tendermint", "ms"},
      {"check.cell_ms_p50.paxos", "ms"},
      {"check.cell_ms_p50.sharper", "ms"},
      {"check.cell_ms_p50.ahl", "ms"},
      {"check.checker_calls_per_cell", "count"},
      {"check.not_live_frac", "ratio"},
      {"check.violations", "count"},
      {"sim.events_per_cell", "count"},
      {"sim.events_per_txn", "count"},
      {"sim.us_per_event", "us"},
      {"consensus.order_ms_per_block", "ms"},
      {"net.msgs_per_txn", "count"},
      {"net.bytes_per_txn", "bytes"},
      {"consensus.txns_per_block", "count"},
      {"consensus.view_changes", "count"},
      {"block.fetches", "count"},
      {"consensus.sim_commit_us_p50", "us"},
      {"consensus.sim_commit_us_p99", "us"},
      {"arch.validate_ms_per_block", "ms"},
      {"arch.abort_frac", "ratio"},
      {"txn.endorse_ms_per_block", "ms"},
      {"block.gate_ms_per_block", "ms"},
      {"ledger.append_ms_per_block", "ms"},
      {"store.persist_ms_p50", "ms"},
      {"store.persist_ms_p99", "ms"},
      {"store.recover_ms", "ms"},
      {"obs.attached_overhead_frac", "ratio"},
      {"crypto.hmac_ns", "ns"},
      {"crypto.txn_digest_ns", "ns"},
      {"crypto.merkle100_us", "us"},
      {"crypto.sha256_64k_mb_per_s", "MB/s"},
      {"trace.overhead_frac", "ratio"},
      {"trace.untraced_ms_per_unit", "ms"},
      {"trace.traced_ms_per_unit", "ms"},
      {"self_ms_per_unit.check", "ms"},
      {"self_ms_per_unit.consensus", "ms"},
      {"self_ms_per_unit.arch", "ms"},
      {"self_ms_per_unit.store", "ms"},
      {"self_ms_per_unit.txn", "ms"},
      {"self_ms_per_unit.block", "ms"},
      {"self_ms_per_unit.ledger", "ms"},
      {"self_ms_per_unit.bench", "ms"},
      {"host.ref_ms", "ms"},
  };
  return specs;
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: pbc_perfbench --workload "
               "<check-sweep|pbft-pipeline|ledger-contended> --seed <n> "
               "--seconds <s> --trace <0|1> [--units <n>] [--smoke] "
               "[--spans-out <path>]\n",
               why);
  return 1;
}

bool ParseU64(const char* s, uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0' || s[0] == '-') return false;
  *out = v;
  return true;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

void PrintResult(const Result& r, const std::vector<MetricSpec>& specs) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < specs.size(); ++i) {
    auto it = r.metrics.find(specs[i].name);
    double v = it == r.metrics.end() ? 0.0 : it->second;
    if (i > 0) out += ", ";
    out += "\"" + std::string(specs[i].name) + "\": {\"value\": " +
           JsonNumber(v) + ", \"unit\": \"" + specs[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

void PrintCounts(const Result& r) {
  std::string out = "counts {";
  bool first = true;
  for (const auto& [name, v] : r.counts) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": " + std::to_string(v);
  }
  out += "}";
  std::fprintf(stderr, "%s\n", out.c_str());
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  // One malloc arena: with per-thread arenas the pipeline's peak RSS swung
  // between 55 and 75 MB across identical runs, depending on which pool
  // worker happened to allocate what; with one it holds at ~43 MB.
  mallopt(M_ARENA_MAX, 1);
  Options opt;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (flag == "--smoke") {
      opt.smoke = true;
      continue;
    }
    const char* v = value();
    if (v == nullptr) return Usage(("missing value for " + flag).c_str());
    uint64_t n = 0;
    if (flag == "--workload") {
      opt.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!ParseU64(v, &opt.seed)) return Usage("bad --seed");
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!ParseU64(v, &n) || n == 0 || n > 3600) {
        return Usage("bad --seconds");
      }
      opt.seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (!ParseU64(v, &n) || n > 1) return Usage("bad --trace");
      opt.trace = n == 1;
      have_trace = true;
    } else if (flag == "--units") {
      if (!ParseU64(v, &n) || n == 0 || n > 100000) {
        return Usage("bad --units");
      }
      opt.units = static_cast<size_t>(n);
    } else if (flag == "--spans-out") {
      opt.spans_out = v;
    } else {
      return Usage(("unrecognized flag " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return Usage("--workload, --seed, --seconds and --trace are required");
  }

  Result r;
  if (opt.workload == "check-sweep") {
    r = RunCheckSweep(opt);
  } else if (opt.workload == "pbft-pipeline") {
    r = RunPbftPipeline(opt);
  } else if (opt.workload == "ledger-contended") {
    r = RunLedgerContended(opt);
  } else {
    return Usage(("unknown workload " + opt.workload).c_str());
  }
  r.Set("peak_rss_mb", PeakRssMb());
  if (opt.trace && !opt.spans_out.empty() &&
      !GlobalTracer().WriteJson(opt.spans_out)) {
    std::fprintf(stderr, "warning: could not write spans to %s\n",
                 opt.spans_out.c_str());
  }
  if (r.attempted == 0) r.Fail("no operation was attempted");
  for (const std::string& e : r.errors) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
  }
  PrintCounts(r);
  PrintResult(r, opt.trace ? PerLayerSpecs() : EndToEndSpecs());
  return r.correct ? 0 : 1;
}
