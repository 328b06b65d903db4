// Calibration phase of the traced run: per-call wall cost of the public
// crypto functions at the sizes the workloads use, plus host.ref_ms — a
// fixed integer kernel that makes no pbc call. host.ref_ms moves only when
// the machine does, so a reader can tell host noise from a code change.
#include <cstdint>
#include <vector>

#include "bench.h"
#include "crypto/merkle.h"
#include "crypto/sha256.h"
#include "txn/transaction.h"
#include "workload/workload.h"

namespace perfbench {
namespace {

constexpr int kReps = 7;

// Keeps every timed call observable to the optimizer.
volatile uint64_t g_sink = 0;

// Median over kReps batches of the per-call nanoseconds of `fn`.
template <typename F>
double NsPerCall(size_t calls, F&& fn) {
  std::vector<double> per_call;
  for (int rep = 0; rep < kReps; ++rep) {
    Clock::time_point t0 = Clock::now();
    for (size_t i = 0; i < calls; ++i) fn(i);
    per_call.push_back(SecondsSince(t0) * 1e9 / static_cast<double>(calls));
  }
  return Median(per_call);
}

// A dependent chain of multiply/xor-shift steps; ~10^8 steps.
uint64_t RefKernel(uint64_t x) {
  for (uint64_t i = 0; i < 100'000'000ULL; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x *= 0x2545F4914F6CDD1DULL;
  }
  return x;
}

}  // namespace

void Calibrate(Result* out) {
  uint64_t sink = 0;
  pbc::Bytes key(32, 0x5A), msg(32, 0xC3);
  out->Set("crypto.hmac_ns", NsPerCall(100000, [&](size_t i) {
             msg[0] = static_cast<uint8_t>(i);
             sink += pbc::crypto::HmacSha256(key, msg).bytes[0];
           }));

  pbc::workload::ZipfianKv gen({}, 7);
  pbc::txn::Transaction t = gen.Next();
  out->Set("crypto.txn_digest_ns", NsPerCall(100000, [&](size_t i) {
             t.id = i;
             sink += t.Digest().bytes[0];
           }));

  std::vector<pbc::crypto::Hash256> leaves(100);
  for (size_t i = 0; i < leaves.size(); ++i) {
    leaves[i] = pbc::crypto::Sha256::Digest(std::to_string(i));
  }
  out->Set("crypto.merkle100_us", NsPerCall(2000, [&](size_t i) {
             leaves[0].bytes[0] = static_cast<uint8_t>(i);
             sink += pbc::crypto::MerkleTree(leaves).root().bytes[0];
           }) / 1e3);

  std::string block(64 * 1024, 'x');
  double ns = NsPerCall(40, [&](size_t i) {
    block[0] = static_cast<char>(i);
    sink += pbc::crypto::Sha256::Digest(block).bytes[0];
  });
  out->Set("crypto.sha256_64k_mb_per_s",
           static_cast<double>(block.size()) / ns * 1e3);

  std::vector<double> ref_ms;
  for (int rep = 0; rep < 5; ++rep) {
    Clock::time_point t0 = Clock::now();
    sink += RefKernel(sink | 1);
    ref_ms.push_back(SecondsSince(t0) * 1e3);
  }
  out->Set("host.ref_ms", Median(ref_ms));
  g_sink = sink;
}

}  // namespace perfbench
