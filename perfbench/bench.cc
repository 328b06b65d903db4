#include "bench.h"

#include <algorithm>
#include <string>
#include <vector>

namespace perfbench {

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double TailQuantile(std::vector<double> v) {
  double n = static_cast<double>(v.size());
  double q = std::min(0.99, std::max(0.0, 1.0 - 10.0 / n));
  return Quantile(std::move(v), q);
}

uint64_t MixSeed(uint64_t seed, uint64_t stream) {
  // splitmix64 finalizer over the pair.
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t Fnv1a(uint64_t h, const std::string& bytes) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001B3ULL;
  }
  return h;
}

uint64_t DigestKeys(uint64_t h,
                    const std::vector<pbc::txn::Transaction>& txns) {
  for (const pbc::txn::Transaction& t : txns) {
    for (const pbc::txn::Op& op : t.ops) h = Fnv1a(h, op.key);
  }
  return h;
}

std::vector<pbc::txn::Transaction> PreloadBlock(uint64_t cold_keys,
                                                uint64_t hot_keys) {
  constexpr size_t kKeysPerTxn = 20;
  constexpr pbc::txn::TxnId kIdBase = pbc::txn::TxnId{1} << 40;
  std::vector<std::string> keys;
  for (uint64_t k = 0; k < cold_keys; ++k) {
    keys.push_back("key" + std::to_string(k));
  }
  for (uint64_t k = 0; k < hot_keys; ++k) {
    keys.push_back("hot" + std::to_string(k));
  }
  std::vector<pbc::txn::Transaction> block;
  for (size_t k = 0; k < keys.size(); k += kKeysPerTxn) {
    pbc::txn::Transaction t;
    t.id = kIdBase + k;
    for (size_t j = k; j < k + kKeysPerTxn && j < keys.size(); ++j) {
      t.ops.push_back(pbc::txn::Op::Write(keys[j], pbc::txn::EncodeInt(0)));
    }
    block.push_back(std::move(t));
  }
  return block;
}

}  // namespace perfbench
