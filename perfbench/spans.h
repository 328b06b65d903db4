// In-memory span recorder for the traced run.
//
// Spans are opened and closed by the benchmark's own code around its calls
// into one pbc module (check::RunOne, Simulator::Run, an architecture's
// ProcessBlock, DurableLedger::Persist, ...). Each span names the layer it
// charges; a layer's self time is its spans' durations minus the time their
// child spans cover. When the tracer is disabled every call is a branch.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

class Tracer {
 public:
  struct Span {
    const char* name;
    const char* layer;
    uint64_t id;      ///< cell, episode, block or txn id
    int32_t parent;   ///< index of the enclosing span, -1 for a root
    int64_t start_ns;
    int64_t end_ns;
  };

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Opens a span nested in the innermost open one; returns its index.
  int32_t Begin(const char* name, const char* layer, uint64_t id);
  void End(int32_t index);

  /// Self milliseconds per layer over every closed span.
  std::map<std::string, double> SelfMsByLayer() const;
  /// Summed duration of root spans, in milliseconds.
  double RootMs() const;
  /// Summed self milliseconds of spans called `name`.
  double SelfMsOf(const std::string& name) const;

  /// Writes every span as a JSON array; false on I/O failure.
  bool WriteJson(const std::string& path) const;

 private:
  std::vector<double> SelfNs() const;

  bool enabled_ = false;
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

Tracer& GlobalTracer();

/// \brief RAII span on the global tracer.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, const char* layer, uint64_t id = 0)
      : index_(GlobalTracer().enabled()
                   ? GlobalTracer().Begin(name, layer, id)
                   : -1) {}
  ~ScopedSpan() {
    if (index_ >= 0) GlobalTracer().End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int32_t index_;
};

/// Reports trace.overhead_frac, trace.*_ms_per_unit and
/// self_ms_per_unit.<layer> from the global tracer, after a traced replay
/// of `units` units whose untraced pass measured `untraced_s` seconds.
void ReportTrace(double untraced_s, size_t units, Result* out);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
