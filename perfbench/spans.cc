#include "spans.h"

#include <cstdio>

namespace perfbench {

int32_t Tracer::Begin(const char* name, const char* layer, uint64_t id) {
  int64_t now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    Clock::now() - epoch_)
                    .count();
  int32_t parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(Span{name, layer, id, parent, now, now});
  open_.push_back(static_cast<int32_t>(spans_.size() - 1));
  return open_.back();
}

void Tracer::End(int32_t index) {
  spans_[index].end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                             Clock::now() - epoch_)
                             .count();
  // Spans close in LIFO order (ScopedSpan guarantees it).
  open_.pop_back();
}

std::vector<double> Tracer::SelfNs() const {
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
  }
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      self[s.parent] -= static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  return self;
}

std::map<std::string, double> Tracer::SelfMsByLayer() const {
  std::vector<double> self = SelfNs();
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].layer] += self[i] / 1e6;
  }
  return out;
}

double Tracer::RootMs() const {
  double ns = 0;
  for (const Span& s : spans_) {
    if (s.parent < 0) ns += static_cast<double>(s.end_ns - s.start_ns);
  }
  return ns / 1e6;
}

double Tracer::SelfMsOf(const std::string& name) const {
  std::vector<double> self = SelfNs();
  double ns = 0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (name == spans_[i].name) ns += self[i];
  }
  return ns / 1e6;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("[\n", f);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"layer\":\"%s\",\"id\":%llu,"
                 "\"parent\":%d,\"start_ns\":%lld,\"end_ns\":%lld}%s\n",
                 s.name, s.layer, static_cast<unsigned long long>(s.id),
                 s.parent, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fputs("]\n", f);
  return std::fclose(f) == 0;
}

void ReportTrace(double untraced_s, size_t units, Result* out) {
  const Tracer& tracer = GlobalTracer();
  double per = units == 0 ? 0.0 : 1.0 / static_cast<double>(units);
  double untraced_ms = untraced_s * 1e3;
  double traced_ms = tracer.RootMs();
  out->Set("trace.untraced_ms_per_unit", untraced_ms * per);
  out->Set("trace.traced_ms_per_unit", traced_ms * per);
  out->Set("trace.overhead_frac",
           untraced_ms > 0 ? traced_ms / untraced_ms - 1.0 : 0.0);
  for (const auto& [layer, ms] : tracer.SelfMsByLayer()) {
    out->Set("self_ms_per_unit." + layer, ms * per);
  }
}

Tracer& GlobalTracer() {
  static Tracer tracer;
  return tracer;
}

}  // namespace perfbench
