#include "trace.h"

#include <cstdio>
#include <string>

namespace conn {
namespace perfbench {

int64_t Tracer::Open(const char* layer, const char* name) {
  if (!enabled_) return -1;
  const double now = Seconds(origin_, Clock::now());
  spans_.push_back(Span{layer, name, now, now, open_, request_});
  open_ = static_cast<int64_t>(spans_.size()) - 1;
  return open_;
}

double Tracer::Close(int64_t index) {
  if (index < 0) return 0.0;
  Span& s = spans_[static_cast<size_t>(index)];
  s.end_s = Seconds(origin_, Clock::now());
  open_ = s.parent;
  return s.end_s - s.start_s;
}

std::map<std::string, Tracer::LayerTime> Tracer::LayerTimes() const {
  // Spans nest strictly on one thread, so the time a span's children cover
  // is the sum of their durations.
  std::vector<double> child_s(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_s[static_cast<size_t>(s.parent)] += s.end_s - s.start_s;
    }
  }
  std::map<std::string, LayerTime> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const double d = spans_[i].end_s - spans_[i].start_s;
    LayerTime& lt = out[spans_[i].layer];
    lt.total_s += d;
    lt.self_s += d - child_s[i];
    ++lt.spans;
  }
  return out;
}

std::string Tracer::SpansJson() const {
  std::string out = "[";
  char buf[256];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"layer\":\"%s\",\"name\":\"%s\",\"start_s\":%.9f,"
                  "\"end_s\":%.9f,\"parent\":%lld,\"request\":%llu}",
                  i == 0 ? "" : ",", s.layer, s.name, s.start_s, s.end_s,
                  static_cast<long long>(s.parent),
                  static_cast<unsigned long long>(s.request));
    out += buf;
  }
  out += "]";
  return out;
}

}  // namespace perfbench
}  // namespace conn
