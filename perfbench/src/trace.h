// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded only from the benchmark's own thread, around each call
// it makes into a library layer (datagen, storage, rtree, vis, core, exec).
// Each span carries its name, layer, start, end, the span that caused it
// and the request (closed-loop round) it belongs to.  Nothing is written
// while the run measures: the spans stay in memory and Write() serializes
// them once at the end.  A disabled tracer records nothing, so the untraced
// runs that give the end-to-end numbers pay one branch per call site.

#ifndef CONN_PERFBENCH_TRACE_H_
#define CONN_PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace conn {
namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

class Tracer {
 public:
  struct Span {
    const char* layer;
    const char* name;
    double start_s;  ///< seconds since the tracer was created
    double end_s;
    int64_t parent;  ///< index into spans(), -1 for a root span
    uint64_t request;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}


  /// Request id stamped on every span opened from now on.
  void set_request(uint64_t request) { request_ = request; }

  /// Opens a span under the innermost open one; returns its index (-1 when
  /// disabled).
  int64_t Open(const char* layer, const char* name);

  /// Closes span \p index (must be the innermost open one); returns its
  /// duration in seconds (0 when disabled).
  double Close(int64_t index);

  const std::vector<Span>& spans() const { return spans_; }

  /// Per layer: total span time and self time (span time minus the time
  /// its direct children cover), both in seconds, plus the span count.
  struct LayerTime {
    double total_s = 0.0;
    double self_s = 0.0;
    uint64_t spans = 0;
  };
  std::map<std::string, LayerTime> LayerTimes() const;

  /// Serializes every span as a JSON array.
  std::string SpansJson() const;

 private:
  bool enabled_;
  uint64_t request_ = 0;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  int64_t open_ = -1;  ///< innermost open span
};

/// RAII span: opens on construction, closes on destruction.
class Scope {
 public:
  Scope(Tracer* tracer, const char* layer, const char* name)
      : tracer_(tracer), index_(tracer->Open(layer, name)) {}
  ~Scope() { tracer_->Close(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  int64_t index_;
};

}  // namespace perfbench
}  // namespace conn

#endif  // CONN_PERFBENCH_TRACE_H_
