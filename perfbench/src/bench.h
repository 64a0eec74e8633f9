// Shared types of the COkNN benchmark binary: the per-run recorder every
// workload fills, the workload interface, and the percentile rule.

#ifndef CONN_PERFBENCH_BENCH_H_
#define CONN_PERFBENCH_BENCH_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/stats.h"
#include "geom/segment.h"
#include "trace.h"

namespace conn {
namespace perfbench {

/// Samples that must lie strictly above a reported percentile.
inline constexpr size_t kTailSamples = 10;

/// Answers per measurement window (see Recorder::windows), and the fewest
/// windows a run reports.
inline constexpr uint64_t kWindowAnswers = 256;
inline constexpr size_t kMinWindows = 10;

/// Nearest-rank percentile \p p in (0, 1) of \p values, or nullopt when
/// fewer than kTailSamples samples lie above it.
std::optional<double> Percentile(std::vector<double> values, double p);

/// Fewest samples for which Percentile(values, p) is defined.
size_t MinSamplesFor(double p);

/// splitmix64 mix of a seed with a stream id and an index: every random
/// input of a run is drawn from Mix(seed, stream, i), so input i of a
/// stream is the same whatever the run's length or timing.
uint64_t Mix(uint64_t seed, uint64_t stream, uint64_t index);

/// One query that pulled in every obstacle (NOE = |O|).
struct FullScan {
  uint64_t round = 0;
  uint64_t city = 0;  ///< its scene is Mix(seed, scene stream, city)
  geom::Segment segment;
  uint64_t noe = 0;
  uint64_t npe = 0;
  double ms = 0.0;
};

/// Everything one measured phase records.  Times are steady-clock wall
/// time of the timed calls only: input generation, output checks and the
/// trace replay run outside them.
struct Recorder {
  // End-to-end samples.
  std::vector<double> query_ms;  ///< per COkNN answer
  std::vector<double> write_us;  ///< per state-changing call
  std::vector<double> round_ms;  ///< per closed-loop round
  std::vector<double> group_ms;  ///< per group of answers (batch_p50_ms)
  uint64_t answers = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double timed_s = 0.0;  ///< Σ timed calls
  double query_ms_sum = 0.0;
  uint64_t query_device_reads = 0;  ///< during timed reads (paper_cost_ms)

  /// Consecutive rounds holding at least kWindowAnswers answers.  qps and
  /// paper_cost_ms are medians over windows, so one slow outlier query
  /// (see full_scans) moves them no more than it moves a percentile.
  struct Window {
    uint64_t answers = 0;
    double timed_s = 0.0;
    double query_ms_sum = 0.0;
    uint64_t device_reads = 0;
  };
  std::vector<Window> windows;
  std::vector<std::string> failures;  ///< first few failure messages
  std::vector<FullScan> full_scans;

  // Per-answer engine counters (Σ over answers).
  QueryStats totals;
  uint64_t lemma2_stops = 0;  ///< answers that ended on the RLMAX bound

  // storage, summed over the trees, deltas over the timed calls.
  uint64_t faults = 0;
  uint64_t hits = 0;
  uint64_t writes = 0;
  uint64_t write_device_writes = 0;
  uint64_t prefetch_issued = 0;
  uint64_t prefetch_hits = 0;
  uint64_t miss_queue_p99 = 0;

  // exec.
  uint64_t rounds_exec = 0;  ///< Run()/Tick() calls
  uint64_t shards = 0;
  uint64_t shards_parked = 0;
  uint64_t reuse_hits = 0;
  uint64_t obstacles_inserted = 0;
  uint64_t workspaces_adopted = 0;
  double busy_s = 0.0;      ///< Σ per-answer engine wall time
  double capacity_s = 0.0;  ///< Σ Run()/Tick() wall × workers

  // Trace replay of sampled answers.
  uint64_t replays = 0;
  double replay_descent_s = 0.0;
  uint64_t replay_nodes = 0;
  double replay_maintain_s = 0.0;
  double replay_dijkstra_s = 0.0;

  void Fail(const std::string& why);
};

/// What a round needs besides its workload's own state.
struct RoundContext {
  Tracer* tracer = nullptr;
  Recorder* rec = nullptr;
  bool replay = false;  ///< run the rtree/vis replay on sampled answers
};

/// One benchmark workload.  Constructing one builds nothing; Setup() does
/// all the work that setup_s measures, PrepareChecks() builds the
/// untimed reference state the output check compares against.
class Workload {
 public:
  virtual ~Workload() = default;

  virtual void Setup(Tracer* tracer) = 0;
  virtual void PrepareChecks() = 0;

  /// One closed-loop round: the caller waits for its replies.
  virtual void Round(uint64_t round, const RoundContext& ctx) = 0;

  /// Called once after the last round of a phase.
  virtual void Finish(Recorder* rec) { (void)rec; }

  /// Hash of the generated scene and of the first rounds' inputs.
  virtual uint64_t InputFingerprint() const = 0;

  /// Human-readable sizes (tree and buffer pages, clients, batch size).
  virtual std::string SizesJson() const = 0;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed);

}  // namespace perfbench
}  // namespace conn

#endif  // CONN_PERFBENCH_BENCH_H_
