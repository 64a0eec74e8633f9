// COkNN end-to-end benchmark binary.
//
//   coknn_perfbench --workload <oneshot_rw|fleet_batch|fleet_ticks>
//                   --seed <n> --seconds <s> --trace <0|1> [--ops <n>]
//   coknn_perfbench --self-test
//
// --trace 0 sets the workload up several times (setup_s is their median),
// then runs closed-loop rounds for --seconds seconds (longer if a reported
// percentile still lacks its tail samples) and prints the end-to-end
// metrics.  --trace 1 runs the same untraced phase for half the time, sets
// up again and replays exactly as many rounds with spans and the rtree/vis
// replay on; it prints the per-layer metrics and the tracing overhead.
// --ops replaces the time bound by a round count (self-tests only).
//
// Every run writes an artifact, .bench_out/<workload>-seed<n>-trace<t>.json
// under the working directory, holding the sizes, the input fingerprint,
// every full-scan query, the failures, and (traced) the spans, layer self
// times and counter ratios with their bases.  The last line of standard
// output is one JSON object: {"correct", "attempted", "failed", "metrics"}.

#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "common/stats.h"

namespace conn {
namespace perfbench {

std::optional<double> Percentile(std::vector<double> values, double p) {
  const size_t n = values.size();
  if (n == 0) return std::nullopt;
  const size_t rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(n) - 1e-9));  // 1-based
  if (rank < 1 || n - rank < kTailSamples) return std::nullopt;
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

size_t MinSamplesFor(double p) {
  size_t n = 1;
  while (!Percentile(std::vector<double>(n, 0.0), p).has_value()) ++n;
  return n;
}

uint64_t Mix(uint64_t seed, uint64_t stream, uint64_t index) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream * 0xD1B54A32D192ED03ULL +
               index * 0x8CB92BA72F3D8DD7ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

void Recorder::Fail(const std::string& why) {
  ++failed;
  if (failures.size() < 20) failures.push_back(why);
}

namespace {

/// Setups per run; setup_s is their median.
constexpr int kSetups = 3;
/// A phase that still lacks percentile samples after this long gives up.
constexpr double kPhaseCapSeconds = 140.0;

// Reported percentiles.
constexpr double kQueryTail = 0.99;
constexpr double kWriteTail = 0.99;
constexpr double kRoundTail = 0.9;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  uint64_t ops = 0;  ///< > 0: fixed round count instead of --seconds
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// Plain median, for the few setup samples (no tail rule).
double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n') ? ' ' : c;
  }
  return out + "\"";
}

bool Enough(const Recorder& rec) {
  return rec.windows.size() >= kMinWindows &&
         rec.query_ms.size() >= MinSamplesFor(kQueryTail) &&
         rec.write_us.size() >= MinSamplesFor(kWriteTail) &&
         rec.round_ms.size() >= MinSamplesFor(kRoundTail) &&
         rec.group_ms.size() >= MinSamplesFor(0.5);
}

/// Closes the current window once it holds kWindowAnswers answers; \p mark
/// holds the recorder's running totals when the window opened.
void CloseWindow(Recorder* rec, Recorder::Window* mark) {
  if (rec->answers - mark->answers < kWindowAnswers) return;
  rec->windows.push_back({rec->answers - mark->answers,
                          rec->timed_s - mark->timed_s,
                          rec->query_ms_sum - mark->query_ms_sum,
                          rec->query_device_reads - mark->device_reads});
  *mark = {rec->answers, rec->timed_s, rec->query_ms_sum,
           rec->query_device_reads};
}

/// Runs rounds until \p seconds have passed (and, with \p need_samples,
/// every percentile has its samples), or exactly \p rounds rounds when
/// that is non-zero.  Returns false when the phase cap ran out first.
bool RunPhase(Workload* wl, const RoundContext& ctx, double seconds,
              bool need_samples, uint64_t rounds, uint64_t* done) {
  const Clock::time_point start = Clock::now();
  Recorder::Window mark;
  uint64_t i = 0;
  for (;; ++i) {
    const double elapsed = Seconds(start, Clock::now());
    if (rounds > 0) {
      if (i >= rounds) break;
    } else if (elapsed >= seconds && (!need_samples || Enough(*ctx.rec))) {
      break;
    } else if (elapsed >= kPhaseCapSeconds) {
      *done = i;
      return false;
    }
    ctx.tracer->set_request(i + 1);
    wl->Round(i, ctx);
    CloseWindow(ctx.rec, &mark);
  }
  wl->Finish(ctx.rec);
  *done = i;
  return true;
}

/// Peak resident set of this process image (VmHWM).  getrusage's
/// ru_maxrss would not do: it carries over the parent's peak across exec.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

std::vector<Metric> EndToEnd(const Recorder& rec,
                             const std::vector<double>& setups,
                             double setup_rss_mb) {
  std::vector<double> qps, paper_ms;
  for (const Recorder::Window& w : rec.windows) {
    const double n = static_cast<double>(w.answers);
    qps.push_back(w.answers / w.timed_s);
    paper_ms.push_back((w.query_ms_sum +
                        static_cast<double>(w.device_reads) *
                            kIoCostPerPageSeconds * 1e3) /
                       n);
  }
  return {
      {"setup_s", Median(setups), "s"},
      {"qps", Median(qps), "1/s"},
      {"query_p50_ms", Percentile(rec.query_ms, 0.5).value(), "ms"},
      {"query_p99_ms", Percentile(rec.query_ms, kQueryTail).value(), "ms"},
      {"write_p50_us", Percentile(rec.write_us, 0.5).value(), "us"},
      {"write_p99_us", Percentile(rec.write_us, kWriteTail).value(), "us"},
      {"paper_cost_ms", Median(paper_ms), "ms"},
      {"batch_p50_ms", Percentile(rec.group_ms, 0.5).value(), "ms"},
      {"tick_p50_ms", Percentile(rec.round_ms, 0.5).value(), "ms"},
      {"tick_p90_ms", Percentile(rec.round_ms, kRoundTail).value(), "ms"},
      {"peak_rss_mb", setup_rss_mb, "MB"},
      {"ok_frac",
       1.0 - Ratio(static_cast<double>(rec.failed),
                   static_cast<double>(rec.attempted)),
       "ratio"},
  };
}

double SpanMean(const Tracer& tr, std::initializer_list<const char*> names,
                bool rounds_only) {
  double sum = 0.0;
  uint64_t count = 0;
  for (const Tracer::Span& s : tr.spans()) {
    if (rounds_only && s.request == 0) continue;
    for (const char* name : names) {
      if (std::string(s.name) == name) {
        sum += s.end_s - s.start_s;
        ++count;
      }
    }
  }
  return Ratio(sum, static_cast<double>(count));
}

double SetupLayerSeconds(const Tracer& tr, const char* layer,
                         const char* name) {
  double sum = 0.0;
  for (const Tracer::Span& s : tr.spans()) {
    if (s.request == 0 && std::string(s.layer) == layer &&
        (name == nullptr || std::string(s.name) == name)) {
      sum += s.end_s - s.start_s;
    }
  }
  return sum;
}

/// A per-layer ratio with its base, for the artifact.
struct Base {
  std::string name;
  double num;
  double den;
};

std::vector<Metric> PerLayer(const Recorder& rec, const Tracer& tr,
                             double untraced_s, std::vector<Base>* bases) {
  const QueryStats& t = rec.totals;
  const double n = static_cast<double>(rec.answers);
  const double rounds = static_cast<double>(rec.rounds_exec);
  const double replays = static_cast<double>(rec.replays);
  auto ratio = [&](const char* name, double num, double den) {
    bases->push_back({name, num, den});
    return Ratio(num, den);
  };
  const double f = static_cast<double>(rec.faults);
  const double h = static_cast<double>(rec.hits);
  const double carried = static_cast<double>(t.tuples_carried);
  const double rescored = static_cast<double>(t.tuples_rescored);
  const double core_span = SpanMean(tr, {"CoknnQuery"}, true);
  return {
      {"storage.faults_per_query", ratio("storage.faults_per_query", f, n),
       "count"},
      {"storage.hit_rate", ratio("storage.hit_rate", h, h + f), "ratio"},
      {"storage.device_reads_per_query",
       ratio("storage.device_reads_per_query",
             static_cast<double>(rec.query_device_reads), n),
       "count"},
      {"storage.device_writes_per_write",
       ratio("storage.device_writes_per_write",
             static_cast<double>(rec.write_device_writes),
             static_cast<double>(rec.writes)),
       "count"},
      {"storage.prefetch_useful_frac",
       ratio("storage.prefetch_useful_frac",
             static_cast<double>(rec.prefetch_hits),
             static_cast<double>(rec.prefetch_issued)),
       "ratio"},
      {"storage.miss_queue_p99", static_cast<double>(rec.miss_queue_p99),
       "count"},
      {"rtree.bulk_load_s", SetupLayerSeconds(tr, "rtree", "StrBulkLoad"),
       "s"},
      {"rtree.write_us", SpanMean(tr, {"Insert", "Delete"}, true) * 1e6,
       "us"},
      {"rtree.replay_descent_ms", Ratio(rec.replay_descent_s * 1e3, replays),
       "ms"},
      {"rtree.replay_nodes",
       ratio("rtree.replay_nodes", static_cast<double>(rec.replay_nodes),
             replays),
       "count"},
      {"vis.visibility_tests",
       ratio("vis.visibility_tests", static_cast<double>(t.visibility_tests),
             n),
       "count"},
      {"vis.seed_tests",
       ratio("vis.seed_tests", static_cast<double>(t.seed_tests), n),
       "count"},
      {"vis.obstacles_inserted",
       ratio("vis.obstacles_inserted",
             static_cast<double>(t.obstacles_evaluated), n),
       "count"},
      {"vis.graph_vertices",
       ratio("vis.graph_vertices", static_cast<double>(t.vis_graph_vertices),
             n),
       "count"},
      {"vis.dijkstra_settled",
       ratio("vis.dijkstra_settled", static_cast<double>(t.dijkstra_settled),
             n),
       "count"},
      {"vis.warm_restarts",
       ratio("vis.warm_restarts", static_cast<double>(t.scan_warm_restarts),
             n),
       "count"},
      {"vis.replay_maintain_ms",
       Ratio(rec.replay_maintain_s * 1e3, replays), "ms"},
      {"vis.replay_dijkstra_ms",
       Ratio(rec.replay_dijkstra_s * 1e3, replays), "ms"},
      {"core.query_ms",
       core_span > 0.0 ? core_span * 1e3 : Ratio(t.cpu_seconds * 1e3, n),
       "ms"},
      {"core.points_evaluated",
       ratio("core.points_evaluated", static_cast<double>(t.points_evaluated),
             n),
       "count"},
      {"core.split_evaluations",
       ratio("core.split_evaluations",
             static_cast<double>(t.split_evaluations), n),
       "count"},
      {"core.lemma2_stop_frac",
       ratio("core.lemma2_stop_frac", static_cast<double>(rec.lemma2_stops),
             n),
       "ratio"},
      {"core.full_scan_queries", static_cast<double>(rec.full_scans.size()),
       "count"},
      {"exec.reuse_frac",
       ratio("exec.reuse_frac", static_cast<double>(rec.reuse_hits),
             static_cast<double>(rec.reuse_hits + rec.obstacles_inserted)),
       "ratio"},
      {"exec.shards",
       ratio("exec.shards", static_cast<double>(rec.shards), rounds),
       "count"},
      {"exec.shards_parked",
       ratio("exec.shards_parked", static_cast<double>(rec.shards_parked),
             rounds),
       "count"},
      {"exec.worker_busy_frac",
       ratio("exec.worker_busy_frac", rec.busy_s, rec.capacity_s), "ratio"},
      {"exec.carried_frac",
       ratio("exec.carried_frac", carried, carried + rescored), "ratio"},
      {"exec.frontier_shares_per_tick",
       ratio("exec.frontier_shares_per_tick",
             static_cast<double>(t.frontier_shares), rounds),
       "count"},
      {"exec.workspaces_adopted",
       ratio("exec.workspaces_adopted",
             static_cast<double>(rec.workspaces_adopted), rounds),
       "count"},
      {"exec.subscribe_us", SpanMean(tr, {"Subscribe"}, false) * 1e6, "us"},
      {"datagen.generate_s", SetupLayerSeconds(tr, "datagen", nullptr), "s"},
      {"trace.overhead_frac", rec.timed_s / untraced_s - 1.0, "ratio"},
  };
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += (i ? ", " : "") + Quote(metrics[i].name) + ": {\"value\": " +
           Num(metrics[i].value) + ", \"unit\": " + Quote(metrics[i].unit) +
           "}";
  }
  return out + "}";
}

std::string FullScansJson(const std::vector<FullScan>& scans) {
  std::string out = "[";
  for (size_t i = 0; i < scans.size(); ++i) {
    const FullScan& s = scans[i];
    out += std::string(i ? ", " : "") + "{\"round\": " + Num(s.round) +
           ", \"city\": " + Num(s.city) + ", \"segment\": [" + Num(s.segment.a.x) + ", " +
           Num(s.segment.a.y) + ", " + Num(s.segment.b.x) + ", " +
           Num(s.segment.b.y) + "], \"noe\": " + Num(s.noe) +
           ", \"npe\": " + Num(s.npe) + ", \"ms\": " + Num(s.ms) + "}";
  }
  return out + "]";
}

std::string NumbersJson(const std::vector<double>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) out += (i ? ", " : "") + Num(v[i]);
  return out + "]";
}

std::string StringsJson(const std::vector<std::string>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) out += (i ? ", " : "") + Quote(v[i]);
  return out + "]";
}

int SelfTest() {
  int failures = 0;
  auto expect = [&](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "self-test FAILED: %s\n", what);
      ++failures;
    }
  };
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted input
  expect(Percentile(v, 0.5) == 50.0, "p50 of 1..100 is 50");
  expect(Percentile(v, 0.9) == 90.0, "p90 of 1..100 is 90 (10 above)");
  expect(!Percentile(v, 0.91).has_value(), "p91 of 100 has only 9 above");
  expect(!Percentile(v, 0.99).has_value(), "p99 of 100 is undefined");
  expect(!Percentile({}, 0.5).has_value(), "empty input is undefined");
  std::vector<double> w(999, 1.0);
  expect(!Percentile(w, 0.99).has_value(), "p99 needs 1000 samples");
  w.push_back(2.0);
  expect(Percentile(w, 0.99) == 1.0, "p99 of 1000 is rank 990");
  expect(MinSamplesFor(0.99) == 1000, "MinSamplesFor(0.99) == 1000");
  expect(MinSamplesFor(0.5) == 20, "MinSamplesFor(0.5) == 20");
  expect(MinSamplesFor(0.9) == 100, "MinSamplesFor(0.9) == 100");
  expect(Mix(1, 2, 3) == Mix(1, 2, 3) && Mix(1, 2, 3) != Mix(2, 2, 3),
         "Mix is a function of its inputs");
  std::printf("percentile self-test: %s\n", failures ? "FAILED" : "ok");
  return failures ? 1 : 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: coknn_perfbench --workload <oneshot_rw|fleet_batch|"
               "fleet_ticks> --seed <n> --seconds <s> --trace <0|1> "
               "[--ops <n>]\n       coknn_perfbench --self-test\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = val;
    } else if (key == "--seed") {
      args->seed = std::strtoull(val.c_str(), &end, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(val.c_str(), &end);
    } else if (key == "--trace") {
      args->trace = val == "1";
      if (val != "0" && val != "1") return false;
    } else if (key == "--ops") {
      args->ops = std::strtoull(val.c_str(), &end, 10);
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0.0;
}

}  // namespace

int Main(int argc, char** argv) {
  if (argc == 2 && std::string(argv[1]) == "--self-test") return SelfTest();
  Args args;
  if (!ParseArgs(argc, argv, &args) ||
      MakeWorkload(args.workload, args.seed) == nullptr) {
    return Usage();
  }

  Tracer off(false);
  std::vector<double> setups;
  std::unique_ptr<Workload> wl;
  for (int s = 0; s < kSetups; ++s) {
    wl.reset();
    wl = MakeWorkload(args.workload, args.seed);
    const Clock::time_point t0 = Clock::now();
    wl->Setup(&off);
    setups.push_back(Seconds(t0, Clock::now()));
  }
  // Through set-up and warm-up; the reference trees come after.
  const double setup_rss_mb = PeakRssMb();
  wl->PrepareChecks();
  const uint64_t fingerprint = wl->InputFingerprint();
  const std::string sizes = wl->SizesJson();

  Recorder untraced;
  uint64_t rounds = 0;
  const double phase_s = args.trace ? args.seconds / 2 : args.seconds;
  if (!RunPhase(wl.get(), RoundContext{&off, &untraced, false}, phase_s,
                !args.trace, args.ops, &rounds)) {
    std::fprintf(stderr,
                 "run ended after %llu rounds without the samples its "
                 "percentiles need\n",
                 static_cast<unsigned long long>(rounds));
    return 3;
  }

  Tracer tracer(true);
  Recorder traced;
  std::vector<Metric> metrics;
  std::vector<Base> bases;
  bool too_short = false;  // only with --ops
  if (args.trace) {
    wl.reset();
    wl = MakeWorkload(args.workload, args.seed);
    tracer.set_request(0);
    wl->Setup(&tracer);
    wl->PrepareChecks();
    uint64_t replayed = 0;
    (void)RunPhase(wl.get(), RoundContext{&tracer, &traced, true}, phase_s,
                   false, rounds, &replayed);
    metrics = PerLayer(traced, tracer, untraced.timed_s, &bases);
  } else {
    too_short = !Enough(untraced);
    if (!too_short) metrics = EndToEnd(untraced, setups, setup_rss_mb);
  }

  const uint64_t attempted = untraced.attempted + traced.attempted;
  const uint64_t failed = untraced.failed + traced.failed;
  const Recorder& main_rec = args.trace ? traced : untraced;

  // Artifact.
  mkdir(".bench_out", 0755);
  const std::string path = ".bench_out/" + args.workload + "-seed" +
                           std::to_string(args.seed) + "-trace" +
                           (args.trace ? "1" : "0") + ".json";
  std::ofstream out(path);
  out << "{\"workload\": " << Quote(args.workload)
      << ", \"seed\": " << args.seed << ", \"trace\": " << args.trace
      << ", \"rounds\": " << rounds << ", \"answers\": " << main_rec.answers
      << ", \"sizes\": " << sizes << ", \"input_fingerprint\": \""
      << std::to_string(fingerprint) << "\", \"setup_s\": [";
  for (size_t i = 0; i < setups.size(); ++i) {
    out << (i ? ", " : "") << Num(setups[i]);
  }
  out << "], \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"failed_frac\": "
      << Num(Ratio(static_cast<double>(failed),
                   static_cast<double>(attempted)))
      << ", \"failures\": "
      << StringsJson(untraced.failures.empty() ? traced.failures
                                               : untraced.failures)
      << ", \"full_scans\": " << FullScansJson(main_rec.full_scans)
      << ", \"peak_rss_run_mb\": " << Num(PeakRssMb())
      << ", \"round_ms\": " << NumbersJson(main_rec.round_ms)
      << ", \"metrics\": " << MetricsJson(metrics);
  if (args.trace) {
    out << ", \"layer_times\": {";
    bool first = true;
    for (const auto& [layer, lt] : tracer.LayerTimes()) {
      out << (first ? "" : ", ") << Quote(layer) << ": {\"total_s\": "
          << Num(lt.total_s) << ", \"self_s\": " << Num(lt.self_s)
          << ", \"spans\": " << lt.spans << "}";
      first = false;
    }
    out << "}, \"ratios\": {";
    for (size_t i = 0; i < bases.size(); ++i) {
      out << (i ? ", " : "") << Quote(bases[i].name)
          << ": {\"num\": " << Num(bases[i].num)
          << ", \"den\": " << Num(bases[i].den) << "}";
    }
    out << "}, \"spans\": " << tracer.SpansJson();
  }
  out << "}\n";
  out.close();

  std::fprintf(stderr,
               "%s seed=%llu rounds=%llu answers=%llu attempted=%llu "
               "failed=%llu full_scans=%zu artifact=%s\n",
               args.workload.c_str(), static_cast<unsigned long long>(args.seed),
               static_cast<unsigned long long>(rounds),
               static_cast<unsigned long long>(main_rec.answers),
               static_cast<unsigned long long>(attempted),
               static_cast<unsigned long long>(failed),
               main_rec.full_scans.size(), path.c_str());
  for (const std::string& f : main_rec.failures) {
    std::fprintf(stderr, "  failure: %s\n", f.c_str());
  }
  if (too_short) {
    std::fprintf(stderr, "%llu rounds are too few for the percentiles\n",
                 static_cast<unsigned long long>(rounds));
    return 3;
  }
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-34s %14.6g %s\n", m.name.c_str(), m.value,
                 m.unit);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              MetricsJson(metrics).c_str());
  return 0;
}

}  // namespace perfbench
}  // namespace conn

int main(int argc, char** argv) { return conn::perfbench::Main(argc, argv); }
