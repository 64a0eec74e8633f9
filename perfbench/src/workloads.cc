// The three benchmark workloads.  README.md gives the reason for each, its
// sizes, and which layer metric should move which end-to-end metric.
//
// All three run on UL data (uniform points, LA-like street obstacles,
// |P| = |O| / 2, the paper's two-tree configuration) and are closed loops:
// one client thread issues a call and waits for its reply before the next.

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "checks.h"
#include "common/rng.h"
#include "core/coknn.h"
#include "datagen/datasets.h"
#include "datagen/fleet.h"
#include "datagen/workload.h"
#include "exec/batch.h"
#include "exec/subscription.h"
#include "rtree/best_first.h"
#include "rtree/str_bulk_load.h"
#include "vis/dijkstra.h"
#include "vis/obstacle_set.h"
#include "vis/vis_graph.h"

namespace conn {
namespace perfbench {
namespace {

// Seed streams (see Mix()).
enum Stream : uint64_t {
  kSceneStream = 1,
  kQueryStream,
  kWarmStream,
  kWriteStream,
  kCheckStream,
  kBatchStream,
  kRouteStream,
};

/// Scene scale against the paper's LA cardinality: |O| = 525, |P| = 262.
/// Larger scenes make full-scan queries (NOE = |O|) cost tens of seconds
/// each, which a run of bounded length cannot hold.
constexpr double kScale = 0.004;

/// Independent scenes per run.  Per-scene cost differs by tens of percent
/// between seeds; rounds rotate over the cities so a run averages them.
constexpr uint64_t kCities = 8;

constexpr size_t kK = 5;
constexpr double kQlPercent = 4.5;

/// One answer in this many is compared bit-for-bit against the reference
/// engine; one in kReplayEvery traced answers is replayed.
constexpr uint64_t kReferenceEvery = 8;
constexpr uint64_t kReplayEvery = 8;

size_t Workers() {
  return std::max<size_t>(1, std::min<size_t>(
                                 4, std::thread::hardware_concurrency()));
}

// ---------------------------------------------------------------------------
// Scene, trees, and the pieces every workload shares.
// ---------------------------------------------------------------------------

struct Scene {
  datagen::DatasetPair pair;
  std::unique_ptr<rtree::RStarTree> tp;
  std::unique_ptr<rtree::RStarTree> to;
};

std::unique_ptr<rtree::RStarTree> Load(std::vector<rtree::DataObject> objs) {
  return std::make_unique<rtree::RStarTree>(
      std::move(rtree::StrBulkLoad(std::move(objs)).value()));
}

/// City \p city of the run: an independent UL scene drawn from the seed.
Scene BuildScene(uint64_t seed, uint64_t city, Tracer* tracer) {
  Scene s;
  const size_t obstacles =
      static_cast<size_t>(static_cast<double>(datagen::kLaCardinality) *
                          kScale);
  {
    Scope span(tracer, "datagen", "MakeDatasetPair");
    s.pair = datagen::MakeDatasetPair(datagen::PointDistribution::kUniform,
                                      obstacles / 2, obstacles,
                                      Mix(seed, kSceneStream, city));
  }
  Scope span(tracer, "rtree", "StrBulkLoad");
  s.tp = Load(datagen::ToPointObjects(s.pair.points));
  s.to = Load(datagen::ToObstacleObjects(s.pair.obstacles));
  return s;
}

/// Unbuffered copies of the scene's trees: the reference engine and the
/// trace replay read these, so neither disturbs the measured buffer pools.
struct Mirror {
  std::unique_ptr<rtree::RStarTree> tp;
  std::unique_ptr<rtree::RStarTree> to;
};

Mirror BuildMirror(const Scene& s) {
  return Mirror{Load(datagen::ToPointObjects(s.pair.points)),
                Load(datagen::ToObstacleObjects(s.pair.obstacles))};
}

void ConfigureBuffer(rtree::RStarTree* tree, size_t pages, bool async_io,
                     Tracer* tracer) {
  Scope span(tracer, "storage", "ConfigureBuffer");
  storage::BufferOptions opts = tree->pager().buffer_pool().options();
  opts.capacity_pages = pages;
  opts.policy = storage::EvictionPolicy::kTwoQueue;
  opts.async_io = async_io;
  tree->pager().ConfigureBuffer(opts);
}

/// Pager and device counters summed over both trees.
struct PagerSnap {
  uint64_t faults = 0, hits = 0, device_reads = 0;
  uint64_t prefetch_issued = 0, prefetch_hits = 0;

  static PagerSnap Of(const Scene& s) {
    PagerSnap out;
    for (const rtree::RStarTree* t : {s.tp.get(), s.to.get()}) {
      const storage::Pager& p = t->pager();
      out.faults += p.faults();
      out.hits += p.hits();
      out.device_reads += p.file().device_reads();
      out.prefetch_issued += p.prefetch_issued();
      out.prefetch_hits += p.prefetch_hits();
    }
    return out;
  }
};

/// Adds the storage deltas of a timed read to \p rec.
void RecordReads(const PagerSnap& a, const PagerSnap& b, Recorder* rec) {
  rec->faults += b.faults - a.faults;
  rec->hits += b.hits - a.hits;
  rec->query_device_reads += b.device_reads - a.device_reads;
  rec->prefetch_issued += b.prefetch_issued - a.prefetch_issued;
  rec->prefetch_hits += b.prefetch_hits - a.prefetch_hits;
}

uint64_t MissQueueP99(const Scene& s) {
  return std::max(s.tp->pager().MissQueueDepths().p99,
                  s.to->pager().MissQueueDepths().p99);
}

/// Records one answer's engine counters and wall time.
void RecordAnswer(uint64_t round, const core::CoknnResult& r, double ms,
                  size_t obstacle_count, Recorder* rec) {
  rec->query_ms.push_back(ms);
  rec->query_ms_sum += ms;
  rec->busy_s += r.stats.cpu_seconds;
  ++rec->answers;
  rec->totals += r.stats;
  if (r.stats.lemma2_terminations > 0) ++rec->lemma2_stops;
  if (r.stats.obstacles_evaluated >= obstacle_count) {
    rec->full_scans.push_back(FullScan{round, round % kCities, r.query,
                                       r.stats.obstacles_evaluated,
                                       r.stats.points_evaluated, ms});
  }
}

/// Structure check on every answer; bit-for-bit reference comparison on a
/// seeded sample.  Runs on the current tree state, before the next write.
void CheckAnswer(uint64_t seed, uint64_t index, const core::CoknnResult& r,
                 size_t data_size, const Mirror& ref, Recorder* rec) {
  std::string why = CheckStructure(r, data_size);
  if (why.empty() && Mix(seed, kCheckStream, index) % kReferenceEvery == 0) {
    const core::CoknnResult want = core::CoknnQuery(
        *ref.tp, *ref.to, r.query, r.k, ReferenceOptions());
    why = CompareExact(r, want);
  }
  if (!why.empty()) {
    char seg[128];
    std::snprintf(seg, sizeof(seg), " (segment %.17g %.17g %.17g %.17g)",
                  r.query.a.x, r.query.a.y, r.query.b.x, r.query.b.y);
    rec->Fail("answer " + std::to_string(index) + ": " + why + seg);
  }
}

/// Replays an answer's rtree and vis work outside the engine: best-first
/// descents of Tp and To out to the answer's final k-th obstructed
/// distance, a fresh VisGraph over the obstacles found, and a Dijkstra
/// scan from every point found out to the same distance.
void Replay(const core::CoknnResult& r, const Mirror& ref, Tracer* tracer,
            Recorder* rec) {
  double reach = 0.0;
  for (const core::CoknnTuple& t : r.tuples) {
    if (t.candidates.empty()) continue;
    const size_t j = t.candidates.size() - 1;
    reach = std::max({reach, r.OdistAt(t.range.lo, j),
                      r.OdistAt(t.range.hi, j)});
  }
  if (r.tuples.empty() || !std::isfinite(reach)) return;
  ++rec->replays;

  std::vector<geom::Vec2> points;
  std::vector<rtree::DataObject> obstacles;
  const uint64_t nodes0 = ref.tp->pager().faults() + ref.to->pager().faults();
  Clock::time_point t0 = Clock::now();
  {
    Scope span(tracer, "rtree", "replay_descent");
    rtree::DataObject obj;
    double dist = 0.0;
    rtree::BestFirstIterator pit(*ref.tp, r.query);
    while (pit.PeekDist() <= reach && pit.Next(&obj, &dist)) {
      points.push_back(obj.rect.lo);
    }
    rtree::BestFirstIterator oit(*ref.to, r.query);
    while (oit.PeekDist() <= reach && oit.Next(&obj, &dist)) {
      obstacles.push_back(obj);
    }
  }
  Clock::time_point t1 = Clock::now();
  rec->replay_descent_s += Seconds(t0, t1);
  // The mirror trees are unbuffered: every node fetch is a fault.
  rec->replay_nodes +=
      ref.tp->pager().faults() + ref.to->pager().faults() - nodes0;

  vis::VisGraph graph(datagen::Workspace());
  {
    Scope span(tracer, "vis", "replay_maintain");
    for (const rtree::DataObject& o : obstacles) {
      graph.AddObstacle(o.rect, o.id);
    }
  }
  Clock::time_point t2 = Clock::now();
  rec->replay_maintain_s += Seconds(t1, t2);
  {
    Scope span(tracer, "vis", "replay_dijkstra");
    for (const geom::Vec2& p : points) {
      vis::DijkstraScan scan(&graph, p);
      vis::VertexId v = 0;
      double dist = 0.0;
      int32_t pred = 0;
      while (scan.PeekDist() <= reach && scan.Next(&v, &dist, &pred)) {
      }
    }
  }
  rec->replay_dijkstra_s += Seconds(t2, Clock::now());
}

/// FNV-1a over raw bytes.
struct Fingerprint {
  uint64_t h = 1469598103934665603ULL;
  void Add(const void* data, size_t n) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) h = (h ^ p[i]) * 1099511628211ULL;
  }
  void Add(double v) { Add(&v, sizeof(v)); }
  void Add(const geom::Vec2& v) {
    Add(v.x);
    Add(v.y);
  }
  void Add(const geom::Segment& s) {
    Add(s.a);
    Add(s.b);
  }
  void Add(const datagen::DatasetPair& pair) {
    for (const geom::Vec2& p : pair.points) Add(p);
    for (const geom::Rect& r : pair.obstacles) {
      Add(r.lo);
      Add(r.hi);
    }
  }
};

std::string Kv(const char* key, double v, bool last = false) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "\"%s\": %.10g%s", key, v,
                last ? "" : ", ");
  return buf;
}

size_t BufferPages(const rtree::RStarTree& t, double share) {
  return std::max<size_t>(
      1, static_cast<size_t>(share * static_cast<double>(t.PageCount())));
}

/// Opens a sizes object with one city's sizes (all cities of a run have
/// the same cardinalities).
std::string SceneSizes(const Scene& s, double tp_share, double to_share) {
  std::string out = "{";
  return out + Kv("cities", kCities) + Kv("points", s.pair.points.size()) +
         Kv("obstacles", s.pair.obstacles.size()) +
         Kv("tp_pages", s.tp->PageCount()) +
         Kv("to_pages", s.to->PageCount()) +
         Kv("tp_buffer_pages", BufferPages(*s.tp, tp_share)) +
         Kv("to_buffer_pages", BufferPages(*s.to, to_share));
}

/// Transient-POI writes on a city's data tree: each call inserts a fresh
/// point (outside every obstacle) or deletes an earlier one, so |P| stays
/// within 2 × kTransient of its start.  The mirror tree gets the same
/// write, untimed, so reference answers see the same tree state.
class PoiWriter {
 public:
  static constexpr size_t kTransient = 16;

  void Prepare(const Scene& scene, Mirror* ref) {
    scene_ = &scene;
    ref_ = ref;
    free_space_ = std::make_unique<vis::ObstacleSet>(datagen::Workspace(),
                                                     /*grid_cells=*/128);
    for (size_t i = 0; i < scene.pair.obstacles.size(); ++i) {
      free_space_->Add(scene.pair.obstacles[i], i);
    }
    next_id_ = scene.pair.points.size();
  }

  /// Write number \p i of the run; returns its wall time in seconds.
  double Write(uint64_t seed, uint64_t i, const RoundContext& ctx) {
    Recorder* rec = ctx.rec;
    Rng rng(Mix(seed, kWriteStream, i));
    const bool insert =
        transient_.empty() ||
        (transient_.size() < 2 * kTransient && rng.Bernoulli(0.5));
    rtree::DataObject obj;
    if (insert) {
      geom::Vec2 p;
      do {
        p = {rng.Uniform(0.0, 10000.0), rng.Uniform(0.0, 10000.0)};
      } while (free_space_->PointInAnyInterior(p));
      obj = rtree::DataObject::Point(p, next_id_++);
    } else {
      const size_t at = rng.UniformU64(transient_.size());
      obj = transient_[at];
      transient_[at] = transient_.back();
      transient_.pop_back();
    }
    rtree::RStarTree& tp = *scene_->tp;
    const uint64_t w0 = tp.pager().file().device_writes();
    const Clock::time_point t0 = Clock::now();
    Status st;
    {
      Scope span(ctx.tracer, "rtree", insert ? "Insert" : "Delete");
      st = insert ? tp.Insert(obj) : tp.Delete(obj);
    }
    const double s = Seconds(t0, Clock::now());
    rec->write_device_writes += tp.pager().file().device_writes() - w0;
    rec->write_us.push_back(s * 1e6);
    ++rec->writes;
    ++rec->attempted;
    const Status mirrored =
        insert ? ref_->tp->Insert(obj) : ref_->tp->Delete(obj);
    if (!st.ok() || !mirrored.ok()) {
      rec->Fail("write " + std::to_string(i) + ": " + st.ToString() + " / " +
                mirrored.ToString());
    } else if (insert) {
      transient_.push_back(obj);
    }
    return s;
  }

 private:
  const Scene* scene_ = nullptr;
  Mirror* ref_ = nullptr;
  std::unique_ptr<vis::ObstacleSet> free_space_;
  std::vector<rtree::DataObject> transient_;
  uint64_t next_id_ = 0;
};

/// One city of a run: its scene, the reference mirror, and its POI writer
/// (which points into the other two, so cities are held by pointer).
struct City {
  Scene scene;
  Mirror ref;
  PoiWriter writer;

  void PrepareChecks() {
    ref = BuildMirror(scene);
    writer.Prepare(scene, &ref);
  }
};

// ---------------------------------------------------------------------------
// oneshot_rw: one client, paper-style COkNN queries, one R-tree write after
// each.
// ---------------------------------------------------------------------------

class OneshotRw : public Workload {
 public:
  /// Buffer frames per tree, as a share of the tree's pages; below one
  /// query's working set, so the pool keeps missing.
  static constexpr double kBufferShare = 0.05;
  /// R-tree writes after each query.  The first runs on caches the query
  /// just cooled; the rest show the warm write path.
  static constexpr size_t kWritesPerRound = 4;
  static constexpr size_t kWarmQueries = 4;
  /// Consecutive queries per batch_p50_ms group.
  static constexpr size_t kGroup = 16;

  explicit OneshotRw(uint64_t seed) : seed_(seed) {
    wopts_.query_length = datagen::QueryLengthFromPercent(kQlPercent);
  }

  void Setup(Tracer* tracer) override {
    for (uint64_t c = 0; c < kCities; ++c) {
      cities_.push_back(std::make_unique<City>());
      Scene& s = cities_.back()->scene;
      s = BuildScene(seed_, c, tracer);
      ConfigureBuffer(s.tp.get(), BufferPages(*s.tp, kBufferShare), false,
                      tracer);
      ConfigureBuffer(s.to.get(), BufferPages(*s.to, kBufferShare), false,
                      tracer);
      for (uint64_t i = 0; i < kWarmQueries; ++i) {
        Scope span(tracer, "core", "CoknnQuery");
        (void)core::CoknnQuery(*s.tp, *s.to,
                               Segment(kWarmStream, c * kWarmQueries + i), kK);
      }
    }
  }

  void PrepareChecks() override {
    for (auto& city : cities_) city->PrepareChecks();
  }

  void Round(uint64_t i, const RoundContext& ctx) override {
    Recorder* rec = ctx.rec;
    City& city = *cities_[i % kCities];
    const Scene& s = city.scene;
    const geom::Segment q = Segment(kQueryStream, i);

    const PagerSnap s0 = PagerSnap::Of(s);
    const Clock::time_point t0 = Clock::now();
    core::CoknnResult r;
    {
      Scope span(ctx.tracer, "core", "CoknnQuery");
      r = core::CoknnQuery(*s.tp, *s.to, q, kK);
    }
    const Clock::time_point t1 = Clock::now();
    RecordReads(s0, PagerSnap::Of(s), rec);
    const double query_s = Seconds(t0, t1);
    ++rec->attempted;
    RecordAnswer(i, r, query_s * 1e3, s.pair.obstacles.size(), rec);
    CheckAnswer(seed_, i, r, s.tp->size(), city.ref, rec);
    if (ctx.replay && Mix(seed_, kCheckStream, i) % kReplayEvery == 1) {
      Replay(r, city.ref, ctx.tracer, rec);
    }

    double write_s = 0.0;
    for (size_t w = 0; w < kWritesPerRound; ++w) {
      write_s += city.writer.Write(seed_, i * kWritesPerRound + w, ctx);
    }
    rec->round_ms.push_back((query_s + write_s) * 1e3);
    rec->timed_s += query_s + write_s;
    group_s_ += query_s;
    if (++group_n_ == kGroup) {
      rec->group_ms.push_back(group_s_ * 1e3);
      group_s_ = 0.0;
      group_n_ = 0;
    }
  }

  uint64_t InputFingerprint() const override {
    Fingerprint f;
    for (const auto& city : cities_) f.Add(city->scene.pair);
    for (uint64_t i = 0; i < 8; ++i) f.Add(Segment(kQueryStream, i));
    return f.h;
  }

  std::string SizesJson() const override {
    return SceneSizes(cities_[0]->scene, kBufferShare, kBufferShare) +
           Kv("k", kK) + Kv("ql_percent", kQlPercent, true) + "}";
  }

 private:
  geom::Segment Segment(uint64_t stream, uint64_t i) const {
    return datagen::RandomQuerySegment(datagen::Workspace(), wopts_, {},
                                       Mix(seed_, stream, i));
  }

  uint64_t seed_;
  datagen::WorkloadOptions wopts_;
  std::vector<std::unique_ptr<City>> cities_;
  double group_s_ = 0.0;
  size_t group_n_ = 0;
};

// ---------------------------------------------------------------------------
// fleet_batch: hub-clustered segment batches, with a share of uniform ones,
// through BatchRunner::Run, one batch after another.
// ---------------------------------------------------------------------------

class FleetBatch : public Workload {
 public:
  static constexpr size_t kBatch = 32;
  static constexpr size_t kHubs = 2;
  static constexpr double kHubRadius = 300.0;
  static constexpr double kUniformShare = 0.25;
  /// Buffer frames per tree, as a share of its pages: smaller than the
  /// trees, so the async miss pipeline (on To) has misses to overlap.
  static constexpr double kBufferShare = 0.25;
  static constexpr size_t kWritesPerBatch = 10;
  static constexpr size_t kWarmQueries = 8;

  explicit FleetBatch(uint64_t seed) : seed_(seed) {}

  void Setup(Tracer* tracer) override {
    exec::BatchOptions opts;
    opts.num_threads = Workers();
    for (uint64_t c = 0; c < kCities; ++c) {
      cities_.push_back(std::make_unique<City>());
      Scene& s = cities_.back()->scene;
      s = BuildScene(seed_, c, tracer);
      // The data tree stays synchronous: Pager::Write must not overlap a
      // pager's own I/O workers, and the client writes Tp between batches.
      ConfigureBuffer(s.tp.get(), BufferPages(*s.tp, kBufferShare), false,
                      tracer);
      ConfigureBuffer(s.to.get(), BufferPages(*s.to, kBufferShare), true,
                      tracer);
      runners_.push_back(
          std::make_unique<exec::BatchRunner>(*s.tp, *s.to, opts));
      std::vector<exec::BatchQuery> warm = MakeBatch(kWarmStream, c, tracer);
      warm.resize(kWarmQueries);
      Scope span(tracer, "exec", "BatchRunner::Run");
      (void)runners_.back()->Run(warm);
    }
  }

  void PrepareChecks() override {
    for (auto& city : cities_) city->PrepareChecks();
  }

  void Round(uint64_t i, const RoundContext& ctx) override {
    Recorder* rec = ctx.rec;
    City& city = *cities_[i % kCities];
    const Scene& s = city.scene;
    const std::vector<exec::BatchQuery> batch =
        MakeBatch(kBatchStream, i, ctx.tracer);

    const PagerSnap s0 = PagerSnap::Of(s);
    const Clock::time_point t0 = Clock::now();
    exec::BatchResult res;
    {
      Scope span(ctx.tracer, "exec", "BatchRunner::Run");
      res = runners_[i % kCities]->Run(batch);
    }
    const double run_s = Seconds(t0, Clock::now());
    RecordReads(s0, PagerSnap::Of(s), rec);
    rec->group_ms.push_back(run_s * 1e3);
    ++rec->rounds_exec;
    const exec::BatchStats& bs = res.stats;
    rec->shards += bs.shard_count;
    rec->shards_parked += bs.shards_parked;
    rec->reuse_hits += bs.obstacle_reuse_hits;
    rec->obstacles_inserted += bs.obstacles_inserted;
    rec->capacity_s += run_s * static_cast<double>(bs.threads_used);

    for (size_t j = 0; j < batch.size(); ++j) {
      const uint64_t index = i * kBatch + j;
      ++rec->attempted;
      if (!res.outcomes[j].coknn.has_value()) {
        rec->Fail("answer " + std::to_string(index) + ": missing");
        continue;
      }
      const core::CoknnResult& r = *res.outcomes[j].coknn;
      // Per-answer latency: the query's own engine wall time in the run.
      RecordAnswer(i, r, r.stats.cpu_seconds * 1e3, s.pair.obstacles.size(),
                   rec);
      CheckAnswer(seed_, index, r, s.tp->size(), city.ref, rec);
      if (ctx.replay && Mix(seed_, kCheckStream, index) % kReplayEvery == 1) {
        Replay(r, city.ref, ctx.tracer, rec);
      }
    }

    double write_s = 0.0;
    for (size_t w = 0; w < kWritesPerBatch; ++w) {
      write_s += city.writer.Write(seed_, i * kWritesPerBatch + w, ctx);
    }
    rec->round_ms.push_back((run_s + write_s) * 1e3);
    rec->timed_s += run_s + write_s;
  }

  void Finish(Recorder* rec) override {
    for (const auto& city : cities_) {
      rec->miss_queue_p99 =
          std::max(rec->miss_queue_p99, MissQueueP99(city->scene));
    }
  }

  uint64_t InputFingerprint() const override {
    Fingerprint f;
    for (const auto& city : cities_) f.Add(city->scene.pair);
    Tracer off(false);
    for (uint64_t i = 0; i < 2; ++i) {
      for (const exec::BatchQuery& q : MakeBatch(kBatchStream, i, &off)) {
        f.Add(q.segment);
      }
    }
    return f.h;
  }

  std::string SizesJson() const override {
    return SceneSizes(cities_[0]->scene, kBufferShare, kBufferShare) +
           Kv("batch", kBatch) + Kv("workers", Workers()) +
           Kv("writes_per_batch", kWritesPerBatch, true) + "}";
  }

 private:
  /// kBatch segments: each is uniform with probability kUniformShare,
  /// else starts within kHubRadius of one of kHubs hubs drawn per batch.
  std::vector<exec::BatchQuery> MakeBatch(uint64_t stream, uint64_t i,
                                          Tracer* tracer) const {
    Scope span(tracer, "datagen", "MakeBatch");
    Rng rng(Mix(seed_, stream, i));
    const geom::Rect ws = datagen::Workspace();
    const double length = datagen::QueryLengthFromPercent(kQlPercent);
    datagen::WorkloadOptions wopts;
    wopts.query_length = length;
    std::vector<geom::Vec2> hubs;
    for (size_t h = 0; h < kHubs; ++h) {
      hubs.push_back({rng.Uniform(ws.lo.x + 500, ws.hi.x - 500),
                      rng.Uniform(ws.lo.y + 500, ws.hi.y - 500)});
    }
    std::vector<exec::BatchQuery> batch;
    for (size_t j = 0; j < kBatch; ++j) {
      if (rng.Bernoulli(kUniformShare)) {
        batch.push_back(exec::BatchQuery::Coknn(
            datagen::RandomQuerySegment(ws, wopts, {}, rng.NextU64()), kK));
        continue;
      }
      const geom::Vec2& hub = hubs[j % kHubs];
      const geom::Vec2 a{hub.x + rng.Uniform(-kHubRadius, kHubRadius),
                         hub.y + rng.Uniform(-kHubRadius, kHubRadius)};
      const double theta = rng.Uniform(0.0, 6.283185307179586);
      const geom::Vec2 b{std::clamp(a.x + length * std::cos(theta), ws.lo.x,
                                    ws.hi.x),
                         std::clamp(a.y + length * std::sin(theta), ws.lo.y,
                                    ws.hi.y)};
      batch.push_back(exec::BatchQuery::Coknn(geom::Segment(a, b), kK));
    }
    return batch;
  }

  uint64_t seed_;
  std::vector<std::unique_ptr<City>> cities_;
  std::vector<std::unique_ptr<exec::BatchRunner>> runners_;
};

// ---------------------------------------------------------------------------
// fleet_ticks: clustered routes through SubscriptionService::Tick with
// differential repair; ended routes are replaced by fresh ones.
// ---------------------------------------------------------------------------

class FleetTicks : public Workload {
 public:
  static constexpr size_t kClients = 32;
  static constexpr uint64_t kWarmTicks = 2;
  /// Routes are drawn kRoutePool at a time around the pool's own depots,
  /// so a run visits many depot sets instead of the first few.
  static constexpr size_t kRoutePool = 32;
  /// Two legs of ~400 units at ~64 units per tick: a route lasts about a
  /// dozen ticks, so a few clients are replaced on every tick.
  static constexpr size_t kWaypoints = 3;

  explicit FleetTicks(uint64_t seed) : seed_(seed) {}

  void Setup(Tracer* tracer) override {
    exec::SubscriptionOptions opts;
    opts.batch.num_threads = Workers();
    opts.batch.query.use_differential_repair = true;
    for (uint64_t c = 0; c < kCities; ++c) {
      cities_.push_back(std::make_unique<TickCity>());
      TickCity& tc = *cities_.back();
      tc.index = c;
      Scene& s = tc.city.scene;
      s = BuildScene(seed_, c, tracer);
      // The pool holds both trees whole: after warm-up the loop reads no
      // device pages.
      ConfigureBuffer(s.tp.get(), s.tp->PageCount(), false, tracer);
      ConfigureBuffer(s.to.get(), s.to->PageCount(), false, tracer);
      tc.service =
          std::make_unique<exec::SubscriptionService>(*s.tp, *s.to, opts);
      for (size_t k = 0; k < kClients; ++k) Subscribe(&tc, tracer);
      for (uint64_t t = 0; t < kWarmTicks; ++t) {
        Scope span(tracer, "exec", "Tick");
        const exec::TickResult tr = tc.service->Tick();
        Replace(&tc, tr.tick, tracer, nullptr);
      }
    }
  }

  void PrepareChecks() override {
    for (auto& tc : cities_) tc->city.ref = BuildMirror(tc->city.scene);
  }

  void Round(uint64_t i, const RoundContext& ctx) override {
    Recorder* rec = ctx.rec;
    TickCity& tc = *cities_[i % kCities];
    const Scene& s = tc.city.scene;
    const PagerSnap s0 = PagerSnap::Of(s);
    const Clock::time_point t0 = Clock::now();
    exec::TickResult tr;
    {
      Scope span(ctx.tracer, "exec", "Tick");
      tr = tc.service->Tick();
    }
    const double tick_s = Seconds(t0, Clock::now());
    RecordReads(s0, PagerSnap::Of(s), rec);
    rec->round_ms.push_back(tick_s * 1e3);
    rec->group_ms.push_back(tick_s * 1e3);
    ++rec->rounds_exec;
    const exec::BatchStats& bs = tr.stats;
    rec->shards += bs.shard_count;
    rec->shards_parked += bs.shards_parked;
    rec->reuse_hits += bs.obstacle_reuse_hits;
    rec->obstacles_inserted += bs.obstacles_inserted;
    rec->workspaces_adopted += bs.workspaces_adopted;
    rec->capacity_s += tick_s * static_cast<double>(bs.threads_used);

    for (const exec::ClientUpdate& u : tr.updates) {
      const uint64_t index = rec->answers;
      ++rec->attempted;
      if (!u.status.ok() || !u.result.has_value()) {
        rec->Fail("client " + std::to_string(u.client) + " tick " +
                  std::to_string(tr.tick) + ": " + u.status.ToString());
        continue;
      }
      const core::CoknnResult& r = *u.result;
      RecordAnswer(i, r, r.stats.cpu_seconds * 1e3, s.pair.obstacles.size(),
                   rec);
      CheckAnswer(seed_, index, r, s.tp->size(), tc.city.ref, rec);
      if (ctx.replay && Mix(seed_, kCheckStream, index) % kReplayEvery == 1) {
        Replay(r, tc.city.ref, ctx.tracer, rec);
      }
    }
    if (tc.service->quarantined_clients() > 0) {
      rec->Fail("quarantined clients: " +
                std::to_string(tc.service->quarantined_clients()));
    }
    rec->timed_s += tick_s + Replace(&tc, tr.tick, ctx.tracer, rec);
  }

  uint64_t InputFingerprint() const override {
    Fingerprint f;
    for (const auto& tc : cities_) {
      f.Add(tc->city.scene.pair);
      for (const datagen::FleetRoute& r : Routes(tc->index, 0)) {
        for (const geom::Vec2& p : r.waypoints) f.Add(p);
      }
    }
    return f.h;
  }

  std::string SizesJson() const override {
    return SceneSizes(cities_[0]->city.scene, 1.0, 1.0) +
           Kv("clients_per_city", kClients) +
           Kv("workers", Workers(), true) + "}";
  }

 private:
  struct Live {
    int64_t id = -1;
    uint64_t first_tick = 0;
    double length = 0.0;
    double speed = 1.0;
  };

  /// One city's service and the clients it serves.
  struct TickCity {
    uint64_t index = 0;
    City city;
    std::unique_ptr<exec::SubscriptionService> service;
    std::vector<datagen::FleetRoute> pool;
    uint64_t next_route = 0;
    std::vector<Live> live;
  };

  std::vector<datagen::FleetRoute> Routes(uint64_t city,
                                          uint64_t pool) const {
    datagen::FleetOptions fopts;  // clustered depots, dyadic speeds
    fopts.waypoints_per_route = kWaypoints;
    return datagen::MakeFleetRoutes(kRoutePool, datagen::Workspace(), fopts,
                                    Mix(seed_, kRouteStream,
                                        (city << 32) | pool));
  }

  /// Generates the city's next route pool once the current one is used up.
  void RefillRoutes(TickCity* tc, Tracer* tracer) const {
    if (tc->next_route % kRoutePool != 0) return;
    Scope span(tracer, "datagen", "MakeFleetRoutes");
    tc->pool = Routes(tc->index, tc->next_route / kRoutePool);
  }

  /// Subscribes the city's next route (the pool must hold it).
  void Subscribe(TickCity* tc, Tracer* tracer) {
    RefillRoutes(tc, tracer);
    const datagen::FleetRoute& route = tc->pool[tc->next_route++ % kRoutePool];
    Live live;
    for (size_t w = 1; w < route.waypoints.size(); ++w) {
      const geom::Vec2 d = route.waypoints[w] - route.waypoints[w - 1];
      live.length += std::sqrt(d.x * d.x + d.y * d.y);
    }
    live.speed = route.speed;
    live.first_tick = tc->service->ticks();
    Scope span(tracer, "exec", "Subscribe");
    live.id = tc->service
                  ->Subscribe(exec::RouteSpec{route.waypoints, route.speed},
                              kK)
                  .value();
    tc->live.push_back(live);
  }

  /// Replaces every client whose route ended on tick \p tick (unsubscribe,
  /// then subscribe a fresh route); returns the time the service calls
  /// took, recording each replacement as one write when \p rec is set.
  double Replace(TickCity* tc, uint64_t tick, Tracer* tracer,
                 Recorder* rec) {
    double total_s = 0.0;
    for (size_t c = 0; c < tc->live.size();) {
      const Live& l = tc->live[c];
      const double covered =
          static_cast<double>(tick - l.first_tick + 1) * l.speed;
      if (covered < l.length) {
        ++c;
        continue;
      }
      const int64_t id = l.id;
      tc->live[c] = tc->live.back();
      tc->live.pop_back();
      RefillRoutes(tc, tracer);
      const Clock::time_point t0 = Clock::now();
      Status st;
      {
        Scope span(tracer, "exec", "Unsubscribe");
        st = tc->service->Unsubscribe(id);
      }
      Subscribe(tc, tracer);
      const double s = Seconds(t0, Clock::now());
      total_s += s;
      if (rec != nullptr) {
        rec->write_us.push_back(s * 1e6);
        ++rec->writes;
        ++rec->attempted;
        if (!st.ok()) rec->Fail("unsubscribe: " + st.ToString());
      }
    }
    return total_s;
  }

  uint64_t seed_;
  std::vector<std::unique_ptr<TickCity>> cities_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed) {
  if (name == "oneshot_rw") return std::make_unique<OneshotRw>(seed);
  if (name == "fleet_batch") return std::make_unique<FleetBatch>(seed);
  if (name == "fleet_ticks") return std::make_unique<FleetTicks>(seed);
  return nullptr;
}

}  // namespace perfbench
}  // namespace conn
