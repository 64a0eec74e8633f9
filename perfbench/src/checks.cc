#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "geom/interval.h"

namespace conn {
namespace perfbench {
namespace {

// Tiling tolerance on the segment parameter (workspace units along q).
constexpr double kTileEps = 1e-6;

std::string At(size_t tuple, const std::string& what) {
  return "tuple " + std::to_string(tuple) + ": " + what;
}

}  // namespace

std::string CheckStructure(const core::CoknnResult& r, size_t data_size) {
  const double len = r.query.Length();
  // Tuples and unreachable intervals, merged in order, must tile [0, len].
  std::vector<geom::Interval> pieces;
  for (const core::CoknnTuple& t : r.tuples) pieces.push_back(t.range);
  for (const geom::Interval& iv : r.unreachable.intervals()) {
    pieces.push_back(iv);
  }
  std::sort(pieces.begin(), pieces.end(),
            [](const geom::Interval& a, const geom::Interval& b) {
              return a.lo < b.lo;
            });
  double reach = 0.0;
  for (size_t i = 0; i < pieces.size(); ++i) {
    if (pieces[i].hi < pieces[i].lo - kTileEps) return "inverted interval";
    const double expect = i == 0 ? 0.0 : pieces[i - 1].hi;
    if (std::abs(pieces[i].lo - expect) > kTileEps) {
      return "gap or overlap at t=" + std::to_string(pieces[i].lo);
    }
  }
  if (pieces.empty() || std::abs(pieces.back().hi - len) > kTileEps) {
    return "tiling does not end at the segment length";
  }
  for (size_t i = 1; i < r.tuples.size(); ++i) {
    if (r.tuples[i].range.lo < r.tuples[i - 1].range.hi - kTileEps) {
      return At(i, "tuples out of order");
    }
  }
  for (size_t i = 0; i < r.tuples.size(); ++i) {
    const core::CoknnTuple& t = r.tuples[i];
    reach += t.range.Length();
    if (t.candidates.size() > r.k) {
      return At(i, std::to_string(t.candidates.size()) + " candidates");
    }
    if (t.candidates.size() < r.k && r.stats.points_evaluated < data_size) {
      return At(i, "fewer than k candidates without a full scan");
    }
    std::set<int64_t> ids;
    const double mid = t.range.Mid();
    double prev = -1.0;
    for (size_t j = 0; j < t.candidates.size(); ++j) {
      if (!ids.insert(t.candidates[j].pid).second) {
        return At(i, "duplicate candidate");
      }
      const double d = r.OdistAt(mid, j);
      if (!std::isfinite(d) || d < prev) {
        return At(i, "candidates not ordered by odist at the midpoint");
      }
      prev = d;
    }
  }
  if (std::abs(reach - (len - r.unreachable.TotalLength())) > 1e-3) {
    return "tuples do not cover the reachable part of q";
  }
  return "";
}

std::string CompareExact(const core::CoknnResult& got,
                         const core::CoknnResult& want) {
  if (!(got.unreachable == want.unreachable)) return "unreachable differs";
  if (got.tuples.size() != want.tuples.size()) return "tuple count differs";
  for (size_t i = 0; i < got.tuples.size(); ++i) {
    const core::CoknnTuple& g = got.tuples[i];
    const core::CoknnTuple& w = want.tuples[i];
    if (g.range.lo != w.range.lo || g.range.hi != w.range.hi) {
      char buf[160];
      std::snprintf(buf, sizeof(buf), "range [%.17g, %.17g] != [%.17g, %.17g]",
                    g.range.lo, g.range.hi, w.range.lo, w.range.hi);
      return At(i, buf);
    }
    if (g.candidates.size() != w.candidates.size()) {
      return At(i, "candidate count differs");
    }
    for (size_t c = 0; c < g.candidates.size(); ++c) {
      const core::KnnCandidate& a = g.candidates[c];
      const core::KnnCandidate& b = w.candidates[c];
      if (a.pid != b.pid || !(a.cp == b.cp) || a.offset != b.offset) {
        char buf[200];
        std::snprintf(buf, sizeof(buf),
                      "candidate %zu: pid %lld cp (%.17g, %.17g) offset %.17g "
                      "!= pid %lld cp (%.17g, %.17g) offset %.17g",
                      c, static_cast<long long>(a.pid), a.cp.x, a.cp.y,
                      a.offset, static_cast<long long>(b.pid), b.cp.x, b.cp.y,
                      b.offset);
        return At(i, buf);
      }
    }
  }
  return "";
}

core::ConnOptions ReferenceOptions() {
  core::ConnOptions opts;
  opts.use_warm_scan_restarts = false;
  opts.use_tick_warm_start = false;
  opts.use_differential_repair = false;
  return opts;
}

}  // namespace perfbench
}  // namespace conn
