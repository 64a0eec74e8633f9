// Output checks applied to every COkNN answer the benchmark receives.

#ifndef CONN_PERFBENCH_CHECKS_H_
#define CONN_PERFBENCH_CHECKS_H_

#include <cstddef>
#include <string>

#include "core/coknn.h"
#include "core/options.h"
#include "rtree/rstar_tree.h"

namespace conn {
namespace perfbench {

/// Structural invariants of one answer; returns "" when they hold, else a
/// description of the first violation:
///   * the tuples are ordered, disjoint, and tile the query segment minus
///     its unreachable intervals;
///   * every tuple holds min(k, reachable) distinct candidates — fewer than
///     k only when the engine evaluated all \p data_size points, the only
///     way it can prove fewer are reachable;
///   * candidates are ordered by obstructed distance at the tuple midpoint.
std::string CheckStructure(const core::CoknnResult& r, size_t data_size);

/// Bit-for-bit comparison of two answers (intervals, candidate ids,
/// control points and offsets); "" when identical.
std::string CompareExact(const core::CoknnResult& got,
                         const core::CoknnResult& want);

/// Options of the reference evaluation: the engine with every warm or
/// incremental gate off (fresh scan per obstacle wave, no tick state).
core::ConnOptions ReferenceOptions();

}  // namespace perfbench
}  // namespace conn

#endif  // CONN_PERFBENCH_CHECKS_H_
