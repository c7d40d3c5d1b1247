// Reference answers for every query kind the benchmark times, computed
// in memory from the generated inputs by an algorithm the library does
// not use (a uniform-grid hash join), so a timed query is checked against
// an independent result rather than against another run of itself.
#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <vector>

#include "geometry/rect.h"
#include "geometry/segment.h"
#include "stats.h"

namespace perfbench {

/// Pairs (a[i].id, b[j].id) whose MBRs intersect (closed rectangles, the
/// library's kIntersects filter semantics).
PairChecksum IntersectsOracle(const std::vector<sj::RectF>& a,
                              const std::vector<sj::RectF>& b);

/// Pairs whose exact segments lie within `epsilon` of each other (the
/// refined kDistanceWithin answer). seg_a[i] is the geometry of a[i].
PairChecksum DistanceOracle(const std::vector<sj::RectF>& a,
                            const std::vector<sj::RectF>& b,
                            const std::vector<sj::Segment>& seg_a,
                            const std::vector<sj::Segment>& seg_b,
                            double epsilon);

/// The heatmap pipeline's answer: the intersecting pairs' contact boxes
/// counted into an nx x ny grid over `extent` (a box adds one to every
/// cell it overlaps), then the k non-empty cells nearest (qx, qy), ties
/// broken by cell index. The checksum covers (cell index, count) of each
/// emitted cell; `count` is the number of cells.
PairChecksum HeatmapOracle(const std::vector<sj::RectF>& a,
                           const std::vector<sj::RectF>& b,
                           const sj::RectF& extent, uint32_t nx, uint32_t ny,
                           size_t k, float qx, float qy);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
