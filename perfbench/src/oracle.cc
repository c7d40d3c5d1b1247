#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "join/predicate.h"

namespace perfbench {
namespace {

using sj::RectF;

float RoundDown(double v) {
  float f = static_cast<float>(v);
  if (static_cast<double>(f) > v) {
    f = std::nextafter(f, -std::numeric_limits<float>::infinity());
  }
  return f;
}

float RoundUp(double v) {
  float f = static_cast<float>(v);
  if (static_cast<double>(f) < v) {
    f = std::nextafter(f, std::numeric_limits<float>::infinity());
  }
  return f;
}

// A uniform grid over `extent`; CellOf is monotone in its argument, which
// is what makes the reference-point de-duplication below exact.
struct Grid {
  double lo_x, lo_y, inv_w, inv_h;
  uint32_t n;

  uint32_t Cell(double v, double lo, double inv) const {
    const double rel = (v - lo) * inv;
    if (!(rel > 0.0)) return 0;
    return static_cast<uint32_t>(std::min(rel, static_cast<double>(n - 1)));
  }
  uint32_t X(float v) const { return Cell(v, lo_x, inv_w); }
  uint32_t Y(float v) const { return Cell(v, lo_y, inv_h); }
};

// Calls emit(i, j) once for every i, j with grow(a[i]) intersecting b[j]:
// b is bucketed into every grid cell it overlaps, each grown a[i] probes
// the cells it overlaps, and a pair is reported only in the cell holding
// the lower-left corner of the two rectangles' intersection.
template <typename Grow, typename Emit>
void GridJoin(const std::vector<RectF>& a, const std::vector<RectF>& b,
              Grow&& grow, Emit&& emit) {
  if (a.empty() || b.empty()) return;
  std::vector<RectF> ga(a.size());
  RectF extent = RectF::Empty();
  for (size_t i = 0; i < a.size(); ++i) {
    ga[i] = grow(a[i]);
    extent.ExtendTo(ga[i]);
  }
  for (const RectF& r : b) extent.ExtendTo(r);

  Grid grid;
  grid.n = static_cast<uint32_t>(std::clamp<double>(
      std::sqrt(static_cast<double>(b.size())), 16.0, 1024.0));
  grid.lo_x = extent.xlo;
  grid.lo_y = extent.ylo;
  const double w = std::max(1e-9, (double{extent.xhi} - extent.xlo) / grid.n);
  const double h = std::max(1e-9, (double{extent.yhi} - extent.ylo) / grid.n);
  grid.inv_w = 1.0 / w;
  grid.inv_h = 1.0 / h;

  // Compressed buckets: offsets[c] .. offsets[c + 1] index into members.
  const size_t cells = size_t{grid.n} * grid.n;
  std::vector<uint32_t> offsets(cells + 1, 0);
  auto for_cells = [&](const RectF& r, auto&& fn) {
    const uint32_t x0 = grid.X(r.xlo), x1 = grid.X(r.xhi);
    const uint32_t y0 = grid.Y(r.ylo), y1 = grid.Y(r.yhi);
    for (uint32_t y = y0; y <= y1; ++y) {
      for (uint32_t x = x0; x <= x1; ++x) fn(size_t{y} * grid.n + x);
    }
  };
  for (const RectF& r : b) for_cells(r, [&](size_t c) { offsets[c + 1]++; });
  for (size_t c = 0; c < cells; ++c) offsets[c + 1] += offsets[c];
  std::vector<uint32_t> members(offsets[cells]);
  std::vector<uint32_t> fill(offsets.begin(), offsets.end() - 1);
  for (uint32_t j = 0; j < b.size(); ++j) {
    for_cells(b[j], [&](size_t c) { members[fill[c]++] = j; });
  }

  for (uint32_t i = 0; i < ga.size(); ++i) {
    const RectF& r = ga[i];
    for_cells(r, [&](size_t c) {
      for (uint32_t k = offsets[c]; k < offsets[c + 1]; ++k) {
        const RectF& s = b[members[k]];
        if (!r.Intersects(s)) continue;
        const size_t ref = size_t{grid.Y(std::max(r.ylo, s.ylo))} * grid.n +
                           grid.X(std::max(r.xlo, s.xlo));
        if (ref == c) emit(i, members[k]);
      }
    });
  }
}

}  // namespace

PairChecksum IntersectsOracle(const std::vector<RectF>& a,
                              const std::vector<RectF>& b) {
  PairChecksum sum;
  GridJoin(
      a, b, [](const RectF& r) { return r; },
      [&](uint32_t i, uint32_t j) { sum.Add(a[i].id, b[j].id); });
  return sum;
}

PairChecksum DistanceOracle(const std::vector<RectF>& a,
                            const std::vector<RectF>& b,
                            const std::vector<sj::Segment>& seg_a,
                            const std::vector<sj::Segment>& seg_b,
                            double epsilon) {
  // Any MBR pair within epsilon intersects once one side grows by epsilon
  // (rounded outward); the exact segment distance then decides.
  const sj::PredicateSpec spec{sj::Predicate::kDistanceWithin, epsilon};
  PairChecksum sum;
  GridJoin(
      a, b,
      [&](const RectF& r) {
        return RectF(RoundDown(r.xlo - epsilon), RoundDown(r.ylo - epsilon),
                     RoundUp(r.xhi + epsilon), RoundUp(r.yhi + epsilon),
                     r.id);
      },
      [&](uint32_t i, uint32_t j) {
        if (sj::EvaluateExactPredicate(spec, seg_a[i], seg_b[j])) {
          sum.Add(a[i].id, b[j].id);
        }
      });
  return sum;
}

PairChecksum HeatmapOracle(const std::vector<RectF>& a,
                           const std::vector<RectF>& b, const RectF& extent,
                           uint32_t nx, uint32_t ny, size_t k, float qx,
                           float qy) {
  // Cell arithmetic in float, as the aggregate operator defines it.
  const float cell_w = (extent.xhi - extent.xlo) / static_cast<float>(nx);
  const float cell_h = (extent.yhi - extent.ylo) / static_cast<float>(ny);
  auto cell_of = [](float v, float lo, float w, uint32_t n) -> uint32_t {
    const float rel = (v - lo) / w;
    if (!(rel > 0.0f)) return 0;
    return static_cast<uint32_t>(std::min(rel, static_cast<float>(n - 1)));
  };
  std::vector<double> counts(size_t{nx} * ny, 0.0);
  GridJoin(
      a, b, [](const RectF& r) { return r; },
      [&](uint32_t i, uint32_t j) {
        const RectF box = a[i].IntersectionWith(b[j]);
        if (!box.Valid() || !box.Intersects(extent)) return;
        const uint32_t x0 = cell_of(box.xlo, extent.xlo, cell_w, nx);
        const uint32_t x1 = cell_of(box.xhi, extent.xlo, cell_w, nx);
        const uint32_t y0 = cell_of(box.ylo, extent.ylo, cell_h, ny);
        const uint32_t y1 = cell_of(box.yhi, extent.ylo, cell_h, ny);
        for (uint32_t y = y0; y <= y1; ++y) {
          for (uint32_t x = x0; x <= x1; ++x) counts[size_t{y} * nx + x] += 1;
        }
      });

  // Distance from (qx, qy) to each non-empty cell's rectangle; the last
  // cell of an axis closes on the extent edge.
  struct Ranked {
    double distance;
    uint64_t cell;
  };
  std::vector<Ranked> ranked;
  for (uint32_t y = 0; y < ny; ++y) {
    for (uint32_t x = 0; x < nx; ++x) {
      if (counts[size_t{y} * nx + x] == 0.0) continue;
      const float xlo = extent.xlo + static_cast<float>(x) * cell_w;
      const float ylo = extent.ylo + static_cast<float>(y) * cell_h;
      const float xhi = x + 1 == nx
                            ? extent.xhi
                            : extent.xlo + static_cast<float>(x + 1) * cell_w;
      const float yhi = y + 1 == ny
                            ? extent.yhi
                            : extent.ylo + static_cast<float>(y + 1) * cell_h;
      double dx = 0.0, dy = 0.0;
      if (qx < xlo) dx = static_cast<double>(xlo) - qx;
      if (qx > xhi) dx = static_cast<double>(qx) - xhi;
      if (qy < ylo) dy = static_cast<double>(ylo) - qy;
      if (qy > yhi) dy = static_cast<double>(qy) - yhi;
      ranked.push_back({std::sqrt(dx * dx + dy * dy), uint64_t{y} * nx + x});
    }
  }
  const size_t keep = std::min(k, ranked.size());
  std::partial_sort(ranked.begin(), ranked.begin() + keep, ranked.end(),
                    [](const Ranked& p, const Ranked& q) {
                      return p.distance != q.distance
                                 ? p.distance < q.distance
                                 : p.cell < q.cell;
                    });
  PairChecksum sum;
  for (size_t i = 0; i < keep; ++i) {
    sum.Add(ranked[i].cell,
            static_cast<uint64_t>(counts[static_cast<size_t>(ranked[i].cell)]));
  }
  return sum;
}

}  // namespace perfbench
