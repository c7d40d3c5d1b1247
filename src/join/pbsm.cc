#include "join/pbsm.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <vector>

#include "join/partition_plan.h"
#include "join/work_units.h"
#include "sort/external_sort.h"
#include "sweep/sweep_join.h"

namespace sj {
namespace {

std::vector<RectF> Drain(const StreamRange& range) {
  StreamReader<RectF> reader(range.pager, range.first_page, range.count);
  std::vector<RectF> out;
  out.reserve(range.count);
  while (std::optional<RectF> r = reader.Next()) out.push_back(*r);
  return out;
}

}  // namespace

Result<JoinStats> PBSMJoin(const DatasetRef& a, const DatasetRef& b,
                           DiskModel* disk, const JoinOptions& options,
                           JoinSink* sink, const GridHistogram* hist_a,
                           const GridHistogram* hist_b,
                           MemoryArbiter* arbiter) {
  const ArbiterScope scope(arbiter, options);
  JoinMeasurement measurement(disk);
  SJ_ASSIGN_OR_RETURN(RectF extent, CombinedExtent(a, b));

  // Partitioning plan. Adaptive: histogram-driven tile tree + weighted
  // bin-packing; missing histograms are built here with one extra scan
  // per side (charged to `disk`, so the pass shows up in the measured
  // stats exactly as the cost model prices it). Fixed: the paper's
  // uniform grid with round-robin assignment, p chosen so an average
  // partition pair fits comfortably in memory.
  std::unique_ptr<PartitionMap> grid_owned;
  if (options.adaptive_partitioning) {
    // Histograms live only as long as planning; they are released before
    // distribution so the writer buffers own the phase's memory. Built
    // histograms sample one block in kPbsmHistogramSampleOneInBlocks
    // (scaled to the exact record count) — the APR-style sampling
    // construction — so the density pass costs a fraction of a scan.
    constexpr uint32_t kSampleOneInBlocks = kPbsmHistogramSampleOneInBlocks;
    std::optional<GridHistogram> built_a, built_b;
    uint32_t res = std::max(1u, options.pbsm_histogram_resolution);
    // Attached histograms are the caller's memory; only on-the-fly
    // builds hold planner-side cells worth granting — and when the
    // grant comes back smaller than the configured resolution's cells,
    // the build resolution derates to fit (coarser planning evidence,
    // never an over-allocation; 16 cells per axis is the floor where a
    // histogram still says anything).
    const size_t builds = (hist_a == nullptr ? size_t{1} : 0) +
                          (hist_b == nullptr ? size_t{1} : 0);
    MemoryGrant histogram_grant;
    if (builds > 0) {
      histogram_grant = scope->AcquireShrinkable(
          grants::kPbsmHistogram,
          builds * res * res * sizeof(uint64_t), /*floor_bytes=*/0);
      const uint32_t fits = static_cast<uint32_t>(std::sqrt(
          static_cast<double>(histogram_grant.bytes() /
                              (builds * sizeof(uint64_t)))));
      res = std::clamp(fits, std::min(16u, res), res);
      histogram_grant.NoteUsage(builds * size_t{res} * res *
                                sizeof(uint64_t));
    }
    if (hist_a == nullptr) {
      auto built = GridHistogram::BuildSampled(a.range, extent, res, res,
                                               kSampleOneInBlocks);
      SJ_RETURN_IF_ERROR(built.status());
      built_a.emplace(std::move(*built));
      hist_a = &*built_a;
    }
    if (hist_b == nullptr) {
      auto built = GridHistogram::BuildSampled(b.range, extent, res, res,
                                               kSampleOneInBlocks);
      SJ_RETURN_IF_ERROR(built.status());
      built_b.emplace(std::move(*built));
      hist_b = &*built_b;
    }
    PartitionPlannerConfig config;
    config.memory_bytes = options.memory_bytes;
    // Splits may go below the histogram resolution (uniform-within-cell
    // estimates still quarter hot blobs geometrically), so the cap only
    // rises with a finer histogram, never falls.
    config.max_resolution = std::max(config.max_resolution, res);
    grid_owned = PartitionPlanner::Plan(extent, *hist_a, *hist_b, config);
  } else {
    const uint64_t total_bytes = (a.count() + b.count()) * sizeof(RectF);
    grid_owned = std::make_unique<FixedGridPartitionMap>(
        extent, options.pbsm_tiles_per_axis,
        PbsmPartitionCount(total_bytes, options.memory_bytes));
  }
  const PartitionMap& grid = *grid_owned;
  const uint32_t p = grid.partitions();

  // Phase 1: distribute both inputs into partition files. The 2p open
  // writers draw their flush blocks from one grant, starting from the
  // map's preferred block size.
  MemoryGrant writer_grant;
  const uint32_t writer_block_pages =
      GrantWriterBlocks(scope.get(), grants::kPbsmWriters, size_t{2} * p,
                        grid.writer_block_pages(), &writer_grant);
  std::vector<UnitFile> files_a, files_b;
  SJ_RETURN_IF_ERROR(DistributeBoth(
      options.storage.get(), disk, "pbsm.", p, writer_block_pages, a, b,
      [&grid](const RectF& r, std::vector<uint32_t>* parts) {
        grid.PartitionsOf(r, parts);
      },
      &files_a, &files_b));
  writer_grant.Release();

  // Phase 2: join each partition pair with a plane sweep, suppressing
  // cross-partition duplicates via the reference-point test. Pairs are
  // independent work units (join/work_units.h), so the output and the
  // merged stats are identical for every options.num_threads. Each unit's
  // arbiter has the partition-phase budget the planner sized partitions
  // for (the raw knob, not the query-floor-clamped budget): a pair above
  // it overflows exactly as the partition count formula assumed, also for
  // direct callers below kMinMemoryBytes.
  struct PartitionCounters {
    uint64_t output = 0;
    SweepRunStats sweep;
    uint64_t part_bytes = 0;
    bool overflowed = false;
    SortStats sort_stats;
  };
  std::vector<PartitionCounters> counters(p);
  auto join_partition = [&](WorkUnit& unit, JoinSink* out) -> Status {
    const uint64_t i = unit.index();
    PartitionCounters& t = counters[i];
    const StreamRange range_a = unit.Adopt(&files_a[i]);
    const StreamRange range_b = unit.Adopt(&files_b[i]);
    auto emit = [&](const RectF& ra, const RectF& rb) {
      if (grid.ReferencePartition(ra, rb) == i) {
        out->Emit(ra.id, rb.id);
        t.output++;
      }
    };
    t.part_bytes = (range_a.count + range_b.count) * sizeof(RectF);
    // The partition pair's load is a grant; denial is the overflow signal.
    Result<MemoryGrant> load =
        unit.memory()->Acquire(grants::kPbsmPartition, t.part_bytes);
    if (load.ok()) {
      std::vector<RectF> ra = Drain(range_a);
      std::vector<RectF> rb = Drain(range_b);
      std::sort(ra.begin(), ra.end(), OrderByYLo());
      std::sort(rb.begin(), rb.end(), OrderByYLo());
      VectorRectSource sa(&ra), sb(&rb);
      t.sweep = SweepJoinWithKind(options.partition_sweep, extent,
                                  options.striped_strips, sa, sb, emit);
      load->NoteUsage(t.part_bytes);
      // The deduplicating sweep may double-count in sweep_stats; the
      // sink's pair count is authoritative.
    } else {
      // Overflow fallback: external sort this partition and sweep the
      // sorted streams (grant-governed through the unit's arbiter).
      // Partitions are the parallel unit; their sorts stay single-threaded
      // (the default SortConfig).
      t.overflowed = true;
      SJ_ASSIGN_OR_RETURN(
          std::unique_ptr<Pager> scratch,
          MakePager(options.storage.get(), unit.disk(),
                    "pbsm.overflow." + std::to_string(i)));
      SJ_ASSIGN_OR_RETURN(
          StreamRange sa_range,
          SortRectsByYLo(range_a, scratch.get(), scratch.get(),
                         options.memory_bytes / 2, unit.memory(), SortConfig(),
                         &t.sort_stats));
      SJ_ASSIGN_OR_RETURN(
          StreamRange sb_range,
          SortRectsByYLo(range_b, scratch.get(), scratch.get(),
                         options.memory_bytes / 2, unit.memory(), SortConfig(),
                         &t.sort_stats));
      MemoryGrant sweep_grant = unit.memory()->AcquireShrinkable(
          grants::kSweep, t.part_bytes, /*floor_bytes=*/0);
      StreamReader<RectF> reader_a(sa_range.pager, sa_range.first_page,
                                   sa_range.count);
      StreamReader<RectF> reader_b(sb_range.pager, sb_range.first_page,
                                   sb_range.count);
      t.sweep = SweepJoinWithKind(options.partition_sweep, extent,
                                  options.striped_strips, reader_a, reader_b,
                                  emit);
      sweep_grant.NoteUsage(t.sweep.max_structure_bytes);
    }
    return Status::OK();
  };
  WorkUnitSpec spec(options, disk->machine(), p);
  spec.parent = scope.get();
  spec.unit_budget =
      std::max(options.memory_bytes, RunLayout::kMinSortMemoryBytes);
  SJ_ASSIGN_OR_RETURN(const WorkUnitTotals units,
                      RunWorkUnits(spec, sink, join_partition));

  JoinStats stats = measurement.Finish();
  stats.disk += units.disk;
  stats.host_cpu_seconds += units.worker_cpu_seconds;
  SortStats folded_sort;
  for (const PartitionCounters& t : counters) {
    folded_sort.Fold(t.sort_stats);
    stats.output_count += t.output;
    stats.max_sweep_bytes =
        std::max(stats.max_sweep_bytes, t.sweep.max_structure_bytes);
    stats.max_partition_bytes =
        std::max<size_t>(stats.max_partition_bytes, t.part_bytes);
    if (t.overflowed) stats.partitions_overflowed++;
    stats.sweep_strips_collapsed |= t.sweep.strips_collapsed;
  }
  stats.partitions_total = p;
  stats.FoldSortStats(folded_sort);
  stats.pbsm_tiles_x = grid.tiles_x();
  stats.pbsm_tiles_y = grid.tiles_y();
  stats.pbsm_leaf_tiles = grid.leaf_tiles();
  stats.pbsm_split_tiles = grid.split_tiles();
  stats.pbsm_adaptive = grid.adaptive();
  FillMemoryStats(*scope, &stats);
  return stats;
}

}  // namespace sj
