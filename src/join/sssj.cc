#include "join/sssj.h"

#include <cmath>
#include <memory>

#include "join/strip_map.h"
#include "join/work_units.h"
#include "sort/external_sort.h"
#include "sweep/sweep_join.h"

namespace sj {

size_t EstimateSweepBytes(uint64_t records) {
  return static_cast<size_t>(
             16.0 * std::sqrt(static_cast<double>(records)) + 64.0) *
         sizeof(RectF);
}

Result<JoinStats> SSSJJoin(const DatasetRef& a, const DatasetRef& b,
                           DiskModel* disk, const JoinOptions& options,
                           JoinSink* sink, MemoryArbiter* arbiter) {
  const ArbiterScope scope(arbiter, options);

  // Spill decision before any I/O: size the sweep grant by the paper's
  // square-root rule (Table 3 verifies the active sets stay near sqrt(N)
  // on real data), padded with a safety factor. When even that estimate
  // exceeds what the arbiter can grant, degrade to the paper's
  // single-dimension partitioning fallback with enough strips that one
  // strip's share fits — instead of over-allocating and hoping. Inputs
  // whose active sets defeat the estimate at run time are recorded in
  // the usage high-water marks (and abort a strict arbiter).
  const uint64_t est_sweep_bytes = EstimateSweepBytes(a.count() + b.count());
  {
    MemoryGrant probe = scope->AcquireShrinkable(grants::kSweep,
                                                 est_sweep_bytes,
                                                 /*floor_bytes=*/0);
    if (probe.bytes() < est_sweep_bytes) {
      probe.Release();
      const size_t budget = std::max<size_t>(1, scope->budget());
      const uint32_t strips = static_cast<uint32_t>(std::clamp<uint64_t>(
          (2 * est_sweep_bytes + budget - 1) / budget, 2, 512));
      return SSSJStripJoin(a, b, strips, disk, options, sink, scope.get());
    }
    // Released here so the sort phase gets the whole budget (both
    // sorters at memory/2, also in the fused path where they are alive
    // together); the sweep re-acquires its share once the sorters are
    // gone.
  }

  JoinMeasurement measurement(disk);
  SJ_ASSIGN_OR_RETURN(RectF extent, CombinedExtent(a, b));
  StorageFactory* storage = options.storage.get();
  const SortConfig sort_config = SortConfigOf(options);
  SortStats sort_stats;

  // Per-input scratch devices for runs and sorted output, mirroring the
  // paper's TPIE temporary streams.
  SJ_ASSIGN_OR_RETURN(auto runs_a, MakePager(storage, disk, "sssj.runs.a"));
  SJ_ASSIGN_OR_RETURN(auto runs_b, MakePager(storage, disk, "sssj.runs.b"));

  SweepRunStats sweep_stats;
  auto emit = [sink](const RectF& ra, const RectF& rb) {
    sink->Emit(ra.id, rb.id);
  };

  if (options.fuse_merge_sweep) {
    // Ablation: merge the runs straight into the sweep. Saves one write
    // and one read pass per input. The sorters' run grants are released
    // before the sweep acquires its own; the merge readers keep only
    // their small blocks.
    const size_t half = options.memory_bytes / 2;
    std::vector<StreamRange> ra, rb;
    {
      ExternalSorter<RectF, OrderByYLo> sorter_a(half, runs_a.get(),
                                                 OrderByYLo(), scope.get(),
                                                 sort_config);
      ExternalSorter<RectF, OrderByYLo> sorter_b(half, runs_b.get(),
                                                 OrderByYLo(), scope.get(),
                                                 sort_config);
      SJ_RETURN_IF_ERROR(sorter_a.FormRuns(a.range, &ra));
      SJ_RETURN_IF_ERROR(sorter_b.FormRuns(b.range, &rb));
      SJ_CHECK(ra.size() <= sorter_a.MaxFanIn() &&
               rb.size() <= sorter_b.MaxFanIn())
          << "fused SSSJ requires a single merge pass";
      sort_stats.Fold(sorter_a.stats());
      sort_stats.Fold(sorter_b.stats());
    }
    MemoryGrant sweep_grant = scope->AcquireShrinkable(
        grants::kSweep, est_sweep_bytes, /*floor_bytes=*/0);
    MergingReader<RectF, OrderByYLo> source_a(std::move(ra),
                                              /*block_pages=*/8);
    MergingReader<RectF, OrderByYLo> source_b(std::move(rb),
                                              /*block_pages=*/8);
    sweep_stats =
        SweepJoinWithKind(options.stream_sweep, extent, options.striped_strips,
                          source_a, source_b, emit);
    sweep_grant.NoteUsage(sweep_stats.max_structure_bytes);
  } else {
    SJ_ASSIGN_OR_RETURN(auto sorted_a,
                        MakePager(storage, disk, "sssj.sorted.a"));
    SJ_ASSIGN_OR_RETURN(auto sorted_b,
                        MakePager(storage, disk, "sssj.sorted.b"));
    SJ_ASSIGN_OR_RETURN(
        StreamRange sa,
        SortRectsByYLo(a.range, runs_a.get(), sorted_a.get(),
                       options.memory_bytes / 2, scope.get(), sort_config,
                       &sort_stats));
    SJ_ASSIGN_OR_RETURN(
        StreamRange sb,
        SortRectsByYLo(b.range, runs_b.get(), sorted_b.get(),
                       options.memory_bytes / 2, scope.get(), sort_config,
                       &sort_stats));
    MemoryGrant sweep_grant = scope->AcquireShrinkable(
        grants::kSweep, est_sweep_bytes, /*floor_bytes=*/0);
    StreamReader<RectF> source_a(sa.pager, sa.first_page, sa.count);
    StreamReader<RectF> source_b(sb.pager, sb.first_page, sb.count);
    sweep_stats =
        SweepJoinWithKind(options.stream_sweep, extent, options.striped_strips,
                          source_a, source_b, emit);
    sweep_grant.NoteUsage(sweep_stats.max_structure_bytes);
  }

  JoinStats stats = measurement.Finish();
  stats.output_count = sweep_stats.output_count;
  stats.max_sweep_bytes = sweep_stats.max_structure_bytes;
  stats.sweep_strips_collapsed = sweep_stats.strips_collapsed;
  stats.FoldSortStats(sort_stats);
  FillMemoryStats(*scope, &stats);
  return stats;
}

Result<JoinStats> SSSJStripJoin(const DatasetRef& a, const DatasetRef& b,
                                uint32_t strips, DiskModel* disk,
                                const JoinOptions& options, JoinSink* sink,
                                MemoryArbiter* arbiter) {
  const ArbiterScope scope(arbiter, options);
  JoinMeasurement measurement(disk);
  SJ_ASSIGN_OR_RETURN(RectF extent, CombinedExtent(a, b));
  const StripMap map(extent, strips);

  // One writer per strip and side stays open during distribution, with
  // 4-page flush blocks unless the grant cannot cover all of them.
  MemoryGrant writer_grant;
  const uint32_t writer_block_pages =
      GrantWriterBlocks(scope.get(), grants::kStripWriters,
                        size_t{2} * map.strips(), 4, &writer_grant);
  std::vector<UnitFile> files_a, files_b;
  SJ_RETURN_IF_ERROR(DistributeBoth(
      options.storage.get(), disk, "sssj.strip.", map.strips(),
      writer_block_pages, a, b,
      [&map](const RectF& r, std::vector<uint32_t>* strips) {
        map.StripsOf(r, strips);
      },
      &files_a, &files_b));
  writer_grant.Release();

  // Strips are independent work units (join/work_units.h), each with the
  // full budget: output and merged stats are identical for every
  // options.num_threads. Their sorts stay single-threaded (the default
  // SortConfig; nested run-formation fan-out would only contend for the
  // same workers).
  struct StripCounters {
    uint64_t output = 0;
    SweepRunStats sweep;
    SortStats sort_stats;
  };
  std::vector<StripCounters> counters(map.strips());
  auto join_strip = [&](WorkUnit& unit, JoinSink* out) -> Status {
    const uint64_t s = unit.index();
    StripCounters& t = counters[s];
    const StreamRange range_a = unit.Adopt(&files_a[s]);
    const StreamRange range_b = unit.Adopt(&files_b[s]);
    StorageFactory* storage = options.storage.get();
    SJ_ASSIGN_OR_RETURN(
        auto scratch, MakePager(storage, unit.disk(), "sssj.strip.scratch"));
    SJ_ASSIGN_OR_RETURN(
        auto sorted, MakePager(storage, unit.disk(), "sssj.strip.sorted"));
    SJ_ASSIGN_OR_RETURN(
        StreamRange sa,
        SortRectsByYLo(range_a, scratch.get(), sorted.get(),
                       options.memory_bytes / 2, unit.memory(), SortConfig(),
                       &t.sort_stats));
    SJ_ASSIGN_OR_RETURN(
        StreamRange sb,
        SortRectsByYLo(range_b, scratch.get(), sorted.get(),
                       options.memory_bytes / 2, unit.memory(), SortConfig(),
                       &t.sort_stats));
    MemoryGrant sweep_grant = unit.memory()->AcquireShrinkable(
        grants::kSweep, EstimateSweepBytes(range_a.count + range_b.count),
        /*floor_bytes=*/0);
    StreamReader<RectF> reader_a(sa.pager, sa.first_page, sa.count);
    StreamReader<RectF> reader_b(sb.pager, sb.first_page, sb.count);
    auto emit = [&](const RectF& ra, const RectF& rb) {
      // Report only in the strip owning the overlap's left edge.
      if (map.StripOf(std::max(ra.xlo, rb.xlo)) == s) {
        out->Emit(ra.id, rb.id);
        t.output++;
      }
    };
    t.sweep = SweepJoinWithKind(options.stream_sweep, extent,
                                options.striped_strips, reader_a, reader_b,
                                emit);
    // A strict arbiter aborts here when the strip's active sets still
    // exceed the grant; otherwise the overshoot lands in the usage
    // high-water marks.
    sweep_grant.NoteUsage(t.sweep.max_structure_bytes);
    return Status::OK();
  };
  WorkUnitSpec spec(options, disk->machine(), map.strips());
  spec.parent = scope.get();
  spec.unit_budget = scope->budget();
  SJ_ASSIGN_OR_RETURN(const WorkUnitTotals units,
                      RunWorkUnits(spec, sink, join_strip));

  JoinStats stats = measurement.Finish();
  stats.disk += units.disk;
  stats.host_cpu_seconds += units.worker_cpu_seconds;
  SortStats folded_sort;
  for (const StripCounters& t : counters) {
    folded_sort.Fold(t.sort_stats);
    stats.output_count += t.output;
    stats.max_sweep_bytes =
        std::max(stats.max_sweep_bytes, t.sweep.max_structure_bytes);
    stats.sweep_strips_collapsed |= t.sweep.strips_collapsed;
  }
  stats.FoldSortStats(folded_sort);
  stats.partitions_total = map.strips();
  FillMemoryStats(*scope, &stats);
  return stats;
}

}  // namespace sj
