#include "join/pq_join.h"

#include <algorithm>

#include "sort/external_sort.h"
#include "sweep/sweep_join.h"

namespace sj {
namespace {

/// Adapter so the sweep templates can pull from a SortedRectSource*.
struct SourceAdapter {
  SortedRectSource* source;
  std::optional<RectF> Next() { return source->Next(); }
};

}  // namespace

Result<JoinStats> PQJoinSources(SortedRectSource* a, SortedRectSource* b,
                                const RectF& extent, DiskModel* disk,
                                const JoinOptions& options, JoinSink* sink,
                                MemoryArbiter* arbiter) {
  const ArbiterScope scope(arbiter, options);
  // Static split: traversal queues and leaf buffers on one grant, sweep
  // structures on the other. Sampled maxima are reported as usage — the
  // paper's "data structures fit in memory" assumption, now checked by
  // the arbiter (strict mode aborts). The queues never spill.
  MemoryGrant queue_grant = scope->AcquireShrinkable(
      grants::kPqQueue, scope->budget() / 2, /*floor_bytes=*/0);
  MemoryGrant sweep_grant = scope->AcquireShrinkable(
      grants::kSweep, scope->budget() / 2, /*floor_bytes=*/0);
  JoinMeasurement measurement(disk);
  SourceAdapter sa{a}, sb{b};
  size_t max_queue_bytes = 0;
  auto emit = [sink](const RectF& ra, const RectF& rb) {
    sink->Emit(ra.id, rb.id);
  };
  auto probe = [&]() {
    max_queue_bytes =
        std::max(max_queue_bytes, a->MemoryBytes() + b->MemoryBytes());
  };
  const SweepRunStats sweep_stats = SweepJoinWithKind(
      options.stream_sweep, extent, options.striped_strips, sa, sb, emit,
      probe);
  queue_grant.NoteUsage(max_queue_bytes);
  sweep_grant.NoteUsage(sweep_stats.max_structure_bytes);

  JoinStats stats = measurement.Finish();
  stats.output_count = sweep_stats.output_count;
  stats.max_sweep_bytes = sweep_stats.max_structure_bytes;
  stats.sweep_strips_collapsed = sweep_stats.strips_collapsed;
  stats.max_queue_bytes = max_queue_bytes;
  queue_grant.Release();
  sweep_grant.Release();
  FillMemoryStats(*scope, &stats);
  return stats;
}

Result<JoinStats> PQJoin(const RTree& a, const RTree& b, DiskModel* disk,
                         const JoinOptions& options, JoinSink* sink,
                         MemoryArbiter* arbiter) {
  const ArbiterScope scope(arbiter, options);
  RTreePQSource source_a(&a);
  RTreePQSource source_b(&b);
  RectF extent = a.bounding_box();
  extent.ExtendTo(b.bounding_box());
  SJ_ASSIGN_OR_RETURN(
      JoinStats stats,
      PQJoinSources(&source_a, &source_b, extent, disk, options, sink,
                    scope.get()));
  stats.index_pages_read = source_a.pages_read() + source_b.pages_read();
  return stats;
}

Result<JoinStats> PQJoinIndexStream(const RTree& a, const DatasetRef& b,
                                    DiskModel* disk,
                                    const JoinOptions& options,
                                    JoinSink* sink,
                                    MemoryArbiter* arbiter) {
  const ArbiterScope scope(arbiter, options);
  // Sort the non-indexed side (charged), as SSSJ would.
  SJ_ASSIGN_OR_RETURN(auto scratch,
                      MakePager(options.storage.get(), disk, "pq.sort.runs"));
  SJ_ASSIGN_OR_RETURN(auto sorted,
                      MakePager(options.storage.get(), disk, "pq.sort.out"));
  SortStats sort_stats;
  SJ_ASSIGN_OR_RETURN(
      StreamRange sorted_b,
      SortRectsByYLo(b.range, scratch.get(), sorted.get(),
                     options.memory_bytes / 2, scope.get(),
                     SortConfigOf(options), &sort_stats));
  RTreePQSource source_a(&a);
  SortedStreamSource source_b(sorted_b);
  SJ_ASSIGN_OR_RETURN(RectF extent_b, EnsureExtent(b));
  RectF extent = a.bounding_box();
  extent.ExtendTo(extent_b);
  SJ_ASSIGN_OR_RETURN(
      JoinStats stats,
      PQJoinSources(&source_a, &source_b, extent, disk, options, sink,
                    scope.get()));
  stats.index_pages_read = source_a.pages_read();
  stats.FoldSortStats(sort_stats);
  return stats;
}

}  // namespace sj
