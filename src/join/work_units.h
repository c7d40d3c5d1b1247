#ifndef USJ_JOIN_WORK_UNITS_H_
#define USJ_JOIN_WORK_UNITS_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "io/pager.h"
#include "join/join_types.h"
#include "util/thread_pool.h"

namespace sj {

// The work-unit engine behind every partitioned executor: PBSM partition
// pairs, SSSJ strips, multiway strips and refinement batches. It owns the
// determinism contract. Each unit runs against a private DiskModel shard
// (fresh disk state, so its modeled I/O depends only on its own request
// sequence) and, when asked, a private child arbiter over the
// serial-equivalent unit budget. Units run through ParallelFor; inline
// runs hand each unit the caller's sink, runs on workers buffer per unit
// and replay the buffers in unit order. Shard stats are summed and child
// arbiters folded in unit order, so output and modeled I/O are identical
// for every thread count and pool.

/// Deletes a distribution writer that was never finished, which happens
/// only on error paths (FinishUnitFiles drops finished writers): its
/// buffered records are dropped instead of tripping the destructor check.
struct AbandonWriter {
  void operator()(StreamWriter<RectF>* writer) const {
    writer->Abandon();
    delete writer;
  }
};

/// One unit's file for one input: its pager plus, while distribution
/// runs, its open writer. `range` is valid once the writer finished.
struct UnitFile {
  std::unique_ptr<Pager> pager;
  std::unique_ptr<StreamWriter<RectF>, AbandonWriter> writer;
  StreamRange range;
};

/// Opens `count` unit files on `disk`, in unit order, pager i named
/// `name(i)`, each with an open writer flushing `block_pages`-page blocks.
Result<std::vector<UnitFile>> OpenUnitFiles(
    StorageFactory* storage, DiskModel* disk, uint32_t count,
    uint32_t block_pages, const std::function<std::string(uint32_t)>& name);

/// Finishes every open writer, also after one failed, and returns the
/// first failure.
Status FinishUnitFiles(std::vector<UnitFile>* files);

/// Streams `input` once, appending each rect to every unit
/// `route(rect, &units)` names, then finishes all writers.
template <typename Route>
Status DistributeRects(const DatasetRef& input, const Route& route,
                       std::vector<UnitFile>* files) {
  StreamReader<RectF> reader(input.range.pager, input.range.first_page,
                             input.range.count);
  std::vector<uint32_t> units;
  while (std::optional<RectF> r = reader.Next()) {
    units.clear();
    route(*r, &units);
    for (uint32_t u : units) (*files)[u].writer->Append(*r);
  }
  return FinishUnitFiles(files);
}

/// Sizes the flush blocks of `writers` open distribution writers from one
/// `component` grant and returns the pages per block. When the budget
/// cannot cover `preferred_pages` for all of them the blocks shrink (more,
/// smaller flushes: graceful, never over budget). The floor, one page per
/// writer, is capped at the budget: with enormous unit counts even that is
/// irreducible over-use, which then shows up as usage above the grant
/// instead of a granted peak above the budget.
uint32_t GrantWriterBlocks(MemoryArbiter* arbiter, const char* component,
                           size_t writers, uint32_t preferred_pages,
                           MemoryGrant* grant);

/// Phase 1 of the two-input partitioned joins: opens `count` unit files
/// per side (all of side a, then all of side b; pagers named
/// `prefix` + "a." or "b." + unit), then distributes `a` and `b` in turn.
template <typename Route>
Status DistributeBoth(StorageFactory* storage, DiskModel* disk,
                      const std::string& prefix, uint32_t count,
                      uint32_t block_pages, const DatasetRef& a,
                      const DatasetRef& b, const Route& route,
                      std::vector<UnitFile>* files_a,
                      std::vector<UnitFile>* files_b) {
  auto open = [&](const std::string& side) {
    return OpenUnitFiles(storage, disk, count, block_pages, [&](uint32_t i) {
      return prefix + side + std::to_string(i);
    });
  };
  SJ_ASSIGN_OR_RETURN(*files_a, open("a."));
  SJ_ASSIGN_OR_RETURN(*files_b, open("b."));
  SJ_RETURN_IF_ERROR(DistributeRects(a, route, files_a));
  return DistributeRects(b, route, files_b);
}

/// How a batch of units runs: the pool and thread count of a query's
/// options, the machine every shard models and, when `parent` is set, a
/// child arbiter per unit over `unit_budget` bytes (with the parent's
/// strictness), folded into `parent` in unit order.
struct WorkUnitSpec {
  WorkUnitSpec(const JoinOptions& options, const MachineModel& machine,
               uint64_t count)
      : count(count),
        machine(&machine),
        pool(options.worker_pool),
        num_threads(options.num_threads) {}

  uint64_t count;
  const MachineModel* machine;
  ThreadPool* pool;
  uint32_t num_threads;
  MemoryArbiter* parent = nullptr;
  size_t unit_budget = 0;
};

/// What a run adds to the caller's measurement.
struct WorkUnitTotals {
  /// Shard stats, summed in unit order.
  DiskStats disk;
  /// Thread CPU of the units that ran on threads other than the caller's.
  /// Units the calling thread ran itself (inline runs, and its share of a
  /// shared-pool run) are already in the caller's own thread-CPU clock.
  double worker_cpu_seconds = 0.0;
};

/// What one unit runs against.
class WorkUnit {
 public:
  uint64_t index() const { return index_; }
  /// The unit's private DiskModel shard.
  DiskModel* disk() const { return disk_.get(); }
  /// The unit's child arbiter; null unless the spec names a parent.
  MemoryArbiter* memory() const { return memory_.get(); }

  /// Re-homes a finished unit file onto this unit's shard (its reads are
  /// charged there from now on), keeps its pager alive for the unit's
  /// lifetime and returns the range to read it through.
  StreamRange Adopt(UnitFile* file);

 private:
  friend Result<WorkUnitTotals> RunEachUnit(
      const WorkUnitSpec& spec, const std::function<Status(WorkUnit&)>& body);
  uint64_t index_ = 0;
  std::unique_ptr<DiskModel> disk_;
  std::unique_ptr<MemoryArbiter> memory_;
  std::vector<std::unique_ptr<Pager>> adopted_;
};

/// Runs `body(unit)` for every unit of `spec`. The error is the failing
/// unit with the lowest index.
Result<WorkUnitTotals> RunEachUnit(const WorkUnitSpec& spec,
                                   const std::function<Status(WorkUnit&)>& body);

/// The per-unit result buffer of a run on workers, for each sink type.
template <typename Sink>
struct UnitBuffer;

template <>
struct UnitBuffer<JoinSink> {
  CollectingSink sink;
  void ReplayInto(JoinSink* to) const {
    for (const IdPair& pair : sink.pairs()) to->Emit(pair.a, pair.b);
  }
};

template <>
struct UnitBuffer<TupleSink> {
  CollectingTupleSink sink;
  void ReplayInto(TupleSink* to) const {
    for (const std::vector<ObjectId>& tuple : sink.tuples()) to->Emit(tuple);
  }
};

/// Runs `body(unit, out)` for every unit of `spec`. `out` is `sink` itself
/// when the units run inline on this thread (in unit order, so every row
/// of unit i reaches `sink` before unit i + 1 starts), else a per-unit
/// buffer replayed into `sink` in unit order once every unit finished.
template <typename Sink, typename Body>
Result<WorkUnitTotals> RunWorkUnits(const WorkUnitSpec& spec, Sink* sink,
                                    Body&& body) {
  const bool buffered = !RunsInline(spec.pool, spec.num_threads, spec.count);
  std::vector<UnitBuffer<Sink>> buffers(buffered ? spec.count : 0);
  Result<WorkUnitTotals> totals = RunEachUnit(spec, [&](WorkUnit& unit) {
    return body(unit, buffered ? &buffers[unit.index()].sink : sink);
  });
  if (totals.ok()) {
    for (const UnitBuffer<Sink>& buffer : buffers) buffer.ReplayInto(sink);
  }
  return totals;
}

}  // namespace sj

#endif  // USJ_JOIN_WORK_UNITS_H_
