#include "join/work_units.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "util/timer.h"

namespace sj {

Result<std::vector<UnitFile>> OpenUnitFiles(
    StorageFactory* storage, DiskModel* disk, uint32_t count,
    uint32_t block_pages, const std::function<std::string(uint32_t)>& name) {
  std::vector<UnitFile> files(count);
  for (uint32_t i = 0; i < count; ++i) {
    Result<std::unique_ptr<Pager>> pager = MakePager(storage, disk, name(i));
    if (!pager.ok()) return pager.status();
    files[i].pager = std::move(pager).value();
    files[i].writer.reset(
        new StreamWriter<RectF>(files[i].pager.get(), block_pages));
  }
  return files;
}

Status FinishUnitFiles(std::vector<UnitFile>* files) {
  // Finish marks a stream finished on error too, so every writer is
  // settled before the first failure surfaces.
  Status first_error;
  for (UnitFile& f : *files) {
    const PageId first = f.writer->first_page();
    Result<uint64_t> n = f.writer->Finish();
    if (n.ok()) {
      f.range = StreamRange{f.pager.get(), first, *n};
    } else if (first_error.ok()) {
      first_error = n.status();
    }
    f.writer.reset();
  }
  return first_error;
}

uint32_t GrantWriterBlocks(MemoryArbiter* arbiter, const char* component,
                           size_t writers, uint32_t preferred_pages,
                           MemoryGrant* grant) {
  *grant = arbiter->AcquireShrinkable(
      component, writers * preferred_pages * kPageSize,
      std::min<size_t>(writers * kPageSize, arbiter->budget()));
  const uint32_t pages = static_cast<uint32_t>(std::clamp<size_t>(
      grant->bytes() / (writers * kPageSize), 1, preferred_pages));
  grant->NoteUsage(writers * pages * kPageSize);
  return pages;
}

StreamRange WorkUnit::Adopt(UnitFile* file) {
  adopted_.push_back(RehomePager(std::move(file->pager), disk_.get()));
  return StreamRange{adopted_.back().get(), file->range.first_page,
                     file->range.count};
}

Result<WorkUnitTotals> RunEachUnit(
    const WorkUnitSpec& spec, const std::function<Status(WorkUnit&)>& body) {
  std::vector<WorkUnit> units(spec.count);
  std::vector<double> worker_cpu(spec.count, 0.0);
  for (uint64_t i = 0; i < spec.count; ++i) {
    units[i].index_ = i;
    units[i].disk_ = std::make_unique<DiskModel>(*spec.machine);
    if (spec.parent != nullptr) {
      units[i].memory_ = std::make_unique<MemoryArbiter>(
          spec.unit_budget, spec.parent->strict());
    }
  }
  const std::thread::id caller = std::this_thread::get_id();
  SJ_RETURN_IF_ERROR(ParallelFor(
      spec.pool, spec.num_threads, spec.count, [&](uint64_t i) -> Status {
        const ThreadCpuTimer cpu;
        Status status = body(units[i]);
        if (std::this_thread::get_id() != caller) worker_cpu[i] = cpu.Elapsed();
        return status;
      }));

  WorkUnitTotals totals;
  for (uint64_t i = 0; i < spec.count; ++i) {
    totals.disk += units[i].disk_->stats();
    totals.worker_cpu_seconds += worker_cpu[i];
    if (spec.parent != nullptr) spec.parent->FoldChild(*units[i].memory_);
  }
  return totals;
}

}  // namespace sj
