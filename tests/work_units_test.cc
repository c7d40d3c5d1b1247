// The work-unit engine (join/work_units.h): inline runs stream each unit
// straight to the caller's sink and count no worker CPU, pooled runs
// replay per-unit buffers in unit order, shard stats and child arbiters
// merge in unit order, the lowest-index error wins, and the rect
// distributor settles every writer on a write failure.

#include "join/work_units.h"

#include <gtest/gtest.h>

#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "test_util.h"
#include "util/thread_pool.h"

namespace sj {
namespace {

using testing_util::FailingStorageFactory;
using testing_util::MakeDataset;
using testing_util::TestDisk;

/// A unit's start, or one row it emitted: {unit, -1} or {unit, row}.
using Event = std::pair<int64_t, int64_t>;

/// Logs rows into a shared event log (locked: pooled units run on
/// several threads, though only the replay reaches this sink then).
class LoggingSink final : public JoinSink {
 public:
  explicit LoggingSink(std::vector<Event>* log, std::mutex* mu)
      : log_(log), mu_(mu) {}
  void Emit(ObjectId a, ObjectId b) override {
    std::lock_guard<std::mutex> lock(*mu_);
    log_->emplace_back(static_cast<int64_t>(a), static_cast<int64_t>(b));
  }

 private:
  std::vector<Event>* log_;
  std::mutex* mu_;
};

constexpr uint64_t kUnits = 6;
constexpr int64_t kRowsPerUnit = 3;

/// Runs kUnits units that each log their start, then emit kRowsPerUnit
/// rows and write `unit + 1` pages on their shard.
Result<WorkUnitTotals> RunLoggingUnits(const JoinOptions& options,
                                       std::vector<Event>* log) {
  std::mutex mu;
  LoggingSink sink(log, &mu);
  const MachineModel machine = MachineModel::Machine3();
  return RunWorkUnits(
      WorkUnitSpec(options, machine, kUnits), static_cast<JoinSink*>(&sink),
      [&](WorkUnit& unit, JoinSink* out) -> Status {
        const auto i = static_cast<int64_t>(unit.index());
        {
          std::lock_guard<std::mutex> lock(mu);
          log->emplace_back(i, -1);
        }
        for (int64_t row = 0; row < kRowsPerUnit; ++row) {
          out->Emit(static_cast<ObjectId>(i), static_cast<ObjectId>(row));
        }
        std::unique_ptr<Pager> pager = MakeMemoryPager(unit.disk(), "unit");
        StreamWriter<RectF> writer(pager.get(), /*block_pages=*/1);
        const uint64_t per_page = StreamWriter<RectF>::kRecordsPerPage;
        for (uint64_t r = 0; r < (unit.index() + 1) * per_page; ++r) {
          writer.Append(RectF(0, 0, 1, 1, r));
        }
        return writer.Finish().status();
      });
}

std::vector<Event> RowsOnly(const std::vector<Event>& log) {
  std::vector<Event> rows;
  for (const Event& e : log) {
    if (e.second >= 0) rows.push_back(e);
  }
  return rows;
}

std::vector<Event> ExpectedRows() {
  std::vector<Event> rows;
  for (uint64_t i = 0; i < kUnits; ++i) {
    for (int64_t row = 0; row < kRowsPerUnit; ++row) {
      rows.emplace_back(static_cast<int64_t>(i), row);
    }
  }
  return rows;
}

// A shared pool without workers runs every unit inline on the caller even
// at num_threads = 4: rows stream straight to the sink (each unit's rows
// land before the next unit starts), and the caller's own clock already
// holds all the CPU, so the engine adds exactly none.
TEST(WorkUnits, InlineSharedPoolStreamsInUnitOrderAndAddsNoWorkerCpu) {
  ThreadPool pool(0);
  JoinOptions options;
  options.num_threads = 4;
  options.worker_pool = &pool;
  std::vector<Event> log;
  const Result<WorkUnitTotals> totals = RunLoggingUnits(options, &log);
  ASSERT_TRUE(totals.ok()) << totals.status().ToString();
  EXPECT_EQ(totals->worker_cpu_seconds, 0.0);

  std::vector<Event> expected;
  for (uint64_t i = 0; i < kUnits; ++i) {
    expected.emplace_back(static_cast<int64_t>(i), -1);
    for (int64_t row = 0; row < kRowsPerUnit; ++row) {
      expected.emplace_back(static_cast<int64_t>(i), row);
    }
  }
  EXPECT_EQ(log, expected);
}

// Pooled runs (private team or shared pool) buffer per unit and replay in
// unit order; the shard stats sum to the same totals as the serial run.
TEST(WorkUnits, PooledRunsReplayInUnitOrderWithSerialDiskStats) {
  JoinOptions serial_options;
  std::vector<Event> serial_log;
  const Result<WorkUnitTotals> serial =
      RunLoggingUnits(serial_options, &serial_log);
  ASSERT_TRUE(serial.ok());
  EXPECT_EQ(RowsOnly(serial_log), ExpectedRows());
  // Unit i wrote i + 1 pages.
  EXPECT_EQ(serial->disk.pages_written, kUnits * (kUnits + 1) / 2);

  ThreadPool pool(2);
  for (ThreadPool* shared : {static_cast<ThreadPool*>(nullptr), &pool}) {
    JoinOptions options;
    options.num_threads = 4;
    options.worker_pool = shared;
    std::vector<Event> log;
    const Result<WorkUnitTotals> totals = RunLoggingUnits(options, &log);
    ASSERT_TRUE(totals.ok());
    EXPECT_EQ(RowsOnly(log), ExpectedRows());
    EXPECT_EQ(totals->disk.pages_written, serial->disk.pages_written);
    EXPECT_EQ(totals->disk.write_requests, serial->disk.write_requests);
    EXPECT_EQ(totals->disk.io_seconds, serial->disk.io_seconds);
  }
}

// Each unit gets its own arbiter over the unit budget; the parent sees the
// serial-equivalent peak (the largest unit), and nothing stays granted.
TEST(WorkUnits, ChildArbitersFoldIntoTheParent) {
  for (const uint32_t threads : {1u, 4u}) {
    MemoryArbiter parent(1 << 20);
    JoinOptions options;
    options.num_threads = threads;
    const MachineModel machine = MachineModel::Machine3();
    WorkUnitSpec spec(options, machine, 4);
    spec.parent = &parent;
    spec.unit_budget = 1 << 20;
    CountingSink sink;
    const Result<WorkUnitTotals> totals = RunWorkUnits(
        spec, static_cast<JoinSink*>(&sink),
        [](WorkUnit& unit, JoinSink*) -> Status {
          EXPECT_EQ(unit.memory()->budget(), size_t{1} << 20);
          Result<MemoryGrant> grant =
              unit.memory()->Acquire("unit", (unit.index() + 1) * 1000);
          return grant.status();
        });
    ASSERT_TRUE(totals.ok());
    EXPECT_EQ(parent.in_use(), 0u);
    EXPECT_EQ(parent.peak_bytes(), 4000u) << "threads=" << threads;
  }
}

// The reported error is the failing unit with the lowest index, whatever
// the thread count.
TEST(WorkUnits, LowestIndexErrorWins) {
  for (const uint32_t threads : {1u, 4u}) {
    JoinOptions options;
    options.num_threads = threads;
    const MachineModel machine = MachineModel::Machine3();
    CountingSink sink;
    const Result<WorkUnitTotals> totals = RunWorkUnits(
        WorkUnitSpec(options, machine, 8), static_cast<JoinSink*>(&sink),
        [](WorkUnit& unit, JoinSink*) -> Status {
          if (unit.index() == 2) return Status::IoError("unit 2");
          if (unit.index() == 5) return Status::InvalidArgument("unit 5");
          return Status::OK();
        });
    ASSERT_FALSE(totals.ok());
    EXPECT_EQ(totals.status().code(), StatusCode::kIoError)
        << "threads=" << threads;
  }
}

// Distribution: rects land in every unit the route names, in input order;
// a unit whose writes fail is reported, and every other writer is still
// finished (no open writer aborts when the files go away).
TEST(WorkUnits, DistributeRectsRoutesAndSurfacesWriteFailure) {
  TestDisk td;
  std::vector<std::unique_ptr<Pager>> keep;
  std::vector<RectF> rects;
  for (uint32_t i = 0; i < 3000; ++i) {
    rects.emplace_back(static_cast<float>(i % 10), 0.0f,
                       static_cast<float>(i % 10) + 0.5f, 1.0f, i);
  }
  const DatasetRef input = MakeDataset(&td, rects, "in", &keep);
  // Units 0..2: unit u takes rects with (id % 3 == u); unit 0 also takes
  // every rect, so it sees them all.
  auto route = [](const RectF& r, std::vector<uint32_t>* units) {
    units->push_back(0);
    if (r.id % 3 != 0) units->push_back(static_cast<uint32_t>(r.id % 3));
  };
  auto name = [](uint32_t u) { return "unit." + std::to_string(u); };

  Result<std::vector<UnitFile>> files =
      OpenUnitFiles(nullptr, &td.disk, 3, /*block_pages=*/1, name);
  ASSERT_TRUE(files.ok());
  ASSERT_TRUE(DistributeRects(input, route, &*files).ok());
  EXPECT_EQ((*files)[0].range.count, rects.size());
  EXPECT_EQ((*files)[1].range.count, 1000u);
  EXPECT_EQ((*files)[2].range.count, 1000u);

  FailingStorageFactory failing("unit.1");
  files = OpenUnitFiles(&failing, &td.disk, 3, /*block_pages=*/1, name);
  ASSERT_TRUE(files.ok());
  const Status status = DistributeRects(input, route, &*files);
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_EQ((*files)[0].range.count, rects.size());  // Still finished.
  EXPECT_EQ((*files)[2].range.count, 1000u);

  // Writers still open when the files go away (an error before
  // distribution) are abandoned, not aborted on.
  Result<std::vector<UnitFile>> open =
      OpenUnitFiles(nullptr, &td.disk, 2, /*block_pages=*/1, name);
  ASSERT_TRUE(open.ok());
  (*open)[1].writer->Append(rects[0]);
}

}  // namespace
}  // namespace sj
