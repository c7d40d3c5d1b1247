// Parallel-equals-serial determinism: PBSM, SSSJ strip joins, and the
// parallel multiway join must produce byte-identical output (same pairs,
// same order) and identical modeled I/O stats for every num_threads,
// because each parallel unit runs against a private DiskModel shard that
// is merged in unit order.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "datagen/synthetic.h"
#include "join/multiway.h"
#include "join/pbsm.h"
#include "join/sssj.h"
#include "test_util.h"
#include "util/thread_pool.h"

namespace sj {
namespace {

using testing_util::BruteForcePairs;
using testing_util::FailingStorageFactory;
using testing_util::MakeDataset;
using testing_util::Sorted;
using testing_util::TestDisk;

void ExpectSameDiskStats(const DiskStats& got, const DiskStats& want,
                         uint32_t threads) {
  EXPECT_EQ(got.read_requests, want.read_requests) << "threads=" << threads;
  EXPECT_EQ(got.sequential_read_requests, want.sequential_read_requests)
      << "threads=" << threads;
  EXPECT_EQ(got.random_read_requests, want.random_read_requests)
      << "threads=" << threads;
  EXPECT_EQ(got.write_requests, want.write_requests) << "threads=" << threads;
  EXPECT_EQ(got.sequential_write_requests, want.sequential_write_requests)
      << "threads=" << threads;
  EXPECT_EQ(got.random_write_requests, want.random_write_requests)
      << "threads=" << threads;
  EXPECT_EQ(got.pages_read, want.pages_read) << "threads=" << threads;
  EXPECT_EQ(got.pages_written, want.pages_written) << "threads=" << threads;
  // Exact double equality: the shards sum the same request sequences in
  // the same order for every thread count.
  EXPECT_EQ(got.io_seconds, want.io_seconds) << "threads=" << threads;
}

struct RunResult {
  std::vector<IdPair> pairs;
  JoinStats stats;
};

template <typename JoinFn>
RunResult RunWithThreads(const std::vector<RectF>& a,
                         const std::vector<RectF>& b, uint32_t threads,
                         size_t memory_bytes, JoinFn&& join,
                         ThreadPool* pool = nullptr) {
  TestDisk td;
  std::vector<std::unique_ptr<Pager>> keep;
  const DatasetRef da = MakeDataset(&td, a, "a", &keep);
  const DatasetRef db = MakeDataset(&td, b, "b", &keep);
  JoinOptions options;
  options.memory_bytes = memory_bytes;
  options.num_threads = threads;
  options.worker_pool = pool;
  CollectingSink sink;
  RunResult result;
  auto stats = join(da, db, &td.disk, options, &sink);
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  result.pairs = sink.pairs();
  result.stats = *stats;
  return result;
}

TEST(ParallelJoin, PBSMDeterministicAcrossThreadCounts) {
  const RectF region(0, 0, 500, 500);
  // Memory small enough to force several partitions, so the pool has
  // real units to schedule.
  const auto a = UniformRects(4000, region, 2.0f, 21);
  const auto b = UniformRects(4000, region, 2.0f, 22);
  auto pbsm = [](const DatasetRef& da, const DatasetRef& db, DiskModel* disk,
                 const JoinOptions& options, JoinSink* sink) {
    return PBSMJoin(da, db, disk, options, sink);
  };
  const RunResult serial = RunWithThreads(a, b, 1, 48u << 10, pbsm);
  EXPECT_EQ(Sorted(serial.pairs), BruteForcePairs(a, b));
  EXPECT_GT(serial.stats.partitions_total, 1u);

  for (const uint32_t threads : {2u, 8u}) {
    const RunResult parallel = RunWithThreads(a, b, threads, 48u << 10, pbsm);
    EXPECT_EQ(parallel.pairs, serial.pairs) << "threads=" << threads;
    EXPECT_EQ(parallel.stats.output_count, serial.stats.output_count);
    EXPECT_EQ(parallel.stats.max_sweep_bytes, serial.stats.max_sweep_bytes);
    EXPECT_EQ(parallel.stats.partitions_total, serial.stats.partitions_total);
    EXPECT_EQ(parallel.stats.partitions_overflowed,
              serial.stats.partitions_overflowed);
    EXPECT_EQ(parallel.stats.max_partition_bytes,
              serial.stats.max_partition_bytes);
    ExpectSameDiskStats(parallel.stats.disk, serial.stats.disk, threads);
  }
}

TEST(ParallelJoin, PBSMOverflowPathDeterministic) {
  // Everything in one hot tile: the overflow (external sort) branch must
  // also be shard-deterministic.
  const RectF spot(50, 50, 51, 51);
  auto a = UniformRects(3000, spot, 0.1f, 23);
  auto b = UniformRects(3000, spot, 0.1f, 24);
  a.push_back(RectF(0, 0, 0.1f, 0.1f, 400000));
  b.push_back(RectF(99, 99, 99.1f, 99.1f, 400001));
  auto pbsm = [](const DatasetRef& da, const DatasetRef& db, DiskModel* disk,
                 const JoinOptions& options, JoinSink* sink) {
    return PBSMJoin(da, db, disk, options, sink);
  };
  const RunResult serial = RunWithThreads(a, b, 1, 48u << 10, pbsm);
  EXPECT_EQ(Sorted(serial.pairs), BruteForcePairs(a, b));
  EXPECT_GT(serial.stats.partitions_overflowed, 0u);
  for (const uint32_t threads : {2u, 8u}) {
    const RunResult parallel = RunWithThreads(a, b, threads, 48u << 10, pbsm);
    EXPECT_EQ(parallel.pairs, serial.pairs) << "threads=" << threads;
    ExpectSameDiskStats(parallel.stats.disk, serial.stats.disk, threads);
  }
}

TEST(ParallelJoin, SSSJStripDeterministicAcrossThreadCounts) {
  const RectF region(0, 0, 500, 500);
  const auto a = UniformRects(4000, region, 2.0f, 25);
  const auto b = UniformRects(4000, region, 2.0f, 26);
  auto strip_join = [](const DatasetRef& da, const DatasetRef& db,
                       DiskModel* disk, const JoinOptions& options,
                       JoinSink* sink) {
    return SSSJStripJoin(da, db, /*strips=*/8, disk, options, sink);
  };
  const RunResult serial = RunWithThreads(a, b, 1, 24u << 20, strip_join);
  EXPECT_EQ(Sorted(serial.pairs), BruteForcePairs(a, b));
  EXPECT_EQ(serial.stats.partitions_total, 8u);

  for (const uint32_t threads : {2u, 8u}) {
    const RunResult parallel =
        RunWithThreads(a, b, threads, 24u << 20, strip_join);
    EXPECT_EQ(parallel.pairs, serial.pairs) << "threads=" << threads;
    EXPECT_EQ(parallel.stats.output_count, serial.stats.output_count);
    EXPECT_EQ(parallel.stats.max_sweep_bytes, serial.stats.max_sweep_bytes);
    ExpectSameDiskStats(parallel.stats.disk, serial.stats.disk, threads);
  }
}

// Morsel mode: the units run on a shared pool (the service's) with more
// runners asked for than it has workers, and must match the private
// serial run pair for pair and in modeled I/O.
template <typename JoinFn>
void ExpectSharedPoolMatchesSerial(const std::vector<RectF>& a,
                                   const std::vector<RectF>& b,
                                   size_t memory_bytes, JoinFn&& join) {
  const RunResult serial = RunWithThreads(a, b, 1, memory_bytes, join);
  EXPECT_GT(serial.stats.partitions_total, 1u);
  ThreadPool pool(3);
  for (const uint32_t threads : {2u, 8u}) {
    const RunResult shared =
        RunWithThreads(a, b, threads, memory_bytes, join, &pool);
    EXPECT_EQ(shared.pairs, serial.pairs) << "threads=" << threads;
    EXPECT_EQ(shared.stats.output_count, serial.stats.output_count);
    EXPECT_EQ(shared.stats.max_sweep_bytes, serial.stats.max_sweep_bytes);
    ExpectSameDiskStats(shared.stats.disk, serial.stats.disk, threads);
  }
}

TEST(ParallelJoin, PBSMSharedPoolMatchesPrivateSerial) {
  const RectF region(0, 0, 500, 500);
  ExpectSharedPoolMatchesSerial(
      UniformRects(4000, region, 2.0f, 21),
      UniformRects(4000, region, 2.0f, 22), 48u << 10,
      [](const DatasetRef& da, const DatasetRef& db, DiskModel* disk,
         const JoinOptions& options, JoinSink* sink) {
        return PBSMJoin(da, db, disk, options, sink);
      });
}

TEST(ParallelJoin, SSSJStripSharedPoolMatchesPrivateSerial) {
  const RectF region(0, 0, 500, 500);
  ExpectSharedPoolMatchesSerial(
      UniformRects(4000, region, 2.0f, 25),
      UniformRects(4000, region, 2.0f, 26), 24u << 20,
      [](const DatasetRef& da, const DatasetRef& db, DiskModel* disk,
         const JoinOptions& options, JoinSink* sink) {
        return SSSJStripJoin(da, db, /*strips=*/8, disk, options, sink);
      });
}

// A write failure while distributing into unit files, or inside a unit,
// surfaces as kIoError: no open writer aborts on the way out, and every
// grant goes back to the caller's arbiter.
TEST(ParallelJoin, WriteFailureReturnsIoErrorAndReleasesGrants) {
  const RectF region(0, 0, 500, 500);
  const auto a = UniformRects(2000, region, 2.0f, 41);
  const auto b = UniformRects(2000, region, 2.0f, 42);
  for (const char* prefix :
       {"pbsm.a.", "pbsm.b.", "sssj.strip.a.", "sssj.strip.b.",
        "sssj.strip.s"}) {
    for (const uint32_t threads : {1u, 4u}) {
      SCOPED_TRACE(std::string(prefix) + " threads=" + std::to_string(threads));
      TestDisk td;
      std::vector<std::unique_ptr<Pager>> keep;
      const DatasetRef da = MakeDataset(&td, a, "a", &keep);
      const DatasetRef db = MakeDataset(&td, b, "b", &keep);
      JoinOptions options;
      options.memory_bytes = 48u << 10;
      options.num_threads = threads;
      options.storage = std::make_shared<FailingStorageFactory>(prefix);
      MemoryArbiter arbiter(kMinMemoryBytes);
      CountingSink sink;
      const Result<JoinStats> stats =
          std::string(prefix).rfind("pbsm.", 0) == 0
              ? PBSMJoin(da, db, &td.disk, options, &sink, nullptr, nullptr,
                         &arbiter)
              : SSSJStripJoin(da, db, /*strips=*/8, &td.disk, options, &sink,
                              &arbiter);
      EXPECT_EQ(stats.status().code(), StatusCode::kIoError);
      EXPECT_EQ(arbiter.in_use(), 0u);
    }
  }
}

std::vector<std::vector<ObjectId>> SortedTuples(
    std::vector<std::vector<ObjectId>> tuples) {
  std::sort(tuples.begin(), tuples.end());
  return tuples;
}

TEST(ParallelJoin, MultiwayStreamsDeterministicAndMatchesChain) {
  const RectF region(0, 0, 200, 200);
  // Three inputs with enough overlap for a nontrivial 3-way result.
  std::vector<std::vector<RectF>> inputs;
  for (uint64_t k = 0; k < 3; ++k) {
    auto rects = UniformRects(1500, region, 6.0f, 31 + k);
    std::sort(rects.begin(), rects.end(), OrderByYLo());
    inputs.push_back(std::move(rects));
  }

  auto run = [&](uint32_t threads, ThreadPool* pool = nullptr) {
    TestDisk td;
    std::vector<std::unique_ptr<Pager>> keep;
    std::vector<DatasetRef> refs;
    RectF extent = RectF::Empty();
    for (size_t k = 0; k < inputs.size(); ++k) {
      refs.push_back(
          MakeDataset(&td, inputs[k], "in" + std::to_string(k), &keep));
      extent.ExtendTo(refs.back().extent);
    }
    JoinOptions options;
    options.num_threads = threads;
    options.worker_pool = pool;
    CollectingTupleSink sink;
    auto stats =
        MultiwayJoinStreams(refs, extent, &td.disk, options, &sink);
    EXPECT_TRUE(stats.ok()) << stats.status().ToString();
    return std::make_pair(sink.tuples(), *stats);
  };

  const auto serial = run(1);
  EXPECT_GT(serial.second.output_count, 0u);
  for (const uint32_t threads : {2u, 8u}) {
    const auto parallel = run(threads);
    EXPECT_EQ(parallel.first, serial.first) << "threads=" << threads;
    EXPECT_EQ(parallel.second.output_count, serial.second.output_count);
    ExpectSameDiskStats(parallel.second.disk, serial.second.disk, threads);
  }
  ThreadPool pool(3);  // Morsel mode, as in the service.
  for (const uint32_t threads : {2u, 8u}) {
    const auto shared = run(threads, &pool);
    EXPECT_EQ(shared.first, serial.first) << "shared threads=" << threads;
    EXPECT_EQ(shared.second.output_count, serial.second.output_count);
    ExpectSameDiskStats(shared.second.disk, serial.second.disk, threads);
  }

  // The strip decomposition must agree with the serial left-deep chain.
  TestDisk td;
  std::vector<std::unique_ptr<Pager>> keep;
  std::vector<DatasetRef> refs;
  RectF extent = RectF::Empty();
  for (size_t k = 0; k < inputs.size(); ++k) {
    refs.push_back(
        MakeDataset(&td, inputs[k], "in" + std::to_string(k), &keep));
    extent.ExtendTo(refs.back().extent);
  }
  std::vector<std::unique_ptr<SortedStreamSource>> sources;
  std::vector<SortedRectSource*> source_ptrs;
  for (const DatasetRef& ref : refs) {
    sources.push_back(std::make_unique<SortedStreamSource>(ref.range));
    source_ptrs.push_back(sources.back().get());
  }
  CollectingTupleSink chain_sink;
  auto chain_stats = MultiwayJoinSources(source_ptrs, extent, &td.disk,
                                         JoinOptions(), &chain_sink);
  ASSERT_TRUE(chain_stats.ok());
  EXPECT_EQ(SortedTuples(serial.first), SortedTuples(chain_sink.tuples()));
}

TEST(ParallelJoin, MultiwayStripWriteFailureReturnsIoError) {
  const RectF region(0, 0, 200, 200);
  for (const uint32_t threads : {1u, 4u}) {
    TestDisk td;
    std::vector<std::unique_ptr<Pager>> keep;
    std::vector<DatasetRef> refs;
    RectF extent = RectF::Empty();
    for (uint64_t k = 0; k < 3; ++k) {
      auto rects = UniformRects(1500, region, 6.0f, 51 + k);
      std::sort(rects.begin(), rects.end(), OrderByYLo());
      refs.push_back(MakeDataset(&td, rects, "in" + std::to_string(k), &keep));
      extent.ExtendTo(refs.back().extent);
    }
    JoinOptions options;
    options.num_threads = threads;
    options.storage = std::make_shared<FailingStorageFactory>("multiway.");
    CountingTupleSink sink;
    const Result<MultiwayStats> stats =
        MultiwayJoinStreams(refs, extent, &td.disk, options, &sink);
    EXPECT_EQ(stats.status().code(), StatusCode::kIoError)
        << "threads=" << threads;
  }
}

}  // namespace
}  // namespace sj
