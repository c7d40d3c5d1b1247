#ifndef USJ_CORE_QUERY_SPEC_H_
#define USJ_CORE_QUERY_SPEC_H_

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "core/spatial_join.h"
#include "join/executor.h"
#include "join/predicate.h"

namespace sj {

/// The memory floor every query budget must meet: budgets below
/// kMinMemoryBytes (64 KiB) are FailedPrecondition — absurdly small
/// budgets used to flow into divisions downstream, and below the floor
/// the component floors no longer fit together. The query layer and the
/// SpatialService's admission both apply it.
Status CheckMemoryFloor(size_t memory_bytes);

/// What every query description carries: the joiner it runs against, its
/// inputs and what is attached to them, the predicate, the forced
/// algorithm, the per-query JoinOptions, and the service's arbiter
/// override. JoinQuery and PipelineQuery both hold one (via QueryBuilder),
/// and a pipeline's join source is a JoinQuery built from the pipeline's
/// spec in one step.
struct QuerySpec {
  /// Queries inherit the joiner's JoinOptions as per-query defaults; the
  /// joiner (and the DiskModel behind it) must outlive the query.
  explicit QuerySpec(SpatialJoiner& joiner_in)
      : joiner(&joiner_in), options(joiner_in.options()) {}

  SpatialJoiner* joiner;
  std::vector<JoinInput> inputs;
  /// (input index, attachment) pairs in call order; a later attachment to
  /// the same index wins.
  std::vector<std::pair<size_t, const GridHistogram*>> histograms;
  std::vector<std::pair<size_t, const FeatureStore*>> features;
  PredicateSpec predicate;
  JoinAlgorithm algorithm = JoinAlgorithm::kAuto;
  JoinOptions options;
  /// Set via UseArbiter (service mode); null = each run creates one.
  std::shared_ptr<MemoryArbiter> arbiter_override;

  /// The query layer's budget and attachment checks: CheckMemoryFloor on
  /// options.memory_bytes, and InvalidArgument for a histogram or
  /// FeatureStore attached to a missing input.
  Status Validate() const;

  /// The arbiter a run executes under: the override when set, else a
  /// fresh one over options.memory_bytes.
  std::shared_ptr<MemoryArbiter> MakeArbiter() const;

  /// The histogram attached to input `index` (null when none).
  const GridHistogram* HistogramFor(size_t index) const;
};

/// The builder surface JoinQuery and PipelineQuery share: every setter
/// over the QuerySpec, defined once and returning the derived query type
/// (CRTP) so chains like `.Input(a).Threads(8).Window(w)` keep working.
template <typename Derived>
class QueryBuilder {
 public:
  /// Appends an input (position = order of the Input calls).
  Derived& Input(const JoinInput& input) {
    spec_.inputs.push_back(input);
    return self();
  }

  /// Attaches an occupancy histogram to input `index`. Histograms sharpen
  /// the planner's touched-fraction estimate, prune selective index
  /// traversals of the *other* side, and prune pipeline window scans. The
  /// histogram must outlive Run().
  Derived& WithHistogram(size_t index, const GridHistogram* histogram) {
    if (histogram != nullptr) spec_.histograms.emplace_back(index, histogram);
    return self();
  }

  /// Attaches exact geometry to input `index` (equivalent to calling
  /// JoinInput::WithFeatures before Input; required by Refine(true)). The
  /// store must outlive Run().
  Derived& WithFeatures(size_t index, const FeatureStore* store) {
    spec_.features.emplace_back(index, store);
    return self();
  }

  /// Selects the join predicate; `epsilon` is the distance bound for
  /// Predicate::kDistanceWithin and ignored otherwise. kContains means
  /// "input 0 contains input 1" and requires Refine(true) with
  /// FeatureStores on both inputs.
  Derived& Predicate(sj::Predicate kind, double epsilon = 0.0) {
    spec_.predicate.kind = kind;
    spec_.predicate.epsilon = epsilon;
    return self();
  }

  /// Forces the filter algorithm (default kAuto = cost-based planning).
  Derived& Algorithm(JoinAlgorithm algorithm) {
    spec_.algorithm = algorithm;
    return self();
  }

  // Per-query JoinOptions overrides. Each setter adjusts this query's
  // private copy of the joiner's options; the shared joiner is never
  // mutated. mutable_options() is the escape hatch covering every knob.
  Derived& Refine(bool on) { return Mutate([&](JoinOptions& o) { o.refine = on; }); }
  Derived& Threads(uint32_t n) { return Mutate([&](JoinOptions& o) { o.num_threads = n; }); }
  Derived& MemoryBytes(size_t bytes) { return Mutate([&](JoinOptions& o) { o.memory_bytes = bytes; }); }
  Derived& BufferPoolPages(size_t pages) { return Mutate([&](JoinOptions& o) { o.buffer_pool_pages = pages; }); }
  Derived& StreamSweep(SweepStructureKind kind) { return Mutate([&](JoinOptions& o) { o.stream_sweep = kind; }); }
  Derived& PartitionSweep(SweepStructureKind kind) { return Mutate([&](JoinOptions& o) { o.partition_sweep = kind; }); }
  Derived& StripedStrips(uint32_t strips) { return Mutate([&](JoinOptions& o) { o.striped_strips = strips; }); }
  Derived& PbsmTilesPerAxis(uint32_t tiles) { return Mutate([&](JoinOptions& o) { o.pbsm_tiles_per_axis = tiles; }); }
  /// Skew-adaptive PBSM partitioning (on by default); false is the
  /// fixed-grid escape hatch (the paper's round-robin tiling).
  Derived& AdaptivePartitioning(bool on) { return Mutate([&](JoinOptions& o) { o.adaptive_partitioning = on; }); }
  Derived& PbsmHistogramResolution(uint32_t cells) { return Mutate([&](JoinOptions& o) { o.pbsm_histogram_resolution = cells; }); }
  Derived& FuseMergeSweep(bool on) { return Mutate([&](JoinOptions& o) { o.fuse_merge_sweep = on; }); }
  Derived& MultiwayStrips(uint32_t strips) { return Mutate([&](JoinOptions& o) { o.multiway_strips = strips; }); }
  Derived& RefineBatchPairs(uint32_t pairs) { return Mutate([&](JoinOptions& o) { o.refine_batch_pairs = pairs; }); }
  /// Storage backend for this query's scratch/spill files (null =
  /// in-memory). Shared because partition shards create files
  /// concurrently; results and modeled I/O are identical on any backend.
  Derived& Storage(std::shared_ptr<StorageFactory> factory) { return Mutate([&](JoinOptions& o) { o.storage = std::move(factory); }); }
  /// Double-buffered read-ahead on stream scans and refinement batches.
  /// Never changes results, candidate counts, or modeled io_seconds —
  /// only measured wall time (JoinStats::disk.io_wall_seconds).
  Derived& Prefetch(bool on) { return Mutate([&](JoinOptions& o) { o.prefetch = on; }); }
  /// Parallel run formation in the external sorts (engages with
  /// Threads(n>1)); output bytes and modeled io_seconds are identical at
  /// any thread count.
  Derived& SortParallelRuns(bool on) { return Mutate([&](JoinOptions& o) { o.sort_parallel_runs = on; }); }
  /// External-merge fan-in (0 = auto; see JoinOptions::merge_fan_in).
  Derived& MergeFanIn(uint32_t fan_in) { return Mutate([&](JoinOptions& o) { o.merge_fan_in = fan_in; }); }
  /// Write-behind run output: like Prefetch, moves io_wall_seconds only.
  Derived& SortWriteBehind(bool on) { return Mutate([&](JoinOptions& o) { o.sort_write_behind = on; }); }

  JoinOptions& mutable_options() { return spec_.options; }
  const JoinOptions& options() const { return spec_.options; }

  /// Service plumbing: executes this query against an externally owned
  /// arbiter (a child the SpatialService carved out of its global budget)
  /// instead of a fresh per-query one. The arbiter's budget should match
  /// the query's memory_bytes; grants, peaks, and strict-mode behaviour
  /// are unchanged. Most callers never touch this.
  Derived& UseArbiter(std::shared_ptr<MemoryArbiter> arbiter) {
    spec_.arbiter_override = std::move(arbiter);
    return self();
  }

 protected:
  explicit QueryBuilder(SpatialJoiner& joiner) : spec_(joiner) {}
  explicit QueryBuilder(QuerySpec spec) : spec_(std::move(spec)) {}

  QuerySpec spec_;

 private:
  Derived& self() { return static_cast<Derived&>(*this); }
  template <typename Fn>
  Derived& Mutate(Fn&& fn) {
    fn(spec_.options);
    return self();
  }
};

}  // namespace sj

#endif  // USJ_CORE_QUERY_SPEC_H_
