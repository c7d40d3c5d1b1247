// The benchmark's three workloads: their configuration, their set-up
// (generated TIGER relations, R-trees, FeatureStores) and the query kinds
// each one cycles through.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/spatial_join.h"
#include "io/storage.h"
#include "join/executor.h"
#include "refine/feature_store.h"
#include "rtree/rtree.h"
#include "service/spatial_service.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {

/// What a query kind computes, which decides the oracle it is checked
/// against.
enum class Answer {
  kIntersects,  // Every (road, hydro) pair whose MBRs intersect.
  kDistance,    // Refined kDistanceWithin: exact segments within epsilon.
  kHeatmap,     // AggregateByCell 64x64 -> TopKByDistance 16 pipeline.
};

struct QueryKind {
  std::string name;
  sj::JoinAlgorithm algorithm = sj::JoinAlgorithm::kAuto;
  /// Both inputs as bulk-loaded R-trees (else as streams).
  bool indexed = false;
  Answer answer = Answer::kIntersects;
  size_t memory_bytes = 0;
};

struct WorkloadSpec {
  std::string name;
  /// TIGER ladder rung and scale of the generated relations.
  std::string dataset;
  double scale = 0.0;
  /// JoinOptions for every query of the workload.
  uint32_t threads = 1;
  size_t memory_bytes = 0;
  size_t buffer_pool_pages = 0;
  /// Scratch and spill files as real files (TmpFileStorageFactory).
  bool file_scratch = false;
  /// What the timed queries need from set-up.
  bool trees = false;
  bool features = false;
  /// Queries go through one SpatialService with this many clients in
  /// lockstep rounds (0 = one caller running JoinQuery/PipelineQuery
  /// directly); see RunClosedLoop.
  uint32_t service_clients = 0;
  sj::ServiceOptions service;
  std::vector<QueryKind> kinds;
};

/// The three workloads by name; nullptr for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

/// The distance bound of the refined kDistanceWithin kind (degrees).
inline constexpr double kDistanceEpsilon = 0.002;
/// The heatmap pipeline's grid and top-k.
inline constexpr uint32_t kHeatmapCells = 64;
inline constexpr size_t kHeatmapTopK = 16;

/// One set-up of a workload: the generated relations, written to pagers
/// on one DiskModel, plus whatever R-trees and FeatureStores were asked
/// for. Members are declared so that each is destroyed before anything it
/// reads: the joiner and structures before their pagers, pagers before
/// the disk.
struct Env {
  std::unique_ptr<sj::DiskModel> disk;
  std::shared_ptr<sj::TmpFileStorageFactory> scratch;  // Null = in memory.
  std::vector<sj::RectF> roads, hydro;
  std::vector<sj::Segment> roads_geom, hydro_geom;  // Empty without features.
  std::unique_ptr<sj::Pager> roads_pager, hydro_pager;
  std::unique_ptr<sj::Pager> roads_tree_pager, hydro_tree_pager;
  std::unique_ptr<sj::Pager> roads_store_pager, hydro_store_pager;
  sj::DatasetRef roads_ref, hydro_ref;
  std::optional<sj::RTree> roads_tree, hydro_tree;
  std::optional<sj::FeatureStore> roads_store, hydro_store;
  std::unique_ptr<sj::SpatialJoiner> joiner;

  sj::JoinInput Input(int side, bool indexed) const;
  uint64_t InputRects() const { return roads.size() + hydro.size(); }
};

/// What SetUp builds beyond the relations themselves.
struct SetupParts {
  bool trees = false;
  bool features = false;
};

/// Generates the relations, writes them, and builds `parts`. The
/// geography is the TIGER generator's at the ladder rung's own seed (the
/// paper ladder's fixed data); `seed` draws the order of each relation's
/// records (a seeded permutation, ids renumbered to stream order), which
/// every algorithm sees as a different input. With a tracer, each phase
/// is a span (datagen.generate, io.load, rtree.bulkload). `scratch_dir`
/// hosts the file-backed scratch storage.
sj::Result<std::unique_ptr<Env>> SetUp(const WorkloadSpec& spec, uint64_t seed,
                                       const SetupParts& parts,
                                       const std::string& scratch_dir,
                                       Tracer* tracer);

/// Builds FeatureStores over the exact geometry of an Env set up without
/// them (the traced run's refine layer needs them on every workload).
sj::Status AddFeatures(const WorkloadSpec& spec, uint64_t seed, Env* env);

/// Fingerprints a join's output pairs, in the oracle's terms.
class ChecksumSink final : public sj::JoinSink {
 public:
  void Emit(sj::ObjectId a, sj::ObjectId b) override { sum.Add(a, b); }
  PairChecksum sum;
};

/// Fingerprints the heatmap's (cell index, count) rows.
class HeatmapSink final : public sj::RowSink {
 public:
  void Emit(sj::PipeRow row) override {
    sum.Add(row.ids.empty() ? ~0ull : row.ids[0],
            static_cast<uint64_t>(row.value));
  }
  PairChecksum sum;
};

/// The per-kind reference answers, computed at set-up by the oracle.
struct Expected {
  PairChecksum intersects, distance, heatmap;
  const PairChecksum& For(Answer answer) const;
};
Expected ComputeExpected(const WorkloadSpec& spec, const Env& env);

/// The outcome of one query.
struct QueryResult {
  sj::Status status;
  double latency_s = 0.0;
  PairChecksum answer;
  bool degraded = false;
  /// From the query's JoinStats / PipelineStats.
  sj::DiskStats disk;
  double host_cpu_s = 0.0;
  size_t peak_memory_bytes = 0;
  uint64_t pool_requests = 0;
  uint64_t pool_hits = 0;
  uint64_t index_pages_read = 0;
  sj::JoinAlgorithm algorithm = sj::JoinAlgorithm::kAuto;
};

/// Runs one query of `kind`: through `service` when given (submits it,
/// calls `submitted`, and blocks until it finishes), else directly.
/// Latency is wall time from the call to Submit/Run until the result is
/// back. With a tracer the call is a span named "query.<kind>" carrying
/// `query_id`.
QueryResult RunQuery(const WorkloadSpec& spec, const QueryKind& kind,
                     const Env& env, sj::SpatialService* service,
                     Tracer* tracer, uint64_t query_id,
                     const std::function<void()>& submitted = nullptr);

/// The JoinQuery a join kind runs (inputs, algorithm, predicate, budget,
/// threads, storage). Exposed for the traced run's core-layer calls.
sj::JoinQuery MakeJoinQuery(const WorkloadSpec& spec, const QueryKind& kind,
                            const Env& env);

/// Relation, index and pool sizes for the run's environment report.
std::string DescribeSizes(const WorkloadSpec& spec, const Env& env);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
