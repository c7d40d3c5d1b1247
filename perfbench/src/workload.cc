#include "workload.h"

#include <cstdio>
#include <functional>
#include <random>
#include <utility>

#include "core/join_query.h"
#include "core/pipeline_query.h"
#include "datagen/tiger_gen.h"
#include "io/buffer_pool.h"
#include "io/stream.h"
#include "oracle.h"
#include "util/timer.h"

namespace perfbench {
namespace {

using sj::JoinAlgorithm;

// The paper's data-to-memory ratio at a ladder scale: its 24 MB algorithm
// memory and 22 MB buffer pool shrink with the data (floors keep PQ's
// sublinear structures inside the budget).
size_t PaperMemoryBytes(double scale) {
  return std::max<size_t>(4u << 20, static_cast<size_t>((24u << 20) * scale));
}
size_t PaperPoolPages(double scale) {
  return std::max<size_t>(
      8, static_cast<size_t>((22u << 20) * scale) / sj::kPageSize);
}

std::vector<WorkloadSpec> MakeWorkloads() {
  std::vector<WorkloadSpec> all;

  WorkloadSpec scan;
  scan.name = "tiger_scan";
  scan.dataset = "DISK1";
  scan.scale = 0.05;
  scan.threads = 2;
  scan.memory_bytes = PaperMemoryBytes(scan.scale);
  scan.buffer_pool_pages = PaperPoolPages(scan.scale);
  scan.file_scratch = true;
  scan.kinds = {
      {"sssj", JoinAlgorithm::kSSSJ, false, Answer::kIntersects,
       scan.memory_bytes},
      {"pbsm", JoinAlgorithm::kPBSM, false, Answer::kIntersects,
       scan.memory_bytes},
      {"auto", JoinAlgorithm::kAuto, false, Answer::kIntersects,
       scan.memory_bytes},
  };
  all.push_back(scan);

  WorkloadSpec indexed = scan;
  indexed.name = "tiger_indexed";
  indexed.file_scratch = false;
  indexed.trees = true;
  indexed.kinds = {
      {"st", JoinAlgorithm::kST, true, Answer::kIntersects,
       indexed.memory_bytes},
      {"pq", JoinAlgorithm::kPQ, true, Answer::kIntersects,
       indexed.memory_bytes},
      {"auto", JoinAlgorithm::kAuto, true, Answer::kIntersects,
       indexed.memory_bytes},
  };
  all.push_back(indexed);

  WorkloadSpec mixed;
  mixed.name = "service_mixed";
  mixed.dataset = "NJ";
  mixed.scale = 0.5;
  mixed.threads = 1;
  mixed.memory_bytes = 8u << 20;
  mixed.buffer_pool_pages = sj::BufferPool::kPaperCapacityPages / 4;
  mixed.trees = true;
  mixed.features = true;
  mixed.service_clients = 2;
  mixed.service.worker_threads = 2;
  mixed.service.global_memory_bytes = 20u << 20;
  mixed.service.buffer_pool_pages = mixed.buffer_pool_pages;
  mixed.kinds = {
      {"sssj", JoinAlgorithm::kSSSJ, false, Answer::kIntersects, 8u << 20},
      {"pbsm", JoinAlgorithm::kPBSM, false, Answer::kIntersects, 4u << 20},
      {"st", JoinAlgorithm::kST, true, Answer::kIntersects, 8u << 20},
      {"distance", JoinAlgorithm::kAuto, false, Answer::kDistance, 16u << 20},
      {"heatmap", JoinAlgorithm::kAuto, false, Answer::kHeatmap, 8u << 20},
  };
  all.push_back(mixed);
  return all;
}

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec>* all =
      new std::vector<WorkloadSpec>(MakeWorkloads());
  return *all;
}

sj::Result<sj::DatasetRef> WriteRelation(sj::Pager* pager,
                                         const std::vector<sj::RectF>& rects) {
  sj::StreamWriter<sj::RectF> writer(pager);
  const sj::PageId first = writer.first_page();
  sj::RectF extent = sj::RectF::Empty();
  for (const sj::RectF& r : rects) {
    writer.Append(r);
    extent.ExtendTo(r);
  }
  SJ_ASSIGN_OR_RETURN(uint64_t n, writer.Finish());
  sj::DatasetRef ref;
  ref.range = sj::StreamRange{pager, first, n};
  ref.extent = extent;
  return ref;
}

// Runs `query` through `service` (blocking until it is done; `submitted`
// runs once Submit has returned) or, without one, directly on the calling
// thread.
template <typename Query, typename Sink>
auto Execute(const Query& query, Sink* sink, sj::SpatialService* service,
             const std::function<void()>& submitted, bool* degraded) {
  if (service != nullptr) {
    auto handle = service->Submit(query, sink);
    if (submitted) submitted();
    auto stats = handle.Result();
    *degraded = handle.degraded();
    return stats;
  }
  Query copy = query;
  return copy.Run(sink);
}

sj::PipelineQuery MakeHeatmapQuery(const WorkloadSpec& spec,
                                   const QueryKind& kind, const Env& env) {
  const sj::RectF region = sj::TigerGenerator::DefaultRegion();
  sj::PipelineQuery query(*env.joiner);
  query.Input(env.Input(0, kind.indexed))
      .Input(env.Input(1, kind.indexed))
      .Algorithm(kind.algorithm)
      .AggregateByCell(sj::AggregateMode::kCount, kHeatmapCells,
                       kHeatmapCells, region)
      .TopKByDistance(kHeatmapTopK, (region.xlo + region.xhi) / 2,
                      (region.ylo + region.yhi) / 2)
      .Threads(spec.threads)
      .MemoryBytes(kind.memory_bytes);
  if (env.scratch != nullptr) query.Storage(env.scratch);
  return query;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& spec : Workloads()) names.push_back(spec.name);
  return names;
}

sj::JoinInput Env::Input(int side, bool indexed) const {
  if (indexed) {
    return sj::JoinInput::FromRTree(side == 0 ? &*roads_tree : &*hydro_tree);
  }
  return sj::JoinInput::FromStream(side == 0 ? roads_ref : hydro_ref);
}

namespace {

// Applies one seeded permutation to a relation's records (and geometry,
// when given) and renumbers the ids to stream order.
void Permute(uint64_t seed, std::vector<sj::RectF>* rects,
             std::vector<sj::Segment>* geom) {
  std::mt19937_64 rng(seed);
  for (size_t i = rects->size(); i > 1; --i) {
    const size_t j = static_cast<size_t>(rng() % i);
    std::swap((*rects)[i - 1], (*rects)[j]);
    if (!geom->empty()) std::swap((*geom)[i - 1], (*geom)[j]);
  }
  for (size_t i = 0; i < rects->size(); ++i) {
    (*rects)[i].id = static_cast<sj::ObjectId>(i);
  }
}

void Generate(const WorkloadSpec& spec, uint64_t seed, bool geometry,
              Env* env) {
  const sj::TigerSpec tiger = sj::PaperDataset(spec.dataset, spec.scale);
  sj::TigerGenerator gen(tiger.seed);
  env->roads.clear();
  env->hydro.clear();
  env->roads_geom.clear();
  env->hydro_geom.clear();
  if (geometry) {
    gen.GenerateRoadsWithGeometry(tiger.road_count, &env->roads,
                                  &env->roads_geom);
    gen.GenerateHydroWithGeometry(tiger.hydro_count, &env->hydro,
                                  &env->hydro_geom);
  } else {
    gen.GenerateRoads(tiger.road_count, &env->roads);
    gen.GenerateHydro(tiger.hydro_count, &env->hydro);
  }
  Permute(seed, &env->roads, &env->roads_geom);
  Permute(seed ^ 0x9e3779b97f4a7c15ull, &env->hydro, &env->hydro_geom);
}

sj::Status BuildFeatureStores(Env* env) {
  env->roads_store_pager =
      sj::MakeMemoryPager(env->disk.get(), "roads.features");
  env->hydro_store_pager =
      sj::MakeMemoryPager(env->disk.get(), "hydro.features");
  SJ_ASSIGN_OR_RETURN(sj::FeatureStore roads_store,
                      sj::FeatureStore::Build(env->roads_store_pager.get(),
                                              env->roads_geom,
                                              "roads.features"));
  SJ_ASSIGN_OR_RETURN(sj::FeatureStore hydro_store,
                      sj::FeatureStore::Build(env->hydro_store_pager.get(),
                                              env->hydro_geom,
                                              "hydro.features"));
  env->roads_store.emplace(std::move(roads_store));
  env->hydro_store.emplace(std::move(hydro_store));
  return sj::Status::OK();
}

}  // namespace

sj::Result<std::unique_ptr<Env>> SetUp(const WorkloadSpec& spec, uint64_t seed,
                                       const SetupParts& parts,
                                       const std::string& scratch_dir,
                                       Tracer* tracer) {
  auto env = std::make_unique<Env>();
  env->disk = std::make_unique<sj::DiskModel>(sj::MachineModel::Machine3());
  {
    ScopedSpan span(tracer, "datagen.generate");
    Generate(spec, seed, parts.features, env.get());
  }
  {
    ScopedSpan span(tracer, "io.load");
    env->roads_pager = sj::MakeMemoryPager(env->disk.get(), "roads");
    env->hydro_pager = sj::MakeMemoryPager(env->disk.get(), "hydro");
    SJ_ASSIGN_OR_RETURN(env->roads_ref,
                        WriteRelation(env->roads_pager.get(), env->roads));
    SJ_ASSIGN_OR_RETURN(env->hydro_ref,
                        WriteRelation(env->hydro_pager.get(), env->hydro));
    if (parts.features) SJ_RETURN_IF_ERROR(BuildFeatureStores(env.get()));
  }
  if (parts.trees) {
    ScopedSpan span(tracer, "rtree.bulkload");
    env->roads_tree_pager = sj::MakeMemoryPager(env->disk.get(), "roads.rtree");
    env->hydro_tree_pager = sj::MakeMemoryPager(env->disk.get(), "hydro.rtree");
    auto scratch = sj::MakeMemoryPager(env->disk.get(), "bulkload.scratch");
    const sj::RTreeParams params;  // The paper's 400 / 75 % / 20 % layout.
    SJ_ASSIGN_OR_RETURN(
        sj::RTree roads_tree,
        sj::RTree::BulkLoadHilbert(env->roads_tree_pager.get(),
                                   env->roads_ref.range, scratch.get(), params,
                                   24u << 20));
    SJ_ASSIGN_OR_RETURN(
        sj::RTree hydro_tree,
        sj::RTree::BulkLoadHilbert(env->hydro_tree_pager.get(),
                                   env->hydro_ref.range, scratch.get(), params,
                                   24u << 20));
    env->roads_tree.emplace(std::move(roads_tree));
    env->hydro_tree.emplace(std::move(hydro_tree));
  }
  if (spec.file_scratch) {
    SJ_ASSIGN_OR_RETURN(auto factory,
                        sj::TmpFileStorageFactory::Make(scratch_dir));
    env->scratch = std::move(factory);
  }
  // Loading and index builds are not part of any query's I/O.
  env->disk->ResetStats();

  sj::JoinOptions options;
  options.num_threads = spec.threads;
  options.memory_bytes = spec.memory_bytes;
  options.buffer_pool_pages = spec.buffer_pool_pages;
  env->joiner = std::make_unique<sj::SpatialJoiner>(env->disk.get(), options);
  return env;
}

sj::Status AddFeatures(const WorkloadSpec& spec, uint64_t seed, Env* env) {
  if (env->roads_store.has_value()) return sj::Status::OK();
  Env with_geometry;
  Generate(spec, seed, /*geometry=*/true, &with_geometry);
  if (with_geometry.roads != env->roads || with_geometry.hydro != env->hydro) {
    return sj::Status::Internal(
        "geometry generation changed the relations' rectangles");
  }
  env->roads_geom = std::move(with_geometry.roads_geom);
  env->hydro_geom = std::move(with_geometry.hydro_geom);
  SJ_RETURN_IF_ERROR(BuildFeatureStores(env));
  env->disk->ResetStats();
  return sj::Status::OK();
}

const PairChecksum& Expected::For(Answer answer) const {
  switch (answer) {
    case Answer::kDistance:
      return distance;
    case Answer::kHeatmap:
      return heatmap;
    case Answer::kIntersects:
      break;
  }
  return intersects;
}

Expected ComputeExpected(const WorkloadSpec& spec, const Env& env) {
  Expected expected;
  bool distance = false, heatmap = false;
  for (const QueryKind& kind : spec.kinds) {
    distance |= kind.answer == Answer::kDistance;
    heatmap |= kind.answer == Answer::kHeatmap;
  }
  expected.intersects = IntersectsOracle(env.roads, env.hydro);
  if (distance) {
    expected.distance = DistanceOracle(env.roads, env.hydro, env.roads_geom,
                                       env.hydro_geom, kDistanceEpsilon);
  }
  if (heatmap) {
    const sj::RectF region = sj::TigerGenerator::DefaultRegion();
    expected.heatmap = HeatmapOracle(
        env.roads, env.hydro, region, kHeatmapCells, kHeatmapCells,
        kHeatmapTopK, (region.xlo + region.xhi) / 2,
        (region.ylo + region.yhi) / 2);
  }
  return expected;
}

sj::JoinQuery MakeJoinQuery(const WorkloadSpec& spec, const QueryKind& kind,
                            const Env& env) {
  sj::JoinQuery query(*env.joiner);
  query.Input(env.Input(0, kind.indexed))
      .Input(env.Input(1, kind.indexed))
      .Algorithm(kind.algorithm)
      .Threads(spec.threads)
      .MemoryBytes(kind.memory_bytes);
  if (kind.answer == Answer::kDistance) {
    query.Predicate(sj::Predicate::kDistanceWithin, kDistanceEpsilon)
        .Refine(true)
        .WithFeatures(0, &*env.roads_store)
        .WithFeatures(1, &*env.hydro_store);
  }
  if (env.scratch != nullptr) query.Storage(env.scratch);
  return query;
}

QueryResult RunQuery(const WorkloadSpec& spec, const QueryKind& kind,
                     const Env& env, sj::SpatialService* service,
                     Tracer* tracer, uint64_t query_id,
                     const std::function<void()>& submitted) {
  QueryResult result;
  // A query's io_seconds is the difference of the DiskModel's running
  // totals across it, which rounds differently as the totals grow; a lone
  // caller zeroes them first so identical executions report identical
  // values (concurrent service queries share the totals and cannot).
  if (service == nullptr) env.disk->ResetStats();
  auto timed = [&](const auto& query, auto* sink) {
    ScopedSpan span(tracer, "query." + kind.name, query_id);
    sj::WallTimer timer;
    auto stats = Execute(query, sink, service, submitted, &result.degraded);
    result.latency_s = timer.Elapsed();
    result.status = stats.status();
    result.answer = sink->sum;
    if (stats.ok()) {
      result.disk = stats->disk;
      result.host_cpu_s = stats->host_cpu_seconds;
      result.peak_memory_bytes = stats->peak_memory_bytes;
    }
    return stats;
  };
  if (kind.answer == Answer::kHeatmap) {
    HeatmapSink sink;
    const auto stats = timed(MakeHeatmapQuery(spec, kind, env), &sink);
    if (stats.ok()) result.algorithm = stats->join_algorithm;
    return result;
  }
  ChecksumSink sink;
  const auto stats = timed(MakeJoinQuery(spec, kind, env), &sink);
  if (stats.ok()) {
    result.pool_requests = stats->pool_requests;
    result.pool_hits = stats->pool_hits;
    result.index_pages_read = stats->index_pages_read;
  }
  return result;
}

std::string DescribeSizes(const WorkloadSpec& spec, const Env& env) {
  char buf[512];
  std::string out;
  std::snprintf(buf, sizeof(buf),
                "relations: roads=%zu hydro=%zu rects (%s at scale %g)\n",
                env.roads.size(), env.hydro.size(), spec.dataset.c_str(),
                spec.scale);
  out += buf;
  const size_t pool_pages = spec.service_clients > 0
                                ? spec.service.buffer_pool_pages
                                : spec.buffer_pool_pages;
  if (env.roads_tree.has_value()) {
    const uint64_t index_pages =
        env.roads_tree->node_count() + env.hydro_tree->node_count();
    std::snprintf(buf, sizeof(buf),
                  "rtree: roads=%llu hydro=%llu pages (total %llu) vs "
                  "buffer pool %zu pages -> index %s the pool\n",
                  static_cast<unsigned long long>(env.roads_tree->node_count()),
                  static_cast<unsigned long long>(env.hydro_tree->node_count()),
                  static_cast<unsigned long long>(index_pages), pool_pages,
                  index_pages <= pool_pages ? "fits" : "does not fit");
    out += buf;
  } else {
    std::snprintf(buf, sizeof(buf),
                  "rtree: none built; buffer pool %zu pages\n", pool_pages);
    out += buf;
  }
  std::snprintf(buf, sizeof(buf), "memory: query default %.2f MB, threads %u",
                spec.memory_bytes / 1048576.0, spec.threads);
  out += buf;
  for (const QueryKind& kind : spec.kinds) {
    std::snprintf(buf, sizeof(buf), ", %s %.2f MB", kind.name.c_str(),
                  kind.memory_bytes / 1048576.0);
    out += buf;
  }
  out += "\n";
  if (spec.service_clients > 0) {
    std::snprintf(buf, sizeof(buf),
                  "service: %u workers, global budget %.2f MB, %u clients in "
                  "lockstep rounds\n",
                  spec.service.worker_threads,
                  spec.service.global_memory_bytes / 1048576.0,
                  spec.service_clients);
    out += buf;
  }
  std::snprintf(buf, sizeof(buf), "scratch: %s\n",
                env.scratch != nullptr ? env.scratch->description().c_str()
                                       : "memory");
  out += buf;
  return out;
}

}  // namespace perfbench
