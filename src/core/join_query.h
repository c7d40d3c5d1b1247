#ifndef USJ_CORE_JOIN_QUERY_H_
#define USJ_CORE_JOIN_QUERY_H_

#include <utility>

#include "core/query_spec.h"

namespace sj {

/// A composable spatial join query against a SpatialJoiner: the one entry
/// point for pairwise and k-way joins over any mix of indexed and
/// non-indexed inputs, with per-query option overrides and predicate
/// selection.
///
///   SpatialJoiner joiner(&disk, defaults);
///   CollectingSink sink;
///   auto stats = JoinQuery(joiner)
///                    .Input(JoinInput::FromRTree(&tree))
///                    .Input(JoinInput::FromStream(hydro))
///                    .WithHistogram(0, &roads_hist)
///                    .Predicate(Predicate::kDistanceWithin, 0.25)
///                    .Refine(true)
///                    .Threads(8)
///                    .Run(&sink);
///
/// Histograms and FeatureStores attach to *inputs* (by position), every
/// JoinOptions knob can be overridden without mutating the shared joiner,
/// and Run dispatches through the ExecutorRegistry: two inputs with a
/// JoinSink run the pairwise pipeline, two or more with a TupleSink run
/// the k-way chain. The query object is cheap to build and single-shot
/// state-free: Run() may be called repeatedly and each call compiles a
/// fresh plan.
class JoinQuery : public QueryBuilder<JoinQuery> {
 public:
  explicit JoinQuery(SpatialJoiner& joiner) : QueryBuilder(joiner) {}

  /// Compiles the query and returns the planner's decision without
  /// executing anything (EXPLAIN). Reflects forced algorithms and
  /// predicate transforms exactly as Run would see them.
  Result<PlanDecision> Explain();

  /// Runs the pairwise pipeline (exactly 2 inputs): compile, execute the
  /// filter through the registry, apply refinement when enabled. Results
  /// go to `sink` as (id from input 0, id from input 1) pairs.
  ///
  /// This is a thin synchronous wrapper over a single-query
  /// SpatialService (service/spatial_service.h): the query is submitted
  /// to an inline service owning exactly this query's budget, admitted in
  /// full, executed on the calling thread, and its result returned — so
  /// the standalone and the multi-tenant paths are one code path, and
  /// every error comes back through the same Status taxonomy.
  Result<JoinStats> Run(JoinSink* sink);

  /// Runs the k-way pipeline (>= 2 inputs, Predicate::kIntersects only):
  /// tuples of ids, one per input, whose MBRs share a common point —
  /// refined against exact geometry when Refine(true). Executes directly
  /// (the service schedules pairwise queries; a k-way query submitted
  /// through a service runs under its arbiter via UseArbiter).
  Result<MultiwayStats> Run(TupleSink* sink);

 private:
  friend class SpatialService;
  /// PipelineQuery builds its join source from its own spec and feeds its
  /// operator chain from RunDirect (the join executes under the
  /// pipeline's arbiter).
  friend class PipelineQuery;

  explicit JoinQuery(QuerySpec spec) : QueryBuilder(std::move(spec)) {}

  /// The pairwise execution body (compile + executor dispatch +
  /// refinement), shared by the Run() wrapper and the service's workers.
  /// `algorithm`, when set, receives the filter algorithm that ran.
  Result<JoinStats> RunDirect(JoinSink* sink,
                              JoinAlgorithm* algorithm = nullptr);

  /// Shared validation + input resolution. `multiway` selects the k-way
  /// rules (input count, predicate restrictions); `plan_only` skips the
  /// ε-expansion materialization (Explain never executes I/O passes).
  Result<CompiledPlan> Compile(bool multiway, bool plan_only = false);

  /// Applies the ε-expansion transform for kDistanceWithin to the plan's
  /// resolved inputs (see Predicate documentation in join/predicate.h).
  Status ApplyDistanceTransform(CompiledPlan& plan);
};

}  // namespace sj

#endif  // USJ_CORE_JOIN_QUERY_H_
