#include "refine/refine.h"

#include <algorithm>
#include <string>
#include <vector>

#include "join/predicate_batch.h"
#include "join/work_units.h"

namespace sj {
namespace {

/// Grant-aware batch size: the configured refine_batch_pairs, shrunk so
/// one batch's working set fits the "refine.batch" grant — the graceful
/// over-budget path (smaller batches mean more, smaller fetch rounds,
/// never a failure). `grant` keeps the share reserved for the caller's
/// lifetime.
uint64_t EffectiveBatchPairs(const JoinOptions& options, MemoryArbiter* arbiter,
                             MemoryGrant* grant) {
  const uint64_t batch = std::max<uint32_t>(1, options.refine_batch_pairs);
  if (arbiter == nullptr) return batch;
  *grant = arbiter->AcquireShrinkable(
      grants::kRefineBatch, batch * kRefineBytesPerCandidate,
      size_t{kMinRefineBatchPairs} * kRefineBytesPerCandidate);
  const uint64_t cap = std::max<uint64_t>(
      kMinRefineBatchPairs, grant->bytes() / kRefineBytesPerCandidate);
  const uint64_t effective = std::min(batch, cap);
  grant->NoteUsage(effective * kRefineBytesPerCandidate);
  return effective;
}

/// One refinement batch: candidates [lo, hi), fetched through the unit's
/// DiskModel shard, which has one registered device per input store.
struct Batch {
  uint64_t lo = 0;
  uint64_t hi = 0;
  DiskModel* disk = nullptr;
  std::vector<uint32_t> devices;
  uint64_t pages_read = 0;
  uint64_t results = 0;
};

/// Runs the batches of `n` candidates as work units (join/work_units.h):
/// `body(batch, out)` refines one batch into `out`. Pages and results are
/// summed in batch order.
template <typename Sink, typename Body>
Result<RefineStats> RunBatches(uint64_t n, size_t nstores,
                               const MachineModel& machine,
                               const JoinOptions& options,
                               MemoryArbiter* arbiter, Sink* sink,
                               const Body& body) {
  MemoryGrant batch_grant;
  const uint64_t batch = EffectiveBatchPairs(options, arbiter, &batch_grant);
  std::vector<Batch> batches((n + batch - 1) / batch);
  auto run_batch = [&](WorkUnit& unit, Sink* out) -> Status {
    Batch& b = batches[unit.index()];
    b.lo = unit.index() * batch;
    b.hi = std::min(n, b.lo + batch);
    b.disk = unit.disk();
    for (size_t k = 0; k < nstores; ++k) {
      b.devices.push_back(
          b.disk->RegisterDevice("refine." + std::to_string(k)));
    }
    return body(b, out);
  };
  SJ_ASSIGN_OR_RETURN(
      const WorkUnitTotals units,
      RunWorkUnits(WorkUnitSpec(options, machine, batches.size()), sink,
                   run_batch));
  RefineStats stats;
  stats.candidates = n;
  stats.disk = units.disk;
  stats.host_cpu_seconds = units.worker_cpu_seconds;
  for (const Batch& b : batches) {
    stats.results += b.results;
    stats.pages_read += b.pages_read;
  }
  return stats;
}

}  // namespace

Result<RefineStats> RefinePairs(const std::vector<IdPair>& candidates,
                                const FeatureStore& store_a,
                                const FeatureStore& store_b,
                                const JoinOptions& options, JoinSink* sink,
                                const PredicateSpec& predicate,
                                MemoryArbiter* arbiter) {
  const SweepKernelMode kernel_mode = ActiveSweepKernelMode();
  auto refine = [&](Batch& b, JoinSink* out) -> Status {
    std::vector<ObjectId> ids_a, ids_b;
    ids_a.reserve(b.hi - b.lo);
    ids_b.reserve(b.hi - b.lo);
    for (uint64_t k = b.lo; k < b.hi; ++k) {
      ids_a.push_back(candidates[k].a);
      ids_b.push_back(candidates[k].b);
    }
    std::vector<Segment> geom_a, geom_b;
    SJ_ASSIGN_OR_RETURN(
        uint64_t pages_a,
        store_a.FetchBatch(Span<const ObjectId>(ids_a.data(), ids_a.size()),
                           &geom_a, b.disk, b.devices[0]));
    SJ_ASSIGN_OR_RETURN(
        uint64_t pages_b,
        store_b.FetchBatch(Span<const ObjectId>(ids_b.data(), ids_b.size()),
                           &geom_b, b.disk, b.devices[1]));
    b.pages_read = pages_a + pages_b;
    // Whole-batch predicate evaluation (join/predicate_batch.h): one flat
    // pass computes the match mask, then emission replays it in candidate
    // order.
    std::vector<uint8_t> match(b.hi - b.lo);
    EvaluateExactPredicateBatch(kernel_mode, predicate, geom_a.data(),
                                geom_b.data(), b.hi - b.lo, match.data());
    for (uint64_t k = 0; k < b.hi - b.lo; ++k) {
      if (match[k]) {
        out->Emit(candidates[b.lo + k].a, candidates[b.lo + k].b);
        b.results++;
      }
    }
    return Status::OK();
  };
  return RunBatches(candidates.size(), 2, store_a.pager()->disk()->machine(),
                    options, arbiter, sink, refine);
}

Result<RefineStats> RefineTuples(
    const std::vector<std::vector<ObjectId>>& tuples,
    const std::vector<const FeatureStore*>& stores, const JoinOptions& options,
    TupleSink* sink, MemoryArbiter* arbiter) {
  const size_t k = stores.size();
  if (k < 2) {
    return Status::InvalidArgument("tuple refinement needs at least 2 stores");
  }
  for (const FeatureStore* store : stores) {
    if (store == nullptr) {
      return Status::InvalidArgument("tuple refinement: missing store");
    }
  }
  const SweepKernelMode kernel_mode = ActiveSweepKernelMode();
  auto refine = [&](Batch& b, TupleSink* out) -> Status {
    // Validate the whole batch before any fetch is modeled.
    for (uint64_t t = b.lo; t < b.hi; ++t) {
      if (tuples[t].size() != k) {
        return Status::InvalidArgument(
            "tuple arity does not match store count");
      }
    }
    // Column-at-a-time gather: one batched fetch per input store.
    std::vector<std::vector<Segment>> geom(k);
    std::vector<ObjectId> ids;
    for (size_t input = 0; input < k; ++input) {
      ids.clear();
      ids.reserve(b.hi - b.lo);
      for (uint64_t t = b.lo; t < b.hi; ++t) ids.push_back(tuples[t][input]);
      SJ_ASSIGN_OR_RETURN(
          uint64_t pages,
          stores[input]->FetchBatch(
              Span<const ObjectId>(ids.data(), ids.size()), &geom[input],
              b.disk, b.devices[input]));
      b.pages_read += pages;
    }
    // Batched pairwise intersection: the columns are already contiguous
    // Segment arrays, so each (x, y) input pair runs one flat pass whose
    // mask is ANDed into the per-row alive mask. The predicates are pure,
    // so dropping the scalar loop's short-circuit cannot change which
    // tuples survive.
    const uint64_t rows = b.hi - b.lo;
    std::vector<uint8_t> alive(rows, 1), pair_mask(rows);
    for (size_t x = 0; x < k; ++x) {
      for (size_t y = x + 1; y < k; ++y) {
        BatchSegmentsIntersect(kernel_mode, geom[x].data(), geom[y].data(),
                               rows, pair_mask.data());
        for (uint64_t row = 0; row < rows; ++row) alive[row] &= pair_mask[row];
      }
    }
    for (uint64_t t = b.lo; t < b.hi; ++t) {
      if (alive[t - b.lo]) {
        out->Emit(tuples[t]);
        b.results++;
      }
    }
    return Status::OK();
  };
  return RunBatches(tuples.size(), k, stores[0]->pager()->disk()->machine(),
                    options, arbiter, sink, refine);
}

}  // namespace sj
