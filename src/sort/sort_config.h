#ifndef USJ_SORT_SORT_CONFIG_H_
#define USJ_SORT_SORT_CONFIG_H_

#include <algorithm>
#include <cstdint>

namespace sj {

class ThreadPool;

/// How one external sort runs. Derived from JoinOptions at every adoption
/// point (SortConfigOf in join/join_types.h); defaults reproduce a safe
/// standalone sort. None of these knobs changes the sorted output or the
/// modeled io_seconds — they move wall time only (see external_sort.h for
/// the determinism contract).
struct SortConfig {
  /// Form runs as independent units on worker threads. Only engages when
  /// `threads > 1` and the input spans more than one run.
  bool parallel_runs = true;
  /// Worker count for run formation (1 = serial). Mirrors
  /// JoinOptions::num_threads.
  uint32_t threads = 1;
  /// Shared morsel pool; null spawns a private ParallelFor team. Not
  /// owned.
  ThreadPool* pool = nullptr;
  /// Double-buffered run/merge output: the filled block flushes on a
  /// background task while the next block fills. Off by default (costs an
  /// extra write-block buffer per open writer), mirroring
  /// JoinOptions::prefetch.
  bool write_behind = false;
  /// Merge fan-in: 0 lets RunLayout::PlanMerge pick the smallest fan-in
  /// that does not add a merge pass (and grow the per-run read block to
  /// fill the budget); explicit values are clamped to [2, MaxFanIn].
  uint32_t merge_fan_in = 0;
};

/// True when the sort concurrency escape hatch is engaged, resolved like
/// the sweep-kernel scalar gate:
///  1. builds with -DSJ_SORT_SERIAL_ONLY always report true;
///  2. ForceSortSerialOnly (tests, benches) sets or clears it;
///  3. default: false.
bool SortSerialOnly();

/// Test hook: force (or un-force) the serial-only gate process-wide
/// (no-op under SJ_SORT_SERIAL_ONLY builds). Only call while no sort is
/// in flight; sorters latch their config when constructed.
void ForceSortSerialOnly(bool on);

/// Clears the ForceSortSerialOnly override, back to the default.
void ResetSortSerialOnly();

/// The config a sorter actually runs: under the serial-only gate the
/// thread-spawning layers (parallel runs, write-behind) are stripped,
/// leaving the bitwise-identical single-threaded pipeline.
inline SortConfig EffectiveSortConfig(SortConfig config) {
  if (SortSerialOnly()) {
    config.parallel_runs = false;
    config.write_behind = false;
    config.threads = 1;
  }
  return config;
}

/// What one external sort did; surfaced through JoinStats (sorts within a
/// join fold together with Fold()).
struct SortStats {
  /// Sorted runs formed (0 for an empty input).
  uint32_t runs = 0;
  /// Runs formed as parallel units (0 = the serial path ran).
  uint32_t parallel_units = 0;
  /// Fan-in the merge phase used (0 when no merge was needed).
  uint32_t merge_fan_in = 0;
  /// Merge passes over the data (0 when a single run sufficed).
  uint32_t merge_passes = 0;

  void Fold(const SortStats& other) {
    runs = std::max(runs, other.runs);
    parallel_units = std::max(parallel_units, other.parallel_units);
    merge_fan_in = std::max(merge_fan_in, other.merge_fan_in);
    merge_passes = std::max(merge_passes, other.merge_passes);
  }
};

}  // namespace sj

#endif  // USJ_SORT_SORT_CONFIG_H_
