// The closed-loop query driver shared by the untraced (end-to-end) and
// the traced run, and the output checks every query passes through.
#ifndef PERFBENCH_RUNNER_H_
#define PERFBENCH_RUNNER_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "service/spatial_service.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {

/// One executed query and its verdict.
struct Record {
  size_t kind = 0;  // Index into WorkloadSpec::kinds.
  QueryResult result;
  /// Completed, but with an answer that differs from the oracle's (or,
  /// where modeled I/O must repeat, a different disk.io_seconds).
  bool wrong = false;
};

/// Checks each query of a run against the oracle and, on workloads whose
/// modeled I/O is deterministic (no service), against the modeled
/// io_seconds of its kind's first execution in the steady cycle.
class OutputChecker {
 public:
  OutputChecker(const WorkloadSpec& spec, Expected expected);
  /// Records `record`'s verdict in record->wrong. With `fix_reference`,
  /// the first completed execution of a kind fixes its reference
  /// io_seconds.
  void Check(Record* record, bool fix_reference = true);

 private:
  const WorkloadSpec& spec_;
  const Expected expected_;
  std::vector<double> first_io_;  // Per kind; negative until fixed.
};

/// Runs every kind in order through `service` when given, once. Without
/// a service, runs the cycle twice and fixes the I/O references in the
/// second: the simulated drive keeps its read-ahead streams across
/// queries, so a query's modeled I/O depends on the queries before it (on
/// DISK1 at scale 0.05, ST reads one page more at random after set-up or
/// after ST than after kAuto), and only from the second cycle on does
/// every kind follow the same history it has in the closed loop.
std::vector<Record> WarmUp(const WorkloadSpec& spec, const Env& env,
                           sj::SpatialService* service,
                           OutputChecker* checker);

/// Closed-loop queries for `seconds`, cycling through the workload's kinds.
/// Without a service, one caller runs them back to back in whole cycles
/// (the loop ends at the first cycle boundary after `seconds`). Through a
/// service, spec.service_clients clients run in lockstep rounds: in round
/// r, client c submits kind (r + c) mod |kinds| as soon as client c - 1's
/// submission is in, then waits for its own result, and the next round
/// starts when all of them are back. Fixing which kinds meet and in what
/// order they ask for memory makes admission (full, degraded or queued)
/// the same from run to run. The loop ends at the first round boundary
/// after `seconds`.
struct LoopResult {
  std::vector<Record> records;
  double wall_s = 0.0;
};
LoopResult RunClosedLoop(const WorkloadSpec& spec, const Env& env,
                         sj::SpatialService* service, double seconds,
                         OutputChecker* checker, Tracer* tracer,
                         std::atomic<uint64_t>* next_query_id);

/// The end-to-end figures of one loop.
struct LoopSummary {
  uint64_t attempted = 0;
  uint64_t completed = 0;  // OK status and correct answer.
  uint64_t failed = 0;     // Error status other than the two below.
  uint64_t rejected = 0;   // ResourceExhausted at admission.
  uint64_t expired = 0;    // DeadlineExceeded in the admission queue.
  uint64_t wrong = 0;
  uint64_t degraded = 0;
  double query_p50_s = 0.0;
  double query_p90_s = 0.0;
  double rects_per_s = 0.0;
  double modeled_io_s = 0.0;
  double error_rate = 0.0;

  uint64_t Errors() const { return failed + rejected + expired + wrong; }
};
LoopSummary Summarize(const Env& env, const LoopResult& loop);

/// A private directory for one run's file-backed scratch storage,
/// created under `parent` (made if missing) and removed when empty.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& parent);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  bool ok() const { return !path_.empty(); }
  const std::string& path() const { return path_; }
  /// Entries (files or directories, recursively) still under the
  /// directory: scratch files a query left behind.
  size_t Leftovers() const;

 private:
  std::string path_;
};

/// Per-kind latency lines (N, p50, p90, mean modeled I/O) for the log.
std::string DescribeKinds(const WorkloadSpec& spec,
                          const std::vector<Record>& records);

/// Latencies of the completed queries of kind `kind` (all kinds when
/// kind == SIZE_MAX).
std::vector<double> Latencies(const std::vector<Record>& records,
                              size_t kind = SIZE_MAX);

}  // namespace perfbench

#endif  // PERFBENCH_RUNNER_H_
