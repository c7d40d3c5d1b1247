// In-memory span recording for the traced benchmark run.
//
// Spans are recorded from the benchmark's own files, around the calls it
// makes into each layer of the library. Each span has a name, start and
// end (seconds since the tracer was created), the span that was open on
// the same thread when it began (its parent), and the query it belongs
// to. At exit the spans are written as Chrome trace-event JSON (loadable
// in chrome://tracing or Perfetto) and reduced to per-name self time.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  /// Index of the enclosing span in Tracer::spans(), or -1 for a root.
  int64_t parent = -1;
  /// Spans of one query share this id; 0 for work outside any query.
  uint64_t query = 0;
  uint32_t thread = 0;

  double Duration() const { return end - start; }
};

/// Per-span self time: the span's duration minus the part of its
/// interval covered by the union of its children's intervals (children
/// may overlap one another when they ran on other threads). Indexed like
/// `spans`; a span whose end is not yet recorded counts as empty.
std::vector<double> SelfTimes(const std::vector<Span>& spans);

/// Thread-safe span recorder. Parents are tracked per thread: a span
/// begun while another span of this tracer is open on the same thread
/// becomes that span's child.
class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens a span and returns its index.
  int64_t Begin(const std::string& name, uint64_t query);
  /// Closes the span `index` (must be the innermost open span of the
  /// calling thread).
  void End(int64_t index);

  /// Duration of the closed span `index`.
  double Duration(int64_t index) const;

  std::vector<Span> spans() const;

  /// Chrome trace-event JSON ("X" complete events, microseconds), with
  /// the parent index and query id in each event's args.
  std::string ChromeJson() const;

  /// Self time summed per span name.
  std::map<std::string, double> SelfSecondsByName() const;

 private:
  /// Seconds since construction on the tracer's steady clock.
  double Now() const;

  const std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // Guarded by mu_.
  std::map<std::thread::id, uint32_t> thread_ids_;  // Guarded by mu_.
};

/// RAII span; a null tracer records nothing (the untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, uint64_t query = 0)
      : tracer_(tracer),
        index_(tracer != nullptr ? tracer->Begin(name, query) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int64_t index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
