// Run options and the result line every run ends with.
#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  /// Draws the input order (see SetUp); the same seed, the same inputs.
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch files, traces and other run output (inside the checkout).
  std::string out_dir = ".perfbench_out";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The last line of standard output:
///   {"correct": true, "attempted": N, "failed": F,
///    "metrics": {"<name>": {"value": V, "unit": "<unit>"}, ...}}
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// The JSON line; values print with every significant digit.
  std::string Json() const;
  /// One "name = value unit" line per metric, for the log.
  std::string Table() const;
};

/// Host, compiler and build facts for the run's environment report.
std::string DescribeHost();

/// Peak resident set size of this process, in MB.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
