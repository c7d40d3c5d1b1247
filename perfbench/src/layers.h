// The traced run: per-layer metrics from spans the benchmark records
// around its own calls into each layer of the library.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include "report.h"
#include "workload.h"

namespace perfbench {

/// Runs the traced variant of `spec` and fills `report` with every
/// per-layer metric. Returns a process exit code (0 = report is valid).
int RunTraced(const RunOptions& opt, const WorkloadSpec& spec,
              Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
