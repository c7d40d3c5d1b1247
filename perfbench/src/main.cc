// The repository benchmark driver.
//
//   perfbench --workload <tiger_scan|tiger_indexed|service_mixed>
//             [--seed N] [--seconds S] [--trace 0|1] [--out-dir DIR]
//
// --trace 0 (the end-to-end run) sets the workload up kSetups times
// (setup_s is the median; one set-up takes well under a second, so a
// single one is at the mercy of the host's noise), computes every query
// kind's reference answer with the oracle, warms up, then runs closed-loop
// queries for S seconds and reports the end-to-end metrics. --trace 1 (the
// traced run) reports the per-layer metrics instead; see layers.cc. Every
// query's output is checked; the last line of standard output is the JSON
// result.
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "layers.h"
#include "report.h"
#include "runner.h"
#include "stats.h"
#include "util/timer.h"
#include "workload.h"

namespace perfbench {
namespace {

constexpr int kSetups = 5;

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> [--seed N] [--seconds S] "
               "[--trace 0|1] [--out-dir DIR]\nworkloads:");
  for (const std::string& name : WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
}

bool ParseArgs(int argc, char** argv, RunOptions* opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      opt->workload = value;
    } else if (flag == "--seed") {
      opt->seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      opt->seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      opt->trace = std::strtol(value, &end, 10) != 0;
    } else if (flag == "--out-dir") {
      opt->out_dir = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return !opt->workload.empty() && opt->seconds > 0;
}

// The end-to-end run: every end_to_end metric, tracing off.
int RunEndToEnd(const RunOptions& opt, const WorkloadSpec& spec,
                Report* report) {
  ScratchDir scratch(opt.out_dir + "/tmp");
  if (!scratch.ok()) {
    std::fprintf(stderr, "cannot create scratch directory under %s\n",
                 opt.out_dir.c_str());
    return 1;
  }
  const SetupParts parts{spec.trees, spec.features};
  std::unique_ptr<Env> env;
  std::vector<double> setup_times;
  for (int k = 0; k < kSetups; ++k) {
    env.reset();
    sj::WallTimer timer;
    auto made = SetUp(spec, opt.seed, parts, scratch.path(), nullptr);
    setup_times.push_back(timer.Elapsed());
    if (!made.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   made.status().ToString().c_str());
      return 1;
    }
    env = std::move(made).value();
  }
  const Quartiles setup = QuartilesOf(setup_times);
  std::printf("%s", DescribeSizes(spec, *env).c_str());
  std::printf("setup: median %.4f s over %zu set-ups (q1 %.4f, q3 %.4f)\n",
              setup.median, setup.n, setup.q1, setup.q3);

  sj::WallTimer oracle_timer;
  OutputChecker checker(spec, ComputeExpected(spec, *env));
  std::printf("oracle: %.3f s (excluded from setup_s)\n",
              oracle_timer.Elapsed());

  std::unique_ptr<sj::SpatialService> service;
  if (spec.service_clients > 0) {
    service = std::make_unique<sj::SpatialService>(spec.service);
  }
  const std::vector<Record> warmup =
      WarmUp(spec, *env, service.get(), &checker);
  std::atomic<uint64_t> next_query_id{1};
  const LoopResult loop = RunClosedLoop(spec, *env, service.get(),
                                        opt.seconds, &checker, nullptr,
                                        &next_query_id);
  LoopSummary s = Summarize(*env, loop);

  // Warm-up queries are checked like timed ones; a failure there counts.
  LoopResult warm;
  warm.records = warmup;
  const LoopSummary w = Summarize(*env, warm);
  uint64_t leaks = 0;
  if (service != nullptr) {
    const sj::ServiceStats stats = service->stats();
    if (stats.global_in_use_bytes != 0) {
      std::printf("CHECK FAILED: service holds %zu bytes after the run\n",
                  stats.global_in_use_bytes);
      leaks++;
    }
    service.reset();
  }
  env.reset();
  if (const size_t left = scratch.Leftovers(); left != 0) {
    std::printf("CHECK FAILED: %zu scratch entries left in %s\n", left,
                scratch.path().c_str());
    leaks++;
  }

  std::printf("queries: N=%llu completed=%llu failed=%llu rejected=%llu "
              "expired=%llu wrong=%llu degraded=%llu over %.3f s "
              "(warm-up errors %llu)\n",
              static_cast<unsigned long long>(s.attempted),
              static_cast<unsigned long long>(s.completed),
              static_cast<unsigned long long>(s.failed),
              static_cast<unsigned long long>(s.rejected),
              static_cast<unsigned long long>(s.expired),
              static_cast<unsigned long long>(s.wrong),
              static_cast<unsigned long long>(s.degraded), loop.wall_s,
              static_cast<unsigned long long>(w.Errors()));
  std::printf("%s", DescribeKinds(spec, loop.records).c_str());
  std::printf("latency percentiles: nearest rank over N=%llu completed "
              "queries\n",
              static_cast<unsigned long long>(s.completed));
  std::printf("error_rate: %.6f\n", s.error_rate);

  report->attempted = w.attempted + s.attempted;
  report->failed = w.Errors() + s.Errors();
  report->correct = report->failed == 0 && leaks == 0;
  report->Add("setup_s", setup.median, "s");
  report->Add("query_p50_s", s.query_p50_s, "s");
  report->Add("query_p90_s", s.query_p90_s, "s");
  report->Add("rects_per_s", s.rects_per_s, "1/s");
  report->Add("modeled_io_s", s.modeled_io_s, "s");
  report->Add("peak_rss_mb", PeakRssMb(), "MB");
  report->Add("success_rate", 1.0 - s.error_rate, "ratio");
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  // Pin glibc's mmap threshold at its initial 128 KiB: left dynamic, it
  // rises after the first large free, and from then on whether a freed
  // buffer returns to the OS depends on which thread freed what first, so
  // peak RSS would differ by several MB between identical runs.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  RunOptions opt;
  if (!ParseArgs(argc, argv, &opt)) {
    Usage();
    return 2;
  }
  const WorkloadSpec* spec = FindWorkload(opt.workload);
  if (spec == nullptr) {
    Usage();
    return 2;
  }
  std::printf("workload: %s seed=%llu seconds=%g trace=%d\n",
              spec->name.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);
  std::printf("%s", DescribeHost().c_str());

  Report report;
  const int rc = opt.trace ? RunTraced(opt, *spec, &report)
                           : RunEndToEnd(opt, *spec, &report);
  if (rc != 0) return rc;
  std::printf("metrics:\n%s", report.Table().c_str());
  std::printf("%s\n", report.Json().c_str());
  std::fflush(stdout);
  return 0;
}
