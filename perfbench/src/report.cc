#include "report.h"

#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

std::string Number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

}  // namespace

std::string Report::Json() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           Number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  out += "}}";
  return out;
}

std::string Report::Table() const {
  std::string out;
  for (const Metric& m : metrics) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "  %-26s %14.6g %s\n", m.name.c_str(),
                  m.value, m.unit.c_str());
    out += buf;
  }
  return out;
}

std::string DescribeHost() {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "host: nproc=%ld (hardware_concurrency=%u), cpu=%s\n"
                "build: compiler=%s, build type=%s\n",
                sysconf(_SC_NPROCESSORS_ONLN),
                std::thread::hardware_concurrency(), CpuModel().c_str(),
#if defined(__clang__)
                "clang " __clang_version__,
#elif defined(__GNUC__)
                "gcc " __VERSION__,
#else
                "unknown",
#endif
                PERFBENCH_BUILD_TYPE);
  return buf;
}

double PeakRssMb() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KB.
}

}  // namespace perfbench
