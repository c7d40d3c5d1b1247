#include "runner.h"

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <utility>

#include "stats.h"
#include "util/timer.h"

namespace perfbench {

OutputChecker::OutputChecker(const WorkloadSpec& spec, Expected expected)
    : spec_(spec),
      expected_(std::move(expected)),
      first_io_(spec.kinds.size(), -1.0) {}

void OutputChecker::Check(Record* record, bool fix_reference) {
  const QueryResult& r = record->result;
  if (!r.status.ok()) return;  // Counted by status, not as a wrong answer.
  const QueryKind& kind = spec_.kinds[record->kind];
  record->wrong = r.answer != expected_.For(kind.answer);
  if (spec_.service_clients > 0) return;
  double& reference = first_io_[record->kind];
  if (reference < 0.0) {
    if (fix_reference) reference = r.disk.io_seconds;
  } else if (r.disk.io_seconds != reference) {
    record->wrong = true;
  }
}

std::vector<Record> WarmUp(const WorkloadSpec& spec, const Env& env,
                           sj::SpatialService* service,
                           OutputChecker* checker) {
  const int cycles = service != nullptr ? 1 : 2;
  std::vector<Record> records;
  for (int cycle = 0; cycle < cycles; ++cycle) {
    for (size_t k = 0; k < spec.kinds.size(); ++k) {
      Record record;
      record.kind = k;
      record.result = RunQuery(spec, spec.kinds[k], env, service, nullptr, 0);
      checker->Check(&record, /*fix_reference=*/cycle + 1 == cycles);
      records.push_back(std::move(record));
    }
  }
  return records;
}

LoopResult RunClosedLoop(const WorkloadSpec& spec, const Env& env,
                         sj::SpatialService* service, double seconds,
                         OutputChecker* checker, Tracer* tracer,
                         std::atomic<uint64_t>* next_query_id) {
  LoopResult loop;
  sj::WallTimer wall;
  const size_t kinds = spec.kinds.size();
  if (service == nullptr) {
    // Always the full cycle, so every kind keeps the predecessor it had in
    // the warm-up (see WarmUp).
    while (wall.Elapsed() < seconds) {
      for (size_t k = 0; k < kinds; ++k) {
        Record record;
        record.kind = k;
        record.result = RunQuery(spec, spec.kinds[k], env, nullptr, tracer,
                                 next_query_id->fetch_add(1));
        checker->Check(&record);
        loop.records.push_back(std::move(record));
      }
    }
    loop.wall_s = wall.Elapsed();
    return loop;
  }

  // Lockstep rounds: in round r, client c submits kind (r + c) % kinds
  // once client c - 1's Submit has returned, then waits for its result;
  // the round ends when every client's query is back.
  const uint32_t clients = spec.service_clients;
  std::mutex mu;  // Guards everything below, loop.records and the checker.
  std::condition_variable cv;
  uint64_t round = 0;
  uint32_t next_to_submit = 0;
  uint32_t returned = 0;
  bool stop = false;
  auto client = [&](uint32_t c) {
    for (uint64_t r = 0;; ++r) {
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] {
          return stop || (round == r && next_to_submit == c);
        });
        if (stop) return;
      }
      Record record;
      record.kind = static_cast<size_t>((r + c) % kinds);
      record.result = RunQuery(
          spec, spec.kinds[record.kind], env, service, tracer,
          next_query_id->fetch_add(1), [&] {
            std::lock_guard<std::mutex> lock(mu);
            next_to_submit++;
            cv.notify_all();
          });
      std::unique_lock<std::mutex> lock(mu);
      checker->Check(&record);
      loop.records.push_back(std::move(record));
      if (++returned == clients) {
        returned = 0;
        next_to_submit = 0;
        round++;
        stop = wall.Elapsed() >= seconds;
        cv.notify_all();
      } else {
        cv.wait(lock, [&] { return round != r; });
      }
    }
  };
  std::vector<std::thread> threads;
  for (uint32_t c = 1; c < clients; ++c) threads.emplace_back(client, c);
  client(0);
  for (std::thread& t : threads) t.join();
  loop.wall_s = wall.Elapsed();
  return loop;
}

std::vector<double> Latencies(const std::vector<Record>& records,
                              size_t kind) {
  std::vector<double> out;
  for (const Record& r : records) {
    if (kind != SIZE_MAX && r.kind != kind) continue;
    if (r.result.status.ok() && !r.wrong) out.push_back(r.result.latency_s);
  }
  return out;
}

LoopSummary Summarize(const Env& env, const LoopResult& loop) {
  LoopSummary s;
  double io_sum = 0.0;
  for (const Record& r : loop.records) {
    s.attempted++;
    const sj::Status& status = r.result.status;
    if (r.result.degraded) s.degraded++;
    if (status.ok()) {
      if (r.wrong) {
        s.wrong++;
      } else {
        s.completed++;
        io_sum += r.result.disk.io_seconds;
      }
    } else if (status.code() == sj::StatusCode::kResourceExhausted) {
      s.rejected++;
    } else if (status.code() == sj::StatusCode::kDeadlineExceeded) {
      s.expired++;
    } else {
      s.failed++;
    }
  }
  const std::vector<double> latencies = Latencies(loop.records);
  s.query_p50_s = NearestRank(latencies, 50);
  s.query_p90_s = NearestRank(latencies, 90);
  if (loop.wall_s > 0) {
    s.rects_per_s = static_cast<double>(s.completed) *
                    static_cast<double>(env.InputRects()) / loop.wall_s;
  }
  if (s.completed > 0) s.modeled_io_s = io_sum / s.completed;
  if (s.attempted > 0) {
    s.error_rate = static_cast<double>(s.Errors()) / s.attempted;
  }
  return s;
}

namespace {

size_t CountEntries(const std::string& dir) {
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) return 0;
  size_t n = 0;
  while (const dirent* e = readdir(d)) {
    const std::string name = e->d_name;
    if (name == "." || name == "..") continue;
    n++;
    struct stat st;
    const std::string path = dir + "/" + name;
    if (stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode)) {
      n += CountEntries(path);
    }
  }
  closedir(d);
  return n;
}

bool MakeDirs(const std::string& path) {
  size_t pos = 0;
  while (pos != std::string::npos) {
    pos = path.find('/', pos + 1);
    const std::string prefix = path.substr(0, pos);
    if (mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) return false;
  }
  return true;
}

}  // namespace

ScratchDir::ScratchDir(const std::string& parent) {
  if (!MakeDirs(parent)) return;
  std::string tmpl = parent + "/run-XXXXXX";
  if (mkdtemp(tmpl.data()) != nullptr) path_ = tmpl;
}

ScratchDir::~ScratchDir() {
  if (!path_.empty()) rmdir(path_.c_str());  // Only succeeds when empty.
}

size_t ScratchDir::Leftovers() const {
  return path_.empty() ? 0 : CountEntries(path_);
}

std::string DescribeKinds(const WorkloadSpec& spec,
                          const std::vector<Record>& records) {
  std::string out;
  for (size_t k = 0; k < spec.kinds.size(); ++k) {
    const std::vector<double> lat = Latencies(records, k);
    double io = 0.0;
    uint64_t degraded = 0;
    size_t n = 0;
    for (const Record& r : records) {
      if (r.kind != k) continue;
      n++;
      io += r.result.disk.io_seconds;
      if (r.result.degraded) degraded++;
    }
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "  kind %-9s N=%-4zu ok=%-4zu p50=%.4f s p90=%.4f s "
                  "modeled_io=%.4f s degraded=%llu\n",
                  spec.kinds[k].name.c_str(), n, lat.size(),
                  NearestRank(lat, 50), NearestRank(lat, 90),
                  n > 0 ? io / n : 0.0,
                  static_cast<unsigned long long>(degraded));
    out += buf;
  }
  return out;
}

}  // namespace perfbench
