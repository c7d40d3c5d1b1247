// The traced run. It repeats the end-to-end run's closed loop twice, once
// untraced and once with a span around every query (the difference of the
// two p50s is the tracing overhead), then calls each layer's public entry
// points directly, each call inside a span:
//
//   sort.s        SortRectsByYLo on both base relations
//   sweep.s       SweepJoinWithKind over pre-sorted in-memory copies
//   join.*        SSSJJoin / PBSMJoin (1 and 2 threads), STJoin, PQJoin
//   histogram.*   GridHistogram::BuildSampled, as adaptive PBSM builds it
//   core.*        JoinQuery::Explain, JoinQuery::Run vs the direct call
//   refine.*      RefinePairs over the distance predicate's candidates
//   op.*          PipelineQuery::Run of the heatmap vs its embedded join
//   service.*     the workload's kinds through a SpatialService
//
// Every layer is measured on every workload, so each workload reports the
// full metric set; the workloads differ in which of them their end-to-end
// figures depend on (see BENCHMARK.json). Timed layer calls run kReps
// times and report the median span duration. Every result a call returns
// is checked against the oracle, like the loop's queries. The spans are
// written as Chrome trace-event JSON to <out-dir>/trace-<workload>-<seed>
// .json, and their self time per span name is printed.
#include "layers.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/join_query.h"
#include "core/pipeline_query.h"
#include "datagen/tiger_gen.h"
#include "histogram/grid_histogram.h"
#include "join/partition_plan.h"
#include "join/pbsm.h"
#include "join/pq_join.h"
#include "join/sssj.h"
#include "join/st_join.h"
#include "refine/refine.h"
#include "runner.h"
#include "sort/external_sort.h"
#include "stats.h"
#include "sweep/sweep_join.h"
#include "trace.h"

namespace perfbench {
namespace {

constexpr int kReps = 3;
constexpr double kMb = 1024.0 * 1024.0;

// The traced run's state: the tracer, the set-up, the oracle's answers,
// and the tally of checked results.
class LayerProbe {
 public:
  LayerProbe(const WorkloadSpec& spec, Env* env, const Expected& expected,
             Tracer* tracer)
      : spec_(spec), env_(env), expected_(expected), tracer_(tracer) {}

  // Runs `fn` kReps times, each inside a span named `name`, and returns
  // the median span duration.
  double Timed(const std::string& name, const std::function<void()>& fn) {
    std::vector<double> seconds;
    for (int r = 0; r < kReps; ++r) {
      const int64_t index = tracer_->Begin(name, next_query_++);
      fn();
      tracer_->End(index);
      seconds.push_back(tracer_->Duration(index));
    }
    return Median(seconds);
  }

  // Tallies one checked result.
  void Check(bool ok, const std::string& what) {
    attempted_++;
    if (!ok) {
      failed_++;
      std::printf("CHECK FAILED: %s\n", what.c_str());
    }
  }
  void CheckJoin(const sj::Result<sj::JoinStats>& stats,
                 const PairChecksum& got, const PairChecksum& want,
                 const std::string& what) {
    Check(stats.ok() && got == want,
          what + (stats.ok() ? " answer differs from the oracle"
                             : ": " + stats.status().ToString()));
  }

  // Options the direct layer calls run with: the workload's budget,
  // threads, pool and scratch storage.
  sj::JoinOptions Options(uint32_t threads) const {
    sj::JoinOptions o = env_->joiner->options();
    o.num_threads = threads;
    o.storage = env_->scratch;
    return o;
  }

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

  const WorkloadSpec& spec_;
  Env* const env_;
  const Expected& expected_;
  Tracer* const tracer_;

 private:
  uint64_t next_query_ = 1u << 20;  // Above the loops' query ids.
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

double MeasureSort(LayerProbe& p, Report* report) {
  const sj::JoinOptions o = p.Options(p.spec_.threads);
  sj::SortStats sort_stats;
  const double s = p.Timed("sort", [&] {
    for (const sj::DatasetRef* ref : {&p.env_->roads_ref, &p.env_->hydro_ref}) {
      ScopedSpan span(p.tracer_, "sort.relation");
      sj::DiskModel* disk = p.env_->disk.get();
      auto runs = sj::MakePager(o.storage.get(), disk, "sort.runs");
      auto out = sj::MakePager(o.storage.get(), disk, "sort.out");
      bool ok = runs.ok() && out.ok();
      if (ok) {
        auto sorted = sj::SortRectsByYLo(
            ref->range, runs->get(), out->get(), o.memory_bytes / 2, nullptr,
            sj::PrefetchContextOf(o), sj::SortConfigOf(o), &sort_stats);
        ok = sorted.ok() && sorted->count == ref->count();
      }
      p.Check(ok, "SortRectsByYLo");
    }
  });
  report->Add("sort.s", s, "s");
  report->Add("sort.merge_passes", sort_stats.merge_passes, "count");
  report->Add("sort.merge_fan_in", sort_stats.merge_fan_in, "count");
  report->Add("sort.parallel_units", sort_stats.parallel_units, "count");
  return s;
}

double MeasureSweep(LayerProbe& p, Report* report) {
  std::vector<sj::RectF> a = p.env_->roads, b = p.env_->hydro;
  std::sort(a.begin(), a.end(), sj::OrderByYLo());
  std::sort(b.begin(), b.end(), sj::OrderByYLo());
  const sj::JoinOptions o = p.Options(p.spec_.threads);
  sj::SweepRunStats stats;
  const double s = p.Timed("sweep", [&] {
    sj::VectorRectSource sa(&a), sb(&b);
    PairChecksum sum;
    stats = sj::SweepJoinWithKind(
        o.stream_sweep, sj::TigerGenerator::DefaultRegion(), o.striped_strips,
        sa, sb,
        [&](const sj::RectF& x, const sj::RectF& y) { sum.Add(x.id, y.id); });
    p.Check(sum == p.expected_.intersects, "SweepJoinWithKind answer");
  });
  report->Add("sweep.s", s, "s");
  report->Add("sweep.pairs_per_s", s > 0 ? stats.output_count / s : 0.0,
              "1/s");
  report->Add("sweep.max_bytes", static_cast<double>(stats.max_structure_bytes),
              "B");
  return s;
}

void MeasureJoins(LayerProbe& p, double sort_s, double sweep_s,
                  Report* report) {
  Env& env = *p.env_;
  sj::DiskModel* disk = env.disk.get();
  auto direct = [&](const std::string& name, uint32_t threads,
                    sj::JoinStats* out,
                    const std::function<sj::Result<sj::JoinStats>(
                        const sj::JoinOptions&, sj::JoinSink*)>& call) {
    const sj::JoinOptions o = p.Options(threads);
    return p.Timed(name, [&] {
      ChecksumSink sink;
      auto stats = call(o, &sink);
      p.CheckJoin(stats, sink.sum, p.expected_.intersects, name);
      if (stats.ok() && out != nullptr) *out = *stats;
    });
  };
  auto sssj = [&](const sj::JoinOptions& o, sj::JoinSink* sink) {
    return sj::SSSJJoin(env.roads_ref, env.hydro_ref, disk, o, sink);
  };
  auto pbsm = [&](const sj::JoinOptions& o, sj::JoinSink* sink) {
    return sj::PBSMJoin(env.roads_ref, env.hydro_ref, disk, o, sink);
  };
  const uint32_t t = p.spec_.threads;
  sj::JoinStats pbsm_stats, st_stats;
  const double sssj_s = direct("join.sssj", t, nullptr, sssj);
  const double pbsm_s = direct("join.pbsm", t, &pbsm_stats, pbsm);
  const double sssj_1t = direct("join.sssj.1t", 1, nullptr, sssj);
  const double sssj_2t =
      t == 2 ? sssj_s : direct("join.sssj.2t", 2, nullptr, sssj);
  const double pbsm_1t = direct("join.pbsm.1t", 1, nullptr, pbsm);
  const double pbsm_2t =
      t == 2 ? pbsm_s : direct("join.pbsm.2t", 2, nullptr, pbsm);
  const double st_s = direct(
      "join.st", t, &st_stats, [&](const sj::JoinOptions& o, sj::JoinSink* s) {
        return sj::STJoin(*env.roads_tree, *env.hydro_tree, disk, o, s);
      });
  const double pq_s = direct(
      "join.pq", t, nullptr, [&](const sj::JoinOptions& o, sj::JoinSink* s) {
        return sj::PQJoin(*env.roads_tree, *env.hydro_tree, disk, o, s);
      });
  report->Add("join.sssj_s", sssj_s, "s");
  report->Add("join.pbsm_s", pbsm_s, "s");
  report->Add("join.st_s", st_s, "s");
  report->Add("join.pq_s", pq_s, "s");
  report->Add("join.sssj_self_s", sssj_s - sort_s - sweep_s, "s");
  report->Add("join.sssj_speedup_2t", sssj_2t > 0 ? sssj_1t / sssj_2t : 0.0,
              "ratio");
  report->Add("join.pbsm_speedup_2t", pbsm_2t > 0 ? pbsm_1t / pbsm_2t : 0.0,
              "ratio");
  report->Add("join.pbsm_overflow_frac",
              pbsm_stats.partitions_total > 0
                  ? static_cast<double>(pbsm_stats.partitions_overflowed) /
                        pbsm_stats.partitions_total
                  : 0.0,
              "ratio");
  report->Add("io.pool_hit_rate",
              st_stats.pool_requests > 0
                  ? static_cast<double>(st_stats.pool_hits) /
                        st_stats.pool_requests
                  : 0.0,
              "ratio");
  report->Add("rtree.index_pages_read",
              static_cast<double>(st_stats.index_pages_read), "count");
}

void MeasureHistogram(LayerProbe& p, Report* report) {
  const sj::RectF extent = sj::TigerGenerator::DefaultRegion();
  const uint32_t res = p.env_->joiner->options().pbsm_histogram_resolution;
  const double s = p.Timed("histogram.build", [&] {
    for (const sj::DatasetRef* ref : {&p.env_->roads_ref, &p.env_->hydro_ref}) {
      auto hist = sj::GridHistogram::BuildSampled(
          ref->range, extent, res, res, sj::kPbsmHistogramSampleOneInBlocks);
      p.Check(hist.ok(), "GridHistogram::BuildSampled");
    }
  });
  report->Add("histogram.build_s", s, "s");
}

// Standalone (no shared service) median latency of each kind.
std::vector<double> StandaloneKindSeconds(LayerProbe& p) {
  std::vector<double> out;
  for (const QueryKind& kind : p.spec_.kinds) {
    out.push_back(p.Timed("core.standalone." + kind.name, [&] {
      QueryResult r = RunQuery(p.spec_, kind, *p.env_, nullptr, nullptr, 0);
      p.Check(r.status.ok() && r.answer == p.expected_.For(kind.answer),
              "standalone " + kind.name);
    }));
  }
  return out;
}

void MeasureCore(LayerProbe& p, const std::vector<double>& standalone,
                 const LoopResult& traced, Report* report) {
  const WorkloadSpec& spec = p.spec_;
  const QueryKind sssj{"sssj", sj::JoinAlgorithm::kSSSJ, false,
                       Answer::kIntersects, spec.memory_bytes};
  QueryKind automatic{"auto", sj::JoinAlgorithm::kAuto, false,
                      Answer::kIntersects, spec.memory_bytes};
  for (const QueryKind& kind : spec.kinds) {
    if (kind.algorithm == sj::JoinAlgorithm::kAuto &&
        kind.answer == Answer::kIntersects) {
      automatic = kind;
    }
  }
  const double explain_s = p.Timed("core.explain", [&] {
    sj::JoinQuery query = MakeJoinQuery(spec, automatic, *p.env_);
    p.Check(query.Explain().ok(), "JoinQuery::Explain");
  });
  const double run_s = p.Timed("core.run.sssj", [&] {
    QueryResult r = RunQuery(spec, sssj, *p.env_, nullptr, nullptr, 0);
    p.Check(r.status.ok() && r.answer == p.expected_.intersects,
            "JoinQuery::Run sssj");
  });
  const double direct_s = p.Timed("core.direct.sssj", [&] {
    ChecksumSink sink;
    const sj::JoinOptions o = p.Options(spec.threads);
    auto stats = sj::SSSJJoin(p.env_->roads_ref, p.env_->hydro_ref,
                              p.env_->disk.get(), o, &sink);
    p.CheckJoin(stats, sink.sum, p.expected_.intersects, "SSSJJoin");
  });
  // kAuto against the fastest forced algorithm over the same relations.
  double auto_s = -1.0, best_forced = -1.0;
  for (size_t k = 0; k < spec.kinds.size(); ++k) {
    const QueryKind& kind = spec.kinds[k];
    if (kind.answer != Answer::kIntersects) continue;
    if (kind.algorithm == sj::JoinAlgorithm::kAuto) {
      auto_s = standalone[k];
    } else if (best_forced < 0 || standalone[k] < best_forced) {
      best_forced = standalone[k];
    }
  }
  if (auto_s < 0) {
    auto_s = p.Timed("core.standalone.auto", [&] {
      QueryResult r = RunQuery(spec, automatic, *p.env_, nullptr, nullptr, 0);
      p.Check(r.status.ok() && r.answer == p.expected_.intersects,
              "standalone auto");
    });
  }
  double peak = 0.0, cpu = 0.0;
  size_t n = 0;
  for (const Record& r : traced.records) {
    if (!r.result.status.ok()) continue;
    peak = std::max(peak, static_cast<double>(r.result.peak_memory_bytes));
    cpu += r.result.host_cpu_s;
    n++;
  }
  report->Add("core.explain_s", explain_s, "s");
  report->Add("core.overhead_s", run_s - direct_s, "s");
  report->Add("core.auto_wall_regret",
              best_forced > 0 ? auto_s / best_forced : 0.0, "ratio");
  report->Add("core.peak_grant_mb", peak / kMb, "MB");
  report->Add("core.host_cpu_s", n > 0 ? cpu / n : 0.0, "s");
}

void MeasureRefine(LayerProbe& p, Report* report) {
  Env& env = *p.env_;
  const QueryKind distance{"distance", sj::JoinAlgorithm::kAuto, false,
                           Answer::kDistance, std::max<size_t>(
                               p.spec_.memory_bytes, 16u << 20)};
  // The filter step alone: the ε-expanded MBR candidates.
  sj::JoinQuery filter = MakeJoinQuery(p.spec_, distance, env);
  filter.Refine(false);
  sj::CollectingSink candidates;
  auto filtered = filter.Run(&candidates);
  p.Check(filtered.ok(), "distance filter");
  const sj::PredicateSpec predicate{sj::Predicate::kDistanceWithin,
                                    kDistanceEpsilon};
  const sj::JoinOptions o = p.Options(p.spec_.threads);
  sj::RefineStats stats;
  const double s = p.Timed("refine", [&] {
    ChecksumSink sink;
    auto refined = sj::RefinePairs(candidates.pairs(), *env.roads_store,
                                   *env.hydro_store, o, &sink, predicate);
    p.Check(refined.ok() && sink.sum == p.expected_.distance, "RefinePairs");
    if (refined.ok()) stats = *refined;
  });
  report->Add("refine.s", s, "s");
  report->Add("refine.precision",
              stats.candidates > 0
                  ? static_cast<double>(stats.results) / stats.candidates
                  : 0.0,
              "ratio");
  report->Add("refine.pages_read", static_cast<double>(stats.pages_read),
              "count");
}

void MeasureOp(LayerProbe& p, Report* report) {
  const QueryKind heatmap{"heatmap", sj::JoinAlgorithm::kAuto, false,
                          Answer::kHeatmap, p.spec_.memory_bytes};
  sj::JoinAlgorithm embedded = sj::JoinAlgorithm::kAuto;
  const double pipeline_s = p.Timed("op.pipeline", [&] {
    QueryResult r = RunQuery(p.spec_, heatmap, *p.env_, nullptr, nullptr, 0);
    p.Check(r.status.ok() && r.answer == p.expected_.heatmap,
            "PipelineQuery::Run heatmap");
    embedded = r.algorithm;
  });
  // The pipeline's join source alone, with the algorithm it ran.
  const QueryKind join{"heatmap.join", embedded, false, Answer::kIntersects,
                       p.spec_.memory_bytes};
  const double join_s = p.Timed("op.embedded_join", [&] {
    QueryResult r = RunQuery(p.spec_, join, *p.env_, nullptr, nullptr, 0);
    p.Check(r.status.ok() && r.answer == p.expected_.intersects,
            "embedded join");
  });
  report->Add("op.pipeline_s", pipeline_s, "s");
  report->Add("op.join_share", pipeline_s > 0 ? join_s / pipeline_s : 0.0,
              "ratio");
}

// Service figures from a loop through `service`: per-kind median latency
// over the standalone one (averaged over kinds), the shared pool's hit
// rate, the global budget's peak and the share of degraded admissions.
void ReportService(const WorkloadSpec& spec, const LoopResult& loop,
                   const sj::ServiceStats& stats,
                   const std::vector<double>& standalone, Report* report) {
  double slowdown = 0.0;
  size_t kinds = 0;
  for (size_t k = 0; k < spec.kinds.size(); ++k) {
    const std::vector<double> lat = Latencies(loop.records, k);
    if (lat.empty() || standalone[k] <= 0) continue;
    slowdown += Median(lat) / standalone[k];
    kinds++;
  }
  const uint64_t admitted = stats.admitted_full + stats.admitted_degraded;
  report->Add("service.slowdown", kinds > 0 ? slowdown / kinds : 0.0,
              "ratio");
  report->Add("service.pool_hit_rate",
              stats.pool.requests > 0
                  ? static_cast<double>(stats.pool.hits) / stats.pool.requests
                  : 0.0,
              "ratio");
  report->Add("service.global_peak_mb", stats.global_peak_bytes / kMb, "MB");
  report->Add("service.degraded_frac",
              admitted > 0
                  ? static_cast<double>(stats.admitted_degraded) / admitted
                  : 0.0,
              "ratio");
}

// Per-query means of the loop's disk counters.
void ReportIo(const LoopResult& loop, Report* report) {
  double pages_read = 0, pages_written = 0, wall = 0;
  double reads = 0, random_reads = 0;
  size_t n = 0;
  for (const Record& r : loop.records) {
    if (!r.result.status.ok()) continue;
    const sj::DiskStats& d = r.result.disk;
    pages_read += d.pages_read;
    pages_written += d.pages_written;
    wall += d.io_wall_seconds;
    reads += d.read_requests;
    random_reads += d.random_read_requests;
    n++;
  }
  const double per = n > 0 ? 1.0 / n : 0.0;
  report->Add("io.pages_read", pages_read * per, "count");
  report->Add("io.pages_written", pages_written * per, "count");
  report->Add("io.random_read_frac", reads > 0 ? random_reads / reads : 0.0,
              "ratio");
  report->Add("io.wall_s", wall * per, "s");
}

double SpanSeconds(const Tracer& tracer, const std::string& name) {
  double total = 0.0;
  for (const Span& s : tracer.spans()) {
    if (s.name == name) total += s.Duration();
  }
  return total;
}

bool WriteFile(const std::string& path, const std::string& text) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace

int RunTraced(const RunOptions& opt, const WorkloadSpec& spec,
              Report* report) {
  ScratchDir scratch(opt.out_dir + "/tmp");
  if (!scratch.ok()) {
    std::fprintf(stderr, "cannot create scratch directory under %s\n",
                 opt.out_dir.c_str());
    return 1;
  }
  Tracer tracer;
  // The end-to-end set-up, traced, plus whatever the layer calls need on
  // top of it (R-trees on tiger_scan, FeatureStores on the TIGER rungs).
  SetupParts parts{true, spec.features};
  auto made = SetUp(spec, opt.seed, parts, scratch.path(), &tracer);
  if (!made.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n",
                 made.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<Env> env = std::move(made).value();
  if (sj::Status s = AddFeatures(spec, opt.seed, env.get()); !s.ok()) {
    std::fprintf(stderr, "feature set-up failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("%s", DescribeSizes(spec, *env).c_str());
  // The refine and op layers run on every workload; so do their oracles.
  WorkloadSpec all_answers = spec;
  all_answers.kinds.push_back({"distance", sj::JoinAlgorithm::kAuto, false,
                               Answer::kDistance, spec.memory_bytes});
  all_answers.kinds.push_back({"heatmap", sj::JoinAlgorithm::kAuto, false,
                               Answer::kHeatmap, spec.memory_bytes});
  const Expected expected = ComputeExpected(all_answers, *env);
  OutputChecker checker(spec, expected);

  std::unique_ptr<sj::SpatialService> service;
  if (spec.service_clients > 0) {
    service = std::make_unique<sj::SpatialService>(spec.service);
  }
  const std::vector<Record> warmup =
      WarmUp(spec, *env, service.get(), &checker);
  std::atomic<uint64_t> next_query_id{1};
  // A quarter of the run each for the untraced and the traced loop, and
  // (TIGER workloads) for the service loop: with the layer calls, a traced
  // run takes about as long as an untraced one.
  const double loop_seconds = opt.seconds / 4;
  const LoopResult untraced =
      RunClosedLoop(spec, *env, service.get(), loop_seconds, &checker,
                    nullptr, &next_query_id);
  const LoopResult traced =
      RunClosedLoop(spec, *env, service.get(), loop_seconds, &checker,
                    &tracer, &next_query_id);
  const LoopSummary u = Summarize(*env, untraced);
  const LoopSummary t = Summarize(*env, traced);
  std::printf("untraced loop: N=%llu p50 %.6f s; traced loop: N=%llu p50 "
              "%.6f s\n",
              static_cast<unsigned long long>(u.attempted), u.query_p50_s,
              static_cast<unsigned long long>(t.attempted), t.query_p50_s);
  std::printf("%s", DescribeKinds(spec, traced.records).c_str());

  LayerProbe probe(spec, env.get(), expected, &tracer);
  report->Add("datagen.generate_s", SpanSeconds(tracer, "datagen.generate"),
              "s");
  report->Add("io.load_s", SpanSeconds(tracer, "io.load"), "s");
  report->Add("rtree.bulkload_s", SpanSeconds(tracer, "rtree.bulkload"), "s");
  const double sort_s = MeasureSort(probe, report);
  const double sweep_s = MeasureSweep(probe, report);
  MeasureJoins(probe, sort_s, sweep_s, report);
  MeasureHistogram(probe, report);
  ReportIo(traced, report);
  const std::vector<double> standalone = StandaloneKindSeconds(probe);
  MeasureCore(probe, standalone, traced, report);
  MeasureRefine(probe, report);
  MeasureOp(probe, report);

  // The service layer: service_mixed's own loop; the TIGER workloads run
  // their kinds through a two-worker service whose budget holds two of
  // their queries and whose pool is their standalone pool.
  if (service != nullptr) {
    ReportService(spec, traced, service->stats(), standalone, report);
  } else {
    sj::ServiceOptions options;
    options.worker_threads = 2;
    options.global_memory_bytes = 2 * spec.memory_bytes;
    options.buffer_pool_pages = spec.buffer_pool_pages;
    WorkloadSpec served = spec;
    served.service_clients = 2;
    served.service = options;
    sj::SpatialService shared(options);
    OutputChecker served_checker(served, expected);
    const LoopResult loop =
        RunClosedLoop(served, *env, &shared, loop_seconds, &served_checker,
                      &tracer, &next_query_id);
    const LoopSummary ls = Summarize(*env, loop);
    probe.Check(ls.Errors() == 0, "service loop");
    ReportService(served, loop, shared.stats(), standalone, report);
  }
  report->Add("trace.overhead_s", t.query_p50_s - u.query_p50_s, "s");
  LoopResult warm;
  warm.records = warmup;
  const uint64_t loop_errors =
      Summarize(*env, warm).Errors() + u.Errors() + t.Errors();

  // Leak checks, as in the end-to-end run.
  uint64_t leaks = 0;
  if (service != nullptr && service->stats().global_in_use_bytes != 0) {
    std::printf("CHECK FAILED: service holds bytes after the run\n");
    leaks++;
  }
  service.reset();
  env.reset();
  if (scratch.Leftovers() != 0) {
    std::printf("CHECK FAILED: scratch entries left in %s\n",
                scratch.path().c_str());
    leaks++;
  }

  const std::string trace_path = opt.out_dir + "/trace-" + spec.name + "-" +
                                 std::to_string(opt.seed) + ".json";
  if (!WriteFile(trace_path, tracer.ChromeJson())) {
    std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
    return 1;
  }
  std::printf("trace: %zu spans written to %s\nself time by span:\n",
              tracer.spans().size(), trace_path.c_str());
  for (const auto& [name, self] : tracer.SelfSecondsByName()) {
    std::printf("  %-26s %10.4f s\n", name.c_str(), self);
  }

  report->attempted = warmup.size() + u.attempted + t.attempted +
                      probe.attempted();
  report->failed = loop_errors + probe.failed();
  report->correct = report->failed == 0 && leaks == 0;
  return 0;
}

}  // namespace perfbench
