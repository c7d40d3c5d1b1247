// Tests of the benchmark's own arithmetic: percentiles and quartiles,
// the order-independent pair checksum, and span self-time subtraction.
//
//   python3 perfbench/run.py --selftest
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::printf("FAILED line %d: %s\n", line, what);
    failures++;
  }
}
#define EXPECT(cond) Expect((cond), #cond, __LINE__)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-12; }

void NearestRankPercentiles() {
  std::vector<double> ten;
  for (int i = 10; i >= 1; --i) ten.push_back(i);  // Unsorted on purpose.
  EXPECT(NearestRank(ten, 50) == 5);   // Rank ceil(0.5 * 10) = 5.
  EXPECT(NearestRank(ten, 90) == 9);   // Rank 9: one sample beyond it.
  EXPECT(NearestRank(ten, 91) == 10);  // Rank ceil(9.1) = 10.
  EXPECT(NearestRank(ten, 100) == 10);
  EXPECT(NearestRank(ten, 0) == 1);  // Clamped to the first rank.
  EXPECT(NearestRank({}, 50) == 0);
  EXPECT(NearestRank({7}, 90) == 7);

  // With N = 100 the p90 has exactly ten samples beyond it.
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  const double p90 = NearestRank(hundred, 90);
  EXPECT(p90 == 90);
  int beyond = 0;
  for (double v : hundred) beyond += v > p90;
  EXPECT(beyond == 10);
}

void MedianAndQuartiles() {
  EXPECT(Median({3, 1, 2}) == 2);
  EXPECT(Median({4, 1, 3, 2}) == 2.5);
  EXPECT(Median({}) == 0);

  // Reference values from Python's statistics.quantiles(values, n=4).
  Quartiles q = QuartilesOf({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  EXPECT(q.n == 10);
  EXPECT(Near(q.q1, 2.75) && Near(q.median, 5.5) && Near(q.q3, 8.25));
  EXPECT(Near(q.RelativeSpread(), (8.25 - 2.75) / 5.5));
  q = QuartilesOf({5, 4, 3, 2, 1});
  EXPECT(q.n == 5);
  EXPECT(Near(q.q1, 1.5) && Near(q.median, 3.0) && Near(q.q3, 4.5));
  q = QuartilesOf({1, 2});  // Clamped cut points extrapolate.
  EXPECT(Near(q.q1, 0.75) && Near(q.median, 1.5) && Near(q.q3, 2.25));
  q = QuartilesOf({3, 1, 2});
  EXPECT(Near(q.q1, 1.0) && Near(q.median, 2.0) && Near(q.q3, 3.0));
  q = QuartilesOf({0.5, 0.1, 0.9, 0.3});
  EXPECT(Near(q.q1, 0.15) && Near(q.median, 0.4) && Near(q.q3, 0.8));
  q = QuartilesOf({42});
  EXPECT(q.n == 1 && q.q1 == 42 && q.median == 42 && q.q3 == 42);
  EXPECT(QuartilesOf({}).n == 0);
}

void PairChecksumIsOrderIndependent() {
  const std::vector<std::pair<uint64_t, uint64_t>> pairs = {
      {1, 2}, {3, 4}, {5, 6}, {1, 6}, {7, 2}};
  PairChecksum forward, backward, split_a, split_b;
  for (const auto& [a, b] : pairs) forward.Add(a, b);
  for (auto it = pairs.rbegin(); it != pairs.rend(); ++it) {
    backward.Add(it->first, it->second);
  }
  EXPECT(forward == backward);
  EXPECT(forward.count == 5);

  // Merging partial sums equals summing everything in one place.
  for (size_t i = 0; i < pairs.size(); ++i) {
    (i % 2 == 0 ? split_a : split_b).Add(pairs[i].first, pairs[i].second);
  }
  split_a.Merge(split_b);
  EXPECT(split_a == forward);

  // Missing, duplicated, transposed or altered pairs change it.
  PairChecksum missing, duplicated, transposed, altered;
  for (size_t i = 1; i < pairs.size(); ++i) {
    missing.Add(pairs[i].first, pairs[i].second);
  }
  for (const auto& [a, b] : pairs) duplicated.Add(a, b);
  duplicated.Add(1, 2);
  for (const auto& [a, b] : pairs) transposed.Add(b, a);
  for (const auto& [a, b] : pairs) altered.Add(a, b == 6 ? 8 : b);
  EXPECT(missing != forward);
  EXPECT(duplicated != forward);
  EXPECT(transposed != forward);
  EXPECT(altered != forward);
  EXPECT(altered.count == forward.count);
}

Span MakeSpan(const char* name, double start, double end, int64_t parent) {
  Span s;
  s.name = name;
  s.start = start;
  s.end = end;
  s.parent = parent;
  return s;
}

void SelfTimeSubtractsCoveredChildIntervals() {
  const std::vector<Span> spans = {
      MakeSpan("query", 0, 10, -1),     // 0
      MakeSpan("sort", 1, 3, 0),        // 1
      MakeSpan("sort", 2, 5, 0),        // 2: overlaps 1 (another thread)
      MakeSpan("sweep", 7, 8, 0),       // 3
      MakeSpan("emit", 9, 12, 0),       // 4: runs past its parent's end
      MakeSpan("merge", 1.5, 2.5, 1),   // 5: a grandchild of 0
      MakeSpan("lonely", 20, 21, -1),   // 6
  };
  const std::vector<double> self = SelfTimes(spans);
  // Children cover [1, 5] + [7, 8] + [9, 10] of the query's [0, 10].
  EXPECT(Near(self[0], 10 - 4 - 1 - 1));
  EXPECT(Near(self[1], 2 - 1));  // Only its own child counts.
  EXPECT(Near(self[2], 3));
  EXPECT(Near(self[4], 3));
  EXPECT(Near(self[5], 1));
  EXPECT(Near(self[6], 1));
}

void TracerNestsSpansPerThread() {
  Tracer tracer;
  {
    ScopedSpan query(&tracer, "query", 7);
    { ScopedSpan sort(&tracer, "sort", 7); }
    std::thread other([&] { ScopedSpan remote(&tracer, "remote", 7); });
    other.join();
    { ScopedSpan sweep(&tracer, "sweep", 7); }
  }
  { ScopedSpan after(&tracer, "after"); }
  { ScopedSpan untraced(nullptr, "ignored"); }
  const std::vector<Span> spans = tracer.spans();
  EXPECT(spans.size() == 5);
  EXPECT(spans[0].name == "query" && spans[0].parent == -1);
  EXPECT(spans[1].name == "sort" && spans[1].parent == 0);
  EXPECT(spans[2].name == "remote" && spans[2].parent == -1);  // New thread.
  EXPECT(spans[2].thread != spans[0].thread);
  EXPECT(spans[3].name == "sweep" && spans[3].parent == 0);
  EXPECT(spans[4].name == "after" && spans[4].parent == -1);
  EXPECT(spans[1].query == 7 && spans[4].query == 0);
  for (const Span& s : spans) EXPECT(s.end >= s.start);

  const auto self = tracer.SelfSecondsByName();
  EXPECT(self.at("query") <= spans[0].Duration());
  EXPECT(Near(self.at("sort"), spans[1].Duration()));

  const std::string json = tracer.ChromeJson();
  EXPECT(json.find("\"traceEvents\"") != std::string::npos);
  EXPECT(json.find("\"name\":\"sweep\"") != std::string::npos);
  EXPECT(json.find("\"parent\":0") != std::string::npos);
  EXPECT(json.find("\"query\":7") != std::string::npos);
}

}  // namespace
}  // namespace perfbench

int main() {
  using namespace perfbench;
  NearestRankPercentiles();
  MedianAndQuartiles();
  PairChecksumIsOrderIndependent();
  SelfTimeSubtractsCoveredChildIntervals();
  TracerNestsSpansPerThread();
  if (failures != 0) {
    std::printf("%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench_test: all checks passed\n");
  return 0;
}
