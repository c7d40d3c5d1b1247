// Summary statistics and the output checksum the benchmark reports with.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile: the smallest sample such that at least `p`
/// percent of the N samples are at or below it (rank ceil(p/100 * N)).
/// `p` is clamped to (0, 100]; an empty input yields 0.
double NearestRank(std::vector<double> samples, double p);

/// The median as the mean of the two middle samples (0 when empty).
double Median(std::vector<double> samples);

/// First quartile, median and third quartile with the sample count, by
/// the same rule as Python's statistics.quantiles(values, n=4) (the
/// default "exclusive" method), so in-run summaries agree with the
/// cross-run spread spread.py computes. Needs at least two samples; with
/// one, all three equal it.
struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
  size_t n = 0;
  /// (q3 - q1) / median, the run-to-run spread as a share of the median.
  double RelativeSpread() const;
};
Quartiles QuartilesOf(std::vector<double> samples);

/// An order-independent fingerprint of a multiset of id pairs: the pair
/// count plus the wrapping sum of a 64-bit mix of each pair. Any
/// permutation of the same pairs gives the same value; a missing,
/// extra, duplicated or altered pair changes it (up to hash collisions).
struct PairChecksum {
  uint64_t count = 0;
  uint64_t sum = 0;

  void Add(uint64_t a, uint64_t b);
  void Merge(const PairChecksum& other) {
    count += other.count;
    sum += other.sum;
  }
  friend bool operator==(const PairChecksum& x, const PairChecksum& y) {
    return x.count == y.count && x.sum == y.sum;
  }
  friend bool operator!=(const PairChecksum& x, const PairChecksum& y) {
    return !(x == y);
  }
};

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
