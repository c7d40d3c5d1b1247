#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double NearestRank(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double clamped = std::min(100.0, std::max(p, 0.0));
  const size_t n = samples.size();
  size_t rank = static_cast<size_t>(std::ceil(clamped / 100.0 * n));
  rank = std::max<size_t>(1, std::min(rank, n));
  return samples[rank - 1];
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
}

double Quartiles::RelativeSpread() const {
  return median != 0.0 ? (q3 - q1) / median : 0.0;
}

Quartiles QuartilesOf(std::vector<double> samples) {
  Quartiles q;
  q.n = samples.size();
  if (samples.empty()) return q;
  std::sort(samples.begin(), samples.end());
  if (samples.size() == 1) {
    q.q1 = q.median = q.q3 = samples[0];
    return q;
  }
  // statistics.quantiles, method="exclusive": with m = n + 1, cut point i
  // interpolates between the j-th and (j+1)-th order statistics where
  // j = floor(i * m / 4), clamped to [1, n - 1] before the weight is taken.
  const int64_t n = static_cast<int64_t>(samples.size());
  const int64_t m = n + 1;
  double cuts[3];
  for (int64_t i = 1; i <= 3; ++i) {
    const int64_t j = std::max<int64_t>(1, std::min(i * m / 4, n - 1));
    const int64_t delta = i * m - j * 4;
    cuts[i - 1] = (samples[j - 1] * static_cast<double>(4 - delta) +
                   samples[j] * static_cast<double>(delta)) /
                  4.0;
  }
  q.q1 = cuts[0];
  q.median = cuts[1];
  q.q3 = cuts[2];
  return q;
}

namespace {

// SplitMix64 finalizer: a bijective 64-bit mix.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

void PairChecksum::Add(uint64_t a, uint64_t b) {
  count++;
  sum += Mix64(Mix64(a) ^ (b * 0xff51afd7ed558ccdull));
}

}  // namespace perfbench
