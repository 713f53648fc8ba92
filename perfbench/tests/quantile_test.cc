// Unit test of the benchmark's quantile helper. The edge that matters:
// p99 of 100 samples. A floor(p * n) index returns the maximum there; the
// nearest rank is the 99th value, and with only one sample beyond it p99
// is not reported as the tail at all.

#include <cstdio>
#include <vector>

#include "quantile.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

}  // namespace

int main() {
  using perfbench::NearestRank;
  using perfbench::SamplesBeyond;
  using perfbench::Summarize;

  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);  // unsorted input
  const perfbench::Summary s = Summarize(&hundred);
  Expect(s.count == 100, "count is stated");
  Expect(NearestRank(hundred, 0.99) == 99.0,
         "p99 of 1..100 is the 99th value, not the maximum");
  Expect(SamplesBeyond(100, 0.99) == 1, "one sample lies beyond p99 of 100");
  Expect(s.tail_pct == 90.0 && s.tail == 90.0,
         "the reported tail of 100 samples is p90 (10 samples beyond)");
  Expect(s.p50 == 50.0, "median of 1..100 by nearest rank is 50");

  std::vector<double> many;
  for (int i = 1; i <= 1000; ++i) many.push_back(i);
  const perfbench::Summary m = Summarize(&many);
  Expect(m.tail_pct == 99.0 && m.tail == 990.0,
         "1000 samples report p99 (10 beyond)");

  std::vector<double> few = {3.0, 1.0, 2.0};
  const perfbench::Summary f = Summarize(&few);
  Expect(f.tail_pct == 0.0, "three samples have no tail percentile");
  Expect(f.p50 == 2.0, "median of three");

  std::vector<double> empty;
  Expect(Summarize(&empty).count == 0 && NearestRank(empty, 0.5) == 0.0,
         "empty sample");
  Expect(NearestRank({7.0}, 0.01) == 7.0, "one sample");

  if (failures == 0) std::printf("quantile_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
