// Self-test of the percentile helper: a percentile is reported only when at
// least ten samples lie beyond it.

#include <cstdio>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

std::vector<double> Ramp(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

}  // namespace

int main() {
  using taste::perfbench::Median;
  using taste::perfbench::Percentile;

  Expect(!Percentile(Ramp(99), 0.90).has_value(),
         "p90 of 99 samples leaves 9 beyond it and must be refused");
  const auto p90 = Percentile(Ramp(100), 0.90);
  Expect(p90.has_value() && *p90 == 90.0, "p90 of 1..100 is 90");

  Expect(!Percentile(Ramp(19), 0.50).has_value(),
         "p50 of 19 samples leaves 9 beyond it and must be refused");
  const auto p50 = Percentile(Ramp(20), 0.50);
  Expect(p50.has_value() && *p50 == 10.0, "p50 of 1..20 is 10");

  Expect(!Percentile({}, 0.5).has_value(), "empty sample is refused");
  Expect(!Percentile(Ramp(1000), 1.0).has_value(), "p100 is refused");
  Expect(!Percentile(Ramp(1000), 0.0).has_value(), "p0 is refused");

  Expect(Median({3.0, 1.0, 2.0}) == 2.0, "median of odd sample");
  Expect(Median({4.0, 1.0, 3.0, 2.0}) == 2.5, "median of even sample");

  if (failures == 0) std::printf("perfbench stats: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
