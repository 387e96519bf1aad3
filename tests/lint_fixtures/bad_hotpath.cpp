// Fixture: an annotated hot-path function that allocates. mobilint must
// flag every allocation-capable construct inside the body.
// LINT-EXPECT: hot-path-alloc
// LINT-EXPECT: hot-path-alloc
#include <vector>

// MOBILINT: hot-path
double accumulate_bad(const std::vector<double>& xs) {
  std::vector<double> copy;  // local container: allocation in a hot path
  for (double x : xs) {
    copy.push_back(x);  // growth call: allocation in a hot path
  }
  double s = 0.0;
  for (double x : copy) {
    s += x;
  }
  return s;
}
