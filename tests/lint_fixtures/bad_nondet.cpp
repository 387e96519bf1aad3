// Fixture: nondeterminism sources that would break reproducible traces.
// LINT-EXPECT: nondeterminism
// LINT-EXPECT: nondeterminism
#include <cstdlib>
#include <unordered_map>

double jitter() {
  return static_cast<double>(rand()) / static_cast<double>(RAND_MAX);
}

// Iteration order of this map is unspecified; any fold over it is
// run-to-run nondeterministic.
std::unordered_map<int, double> per_node_power;
