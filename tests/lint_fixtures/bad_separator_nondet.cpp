// Fixture: a digit separator (1'000) is part of its number, so the call
// after it on the same line is still seen by the per-file rules.
// LINT-EXPECT: nondeterminism
#include <cstdlib>

int pick() {
  const int range = 1'000; return std::rand() % range;
}
