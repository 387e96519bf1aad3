// Fixture: a string literal continued with backslash-newline spans two
// lines. The stripper must keep that newline, or every later line moves
// up one and the clock call below would be judged a line away from the
// exemption on its own line.
// LINT-EXPECT: clean
#include <chrono>

const char* kBanner = "mobi\
therm";

long long stamp() {
  return std::chrono::system_clock::now().time_since_epoch().count();  // MOBILINT: nondet-ok
}
