// Fixture: a digit separator (1'000) is part of its number, so the sleep
// after it on the same line is still seen, reachable from the event loop.
// LINT-EXPECT: blocking-in-loop
#include <unistd.h>

class Loop {
 public:
  void run();
};

// LOCKCHECK: event-loop
void Loop::run() {
  const unsigned spins = 1'000; ::usleep(spins);
}
