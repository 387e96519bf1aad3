// Fixture: an exemption with no reason. An ok() directive must say why
// its site is safe; an empty one is itself a finding and exempts
// nothing, so the sleep below it is still reported.
// LINT-EXPECT: empty-exemption
// LINT-EXPECT: blocking-in-loop
#include <unistd.h>

class Poller {
 public:
  void run();
};

// LOCKCHECK: event-loop
void Poller::run() {
  // LOCKCHECK: ok()
  usleep(100);
}
