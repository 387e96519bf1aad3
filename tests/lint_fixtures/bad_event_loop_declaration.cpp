// Fixture: the event-loop marker sits above the method's declaration in
// its class. The marker names Loop::run, so the definition out of line
// is the root, and the sleep in it is reachable from the loop.
// LINT-EXPECT: blocking-in-loop
#include <unistd.h>

class Loop {
 public:
  // LOCKCHECK: event-loop
  void run();

 private:
  int spins_ = 0;
};

void Loop::run() {
  ++spins_;
  ::usleep(1);
}
