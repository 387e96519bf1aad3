// Fixture: a helper that sleeps is reachable from a function
// marked as the event loop — one slow dispatch stalls every connection
// the loop serves.
// LINT-EXPECT: blocking-in-loop
#include <chrono>
#include <thread>

class Loop {
 public:
  void run();

 private:
  void dispatch();
  int spins_ = 0;
};

// LOCKCHECK: event-loop
void Loop::run() {
  for (int i = 0; i < 3; ++i) {
    dispatch();
  }
}

void Loop::dispatch() {
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ++spins_;
}
