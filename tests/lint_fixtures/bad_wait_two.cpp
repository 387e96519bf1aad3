// Fixture: waiting on a condition variable while a second mutex
// is held. The wait only releases the lock it was handed; `state_` stays
// locked for the whole sleep, stalling every thread that needs it.
// LINT-EXPECT: wait-holding-two
#include <condition_variable>
#include <mutex>

class Drain {
 public:
  void run();

 private:
  std::mutex state_;
  std::mutex items_;
  std::condition_variable ready_;
  bool done_ = false;
};

void Drain::run() {
  std::lock_guard<std::mutex> state(state_);
  std::unique_lock<std::mutex> items(items_);
  while (!done_) {
    ready_.wait(items);
  }
}
