// Fixture: a *_locked() helper waits on a condition variable while its
// caller's lock is still held. drain_locked() REQUIRES(state_), so
// state_ is held on entry; the wait releases only items_, the lock it
// is handed. Only the REQUIRES annotation says that state_ is held.
// LINT-EXPECT: wait-holding-two
#include <condition_variable>
#include <mutex>

#include "util/thread_annotations.h"

class Drain {
 public:
  void run();

 private:
  void drain_locked() REQUIRES(state_);
  std::mutex state_;
  std::mutex items_;
  std::condition_variable ready_;
  bool done_ = false;
};

void Drain::run() {
  std::lock_guard<std::mutex> state(state_);
  drain_locked();
}

void Drain::drain_locked() {
  std::unique_lock<std::mutex> items(items_);
  while (!done_) {
    ready_.wait(items);
  }
}
