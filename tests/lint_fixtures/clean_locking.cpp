// Fixture: the locking patterns the lock rules accept — consistent
// lock order, and a justified exemption on a nonblocking read inside the
// event loop. The caller owns the descriptor, so none is held raw here.
// LINT-EXPECT: clean
#include <mutex>
#include <unistd.h>

class Reactor {
 public:
  void run(int wake_fd);
  void snapshot();

 private:
  void step();
  std::mutex order_a_;
  std::mutex order_b_;
  int ticks_ = 0;
};

// LOCKCHECK: event-loop
void Reactor::run(int wake_fd) {
  for (int i = 0; i < 3; ++i) {
    unsigned long long token = 0;
    // LOCKCHECK: ok(nonblocking eventfd; read never stalls)
    (void)!::read(wake_fd, &token, sizeof(token));
    step();
  }
}

void Reactor::step() {
  std::lock_guard<std::mutex> a(order_a_);
  std::lock_guard<std::mutex> b(order_b_);
  ++ticks_;
}

void Reactor::snapshot() {
  std::lock_guard<std::mutex> a(order_a_);
  std::lock_guard<std::mutex> b(order_b_);
  ++ticks_;
}
