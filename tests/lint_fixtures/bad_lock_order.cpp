// Fixture: two functions acquire the same pair of mutexes in
// opposite order — the classic ABBA deadlock the lock-order rule exists
// to catch.
// LINT-EXPECT: lock-order-cycle
#include <mutex>

class Transfer {
 public:
  void debit();
  void credit();

 private:
  std::mutex a_;
  std::mutex b_;
  int balance_a_ = 0;
  int balance_b_ = 0;
};

void Transfer::debit() {
  std::lock_guard<std::mutex> first(a_);
  std::lock_guard<std::mutex> second(b_);
  balance_a_ -= 1;
  balance_b_ += 1;
}

void Transfer::credit() {
  std::lock_guard<std::mutex> first(b_);
  std::lock_guard<std::mutex> second(a_);
  balance_b_ -= 1;
  balance_a_ += 1;
}
