// Fixture: an ABBA deadlock where one of the two orders exists only
// through a call. post() holds entries_ and calls touch_index(), which
// takes index_; audit() takes index_, then entries_. Only the call
// graph's lock summaries show post()'s order.
// LINT-EXPECT: lock-order-cycle
#include <mutex>

class Journal {
 public:
  void post();
  void audit();

 private:
  void touch_index();
  std::mutex entries_;
  std::mutex index_;
  int posted_ = 0;
  int indexed_ = 0;
};

void Journal::post() {
  std::lock_guard<std::mutex> entries(entries_);
  ++posted_;
  touch_index();
}

void Journal::touch_index() {
  std::lock_guard<std::mutex> index(index_);
  ++indexed_;
}

void Journal::audit() {
  std::lock_guard<std::mutex> index(index_);
  std::lock_guard<std::mutex> entries(entries_);
  indexed_ = posted_;
}
