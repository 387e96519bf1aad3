// Fixture: literals that span or end a line must not shift the lines
// after them. A string continued with backslash-newline spans two lines,
// and an unterminated literal ends at its line's end. Counting both
// newlines keeps each exemption above a log call from reaching the sleep
// below it.
// LINT-EXPECT: blocking-in-loop
// LINT-EXPECT: blocking-in-loop
#include <unistd.h>

void log_line(const char* text);

class Loop {
 public:
  void run();

 private:
  void drain();
};

// LOCKCHECK: event-loop
void Loop::run() {
  // LOCKCHECK: ok(log_line appends to a buffer; it never blocks)
  log_line("a\
b");
  ::usleep(1);
  drain();
}

void Loop::drain() {
  // LOCKCHECK: ok(log_line appends to a buffer; it never blocks)
  log_line("drain");
  const char* open = "unterminated;
  ::usleep(1);
}
