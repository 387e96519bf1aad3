// Fixture: descriptor hygiene. The socket lacks SOCK_CLOEXEC (it leaks into
// child processes) and is a raw int closed by hand, so the connect-failure
// path leaks it; built into a util::UniqueFd, it could not.
// LINT-EXPECT: fd-cloexec
// LINT-EXPECT: fd-unowned
// LINT-EXPECT: raw-close
#include <sys/socket.h>
#include <unistd.h>

bool probe(const sockaddr* addr, unsigned int len) {
  int fd = socket(2, 1, 0);
  if (fd < 0) {
    return false;
  }
  if (connect(fd, addr, len) != 0) {
    return false;  // descriptor still open on this path
  }
  close(fd);
  return true;
}
