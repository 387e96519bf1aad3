// Move-only owner of one file descriptor.
//
// Every descriptor src/ creates is built straight into a UniqueFd, and this
// class holds the only close: scripts/mobilint.py requires each creating
// call to be the argument of a UniqueFd constructor and to pass its
// *_CLOEXEC flag, and rejects a raw close() anywhere but here. A leaked or
// twice-closed descriptor therefore cannot be written, on error paths and
// half-finished constructors included.
#pragma once

#include <unistd.h>

#include <utility>

namespace mobitherm::util {

class UniqueFd {
 public:
  UniqueFd() = default;
  /// Takes ownership of `fd`; a negative value (a failed call's result)
  /// makes an invalid owner.
  explicit UniqueFd(int fd) : fd_(fd) {}
  ~UniqueFd() {
    if (fd_ >= 0) ::close(fd_);
  }

  UniqueFd(UniqueFd&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}
  /// Takes `other`'s descriptor; `replaced` closes the one held before
  /// (none on a self-move, which leaves the owner as it was).
  UniqueFd& operator=(UniqueFd&& other) noexcept {
    const UniqueFd replaced(std::exchange(fd_, std::exchange(other.fd_, -1)));
    return *this;
  }

  int get() const { return fd_; }
  explicit operator bool() const { return fd_ >= 0; }

 private:
  int fd_ = -1;
};

}  // namespace mobitherm::util
