// Time-windowed averaging.
//
// SlidingWindow implements the "average utilization of each active process
// for a one-second window" filter from Sec. IV-B of the paper: it stores
// (duration, value) samples and reports the duration-weighted mean over the
// most recent `window` seconds, discarding older samples.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "util/error.h"

namespace mobitherm::util {

/// Duration-weighted mean over a trailing time window.
///
/// The samples live in a ring the window owns, so a push is O(1): it
/// appends at the tail and evicts from the head. The ring is sized on the
/// first push to hold a full window of that push's dt and doubles only if
/// it fills, so a window fed a constant dt allocates once.
class SlidingWindow {
 public:
  /// `window_s`: length of the trailing window in seconds.
  explicit SlidingWindow(double window_s) : window_s_(window_s) {
    if (window_s <= 0.0) {
      throw ConfigError("SlidingWindow length must be positive");
    }
  }

  /// Record that `value` held for `dt` seconds.
  void push(double dt, double value) {
    if (dt <= 0.0) {
      return;
    }
    if (size_ == ring_.size()) {
      grow(dt);
    }
    ring_[wrap(head_ + size_)] = {dt, value};
    ++size_;
    total_time_ += dt;
    weighted_sum_ += dt * value;
    evict();
  }

  /// Duration-weighted mean of the samples inside the window; `fallback`
  /// when no samples have been recorded yet.
  double mean(double fallback = 0.0) const {
    return total_time_ > 0.0 ? weighted_sum_ / total_time_ : fallback;
  }

  /// Total time covered by retained samples (<= window length once warm).
  double covered() const { return total_time_; }

  bool warm() const { return total_time_ >= window_s_ * (1.0 - 1e-9); }

  /// Drops every sample; the ring keeps its storage.
  void clear() {
    head_ = 0;
    size_ = 0;
    total_time_ = 0.0;
    weighted_sum_ = 0.0;
  }

 private:
  struct Sample {
    double dt;
    double value;
  };

  /// Largest window/dt ratio the first allocation honours (1 MB of
  /// samples); a finer dt starts there and doubles. Capping the double
  /// before the cast keeps the conversion in range.
  static constexpr double kMaxInitialSamples = 65536.0;

  /// `i` is at most twice the capacity, so one subtraction wraps it.
  std::size_t wrap(std::size_t i) const {
    return i < ring_.size() ? i : i - ring_.size();
  }

  /// Sizes the empty ring for a full window of `dt`, or doubles a full
  /// one, keeping the samples oldest first.
  void grow(double dt) {
    std::size_t capacity = 2 * ring_.size();
    if (ring_.empty()) {
      // std::min returns its first argument unless the second is smaller,
      // so a NaN ratio yields the cap.
      capacity = static_cast<std::size_t>(
                     std::min(kMaxInitialSamples, window_s_ / dt)) +
                 2;
    }
    std::vector<Sample> grown(capacity);
    for (std::size_t i = 0; i < size_; ++i) {
      grown[i] = ring_[wrap(head_ + i)];
    }
    ring_.swap(grown);
    head_ = 0;
  }

  /// Drops whole samples from the head while the excess covers them, then
  /// shrinks the head sample so the window is exact.
  void evict() {
    double excess = total_time_ - window_s_;
    while (size_ > 0 && excess >= ring_[head_].dt) {
      const Sample& oldest = ring_[head_];
      excess -= oldest.dt;
      total_time_ -= oldest.dt;
      weighted_sum_ -= oldest.dt * oldest.value;
      head_ = wrap(head_ + 1);
      --size_;
    }
    if (excess > 0.0 && size_ > 0) {
      Sample& oldest = ring_[head_];
      oldest.dt -= excess;
      total_time_ -= excess;
      weighted_sum_ -= excess * oldest.value;
    }
  }

  double window_s_;
  std::vector<Sample> ring_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  double total_time_ = 0.0;
  double weighted_sum_ = 0.0;
};

}  // namespace mobitherm::util
