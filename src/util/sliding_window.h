// Fixed-capacity ring buffer and time-windowed averaging.
//
// SlidingWindow implements the "average utilization of each active process
// for a one-second window" filter from Sec. IV-B of the paper: it stores
// (duration, value) samples and reports the duration-weighted mean over the
// most recent `window` seconds, discarding older samples.
#pragma once

#include <cstddef>
#include <vector>

#include "util/error.h"

namespace mobitherm::util {

/// Fixed-capacity ring buffer. Pushing beyond capacity overwrites the
/// oldest element.
template <typename T>
class RingBuffer {
 public:
  explicit RingBuffer(std::size_t capacity)
      : data_(capacity), capacity_(capacity) {
    if (capacity == 0) {
      throw ConfigError("RingBuffer capacity must be positive");
    }
  }

  void push(const T& value) {
    data_[(head_ + size_) % capacity_] = value;
    if (size_ < capacity_) {
      ++size_;
    } else {
      head_ = (head_ + 1) % capacity_;
    }
  }

  /// Element `i` counting from the oldest retained sample.
  const T& operator[](std::size_t i) const {
    MOBITHERM_ASSERT(i < size_);
    return data_[(head_ + i) % capacity_];
  }

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return capacity_; }
  bool empty() const { return size_ == 0; }
  bool full() const { return size_ == capacity_; }

  const T& front() const {
    MOBITHERM_ASSERT(size_ > 0);
    return data_[head_];
  }
  const T& back() const {
    MOBITHERM_ASSERT(size_ > 0);
    return data_[(head_ + size_ - 1) % capacity_];
  }

  void clear() {
    head_ = 0;
    size_ = 0;
  }

 private:
  std::vector<T> data_;
  std::size_t capacity_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

/// Duration-weighted mean over a trailing time window.
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
    samples_.push_back({dt, value});
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

  void clear() {
    samples_.clear();
    total_time_ = 0.0;
    weighted_sum_ = 0.0;
  }

 private:
  struct Sample {
    double dt;
    double value;
  };

  void evict() {
    std::size_t drop = 0;
    double excess = total_time_ - window_s_;
    while (drop < samples_.size() && excess >= samples_[drop].dt) {
      excess -= samples_[drop].dt;
      total_time_ -= samples_[drop].dt;
      weighted_sum_ -= samples_[drop].dt * samples_[drop].value;
      ++drop;
    }
    if (drop > 0) {
      samples_.erase(samples_.begin(),
                     samples_.begin() + static_cast<std::ptrdiff_t>(drop));
    }
    // Partially shrink the oldest remaining sample so the window is exact.
    if (excess > 0.0 && !samples_.empty()) {
      samples_.front().dt -= excess;
      total_time_ -= excess;
      weighted_sum_ -= excess * samples_.front().value;
    }
  }

  double window_s_;
  std::vector<Sample> samples_;
  double total_time_ = 0.0;
  double weighted_sum_ = 0.0;
};

}  // namespace mobitherm::util
