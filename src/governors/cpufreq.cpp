#include "governors/cpufreq.h"

#include <algorithm>

namespace mobitherm::governors {

// Out-of-line default constructors: nested Config default member
// initializers are not usable as in-class default arguments (CWG 1397).
Ondemand::Ondemand() : config_(Config{}) {}
Interactive::Interactive() : config_(Config{}) {}

std::size_t Ondemand::decide(const CpufreqInputs& in,
                             const platform::OppTable& table) {
  if (in.utilization >= config_.up_threshold) {
    hold_remaining_ = config_.sampling_down_factor;
    return table.max_index();
  }
  // sampling_down_factor: hold max for a few periods after a burst.
  if (hold_remaining_ > 0 && in.current_index == table.max_index()) {
    --hold_remaining_;
    if (hold_remaining_ > 0) {
      return table.max_index();
    }
  }
  // Lowest frequency that would bring utilization to the up-threshold.
  const util::Hertz cur_freq = table.at(in.current_index).freq_hz;
  const util::Hertz wanted =
      cur_freq * in.utilization / config_.up_threshold;
  return table.ceil_index(wanted);
}

std::size_t Interactive::decide(const CpufreqInputs& in,
                                const platform::OppTable& table) {
  const util::Seconds dt = config_.sampling_period_s;
  const util::Hertz f_cur = table.at(in.current_index).freq_hz;
  const util::Hertz f_max = table.highest().freq_hz;
  const std::size_t hispeed_index =
      table.ceil_index(config_.hispeed_fraction * f_max);

  // Lowest OPP whose expected utilization stays at/below the target load.
  const util::Hertz wanted = f_cur * in.utilization / config_.target_load;
  std::size_t target_index = table.ceil_index(wanted);

  std::size_t next = in.current_index;
  if (in.utilization >= config_.go_hispeed_load) {
    if (in.current_index < hispeed_index) {
      // Burst straight to hispeed_freq.
      next = hispeed_index;
      time_above_hispeed_ = util::seconds(0.0);
    } else {
      // Already at/above hispeed: raise further only after the delay.
      time_above_hispeed_ += dt;
      next = (time_above_hispeed_ >= config_.above_hispeed_delay_s)
                 ? std::max(target_index, in.current_index)
                 : in.current_index;
    }
  } else {
    time_above_hispeed_ = util::seconds(0.0);
    next = target_index;
  }

  if (next > in.current_index) {
    time_since_raise_ = util::seconds(0.0);
  } else if (next < in.current_index) {
    // Hold the current speed for min_sample_time before dropping.
    time_since_raise_ += dt;
    if (time_since_raise_ < config_.min_sample_time_s) {
      next = in.current_index;
    } else {
      time_since_raise_ = util::seconds(0.0);
    }
  }
  return std::min(next, table.max_index());
}

}  // namespace mobitherm::governors
