#include "sched/process.h"

namespace mobitherm::sched {

Process::Process(Pid pid, ProcessSpec spec, std::size_t cluster,
                 double window_s)
    : pid_(pid),
      spec_(std::move(spec)),
      cluster_(cluster),
      power_window_(window_s) {}

void Process::record_allocation(double dt, double granted_rate,
                                double busy_cores) {
  granted_rate_ = granted_rate;
  busy_cores_ = busy_cores;
  completed_work_ += granted_rate * dt;
}

void Process::record_power(double dt, double watts) {
  power_window_.push(dt, watts);
  if (dt > 0.0) {
    consumed_energy_j_ += dt * watts;
  }
}

}  // namespace mobitherm::sched
