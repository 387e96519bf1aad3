#include "sched/process.h"

namespace mobitherm::sched {

Process::Process(Pid pid, ProcessSpec spec, std::size_t cluster,
                 double window_s)
    : pid_(pid),
      spec_(std::move(spec)),
      cluster_(cluster),
      power_window_(window_s) {}

}  // namespace mobitherm::sched
