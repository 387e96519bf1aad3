// Concurrency analyzer over lexed C++ — the checks behind `lockcheck`.
//
// The analyzer consumes a set of files (headers + sources) as one program
// and reports three classes of defect:
//
//   lock-order-cycle   The interprocedural lock-order graph has a cycle:
//                      some execution acquires A then B while another
//                      acquires B then A — a deadlock waiting for load.
//                      Edges come from direct nesting (a guard declared
//                      while another is live) and from calls made with
//                      locks held into functions whose transitive summary
//                      acquires more locks. REQUIRES(m) annotations parsed
//                      from headers seed the held-set of `*_locked()`
//                      helpers, so the graph sees through the repo's
//                      private-helper idiom.
//
//   wait-holding-two   A condition_variable wait runs while a second lock
//                      is held. The wait releases only the lock it was
//                      given; every other held mutex blocks all writers
//                      for the whole sleep — a classic throughput collapse
//                      that TSA does not flag.
//
//   blocking-in-loop   A blocking call (sleep, system, cv wait, blocking
//                      socket I/O, ...) is reachable through the call
//                      graph from a function marked `// LOCKCHECK:
//                      event-loop`. One stalled callback freezes every
//                      connection the loop serves.
//
// False-positive escape hatch: a `// LOCKCHECK: ok(reason)` comment on the
// flagged line (or the line above) suppresses findings at that site; on a
// call site it also prunes that edge from event-loop reachability. The
// reason is mandatory — `ok()` without one is itself reported.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "lexer.h"

namespace lockcheck {

struct Finding {
  std::string rule;  // "lock-order-cycle", "wait-holding-two", ...
  std::string file;
  int line;
  std::string message;
};

struct FileInput {
  std::string path;
  std::string source;
};

/// Analyze all inputs as one program. Findings are sorted by
/// (file, line, rule) and deduplicated.
std::vector<Finding> analyze(const std::vector<FileInput>& inputs);

/// Self-test: `fixtures` are analyzed one file at a time; each file
/// declares its expected findings with `// LOCKCHECK-EXPECT: <rule>`
/// comments (one per expected finding; a fixture with none must analyze
/// clean). Returns a human-readable failure list, empty on success.
std::vector<std::string> self_test(const std::vector<FileInput>& fixtures);

}  // namespace lockcheck
