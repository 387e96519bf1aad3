#include "analyzer.h"

#include <algorithm>
#include <cstddef>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace lockcheck {

namespace {

// ---------------------------------------------------------------------------
// Small token helpers
// ---------------------------------------------------------------------------

bool is_ident(const Token& t) { return t.kind == TokKind::kIdent; }

bool is(const Token& t, const char* text) { return t.text == text; }

const std::set<std::string>& keywords() {
  static const std::set<std::string> k = {
      "if",       "for",     "while",    "switch",   "return", "sizeof",
      "catch",    "throw",   "new",      "delete",   "do",     "else",
      "case",     "default", "alignof",  "decltype", "assert", "noexcept",
      "static_assert"};
  return k;
}

// Guard/annotation vocabulary.
const std::set<std::string>& guard_types() {
  static const std::set<std::string> g = {"lock_guard", "unique_lock",
                                          "scoped_lock", "shared_lock",
                                          "MutexLock",  "UniqueLock",
                                          "RoleGuard"};
  return g;
}

bool relockable_guard(const std::string& g) {
  return g == "unique_lock" || g == "UniqueLock";
}

const std::set<std::string>& cv_member_types() {
  static const std::set<std::string> t = {"CondVar", "condition_variable",
                                          "condition_variable_any"};
  return t;
}

const std::set<std::string>& mutex_types() {
  static const std::set<std::string> t = {"Mutex", "mutex", "ThreadRole",
                                          "recursive_mutex", "shared_mutex",
                                          "timed_mutex"};
  return t;
}

const std::set<std::string>& wait_names() {
  static const std::set<std::string> w = {"wait", "wait_for", "wait_until"};
  return w;
}

// Calls that block regardless of qualification.
const std::set<std::string>& blocking_names() {
  static const std::set<std::string> b = {
      "sleep",     "usleep", "nanosleep", "sleep_for", "sleep_until",
      "system",    "popen",  "pause",     "sem_wait",  "flock",
      "fsync",     "fdatasync", "connect", "getline",  "getchar"};
  return b;
}

// Syscalls that block only in their global-qualified form (`::recv`); a
// member function of the same name (`stream.read(...)`) is not a syscall.
const std::set<std::string>& blocking_global_names() {
  static const std::set<std::string> b = {"read",  "write",   "recv",
                                          "send",  "recvfrom", "sendto",
                                          "accept"};
  return b;
}

// ---------------------------------------------------------------------------
// Per-file directive maps (from comments)
// ---------------------------------------------------------------------------

struct Directives {
  std::set<int> ok_lines;         // lines carrying LOCKCHECK: ok(reason)
  std::set<int> empty_ok_lines;   // ok() with no reason — itself a finding
  std::vector<int> event_loop_lines;  // LOCKCHECK: event-loop markers
  std::vector<std::string> expects;   // LOCKCHECK-EXPECT: <rule>
};

std::string trim(const std::string& s) {
  std::size_t a = s.find_first_not_of(" \t");
  if (a == std::string::npos) return "";
  std::size_t b = s.find_last_not_of(" \t");
  return s.substr(a, b - a + 1);
}

Directives parse_directives(const std::vector<Comment>& comments) {
  Directives d;
  for (const Comment& c : comments) {
    const std::string text = trim(c.text);
    const std::string ok_prefix = "LOCKCHECK: ok(";
    const std::string loop_marker = "LOCKCHECK: event-loop";
    const std::string expect_prefix = "LOCKCHECK-EXPECT:";
    if (text.compare(0, ok_prefix.size(), ok_prefix) == 0) {
      const std::size_t close = text.rfind(')');
      const std::string reason =
          close == std::string::npos || close < ok_prefix.size()
              ? ""
              : trim(text.substr(ok_prefix.size(),
                                 close - ok_prefix.size()));
      if (reason.empty()) {
        d.empty_ok_lines.insert(c.line);
      } else {
        d.ok_lines.insert(c.line);
        // A multi-line exemption comment covers the line after its end too;
        // approximate by covering the comment's own line and the next one
        // via the caller's (line || line-1) probe.
      }
      continue;
    }
    if (text == loop_marker) {
      d.event_loop_lines.push_back(c.line);
      continue;
    }
    if (text.compare(0, expect_prefix.size(), expect_prefix) == 0) {
      d.expects.push_back(trim(text.substr(expect_prefix.size())));
      continue;
    }
  }
  return d;
}

// An exemption on the flagged line or on one of the two lines above it
// (block comments and long reasons wrap).
bool exempt_at(const Directives& d, int line) {
  return d.ok_lines.count(line) != 0 || d.ok_lines.count(line - 1) != 0 ||
         d.ok_lines.count(line - 2) != 0;
}

// ---------------------------------------------------------------------------
// Program model
// ---------------------------------------------------------------------------

struct CallSite {
  std::string obj;   // single-identifier receiver, "::" for global, "" none
  std::string name;  // callee identifier
  int line = 0;
  std::vector<std::string> held;  // normalized mutexes held at the call
  bool exempt = false;
};

struct WaitSite {
  int line = 0;
  std::vector<std::string> held;
  bool exempt = false;
};

struct BlockSite {
  std::string what;  // "cv-wait" or the blocking callee name
  int line = 0;
  bool exempt = false;
};

struct OrderEdge {
  std::string before;
  std::string after;
  std::string file;
  int line = 0;
};

struct Function {
  std::string cls;   // enclosing class, "" for free functions
  std::string name;
  std::string file;
  int decl_line = 0;   // line of the declarator
  int body_begin = 0;  // token index just inside '{' (0 when no body)
  int body_end = 0;    // token index of '}' (exclusive range end)
  bool has_body = false;
  bool event_loop = false;
  std::vector<CallSite> calls;
  std::vector<WaitSite> waits;
  std::vector<BlockSite> blocks;
  std::set<std::string> direct_acquires;

  std::string qual() const { return cls.empty() ? name : cls + "::" + name; }
};

struct Program {
  std::vector<Function> functions;
  // Class::member (or ::global) -> last type identifier of the declaration.
  std::map<std::string, std::string> member_type;
  std::set<std::string> global_mutexes;
  // Class::method (and bare method) -> REQUIRES expressions (raw text).
  std::map<std::string, std::vector<std::string>> requires_map;
  std::vector<OrderEdge> edges;
  std::vector<Finding> findings;
};

// ---------------------------------------------------------------------------
// Token cursor utilities
// ---------------------------------------------------------------------------

using Toks = std::vector<Token>;

// Given toks[i] == open ("(", "{", "["), return index of matching close.
std::size_t match_balanced(const Toks& t, std::size_t i) {
  const std::string& open = t[i].text;
  const std::string close = open == "(" ? ")" : open == "{" ? "}" : "]";
  int depth = 0;
  for (std::size_t k = i; k < t.size(); ++k) {
    if (t[k].text == open) ++depth;
    if (t[k].text == close && --depth == 0) return k;
  }
  return t.size() - 1;
}

// Skip a template argument list starting at '<'; returns index past '>'.
// Handles '>>' closing two levels at once.
std::size_t skip_angles(const Toks& t, std::size_t i) {
  int depth = 0;
  for (std::size_t k = i; k < t.size(); ++k) {
    if (t[k].text == "<") ++depth;
    if (t[k].text == "<<") depth += 2;
    if (t[k].text == ">") --depth;
    if (t[k].text == ">>") depth -= 2;
    if (depth <= 0) return k + 1;
  }
  return t.size();
}

std::string join_tokens(const Toks& t, std::size_t begin, std::size_t end) {
  std::string out;
  for (std::size_t k = begin; k < end; ++k) {
    if (!out.empty() && is_ident(t[k]) &&
        std::isalnum(static_cast<unsigned char>(out.back()))) {
      out += ' ';
    }
    out += t[k].text;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Mutex-name normalization
// ---------------------------------------------------------------------------

// Turn the tokens of a lock expression into a program-wide identity:
//   mutex_        in a SimService method -> "SimService::mutex_"
//   g_sink_mutex  (file-scope Mutex)     -> "g_sink_mutex"
//   slot.mutex    (untyped local object) -> "<function>::slot.mutex"
//   obj.member    with obj a typed member -> "Type::member"
std::string normalize_mutex(const Program& prog, const Function& fn,
                            const Toks& t, std::size_t begin,
                            std::size_t end) {
  // Strip leading this-> .
  if (begin + 1 < end && is(t[begin], "this") && is(t[begin + 1], "->")) {
    begin += 2;
  }
  if (end - begin == 1 && is_ident(t[begin])) {
    const std::string& id = t[begin].text;
    if (prog.global_mutexes.count(id) != 0) return id;
    if (!fn.cls.empty()) return fn.cls + "::" + id;
    return fn.name + "::" + id;
  }
  if (end - begin == 3 && is_ident(t[begin]) &&
      (is(t[begin + 1], ".") || is(t[begin + 1], "->")) &&
      is_ident(t[begin + 2])) {
    const std::string& obj = t[begin].text;
    const std::string& member = t[begin + 2].text;
    auto it = prog.member_type.find(fn.cls + "::" + obj);
    if (it != prog.member_type.end()) return it->second + "::" + member;
    return fn.qual() + "::" + obj + "." + member;
  }
  return fn.qual() + "::" + join_tokens(t, begin, end);
}

// ---------------------------------------------------------------------------
// Declaration parsing (classes, members, REQUIRES)
// ---------------------------------------------------------------------------

struct Parser {
  const Toks& t;
  const std::string& file;
  Program& prog;
  // Event-loop marker lines not yet attached to a function.
  std::vector<int> pending_loop_markers;

  // Attach any marker that appears before this declarator line.
  bool claim_loop_marker(int decl_line) {
    bool found = false;
    auto& m = pending_loop_markers;
    for (auto it = m.begin(); it != m.end();) {
      if (*it <= decl_line) {
        found = true;
        it = m.erase(it);
      } else {
        ++it;
      }
    }
    return found;
  }

  // Record a REQUIRES(...) list found in a declarator tail.
  void record_requires(const std::string& cls, const std::string& name,
                       std::size_t tail_begin, std::size_t tail_end) {
    for (std::size_t k = tail_begin; k + 1 < tail_end; ++k) {
      if (is_ident(t[k]) && t[k].text == "REQUIRES" && is(t[k + 1], "(")) {
        const std::size_t close = match_balanced(t, k + 1);
        // Split top-level commas.
        std::size_t arg_begin = k + 2;
        int depth = 0;
        for (std::size_t a = k + 2; a <= close; ++a) {
          if (t[a].text == "(" || t[a].text == "[") ++depth;
          if (t[a].text == ")" || t[a].text == "]") --depth;
          const bool at_end = a == close;
          if ((t[a].text == "," && depth == 0) || at_end) {
            if (a > arg_begin) {
              const std::string expr = join_tokens(t, arg_begin, a);
              prog.requires_map[cls.empty() ? name : cls + "::" + name]
                  .push_back(expr);
            }
            arg_begin = a + 1;
          }
        }
        k = close;
      }
    }
  }

  // Parse one class/struct body; `i` is just inside '{'. Returns index of
  // the closing '}'.
  std::size_t parse_class_body(const std::string& cls, std::size_t i);

  // Parse at namespace scope from i to end (exclusive). `end` is t.size()
  // for the file top level or the matching '}' of a namespace.
  void parse_scope(std::size_t i, std::size_t end);

  // Try to parse a function definition/declaration or a variable starting
  // at `i` in namespace scope. Returns index just past the construct.
  std::size_t parse_free_statement(std::size_t i, std::size_t end);
};

// Record a member declaration statement (tokens [begin, end) up to but not
// including the terminating ';').
void record_member(Program& prog, const std::string& cls, const Toks& t,
                   std::size_t begin, std::size_t end) {
  // Member name: last identifier before '=', a brace initializer, an
  // annotation macro (GUARDED_BY etc.), or the end of the statement.
  static const std::set<std::string> annot = {"GUARDED_BY", "PT_GUARDED_BY",
                                              "ACQUIRED_BEFORE",
                                              "ACQUIRED_AFTER"};
  std::size_t stop = end;
  for (std::size_t k = begin; k < end; ++k) {
    if (is_ident(t[k]) && annot.count(t[k].text) != 0) {
      stop = k;
      break;
    }
    if (is(t[k], "=") || is(t[k], "{")) {
      stop = k;
      break;
    }
  }
  std::size_t name_idx = stop;
  while (name_idx > begin) {
    --name_idx;
    if (is_ident(t[name_idx])) break;
  }
  if (name_idx <= begin || !is_ident(t[name_idx])) return;
  const std::string member = t[name_idx].text;
  std::string type;
  for (std::size_t k = begin; k < name_idx; ++k) {
    if (is_ident(t[k])) type = t[k].text;
  }
  if (type.empty() || type == "return" || type == "using") return;
  const std::string key =
      cls.empty() ? "::" + member : cls + "::" + member;
  prog.member_type[key] = type;
  if (cls.empty() && mutex_types().count(type) != 0) {
    prog.global_mutexes.insert(member);
  }
}

std::size_t Parser::parse_class_body(const std::string& cls, std::size_t i) {
  const std::size_t n = t.size();
  while (i < n && !is(t[i], "}")) {
    // Access specifiers.
    if (is_ident(t[i]) &&
        (t[i].text == "public" || t[i].text == "private" ||
         t[i].text == "protected") &&
        i + 1 < n && is(t[i + 1], ":")) {
      i += 2;
      continue;
    }
    if (is(t[i], ";")) {
      ++i;
      continue;
    }
    // Nested class/struct/enum: skip (their members rarely matter; nested
    // POD structs carry no locks in this codebase).
    if (is_ident(t[i]) &&
        (t[i].text == "class" || t[i].text == "struct" ||
         t[i].text == "enum" || t[i].text == "union")) {
      std::size_t k = i + 1;
      while (k < n && !is(t[k], "{") && !is(t[k], ";")) ++k;
      if (k < n && is(t[k], "{")) k = match_balanced(t, k);
      // Skip an optional trailing declarator list (e.g. `} error;`).
      while (k < n && !is(t[k], ";")) ++k;
      i = k + 1;
      continue;
    }
    if (is_ident(t[i]) && t[i].text == "template") {
      std::size_t k = i + 1;
      if (k < n && is(t[k], "<")) k = skip_angles(t, k);
      i = k;
      continue;
    }
    // Scan one member statement: find the first parameter list (an
    // identifier immediately followed by '(' that is not an annotation
    // macro), then decide method vs. data member.
    static const std::set<std::string> annot = {
        "GUARDED_BY",  "PT_GUARDED_BY", "REQUIRES",       "ACQUIRE",
        "RELEASE",     "TRY_ACQUIRE",   "EXCLUDES",       "ACQUIRED_BEFORE",
        "ACQUIRED_AFTER", "RETURN_CAPABILITY", "CAPABILITY",
        "SCOPED_CAPABILITY", "NO_THREAD_SAFETY_ANALYSIS"};
    const std::size_t stmt_begin = i;
    std::size_t method_name_idx = 0;
    std::size_t params_close = 0;
    std::size_t k = i;
    while (k < n) {
      if (is(t[k], ";")) break;
      if (is(t[k], "<") && k > stmt_begin && is_ident(t[k - 1])) {
        k = skip_angles(t, k);
        continue;
      }
      if (is(t[k], "(")) {
        const std::size_t close = match_balanced(t, k);
        if (method_name_idx == 0 && k > stmt_begin && is_ident(t[k - 1]) &&
            annot.count(t[k - 1].text) == 0) {
          method_name_idx = k - 1;
          params_close = close;
        }
        k = close + 1;
        continue;
      }
      if (is(t[k], "{")) {
        if (method_name_idx != 0) break;  // inline method body
        k = match_balanced(t, k) + 1;     // brace initializer
        continue;
      }
      ++k;
    }
    if (method_name_idx != 0) {
      std::string name = t[method_name_idx].text;
      if (method_name_idx > stmt_begin &&
          is(t[method_name_idx - 1], "~")) {
        name = "~" + name;
      }
      record_requires(cls, name, params_close + 1,
                      k < n ? k : n);
      Function fn;
      fn.cls = cls;
      fn.name = name;
      fn.file = file;
      fn.decl_line = t[method_name_idx].line;
      fn.event_loop = claim_loop_marker(fn.decl_line);
      if (k < n && is(t[k], "{")) {
        // Inline body; may be preceded by a ctor init list — '{' found by
        // the scanner above is the first top-level brace after the params,
        // which for `Ctor() : a_(x) {` is the body (init-list entries are
        // ident+(...) groups consumed by the paren matcher).
        const std::size_t close = match_balanced(t, k);
        fn.has_body = true;
        fn.body_begin = k + 1;
        fn.body_end = close;
        i = close + 1;
      } else {
        i = k < n ? k + 1 : n;
      }
      prog.functions.push_back(fn);
      continue;
    }
    record_member(prog, cls, t, stmt_begin, k);
    i = k < n ? k + 1 : n;
  }
  return i;
}

std::size_t Parser::parse_free_statement(std::size_t i, std::size_t end) {
  const std::size_t n = end;
  const std::size_t stmt_begin = i;
  std::size_t method_name_idx = 0;
  std::size_t params_close = 0;
  std::size_t k = i;
  while (k < n) {
    if (is(t[k], ";")) break;
    if (is(t[k], "<") && k > stmt_begin && is_ident(t[k - 1])) {
      k = skip_angles(t, k);
      continue;
    }
    if (is(t[k], "(")) {
      const std::size_t close = match_balanced(t, k);
      if (method_name_idx == 0 && k > stmt_begin && is_ident(t[k - 1])) {
        method_name_idx = k - 1;
        params_close = close;
      }
      k = close + 1;
      continue;
    }
    if (is(t[k], "{")) {
      if (method_name_idx != 0) break;  // function body (or init list: the
                                        // paren matcher already consumed
                                        // `member(init)` groups)
      k = match_balanced(t, k) + 1;
      continue;
    }
    ++k;
  }
  if (method_name_idx == 0) {
    // Plain variable/using declaration at namespace scope.
    record_member(prog, "", t, stmt_begin, k);
    return k < n ? k + 1 : n;
  }
  // Declarator name: `Class :: name` or `Class :: ~ name` or bare `name`.
  std::string cls;
  std::string name = t[method_name_idx].text;
  std::size_t p = method_name_idx;
  if (p > stmt_begin && is(t[p - 1], "~")) {
    name = "~" + name;
    --p;
  }
  if (p >= stmt_begin + 2 && is(t[p - 1], "::") && is_ident(t[p - 2])) {
    cls = t[p - 2].text;
  }
  record_requires(cls, name, params_close + 1, k);
  Function fn;
  fn.cls = cls;
  fn.name = name;
  fn.file = file;
  fn.decl_line = t[method_name_idx].line;
  fn.event_loop = claim_loop_marker(fn.decl_line);
  if (k < n && is(t[k], "{")) {
    const std::size_t close = match_balanced(t, k);
    fn.has_body = true;
    fn.body_begin = k + 1;
    fn.body_end = close;
    prog.functions.push_back(fn);
    return close + 1;
  }
  prog.functions.push_back(fn);
  return k < n ? k + 1 : n;
}

void Parser::parse_scope(std::size_t i, std::size_t end) {
  while (i < end) {
    if (is(t[i], ";") || is(t[i], "}")) {
      ++i;
      continue;
    }
    if (is_ident(t[i]) && t[i].text == "namespace") {
      std::size_t k = i + 1;
      while (k < end && !is(t[k], "{") && !is(t[k], ";")) ++k;
      if (k < end && is(t[k], "{")) {
        const std::size_t close = match_balanced(t, k);
        parse_scope(k + 1, close);
        i = close + 1;
      } else {
        i = k + 1;
      }
      continue;
    }
    if (is_ident(t[i]) && t[i].text == "template") {
      std::size_t k = i + 1;
      if (k < end && is(t[k], "<")) k = skip_angles(t, k);
      i = k;
      continue;
    }
    if (is_ident(t[i]) &&
        (t[i].text == "class" || t[i].text == "struct")) {
      // Distinguish definition from forward declaration / elaborated type.
      // Attribute-like annotations (CAPABILITY("mutex"), alignas(...)) may
      // sit between the keyword and the class name.
      std::size_t k = i + 1;
      std::string cls;
      while (k < end && !is(t[k], "{") && !is(t[k], ";")) {
        if (is_ident(t[k])) {
          const std::string& w = t[k].text;
          if (w == "CAPABILITY" || w == "SCOPED_CAPABILITY" ||
              w == "alignas") {
            if (k + 1 < end && is(t[k + 1], "(")) {
              k = match_balanced(t, k + 1) + 1;
              continue;
            }
            ++k;
            continue;
          }
          if (w == "final") {
            ++k;
            continue;
          }
          if (cls.empty()) cls = w;
          ++k;
          continue;
        }
        if (is(t[k], ":")) {  // base clause: skip to '{'
          while (k < end && !is(t[k], "{")) ++k;
          break;
        }
        if (is(t[k], "(")) {
          k = match_balanced(t, k) + 1;
          continue;
        }
        ++k;
      }
      if (k < end && is(t[k], "{")) {
        const std::size_t close = parse_class_body(cls, k + 1);
        // Skip optional trailing declarator + ';'.
        std::size_t z = close + 1;
        while (z < end && !is(t[z], ";")) ++z;
        i = z + 1;
        continue;
      }
      i = k + 1;
      continue;
    }
    if (is_ident(t[i]) &&
        (t[i].text == "using" || t[i].text == "typedef" ||
         t[i].text == "extern" || t[i].text == "enum")) {
      std::size_t k = i;
      while (k < end && !is(t[k], ";")) {
        if (is(t[k], "{")) k = match_balanced(t, k);
        ++k;
      }
      i = k + 1;
      continue;
    }
    i = parse_free_statement(i, end);
  }
}

// ---------------------------------------------------------------------------
// Body analysis: lock tracking, call/wait/block sites
// ---------------------------------------------------------------------------

struct HeldLock {
  std::vector<std::string> mutexes;
  std::string var;    // guard variable name ("" for REQUIRES seeds)
  int depth = 0;      // brace depth at declaration; released when left
  bool active = true; // false between unlock() and lock()
  bool relockable = false;
};

struct BodyContext {
  Program& prog;
  Function& fn;
  const Toks& t;
  const Directives& dir;
  std::vector<HeldLock> held;

  std::vector<std::string> active_mutexes() const {
    std::vector<std::string> out;
    for (const HeldLock& h : held) {
      if (!h.active) continue;
      out.insert(out.end(), h.mutexes.begin(), h.mutexes.end());
    }
    return out;
  }

  bool is_lock_var(const std::string& name) const {
    for (const HeldLock& h : held) {
      if (!h.var.empty() && h.var == name) return true;
    }
    return false;
  }

  void record_acquire(const std::vector<std::string>& mutexes, int line) {
    for (const std::string& before : active_mutexes()) {
      for (const std::string& after : mutexes) {
        if (before != after) {
          prog.edges.push_back({before, after, fn.file, line});
        }
      }
    }
    for (const std::string& m : mutexes) fn.direct_acquires.insert(m);
  }
};

// Try to match a guard declaration at i:
//   [std:: | util::] GuardType [<...>] var ( arg [, arg...] )
// Returns index past ')' on success, 0 on no-match.
std::size_t match_guard_decl(BodyContext& ctx, std::size_t i) {
  const Toks& t = ctx.t;
  std::size_t k = i;
  if ((is(t[k], "std") || is(t[k], "util")) && k + 1 < t.size() &&
      is(t[k + 1], "::")) {
    k += 2;
  }
  if (k >= t.size() || !is_ident(t[k]) ||
      guard_types().count(t[k].text) == 0) {
    return 0;
  }
  const std::string guard = t[k].text;
  ++k;
  if (k < t.size() && is(t[k], "<")) k = skip_angles(t, k);
  if (k + 1 >= t.size() || !is_ident(t[k]) || !is(t[k + 1], "(")) return 0;
  const std::string var = t[k].text;
  const std::size_t open = k + 1;
  const std::size_t close = match_balanced(t, open);
  // Split args on top-level commas.
  std::vector<std::pair<std::size_t, std::size_t>> args;
  std::size_t arg_begin = open + 1;
  int depth = 0;
  for (std::size_t a = open + 1; a <= close; ++a) {
    if (t[a].text == "(" || t[a].text == "[" || t[a].text == "{") ++depth;
    if (t[a].text == ")" || t[a].text == "]" || t[a].text == "}") --depth;
    if ((t[a].text == "," && depth == 0) || a == close) {
      if (a > arg_begin) args.emplace_back(arg_begin, a);
      arg_begin = a + 1;
    }
  }
  if (args.empty()) return 0;
  // unique_lock with defer/adopt tags: only the first arg is the mutex;
  // a deferred lock is not held — skip it entirely (not used in-tree).
  std::vector<std::string> mutexes;
  const std::size_t take = guard == "scoped_lock" ? args.size() : 1;
  for (std::size_t a = 0; a < take && a < args.size(); ++a) {
    mutexes.push_back(normalize_mutex(ctx.prog, ctx.fn, t, args[a].first,
                                      args[a].second));
  }
  ctx.record_acquire(mutexes, t[i].line);
  HeldLock h;
  h.mutexes = mutexes;
  h.var = var;
  h.relockable = relockable_guard(guard);
  ctx.held.push_back(h);  // depth filled by caller
  return close + 1;
}

void analyze_body(Program& prog, Function& fn, const Toks& t,
                  const Directives& dir) {
  BodyContext ctx{prog, fn, t, dir, {}};

  // Seed the held set from REQUIRES annotations (header declaration).
  auto seed = [&](const std::string& key) {
    auto it = prog.requires_map.find(key);
    if (it == prog.requires_map.end()) return;
    for (const std::string& expr : it->second) {
      // Re-lex the expression cheaply: single identifiers dominate.
      TokenStream ts = lex(expr);
      HeldLock h;
      h.mutexes.push_back(normalize_mutex(prog, fn, ts.tokens, 0,
                                          ts.tokens.size()));
      h.depth = -1;  // never released
      ctx.held.push_back(h);
      for (const std::string& m : h.mutexes) fn.direct_acquires.erase(m);
    }
  };
  seed(fn.qual());

  int depth = 0;
  std::size_t i = fn.body_begin;
  while (i < static_cast<std::size_t>(fn.body_end)) {
    const Token& tok = t[i];
    if (is(tok, "{")) {
      ++depth;
      ++i;
      continue;
    }
    if (is(tok, "}")) {
      --depth;
      ctx.held.erase(
          std::remove_if(ctx.held.begin(), ctx.held.end(),
                         [&](const HeldLock& h) { return h.depth > depth; }),
          ctx.held.end());
      ++i;
      continue;
    }
    if (!is_ident(tok)) {
      ++i;
      continue;
    }

    // Guard declaration?
    if (guard_types().count(tok.text) != 0 ||
        ((tok.text == "std" || tok.text == "util") &&
         i + 2 < t.size() && is(t[i + 1], "::") &&
         guard_types().count(t[i + 2].text) != 0)) {
      const std::size_t before = ctx.held.size();
      const std::size_t next = match_guard_decl(ctx, i);
      if (next != 0) {
        if (ctx.held.size() > before) ctx.held.back().depth = depth;
        i = next;
        continue;
      }
    }

    // lock()/unlock() on a guard variable?
    if (ctx.is_lock_var(tok.text) && i + 3 < t.size() &&
        is(t[i + 1], ".") &&
        (is(t[i + 2], "lock") || is(t[i + 2], "unlock")) &&
        is(t[i + 3], "(")) {
      const bool locking = is(t[i + 2], "lock");
      for (HeldLock& h : ctx.held) {
        if (h.var == tok.text && h.relockable) {
          if (locking && !h.active) {
            h.active = true;
            ctx.record_acquire(h.mutexes, tok.line);
            // record_acquire re-inserts into direct_acquires; fine.
          } else if (!locking) {
            h.active = false;
          }
        }
      }
      i = match_balanced(t, i + 3) + 1;
      continue;
    }

    // Condition-variable wait?
    if (i + 3 < t.size() && (is(t[i + 1], ".") || is(t[i + 1], "->")) &&
        is_ident(t[i + 2]) && wait_names().count(t[i + 2].text) != 0 &&
        is(t[i + 3], "(")) {
      const std::string obj = tok.text;
      auto mt = prog.member_type.find(fn.cls + "::" + obj);
      const bool obj_is_cv =
          mt != prog.member_type.end() &&
          cv_member_types().count(mt->second) != 0;
      const bool arg_is_lock =
          i + 4 < t.size() && is_ident(t[i + 4]) &&
          ctx.is_lock_var(t[i + 4].text);
      if (obj_is_cv || arg_is_lock) {
        const bool ex = exempt_at(dir, tok.line);
        fn.waits.push_back({tok.line, ctx.active_mutexes(), ex});
        fn.blocks.push_back({"cv-wait", tok.line, ex});
        i = match_balanced(t, i + 3) + 1;
        continue;
      }
    }

    // Generic call site.
    if (i + 1 < t.size() && is(t[i + 1], "(") &&
        keywords().count(tok.text) == 0) {
      std::string obj;
      if (i >= 1 && is(t[i - 1], "::")) {
        if (i < 2 || !is_ident(t[i - 2])) {
          obj = "::";
        } else {
          obj = "";  // namespace-qualified; treat as free call
        }
      } else if (i >= 2 && (is(t[i - 1], ".") || is(t[i - 1], "->"))) {
        obj = is_ident(t[i - 2]) ? t[i - 2].text : "?";
      }
      CallSite call;
      call.obj = obj;
      call.name = tok.text;
      call.line = tok.line;
      call.held = ctx.active_mutexes();
      call.exempt = exempt_at(dir, tok.line);
      fn.calls.push_back(call);
      if (blocking_names().count(call.name) != 0 ||
          (obj == "::" && blocking_global_names().count(call.name) != 0)) {
        fn.blocks.push_back({call.name, tok.line, call.exempt});
      }
      ++i;  // do NOT skip args: nested calls must be seen
      continue;
    }
    ++i;
  }
}

// ---------------------------------------------------------------------------
// Interprocedural passes
// ---------------------------------------------------------------------------

struct CallGraph {
  // For each function index, resolved callee indices per call site.
  std::vector<std::vector<std::vector<std::size_t>>> resolved;
};

CallGraph resolve_calls(const Program& prog) {
  std::map<std::string, std::vector<std::size_t>> by_name;
  std::map<std::string, std::size_t> by_qual;
  for (std::size_t f = 0; f < prog.functions.size(); ++f) {
    const Function& fn = prog.functions[f];
    if (!fn.has_body) continue;
    by_name[fn.name].push_back(f);
    by_qual[fn.qual()] = f;
  }
  CallGraph g;
  g.resolved.resize(prog.functions.size());
  for (std::size_t f = 0; f < prog.functions.size(); ++f) {
    const Function& fn = prog.functions[f];
    g.resolved[f].resize(fn.calls.size());
    for (std::size_t c = 0; c < fn.calls.size(); ++c) {
      const CallSite& call = fn.calls[c];
      auto named = by_name.find(call.name);
      if (named == by_name.end()) continue;  // library call
      std::vector<std::size_t>& out = g.resolved[f][c];
      // Receiver with a known member type: restrict to that class when it
      // defines the method; otherwise assume virtual dispatch and fall
      // back to every definition of the name.
      if (!call.obj.empty() && call.obj != "::" && call.obj != "?") {
        auto mt = prog.member_type.find(fn.cls + "::" + call.obj);
        if (mt != prog.member_type.end()) {
          auto exact = by_qual.find(mt->second + "::" + call.name);
          if (exact != by_qual.end()) {
            out.push_back(exact->second);
            continue;
          }
        }
        out = named->second;
        continue;
      }
      if (call.obj.empty()) {
        // Unqualified: same class wins when defined there.
        auto exact = by_qual.find(
            fn.cls.empty() ? call.name : fn.cls + "::" + call.name);
        if (exact != by_qual.end()) {
          out.push_back(exact->second);
          continue;
        }
        out = named->second;
        continue;
      }
      // Global-qualified `::name(` — a syscall, never a program function.
    }
  }
  return g;
}

// Fixpoint: transitive lock-acquisition summaries.
std::vector<std::set<std::string>> acquire_summaries(const Program& prog,
                                                     const CallGraph& g) {
  std::vector<std::set<std::string>> summary(prog.functions.size());
  for (std::size_t f = 0; f < prog.functions.size(); ++f) {
    summary[f] = prog.functions[f].direct_acquires;
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t f = 0; f < prog.functions.size(); ++f) {
      for (std::size_t c = 0; c < prog.functions[f].calls.size(); ++c) {
        for (std::size_t callee : g.resolved[f][c]) {
          for (const std::string& m : summary[callee]) {
            if (summary[f].insert(m).second) changed = true;
          }
        }
      }
    }
  }
  return summary;
}

void add_call_edges(Program& prog, const CallGraph& g,
                    const std::vector<std::set<std::string>>& summary) {
  for (std::size_t f = 0; f < prog.functions.size(); ++f) {
    const Function& fn = prog.functions[f];
    for (std::size_t c = 0; c < fn.calls.size(); ++c) {
      const CallSite& call = fn.calls[c];
      if (call.held.empty()) continue;
      for (std::size_t callee : g.resolved[f][c]) {
        for (const std::string& before : call.held) {
          for (const std::string& after : summary[callee]) {
            if (before != after) {
              prog.edges.push_back({before, after, fn.file, call.line});
            }
          }
        }
      }
    }
  }
}

// Tarjan SCC over the mutex-order graph; every non-trivial SCC is a cycle.
void report_cycles(Program& prog) {
  std::map<std::string, std::vector<std::size_t>> adj_edges;  // by node
  std::set<std::string> nodes;
  for (std::size_t e = 0; e < prog.edges.size(); ++e) {
    nodes.insert(prog.edges[e].before);
    nodes.insert(prog.edges[e].after);
    adj_edges[prog.edges[e].before].push_back(e);
  }
  std::map<std::string, int> index, low;
  std::map<std::string, bool> on_stack;
  std::vector<std::string> stack;
  int next_index = 0;
  std::vector<std::vector<std::string>> sccs;

  // Iterative Tarjan.
  struct Frame {
    std::string node;
    std::size_t edge_pos = 0;
  };
  for (const std::string& root : nodes) {
    if (index.count(root) != 0) continue;
    std::vector<Frame> frames{{root, 0}};
    index[root] = low[root] = next_index++;
    stack.push_back(root);
    on_stack[root] = true;
    while (!frames.empty()) {
      Frame& fr = frames.back();
      const auto& outs = adj_edges[fr.node];
      if (fr.edge_pos < outs.size()) {
        const std::string& next = prog.edges[outs[fr.edge_pos]].after;
        ++fr.edge_pos;
        if (index.count(next) == 0) {
          index[next] = low[next] = next_index++;
          stack.push_back(next);
          on_stack[next] = true;
          frames.push_back({next, 0});
        } else if (on_stack[next]) {
          low[fr.node] = std::min(low[fr.node], index[next]);
        }
        continue;
      }
      if (low[fr.node] == index[fr.node]) {
        std::vector<std::string> scc;
        while (true) {
          const std::string n = stack.back();
          stack.pop_back();
          on_stack[n] = false;
          scc.push_back(n);
          if (n == fr.node) break;
        }
        if (scc.size() > 1) sccs.push_back(scc);
      }
      const std::string done = fr.node;
      frames.pop_back();
      if (!frames.empty()) {
        low[frames.back().node] =
            std::min(low[frames.back().node], low[done]);
      }
    }
  }
  // Self-loops (A -> A) cannot happen: record_acquire skips them.
  for (const auto& scc : sccs) {
    std::set<std::string> members(scc.begin(), scc.end());
    std::ostringstream msg;
    msg << "lock-order cycle between { ";
    for (std::size_t k = 0; k < scc.size(); ++k) {
      msg << (k ? ", " : "") << scc[k];
    }
    msg << " }; conflicting acquisition sites:";
    std::string file;
    int line = 0;
    int shown = 0;
    for (const OrderEdge& e : prog.edges) {
      if (members.count(e.before) == 0 || members.count(e.after) == 0) {
        continue;
      }
      if (file.empty()) {
        file = e.file;
        line = e.line;
      }
      if (shown++ < 6) {
        msg << " [" << e.before << " -> " << e.after << " at " << e.file
            << ":" << e.line << "]";
      }
    }
    prog.findings.push_back({"lock-order-cycle", file, line, msg.str()});
  }
}

void report_waits(Program& prog) {
  for (const Function& fn : prog.functions) {
    for (const WaitSite& w : fn.waits) {
      if (w.exempt) continue;
      std::set<std::string> held(w.held.begin(), w.held.end());
      if (held.size() < 2) continue;
      std::ostringstream msg;
      msg << "condition_variable wait in " << fn.qual()
          << "() while holding " << held.size() << " locks (";
      bool first = true;
      for (const std::string& m : held) {
        msg << (first ? "" : ", ") << m;
        first = false;
      }
      msg << "); the wait releases only its own lock — every other one "
             "stays held for the full sleep";
      prog.findings.push_back({"wait-holding-two", fn.file, w.line,
                               msg.str()});
    }
  }
}

void report_event_loop_blocking(Program& prog, const CallGraph& g) {
  // BFS from each marked root over non-exempt call edges.
  for (std::size_t root = 0; root < prog.functions.size(); ++root) {
    if (!prog.functions[root].event_loop ||
        !prog.functions[root].has_body) {
      continue;
    }
    std::map<std::size_t, std::size_t> parent;  // callee -> caller
    std::vector<std::size_t> queue{root};
    std::set<std::size_t> seen{root};
    while (!queue.empty()) {
      const std::size_t f = queue.front();
      queue.erase(queue.begin());
      const Function& fn = prog.functions[f];
      for (const BlockSite& b : fn.blocks) {
        if (b.exempt) continue;
        std::ostringstream msg;
        msg << "blocking call (" << b.what << ") reachable from event loop "
            << prog.functions[root].qual() << "(): path ";
        std::vector<std::size_t> path{f};
        while (path.back() != root) path.push_back(parent[path.back()]);
        for (std::size_t k = path.size(); k-- > 0;) {
          msg << prog.functions[path[k]].qual()
              << (k ? " -> " : "");
        }
        msg << " — one stalled request freezes every connection";
        prog.findings.push_back({"blocking-in-loop", fn.file, b.line,
                                 msg.str()});
      }
      for (std::size_t c = 0; c < fn.calls.size(); ++c) {
        if (fn.calls[c].exempt) continue;
        for (std::size_t callee : g.resolved[f][c]) {
          if (!prog.functions[callee].has_body) continue;
          if (seen.insert(callee).second) {
            parent[callee] = f;
            queue.push_back(callee);
          }
        }
      }
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

std::vector<Finding> analyze(const std::vector<FileInput>& inputs) {
  Program prog;
  struct LexedFile {
    std::string path;
    TokenStream ts;
    Directives dir;
  };
  std::vector<LexedFile> files;
  files.reserve(inputs.size());
  for (const FileInput& in : inputs) {
    LexedFile lf;
    lf.path = in.path;
    lf.ts = lex(in.source);
    lf.dir = parse_directives(lf.ts.comments);
    files.push_back(std::move(lf));
  }
  // Pass 1: declarations first (headers before sources does not matter —
  // the whole set is parsed before any body is analyzed).
  std::vector<std::pair<std::size_t, std::size_t>> func_file;  // fn -> file
  for (std::size_t fi = 0; fi < files.size(); ++fi) {
    LexedFile& lf = files[fi];
    Parser p{lf.ts.tokens, lf.path, prog,
             std::vector<int>(lf.dir.event_loop_lines.begin(),
                              lf.dir.event_loop_lines.end())};
    const std::size_t before = prog.functions.size();
    p.parse_scope(0, lf.ts.tokens.size());
    for (std::size_t f = before; f < prog.functions.size(); ++f) {
      func_file.emplace_back(f, fi);
    }
    for (int line : lf.dir.empty_ok_lines) {
      prog.findings.push_back(
          {"empty-exemption", lf.path, line,
           "LOCKCHECK: ok() needs a reason — say why this site is safe"});
    }
  }
  // Pass 2: bodies.
  for (const auto& [f, fi] : func_file) {
    Function& fn = prog.functions[f];
    if (!fn.has_body) continue;
    analyze_body(prog, fn, files[fi].ts.tokens, files[fi].dir);
  }
  // Pass 3: interprocedural.
  const CallGraph g = resolve_calls(prog);
  const auto summary = acquire_summaries(prog, g);
  add_call_edges(prog, g, summary);
  report_cycles(prog);
  report_waits(prog);
  report_event_loop_blocking(prog, g);

  std::sort(prog.findings.begin(), prog.findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule, a.message) <
                     std::tie(b.file, b.line, b.rule, b.message);
            });
  prog.findings.erase(
      std::unique(prog.findings.begin(), prog.findings.end(),
                  [](const Finding& a, const Finding& b) {
                    return a.file == b.file && a.line == b.line &&
                           a.rule == b.rule && a.message == b.message;
                  }),
      prog.findings.end());
  return prog.findings;
}

std::vector<std::string> self_test(const std::vector<FileInput>& fixtures) {
  std::vector<std::string> failures;
  for (const FileInput& fx : fixtures) {
    const TokenStream ts = lex(fx.source);
    const Directives dir = parse_directives(ts.comments);
    std::vector<std::string> expected = dir.expects;
    std::sort(expected.begin(), expected.end());

    std::vector<Finding> found = analyze({fx});
    std::vector<std::string> got;
    got.reserve(found.size());
    for (const Finding& f : found) got.push_back(f.rule);
    std::sort(got.begin(), got.end());

    if (expected != got) {
      std::ostringstream msg;
      msg << fx.path << ": expected {";
      for (std::size_t k = 0; k < expected.size(); ++k) {
        msg << (k ? ", " : "") << expected[k];
      }
      msg << "} but found {";
      for (std::size_t k = 0; k < got.size(); ++k) {
        msg << (k ? ", " : "") << got[k];
      }
      msg << "}";
      for (const Finding& f : found) {
        msg << "\n    " << f.file << ":" << f.line << ": [" << f.rule
            << "] " << f.message;
      }
      failures.push_back(msg.str());
    }
  }
  return failures;
}

}  // namespace lockcheck
