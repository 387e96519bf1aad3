#!/usr/bin/env python3
"""mobilint: mobitherm's project-specific lint.

Eleven rules, each tuned to an invariant the simulator's correctness,
reproducibility or service depends on. The first seven read one file at
a time:

  hot-path-alloc   Functions annotated `// MOBILINT: hot-path` must not
                   contain allocation-capable constructs (new/malloc,
                   container growth calls, std::vector/std::string
                   declarations). The physics inner loop is allocation-free
                   by design; see DESIGN.md and bench/micro_thermal.cpp.

  nondeterminism   src/sim, src/thermal and src/service must not use
                   nondeterminism sources (rand/srand, std::random_device,
                   wall-clock time, std::unordered_map/set whose iteration
                   order is unspecified). Reproducible traces are a tier-1
                   test, and the service result cache relies on runs being
                   pure functions of the canonical request. The service
                   layer's wall-clock boundaries (deadlines, wait
                   timeouts) carry `MOBILINT: nondet-ok` annotations.

  raw-units-param  Public headers in the typed domains (src/thermal,
                   src/power, src/governors, src/platform, src/core) must
                   not declare new `double` function parameters with unit
                   suffixes (_k, _w, _hz, _s, ...). Use the util::Quantity
                   types from util/units.h instead.

  si-units         Model internals (src/thermal, src/power, src/governors,
                   src/platform, src/stability) must hold SI magnitudes
                   only: no `double` declarations suffixed _mhz, _mv, _ms,
                   _mw, _degc or _mah. Non-SI values belong at explicit
                   presentation/ingest edges.

  fd-cloexec       In src/, a descriptor-creating call (socket, accept4,
                   eventfd, ...) passes its *_CLOEXEC flag. accept, dup,
                   pipe, epoll_create and creat take none: findings.

  fd-unowned       In src/, that call is the direct argument of a
                   util::UniqueFd constructor: no raw int descriptor.

  raw-close        In src/, close() appears only in util/unique_fd.h
                   (member calls such as stream.close() are not it).

The fd rules take no exemption. Sanctioned exceptions to the others are
annotated in a comment on the same line or within the five preceding
lines:

  // MOBILINT: alloc-ok       (hot-path-alloc)
  // MOBILINT: nondet-ok      (nondeterminism)
  // MOBILINT: raw-units-ok   (raw-units-param and si-units)

The four lock rules read every file under src/ as one program, so they
follow locks through calls between files (DESIGN.md section 15):

  lock-order-cycle  The lock-order graph has a cycle: one path takes A
                    then B, another B then A. Edges come from guards
                    nested in one body and from calls made with a lock
                    held into functions whose transitive summary takes
                    more locks. REQUIRES(m) on a declaration makes m held
                    on entry to its definition, so the graph sees
                    through the `*_locked()` helpers.

  wait-holding-two  A condition-variable wait runs while a second lock
                    is held; the wait releases only the one it is given.

  blocking-in-loop  A blocking call (sleep, system, a cv wait, ::read,
                    ::recv, ...) is reachable through the call graph from
                    a function marked `// LOCKCHECK: event-loop`.

  empty-exemption   A `// LOCKCHECK: ok()` gives no reason.

`// LOCKCHECK: ok(reason)` on a lock-rule site, or on one of the two
lines above it, exempts that site; on a call it also cuts the call from
event-loop reachability.

Usage:
  mobilint.py [--root DIR]   lint the tree; exit 1 on findings
  mobilint.py --self-test    run against tests/lint_fixtures/ and check
                             each fixture, analyzed alone, produces
                             exactly the findings its LINT-EXPECT comments
                             declare, one comment per finding
"""

import argparse
import re
import sys
from collections import deque
from dataclasses import dataclass
from pathlib import Path

EXEMPT_WINDOW = 5  # annotation may sit on the line or up to 5 lines above

ALLOC_RE = re.compile(
    r"\bnew\b"
    r"|\b(?:std::)?(?:malloc|calloc|realloc)\s*\("
    r"|\bstd::make_(?:unique|shared)\b"
    r"|[.>](?:push_back|emplace_back|emplace|insert|resize|reserve)\s*\("
    r"|\bstd::(?:vector|deque|list|map|set|multimap|multiset)\s*<"
    r"|\bstd::(?:string|function)\b"
)

NONDET_RE = re.compile(
    r"\bstd::rand\b"
    r"|(?<![\w:])s?rand\s*\("
    r"|\bstd::random_device\b"
    r"|\bstd::unordered_(?:map|set|multimap|multiset)\b"
    r"|\bsystem_clock\b"
    r"|(?<![\w:])clock\s*\("
    r"|(?<![\w:.>])time\s*\("
)

RAW_PARAM_RE = re.compile(
    r"\bdouble\s+(\w+_(?:k|c|w|mw|hz|mhz|s|ms|v|mv|j))\b"
)

NON_SI_RE = re.compile(r"\bdouble\s+(\w+_(?:mhz|mv|ms|mw|degc|mah))\b")

# Descriptor-creating calls -> the CLOEXEC flag each takes; None marks a
# call with no flags argument.
FD_CREATORS = {
    "socket": "SOCK_CLOEXEC", "accept4": "SOCK_CLOEXEC",
    "eventfd": "EFD_CLOEXEC", "epoll_create1": "EPOLL_CLOEXEC",
    "open": "O_CLOEXEC", "openat": "O_CLOEXEC", "pipe2": "O_CLOEXEC",
    "timerfd_create": "TFD_CLOEXEC", "signalfd": "SFD_CLOEXEC",
    "inotify_init1": "IN_CLOEXEC", "memfd_create": "MFD_CLOEXEC",
    "accept": None, "dup": None, "epoll_create": None, "pipe": None,
    "creat": None,
}
FD_CALL_RE = re.compile(
    r"(?<![\w.>])(?:::)?(" + "|".join(FD_CREATORS) + r")\s*\(")
FD_OWNER_RE = re.compile(r"\bUniqueFd(?:\s+\w+)?\s*[({]\s*$")
CLOSE_RE = re.compile(r"(?<![\w.>])close\s*\(")


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line  # 1-based
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text):
    """Blank out comment bodies and string/char literal contents, keeping
    line structure, so pattern matching only sees code."""
    out = []
    i = 0
    n = len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        ch = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if ch == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if ch == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if ch == '"':
                state = "string"
                out.append(ch)
                i += 1
                continue
            if ch == "'":
                state = "char"
                out.append(ch)
                i += 1
                continue
            out.append(ch)
        elif state == "line_comment":
            if ch == "\n":
                state = "code"
                out.append(ch)
            else:
                out.append(" ")
        elif state == "block_comment":
            if ch == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append(ch if ch == "\n" else " ")
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if ch == "\\":
                out.append("  ")
                i += 2
                continue
            if ch == quote:
                state = "code"
                out.append(ch)
            elif ch == "\n":  # unterminated; bail back to code
                state = "code"
                out.append(ch)
            else:
                out.append(" ")
        i += 1
    return "".join(out)


class SourceFile:
    def __init__(self, path):
        self.path = path
        text = path.read_text(encoding="utf-8", errors="replace")
        self.raw = text.splitlines()
        self.code = strip_comments_and_strings(text).splitlines()
        # Pad in case the stripper dropped a trailing newline mismatch.
        while len(self.code) < len(self.raw):
            self.code.append("")

    def exempt(self, idx, token):
        """True if `MOBILINT: <token>` appears on line idx (0-based) or in
        the EXEMPT_WINDOW lines above it."""
        lo = max(0, idx - EXEMPT_WINDOW)
        needle = f"MOBILINT: {token}"
        return any(needle in self.raw[j] for j in range(lo, idx + 1))


def check_hot_path_alloc(src):
    findings = []
    i = 0
    n = len(src.raw)
    while i < n:
        if "MOBILINT: hot-path" not in src.raw[i]:
            i += 1
            continue
        # Find the function body: first '{' at or after the annotation.
        j = i
        start = None
        while j < n:
            col = src.code[j].find("{")
            if col >= 0:
                start = (j, col)
                break
            j += 1
        if start is None:
            break
        depth = 0
        j, col = start
        end = n - 1
        done = False
        while j < n and not done:
            for ch in src.code[j][col:]:
                if ch == "{":
                    depth += 1
                elif ch == "}":
                    depth -= 1
                    if depth == 0:
                        end = j
                        done = True
                        break
            j += 1
            col = 0
        for k in range(start[0], end + 1):
            # On the opening line, ignore the signature before the brace
            # (reference parameters like `const std::vector<T>&` are fine).
            segment = src.code[k][start[1]:] if k == start[0] else src.code[k]
            m = ALLOC_RE.search(segment)
            if m and not src.exempt(k, "alloc-ok"):
                findings.append(
                    Finding(
                        src.path,
                        k + 1,
                        "hot-path-alloc",
                        f"allocation-capable construct '{m.group(0).strip()}'"
                        " inside a MOBILINT: hot-path function",
                    )
                )
        i = end + 1
    return findings


def check_nondeterminism(src):
    findings = []
    for k, line in enumerate(src.code):
        m = NONDET_RE.search(line)
        if m and not src.exempt(k, "nondet-ok"):
            findings.append(
                Finding(
                    src.path,
                    k + 1,
                    "nondeterminism",
                    f"nondeterminism source '{m.group(0).strip()}'"
                    " in reproducible sim/thermal code",
                )
            )
    return findings


def check_raw_units_param(src):
    findings = []
    depth = 0  # paren depth carried across lines
    for k, line in enumerate(src.code):
        for m in RAW_PARAM_RE.finditer(line):
            prefix = line[: m.start()]
            at = depth + prefix.count("(") - prefix.count(")")
            if at > 0 and not src.exempt(k, "raw-units-ok"):
                findings.append(
                    Finding(
                        src.path,
                        k + 1,
                        "raw-units-param",
                        f"raw double parameter '{m.group(1)}' in a typed-"
                        "domain header; use util::Quantity (util/units.h)",
                    )
                )
        depth += line.count("(") - line.count(")")
        depth = max(depth, 0)
    return findings


def check_si_units(src):
    findings = []
    for k, line in enumerate(src.code):
        m = NON_SI_RE.search(line)
        if m and not src.exempt(k, "raw-units-ok"):
            findings.append(
                Finding(
                    src.path,
                    k + 1,
                    "si-units",
                    f"non-SI magnitude '{m.group(1)}' in model internals;"
                    " convert at an ingest/presentation edge",
                )
            )
    return findings


def fd_calls(src):
    """Yield (line, name, args, owned) per descriptor-creating call; owned
    means it is the argument of a UniqueFd constructor."""
    code = "\n".join(src.code)
    for m in FD_CALL_RE.finditer(code):
        end, depth = m.end(), 1
        while depth and end < len(code):
            depth += {"(": 1, ")": -1}.get(code[end], 0)
            end += 1
        yield (code.count("\n", 0, m.start()) + 1, m.group(1),
               code[m.end():end],
               FD_OWNER_RE.search(code, 0, m.start()) is not None)


def check_fd_cloexec(src):
    return [
        Finding(src.path, line, "fd-cloexec",
                f"{name}() without {FD_CREATORS[name] or 'a CLOEXEC flag'}:"
                " the descriptor leaks into child processes")
        for line, name, args, _ in fd_calls(src)
        if FD_CREATORS[name] is None
        or not re.search(rf"\b{FD_CREATORS[name]}\b", args)
    ]


def check_fd_unowned(src):
    return [
        Finding(src.path, line, "fd-unowned",
                f"{name}() is not the argument of a util::UniqueFd "
                "constructor; a raw descriptor can leak or close twice")
        for line, name, _, owned in fd_calls(src) if not owned
    ]


def check_raw_close(src):
    return [
        Finding(src.path, k + 1, "raw-close",
                "raw close(); let the util::UniqueFd owner close it")
        for k, line in enumerate(src.code) if CLOSE_RE.search(line)
    ]


CHECKS = {
    "hot-path-alloc": check_hot_path_alloc,
    "nondeterminism": check_nondeterminism,
    "raw-units-param": check_raw_units_param,
    "si-units": check_si_units,
    "fd-cloexec": check_fd_cloexec,
    "fd-unowned": check_fd_unowned,
    "raw-close": check_raw_close,
}


# --- The lock rules ---------------------------------------------------------
# They lex C++ rather than parse it. The locking idioms the tree allows
# (named guard declarations, `Class::method` definitions, REQUIRES on
# `*_locked()` helpers) are narrow enough that a token stream and a few
# heuristics recover what the rules need. Tokens are (text, line, is_ident).

KEYWORDS = {"if", "for", "while", "switch", "return", "sizeof", "catch",
            "throw", "new", "delete", "do", "else", "case", "default",
            "alignof", "decltype", "assert", "noexcept", "static_assert"}
GUARDS = {"lock_guard", "unique_lock", "scoped_lock", "shared_lock",
          "MutexLock", "UniqueLock", "RoleGuard"}
RELOCKABLE = {"unique_lock", "UniqueLock"}
CONDVARS = {"CondVar", "condition_variable", "condition_variable_any"}
MUTEXES = {"Mutex", "mutex", "ThreadRole", "recursive_mutex",
           "shared_mutex", "timed_mutex"}
WAITS = {"wait", "wait_for", "wait_until"}
BLOCKING = {"sleep", "usleep", "nanosleep", "sleep_for", "sleep_until",
            "system", "popen", "pause", "sem_wait", "flock", "fsync",
            "fdatasync", "connect", "getline", "getchar"}
# Blocking only when global-qualified: `::recv(` is the syscall,
# `stream.read(` is not.
BLOCKING_GLOBAL = {"read", "write", "recv", "send", "recvfrom", "sendto",
                   "accept"}
MEMBER_ANNOTATIONS = {"GUARDED_BY", "PT_GUARDED_BY", "ACQUIRED_BEFORE",
                      "ACQUIRED_AFTER"}
METHOD_ANNOTATIONS = MEMBER_ANNOTATIONS | {
    "REQUIRES", "ACQUIRE", "RELEASE", "TRY_ACQUIRE", "EXCLUDES",
    "RETURN_CAPABILITY", "CAPABILITY", "SCOPED_CAPABILITY",
    "NO_THREAD_SAFETY_ANALYSIS"}

SPACE_RE = re.compile(r"[ \t\v\f\r]+")
IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
NUMBER_RE = re.compile(r"\.?[0-9](?:[A-Za-z0-9_.]|(?<=[eEpP])[+-])*")
ALNUM = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789")
RAW_PREFIXES = {"R", "u8R", "uR", "UR", "LR"}
PUNCT3 = {"<<=", ">>=", "...", "->*"}
PUNCT2 = {"::", "->", "==", "!=", "<=", ">=", "&&", "||", "++", "--", "+=",
          "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<", ">>", ".*"}
CLOSER = {"(": ")", "{": "}", "[": "]"}
ANGLES = {"<": 1, "<<": 2, ">": -1, ">>": -2}


def lex(text):
    """(tokens, comments) of C++ source. Preprocessor lines are dropped;
    comments are kept as (text, line) for the LOCKCHECK directives; each
    literal is one token. Never fails: a stray byte is a punctuator, an
    unterminated literal ends at its line's end."""
    toks, comments = [], []
    n, i, line, code_on_line = len(text), 0, 1, False
    while i < n:
        c = text[i]
        if c == "\n":
            i, line, code_on_line = i + 1, line + 1, False
            continue
        m = SPACE_RE.match(text, i)
        if m:
            i = m.end()
            continue
        if c == "#" and not code_on_line:  # directive, with continuations
            while i < n and text[i] != "\n":
                if text.startswith("\\\n", i):
                    i, line = i + 2, line + 1
                else:
                    i += 1
            continue
        if text.startswith("//", i):
            end = text.find("\n", i)
            end = n if end < 0 else end
            comments.append((text[i + 2:end], line))
            i = end
            continue
        if text.startswith("/*", i):
            end = text.find("*/", i + 2)
            stop = n if end < 0 else end + 2
            end = max(i + 2, n - 1) if end < 0 else end
            comments.append((text[i + 2:end], line))
            line += text.count("\n", i + 2, end)
            i = stop
            continue
        code_on_line = True
        m = IDENT_RE.match(text, i) or NUMBER_RE.match(text, i)
        if m and text.startswith('"', m.end()) and m.group() in RAW_PREFIXES:
            open_ = text.find("(", m.end() + 1)
            open_ = n if open_ < 0 else open_
            close = ")" + text[m.end() + 1:open_] + '"'
            term = text.find(close, open_)
            i = (n if term < 0 else term + len(close))
            line += text.count("\n", m.start(), i)
            toks.append(('""', line, False))
        elif m:
            toks.append((m.group(), line, c not in ".0123456789"))
            i = m.end()
        elif c in "\"'":
            end = i + 1
            while end < n and text[end] != c and text[end] != "\n":
                end += 2 if text[end] == "\\" and end + 1 < n else 1
            toks.append((text[i:end + 1], line, False))
            i = min(end + 1, n)
        else:
            p = text[i:i + 3]
            if p not in PUNCT3:
                p = text[i:i + 2] if text[i:i + 2] in PUNCT2 else c
            toks.append((p, line, False))
            i += len(p)
    return toks, comments


def match(t, i):
    """Index of the bracket closing t[i]; the last token if none does."""
    depth = 0
    for k in range(i, len(t)):
        if t[k][0] == t[i][0]:
            depth += 1
        elif t[k][0] == CLOSER[t[i][0]]:
            depth -= 1
            if depth == 0:
                return k
    return len(t) - 1


def skip_angles(t, i):
    """Index past the template argument list opening at t[i]."""
    depth = 0
    for k in range(i, len(t)):
        depth += ANGLES.get(t[k][0], 0)
        if depth <= 0:
            return k + 1
    return len(t)


def split_args(t, open_, close, opens, closes):
    """(begin, end) token ranges of the top-level comma-separated
    arguments between the brackets t[open_] and t[close]."""
    args, begin, depth = [], open_ + 1, 0
    for a in range(open_ + 1, close + 1):
        depth += (t[a][0] in opens) - (t[a][0] in closes)
        if (t[a][0] == "," and depth == 0) or a == close:
            if a > begin:
                args.append((begin, a))
            begin = a + 1
    return args


def join_tokens(t, begin, end):
    """The text of t[begin:end], with a space only between two words."""
    out = ""
    for text, _, ident in t[begin:end]:
        if out and ident and out[-1] in ALNUM:
            out += " "
        out += text
    return out


@dataclass
class Held:
    """A lock held in a body: a guard, or a REQUIRES clause's lock."""
    mutexes: list
    var: str          # the guard variable; "" for a REQUIRES lock
    depth: int        # brace depth of the guard; -1 is never released
    relockable: bool  # unique_lock: unlock() and lock() mid-scope
    active: bool = True


class LockFunction:
    def __init__(self, cls, name, path, toks, ok, event_loop):
        self.cls, self.name, self.path = cls, name, path
        self.qual = f"{cls}::{name}" if cls else name
        self.toks, self.ok = toks, ok  # its file's tokens, ok() lines
        self.event_loop = event_loop
        self.body = None  # (index past its '{', index of its '}')
        self.calls = []   # (obj, name, line, held, exempt); obj "::" global
        self.callees = []  # per call: the functions it may reach
        self.waits = []   # (line, held, exempt)
        self.blocks = []  # (what, line, exempt)
        self.acquires = set()
        self.summary = set()  # acquires plus every callee's, transitively


class LockProgram:
    """Declarations of every file: classes and their members' types,
    functions and their bodies, REQUIRES clauses."""

    def __init__(self):
        self.functions = []
        self.member_type = {}  # "Class::member" ("::name" at file scope)
        self.global_mutexes = set()
        self.requires = {}     # "Class::method" -> [lock expression]
        self.edges = []        # (before, after, path, line)
        self.findings = []     # (path, line, rule, message)

    def parse(self, path, text):
        self.t, comments = lex(text)
        self.path, self.ok, self.loops = path, set(), []
        for note, line in comments:
            note = note.strip(" \t")
            if note.startswith("LOCKCHECK: ok("):
                close = note.rfind(")")
                reason = note[14:close].strip(" \t") if close >= 14 else ""
                if reason:
                    self.ok.add(line)
                else:
                    self.findings.append(
                        (path, line, "empty-exemption",
                         "LOCKCHECK: ok() needs a reason — say why this "
                         "site is safe"))
            elif note == "LOCKCHECK: event-loop":
                self.loops.append(line)
        self.scope(0, len(self.t))

    def scope(self, i, end):
        """Namespace-scope declarations in t[i:end]."""
        t = self.t
        while i < end:
            x = t[i][0]
            if x in (";", "}"):
                i += 1
            elif x == "namespace":
                k = i + 1
                while k < end and t[k][0] not in ("{", ";"):
                    k += 1
                if k < end and t[k][0] == "{":
                    close = match(t, k)
                    self.scope(k + 1, close)
                    k = close
                i = k + 1
            elif x == "template":
                i = skip_angles(t, i + 1) if i + 1 < end and \
                    t[i + 1][0] == "<" else i + 1
            elif x in ("class", "struct"):
                k, cls = i + 1, ""
                while k < end and t[k][0] not in ("{", ";"):
                    w, _, ident = t[k]
                    if w in ("CAPABILITY", "SCOPED_CAPABILITY", "alignas"):
                        paren = k + 1 < end and t[k + 1][0] == "("
                        k = match(t, k + 1) + 1 if paren else k + 1
                        continue
                    if ident and not cls and w != "final":
                        cls = w
                    if w == ":":  # base clause
                        while k < end and t[k][0] != "{":
                            k += 1
                        break
                    k = match(t, k) + 1 if w == "(" else k + 1
                if k < end and t[k][0] == "{":
                    k = self.class_body(cls, k + 1) + 1
                    while k < end and t[k][0] != ";":
                        k += 1
                i = k + 1
            elif x in ("using", "typedef", "extern", "enum"):
                k = i
                while k < end and t[k][0] != ";":
                    k = (match(t, k) if t[k][0] == "{" else k) + 1
                i = k + 1
            else:
                i = self.statement(i, end, None)

    def class_body(self, cls, i):
        """Members from t[i] to the class's '}'; returns its index."""
        t, n = self.t, len(self.t)
        while i < n and t[i][0] != "}":
            x = t[i][0]
            if x in ("public", "private", "protected") and \
                    i + 1 < n and t[i + 1][0] == ":":
                i += 2
            elif x == ";":
                i += 1
            elif x in ("class", "struct", "enum", "union"):  # nested: skip
                k = i + 1
                while k < n and t[k][0] not in ("{", ";"):
                    k += 1
                if k < n and t[k][0] == "{":
                    k = match(t, k)
                while k < n and t[k][0] != ";":
                    k += 1
                i = k + 1
            elif x == "template":
                i = skip_angles(t, i + 1) if i + 1 < n and \
                    t[i + 1][0] == "<" else i + 1
            else:
                i = self.statement(i, n, cls)
        return i

    def statement(self, i, n, cls):
        """The declaration at t[i]: a function (and its body) if it has a
        parameter list, else a variable. cls is None at namespace scope.
        Returns the index past it."""
        t = self.t
        name_at = params_close = 0  # 0: no parameter list seen
        k = i
        while k < n and t[k][0] != ";":
            x = t[k][0]
            if x == "<" and k > i and t[k - 1][2]:
                k = skip_angles(t, k)
            elif x == "(":
                close = match(t, k)
                if not name_at and k > i and t[k - 1][2] and (
                        cls is None or t[k - 1][0] not in METHOD_ANNOTATIONS):
                    name_at, params_close = k - 1, close
                k = close + 1
            elif x == "{":
                if name_at:  # the body; a ctor's init list went as parens
                    break
                k = match(t, k) + 1  # brace initializer
            else:
                k += 1
        if not name_at:
            self.member(cls or "", i, k)
            return k + 1 if k < n else n
        name, p = t[name_at][0], name_at
        if p > i and t[p - 1][0] == "~":
            name, p = "~" + name, p - 1
        if cls is None:  # `Class::name(` defines a member out of line
            qualified = p >= i + 2 and t[p - 1][0] == "::" and t[p - 2][2]
            cls = t[p - 2][0] if qualified else ""
        # REQUIRES(...) in the declarator's tail.
        key = f"{cls}::{name}" if cls else name
        a = params_close + 1
        while a + 1 < k:
            if t[a][0] == "REQUIRES" and t[a + 1][0] == "(":
                close = match(t, a + 1)
                args = split_args(t, a + 1, close, {"(", "["}, {")", "]"})
                self.requires.setdefault(key, []).extend(
                    join_tokens(t, b, e) for b, e in args)
                a = close
            a += 1
        # An event-loop marker belongs to the first function after it.
        decl = t[name_at][1]
        fn = LockFunction(cls, name, self.path, t, self.ok,
                          any(line <= decl for line in self.loops))
        self.loops = [line for line in self.loops if line > decl]
        self.functions.append(fn)
        if k < n and t[k][0] == "{":
            fn.body = (k + 1, match(t, k))
            return fn.body[1] + 1
        return k + 1 if k < n else n

    def member(self, cls, begin, end):
        """Record a data member's (or file-scope variable's) type: the last
        identifier before its name."""
        t = self.t
        stop = next((k for k in range(begin, end)
                     if t[k][0] in MEMBER_ANNOTATIONS | {"=", "{"}),
                    end)
        at = stop
        while at > begin:
            at -= 1
            if t[at][2]:
                break
        if at <= begin or not t[at][2]:
            return
        types = [text for text, _, ident in t[begin:at] if ident]
        if not types or types[-1] in ("return", "using"):
            return
        self.member_type[f"{cls}::{t[at][0]}"] = types[-1]
        if not cls and types[-1] in MUTEXES:
            self.global_mutexes.add(t[at][0])

    def lock_name(self, fn, t, begin, end):
        """A program-wide name for the lock expression t[begin:end]:
        `mutex_` in a SimService method is SimService::mutex_, a
        file-scope mutex keeps its name, `obj.m` with obj a typed member
        is Type::m."""
        if begin + 1 < end and t[begin][0] == "this" and \
                t[begin + 1][0] == "->":
            begin += 2
        if end - begin == 1 and t[begin][2]:
            name = t[begin][0]
            if name in self.global_mutexes:
                return name
            return f"{fn.cls or fn.name}::{name}"
        if end - begin == 3 and t[begin][2] and \
                t[begin + 1][0] in (".", "->") and t[begin + 2][2]:
            obj, member = t[begin][0], t[begin + 2][0]
            typ = self.member_type.get(f"{fn.cls}::{obj}")
            if typ is not None:
                return f"{typ}::{member}"
            return f"{fn.qual}::{obj}.{member}"
        return f"{fn.qual}::{join_tokens(t, begin, end)}"

    def scan_body(self, fn):
        """Track the locks held through fn's body; record order edges and
        the call, wait and blocking sites with the locks held at each."""
        t, size = fn.toks, len(fn.toks)
        held = []
        for expr in self.requires.get(fn.qual, ()):
            seed = lex(expr)[0]
            held.append(Held([self.lock_name(fn, seed, 0, len(seed))], "",
                             -1, False))

        def active():
            return [m for h in held if h.active for m in h.mutexes]

        def acquire(mutexes, line):
            self.edges += [(a, b, fn.path, line) for a in active()
                           for b in mutexes if a != b]
            fn.acquires.update(mutexes)

        def exempt(line):
            return not fn.ok.isdisjoint((line, line - 1, line - 2))

        depth = 0
        i, end = fn.body
        while i < end:
            text, line, ident = t[i]
            if text == "{":
                depth += 1
            elif text == "}":  # leaving a scope releases its guards
                depth -= 1
                held = [h for h in held if h.depth <= depth]
            if not ident:
                i += 1
                continue
            # [std::|util::]Guard[<...>] var(mutex[, mutex...])
            k = i + 2 if text in ("std", "util") and i + 2 < size and \
                t[i + 1][0] == "::" else i
            if t[k][0] in GUARDS and t[k][2]:
                v = skip_angles(t, k + 1) if k + 1 < size and \
                    t[k + 1][0] == "<" else k + 1
                if v + 1 < size and t[v][2] and t[v + 1][0] == "(":
                    close = match(t, v + 1)
                    args = split_args(t, v + 1, close, set(CLOSER),
                                      set(CLOSER.values()))
                    if args:
                        take = args if t[k][0] == "scoped_lock" else args[:1]
                        mutexes = [self.lock_name(fn, t, b, e)
                                   for b, e in take]
                        acquire(mutexes, line)
                        held.append(Held(mutexes, t[v][0], depth,
                                         t[k][0] in RELOCKABLE))
                        i = close + 1
                        continue
            guard_vars = {h.var for h in held}
            if text in guard_vars and i + 3 < size and t[i + 1][0] == "." \
                    and t[i + 2][0] in ("lock", "unlock") and \
                    t[i + 3][0] == "(":
                for h in held:
                    if h.var != text or not h.relockable:
                        continue
                    if t[i + 2][0] == "unlock":
                        h.active = False
                    elif not h.active:
                        h.active = True
                        acquire(h.mutexes, line)
                i = match(t, i + 3) + 1
                continue
            if i + 3 < size and t[i + 1][0] in (".", "->") and \
                    t[i + 2][0] in WAITS and t[i + 2][2] and \
                    t[i + 3][0] == "(" and (
                        self.member_type.get(f"{fn.cls}::{text}") in CONDVARS
                        or (i + 4 < size and t[i + 4][2]
                            and t[i + 4][0] in guard_vars)):
                fn.waits.append((line, active(), exempt(line)))
                fn.blocks.append(("cv-wait", line, exempt(line)))
                i = match(t, i + 3) + 1
                continue
            if i + 1 < size and t[i + 1][0] == "(" and text not in KEYWORDS:
                obj = ""
                if t[i - 1][0] == "::":  # `ns::f(` is a free call
                    obj = "::" if i < 2 or not t[i - 2][2] else ""
                elif i >= 2 and t[i - 1][0] in (".", "->"):
                    obj = t[i - 2][0] if t[i - 2][2] else "?"
                fn.calls.append((obj, text, line, active(), exempt(line)))
                if text in BLOCKING or (obj == "::" and
                                        text in BLOCKING_GLOBAL):
                    fn.blocks.append((text, line, exempt(line)))
            i += 1

    def resolve_calls(self):
        """Callees of each call site. A typed receiver, or an unqualified
        call inside a class, picks that class's method when it has one;
        else any function of the name may be reached (virtual dispatch).
        `::name(` is a syscall."""
        by_name, by_qual = {}, {}
        for fn in self.functions:
            if fn.body:
                by_name.setdefault(fn.name, []).append(fn)
                by_qual[fn.qual] = fn
        for fn in self.functions:
            for obj, name, *_ in fn.calls:
                named = by_name.get(name, [])
                if not named or obj in ("::", "?"):
                    fn.callees.append([])
                    continue
                if obj:
                    typ = self.member_type.get(f"{fn.cls}::{obj}")
                    exact = by_qual.get(f"{typ}::{name}") if typ else None
                else:
                    exact = by_qual.get(f"{fn.cls}::{name}" if fn.cls
                                        else name)
                fn.callees.append([exact] if exact else named)

    def add_call_edges(self):
        """A call made holding A into a function whose transitive summary
        takes B orders A before B."""
        for fn in self.functions:
            fn.summary = set(fn.acquires)
        changed = True
        while changed:
            changed = False
            for fn in self.functions:
                for callees in fn.callees:
                    for callee in callees:
                        if not callee.summary <= fn.summary:
                            fn.summary |= callee.summary
                            changed = True
        for fn in self.functions:
            for (_, _, line, held, _), callees in zip(fn.calls, fn.callees):
                self.edges += [(a, b, fn.path, line) for callee in callees
                               for a in held for b in sorted(callee.summary)
                               if a != b]

    def report_cycles(self):
        """Tarjan's SCCs over the order graph; each with two or more
        locks is a potential deadlock."""
        out, nodes = {}, set()
        for e, (a, b, _, _) in enumerate(self.edges):
            nodes.update((a, b))
            out.setdefault(a, []).append(e)
        index, low, on_stack, stack, sccs = {}, {}, set(), [], []
        for root in sorted(nodes):
            if root in index:
                continue
            frames = [[root, 0]]
            index[root] = low[root] = len(index)
            stack.append(root)
            on_stack.add(root)
            while frames:
                frame = frames[-1]
                node, outs = frame[0], out.get(frame[0], [])
                if frame[1] < len(outs):
                    nxt = self.edges[outs[frame[1]]][1]
                    frame[1] += 1
                    if nxt not in index:
                        index[nxt] = low[nxt] = len(index)
                        stack.append(nxt)
                        on_stack.add(nxt)
                        frames.append([nxt, 0])
                    elif nxt in on_stack:
                        low[node] = min(low[node], index[nxt])
                    continue
                if low[node] == index[node]:
                    scc = []
                    while not scc or scc[-1] != node:
                        scc.append(stack.pop())
                        on_stack.discard(scc[-1])
                    if len(scc) > 1:
                        sccs.append(scc)
                frames.pop()
                if frames:
                    up = frames[-1][0]
                    low[up] = min(low[up], low[node])
        for scc in sccs:
            sites = [e for e in self.edges if e[0] in scc and e[1] in scc]
            self.findings.append(
                (sites[0][2], sites[0][3], "lock-order-cycle",
                 "lock-order cycle between { " + ", ".join(scc) +
                 " }; conflicting acquisition sites:" +
                 "".join(f" [{a} -> {b} at {path}:{line}]"
                         for a, b, path, line in sites[:6])))

    def report_waits(self):
        for fn in self.functions:
            for line, held, exempt in fn.waits:
                held = sorted(set(held))
                if not exempt and len(held) > 1:
                    self.findings.append(
                        (fn.path, line, "wait-holding-two",
                         f"condition_variable wait in {fn.qual}() while "
                         f"holding {len(held)} locks ({', '.join(held)}); "
                         "the wait releases only its own lock — every other "
                         "one stays held for the full sleep"))

    def report_event_loop_blocking(self):
        """Breadth-first from each event-loop root over unexempted calls."""
        for root in self.functions:
            if not (root.event_loop and root.body):
                continue
            parent, queue, seen = {}, deque([root]), {root}
            while queue:
                fn = queue.popleft()
                for what, line, exempt in fn.blocks:
                    if exempt:
                        continue
                    route = [fn]
                    while route[-1] is not root:
                        route.append(parent[route[-1]])
                    self.findings.append(
                        (fn.path, line, "blocking-in-loop",
                         f"blocking call ({what}) reachable from event loop "
                         f"{root.qual}(): path " +
                         " -> ".join(f.qual for f in reversed(route)) +
                         " — one stalled request freezes every connection"))
                for call, callees in zip(fn.calls, fn.callees):
                    if call[4]:  # an exempt call site
                        continue
                    for callee in callees:
                        if callee not in seen:
                            seen.add(callee)
                            parent[callee] = fn
                            queue.append(callee)


def check_locks(paths):
    """The lock rules' findings, with the files in `paths` one program."""
    prog = LockProgram()
    for path in paths:
        # Latin-1 decodes any bytes, one character each; the lexer's
        # character classes are ASCII, so other bytes are punctuation.
        prog.parse(str(path), Path(path).read_bytes().decode("latin-1"))
    for fn in prog.functions:
        if fn.body:
            prog.scan_body(fn)
    prog.resolve_calls()
    prog.add_call_edges()
    prog.report_cycles()
    prog.report_waits()
    prog.report_event_loop_blocking()
    return [Finding(*f) for f in sorted(set(prog.findings))]


def rules_for(path, root):
    """Which rules apply to a real-tree file."""
    rel = path.relative_to(root).as_posix()
    rules = []
    if rel.startswith("src/"):
        rules += ["hot-path-alloc", "fd-cloexec", "fd-unowned"]
        if rel != "src/util/unique_fd.h":
            rules.append("raw-close")
    if rel.startswith(
        ("src/sim/", "src/thermal/", "src/service/", "src/workload/",
         "src/util/json")
    ):
        rules.append("nondeterminism")
    if path.suffix == ".h" and rel.startswith(
        ("src/thermal/", "src/power/", "src/governors/", "src/platform/",
         "src/core/")
    ):
        rules.append("raw-units-param")
    if rel.startswith(
        ("src/thermal/", "src/power/", "src/governors/", "src/platform/",
         "src/stability/")
    ):
        rules.append("si-units")
    return rules


def lint_tree(root):
    paths = sorted((p for p in (root / "src").rglob("*")
                    if p.suffix in (".h", ".cpp")), key=Path.as_posix)
    findings = []
    for path in paths:
        rules = rules_for(path, root)
        if not rules:
            continue
        src = SourceFile(path)
        for rule in rules:
            findings.extend(CHECKS[rule](src))
    return findings + check_locks(paths)


EXPECT_RE = re.compile(r"//\s*LINT-EXPECT:\s*([\w-]+)")


def self_test(root):
    fixtures = sorted((root / "tests" / "lint_fixtures").glob("*"))
    fixtures = [p for p in fixtures if p.suffix in (".h", ".cpp")]
    if not fixtures:
        print("mobilint --self-test: no fixtures found", file=sys.stderr)
        return 1
    failures = 0
    for path in fixtures:
        src = SourceFile(path)
        expected = sorted(m.group(1) for m in map(EXPECT_RE.search, src.raw)
                          if m and m.group(1) != "clean")
        # Fixtures ignore dir scoping; each is a whole program to the lock
        # rules.
        findings = [f for check in CHECKS.values() for f in check(src)]
        findings += check_locks([path])
        found = sorted(f.rule for f in findings)
        if found == expected:
            print(f"  PASS {path.name} ({', '.join(expected) or 'clean'})")
        else:
            failures += 1
            print(f"  FAIL {path.name}: expected {expected or ['clean']}, "
                  f"got {found or ['clean']}")
            for f in findings:
                print(f"    {f}")
    total = len(fixtures)
    print(f"mobilint --self-test: {total - failures}/{total} fixtures pass")
    return 1 if failures else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        type=Path,
        default=Path(__file__).resolve().parent.parent,
        help="repository root (default: the checkout containing this script)",
    )
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="validate the rules against tests/lint_fixtures/",
    )
    args = parser.parse_args(argv)
    root = args.root.resolve()

    if args.self_test:
        return self_test(root)

    findings = lint_tree(root)
    for f in findings:
        print(f)
    if findings:
        print(f"mobilint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("mobilint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
