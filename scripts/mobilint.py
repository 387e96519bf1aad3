#!/usr/bin/env python3
"""mobilint: mobitherm's project-specific lint.

Seven rules, each tuned to an invariant the simulator's correctness,
reproducibility or service depends on:

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

Usage:
  mobilint.py [--root DIR]   lint the tree; exit 1 on findings
  mobilint.py --self-test    run against tests/lint_fixtures/ and check
                             each fixture produces exactly the findings
                             its LINT-EXPECT comments declare
"""

import argparse
import re
import sys
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
    findings = []
    for path in sorted((root / "src").rglob("*")):
        if path.suffix not in (".h", ".cpp"):
            continue
        rules = rules_for(path, root)
        if not rules:
            continue
        src = SourceFile(path)
        for rule in rules:
            findings.extend(CHECKS[rule](src))
    return findings


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
        expected = set()
        for line in src.raw:
            m = EXPECT_RE.search(line)
            if m and m.group(1) != "clean":
                expected.add(m.group(1))
        found = set()
        for rule, check in CHECKS.items():  # fixtures ignore dir scoping
            if check(src):
                found.add(rule)
        if found == expected:
            want = ", ".join(sorted(expected)) or "clean"
            print(f"  PASS {path.name} ({want})")
        else:
            failures += 1
            print(
                f"  FAIL {path.name}: expected "
                f"{sorted(expected) or ['clean']}, got "
                f"{sorted(found) or ['clean']}"
            )
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
