#!/usr/bin/env python3
"""utk_lint — machine-checks the project rules that grep can't.

Five rules, each a hard-won invariant from DESIGN.md that previously lived
as prose (or, for the clock rule, as a fragile CI grep):

  eps-compare  Raw floating-point ordering comparisons in the geometry,
               arrangement and skyline layers (src/geometry/,
               src/arrangement/, src/skyline/) must go through
               the Eps predicates in src/common/types.h (EpsGe/EpsGt/EpsLe/
               EpsLt/EpsEq). A bare `x <= kEps` silently re-derives the
               boundary policy those predicates centralize; the allowlist
               covers only the predicate definitions themselves.

  clock        One clock rule: no `std::chrono` / `#include <chrono>`
               outside src/common/stats.h, anywhere in src/ tests/ bench/.
               Timings must flow through common/stats.h's Timer so bench
               and obs agree on the time source. (Absorbs the old CI grep,
               which covered src/ only.)

  span-name    Literal span names in UTK_SPAN / UTK_SPAN_VAL follow the
               `subsystem.verb` scheme (lowercase, [a-z0-9_], exactly one
               dot) so Perfetto traces group and the obs docs stay true.

  naked-new    No naked `new` / `malloc` in src/: allocations are owned at
               the allocation site (`unique_ptr<T> p(new T)`, `.reset(new
               T)`) or suppressed with a reason (intentional-leak
               singletons).

  iostream     No `std::cout` / `std::cerr` / `std::clog` / `<iostream>`
               in src/ — library code reports through return values and
               the obs layer; only utk_cli (examples/) and tools/ talk to
               a terminal.

Token-aware like check_bench.py is JSON-aware: a real lexer masks comments
and string/char literal contents first, so a rule name in a doc comment or
a "1.0 < 2.0" inside a string can never trip a rule.

Suppression: append `// utk-lint: allow(<rule>) <reason>` to the offending
line, or put it on its own line directly above. The reason is mandatory —
a bare allow() is itself an error — and unknown rule names are rejected.

Usage: utk_lint.py [--root DIR] [paths...]   # default paths: src tests bench
       utk_lint.py --self-check [--root DIR] # embedded + tests/lint fixtures
Exit status: 0 clean, 1 findings (or broken fixtures under --self-check).

Stdlib only — no pip dependencies.
"""

import os
import re
import sys

RULES = ("eps-compare", "clock", "span-name", "naked-new", "iostream")

DEFAULT_PATHS = ("src", "tests", "bench")
SOURCE_EXTS = (".cc", ".h", ".cpp", ".hpp")
# Fixture files exercise violations on purpose; the tree scan must skip them.
FIXTURE_DIR = "tests/lint"

# The layers whose floating-point comparisons eps-compare checks.
EPS_DIRS = ("src/geometry", "src/arrangement", "src/skyline")
# Files where each rule's "violation" is the rule's own definition.
EPS_ALLOWLIST = {"src/common/types.h"}
CLOCK_ALLOWLIST = {"src/common/stats.h"}


class ConfigError(Exception):
    """A malformed suppression or fixture — named, so the fix is obvious."""


# ---------------------------------------------------------------------------
# Lexer: mask comments and literals so rules see only real code.
# ---------------------------------------------------------------------------

class Lexed(object):
    """One file, three views of the same line numbering (1-based):

    masked    lines with comments AND string/char contents blanked to spaces
              (delimiters kept) — what most rules scan.
    code      lines with only comments blanked — for rules that need string
              contents in code position (span-name).
    comments  {line: text} of every comment, keyed by its starting line —
              where suppression pragmas live.
    """

    def __init__(self, masked, code, comments):
        self.masked = masked
        self.code = code
        self.comments = comments


def lex(text):
    """Lexes C++ `text` into a Lexed. Handles //, /* */, "...", '...',
    escapes, and R"delim(...)delim" raw strings."""
    masked = []
    code = []
    comments = {}
    m_line = []  # current masked line, list of chars
    c_line = []  # current code line
    comment_buf = []
    comment_start = 0
    i, n = 0, len(text)
    line = 1
    state = "code"
    raw_end = ""  # )delim" terminator while in a raw string

    def newline():
        nonlocal line
        masked.append("".join(m_line))
        code.append("".join(c_line))
        del m_line[:]
        del c_line[:]
        line += 1

    def flush_comment():
        if comment_buf:
            comments[comment_start] = "".join(comment_buf)
            del comment_buf[:]

    while i < n:
        ch = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if ch == "\n":
            if state == "line_comment":
                flush_comment()
                state = "code"
            newline()
            i += 1
            continue
        if state == "code":
            if ch == "/" and nxt == "/":
                state = "line_comment"
                comment_start = line
                comment_buf.append("//")
                m_line.append("  ")
                c_line.append("  ")
                i += 2
                continue
            if ch == "/" and nxt == "*":
                state = "block_comment"
                comment_start = line
                comment_buf.append("/*")
                m_line.append("  ")
                c_line.append("  ")
                i += 2
                continue
            if ch == '"':
                # R"delim( opens a raw string; the R (and optional encoding
                # prefix) is already emitted as code, which is fine.
                if i >= 1 and text[i - 1] == "R":
                    j = text.find("(", i + 1)
                    if j != -1 and j - i - 1 <= 16:
                        raw_end = ")" + text[i + 1:j] + '"'
                        state = "raw_string"
                        m_line.append('"')
                        c_line.append(ch)
                        i += 1
                        continue
                state = "string"
                m_line.append('"')
                c_line.append(ch)
                i += 1
                continue
            if ch == "'":
                state = "char"
                m_line.append("'")
                c_line.append(ch)
                i += 1
                continue
            m_line.append(ch)
            c_line.append(ch)
            i += 1
            continue
        if state == "line_comment":
            comment_buf.append(ch)
            m_line.append(" ")
            c_line.append(" ")
            i += 1
            continue
        if state == "block_comment":
            if ch == "*" and nxt == "/":
                comment_buf.append("*/")
                flush_comment()
                m_line.append("  ")
                c_line.append("  ")
                state = "code"
                i += 2
                continue
            comment_buf.append(ch)
            m_line.append(" ")
            c_line.append(" ")
            i += 1
            continue
        if state == "string" or state == "char":
            quote = '"' if state == "string" else "'"
            if ch == "\\" and nxt:
                m_line.append("  ")
                c_line.append(ch + ("" if nxt == "\n" else nxt))
                if nxt == "\n":
                    newline()
                i += 2
                continue
            if ch == quote:
                m_line.append(quote)
                c_line.append(ch)
                state = "code"
                i += 1
                continue
            m_line.append(" ")
            c_line.append(ch)
            i += 1
            continue
        if state == "raw_string":
            if text.startswith(raw_end, i):
                m_line.append(" " * (len(raw_end) - 1) + '"')
                c_line.append(raw_end)
                i += len(raw_end)
                state = "code"
                continue
            m_line.append(" ")
            c_line.append(ch)
            i += 1
            continue
    if state == "line_comment":
        flush_comment()
    newline()
    return Lexed(masked, code, comments)


# ---------------------------------------------------------------------------
# Suppression pragmas.
# ---------------------------------------------------------------------------

PRAGMA_RE = re.compile(r"utk-lint:\s*allow\(([^)]*)\)\s*(.*)", re.S)


class Suppression(object):
    def __init__(self, pragma_line, target_line, rules, reason):
        self.pragma_line = pragma_line
        self.target_line = target_line
        self.rules = rules
        self.reason = reason
        self.used = False


def parse_suppressions(lexed):
    """Suppressions from pragma comments. A pragma on a code-bearing line
    covers that line; a pragma on a comment-only line covers the next
    code-bearing line. Raises ConfigError for a missing reason or an
    unknown rule name."""
    sups = []
    for cline, ctext in sorted(lexed.comments.items()):
        m = PRAGMA_RE.search(ctext)
        if not m:
            continue
        rules = tuple(r.strip() for r in m.group(1).split(",") if r.strip())
        reason = " ".join(m.group(2).split())
        if not rules:
            raise ConfigError(
                "line %d: utk-lint allow() names no rule" % cline)
        for r in rules:
            if r not in RULES:
                raise ConfigError(
                    "line %d: utk-lint allow(%s): unknown rule (have: %s)"
                    % (cline, r, ", ".join(RULES)))
        if not reason:
            raise ConfigError(
                "line %d: utk-lint allow(%s) must state a reason"
                % (cline, ", ".join(rules)))
        target = cline
        if cline <= len(lexed.masked) and not lexed.masked[cline - 1].strip():
            # Comment-only line: cover the next line that carries code.
            for j in range(cline + 1, len(lexed.masked) + 1):
                if lexed.masked[j - 1].strip():
                    target = j
                    break
        sups.append(Suppression(cline, target, rules, reason))
    return sups


# ---------------------------------------------------------------------------
# Rules. Each yields (line, rule, message).
# ---------------------------------------------------------------------------

# A floating-point literal: needs a dot or an exponent, so integer loop
# bounds (`i < n`, `h >= 2`) never match.
FLOAT = r"(?:\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+)"
# An epsilon constant from common/types.h (kEps, kPivotEps, kInteriorEps...).
EPS_CONST = r"(?:\bk\w*Eps\b)"
OPERAND = r"(?:%s|%s)" % (FLOAT, EPS_CONST)
# Ordering operators, excluding <<, >>, ->, <=> and template/include brackets
# by context: a float literal or eps constant must sit on one side.
CMP_BEFORE = r"(?:<=|>=|(?<![<>\-])<(?![<=>])|(?<![>\-])>(?![>=]))"
EPS_CMP_RE = re.compile(
    r"(?:%s\s*%s|%s\s*-?%s)" % (OPERAND, CMP_BEFORE, CMP_BEFORE, OPERAND))

CHRONO_RE = re.compile(r"\bstd::chrono\b|^\s*#\s*include\s*<chrono>")

SPAN_RE = re.compile(r"\bUTK_SPAN(?:_VAL)?\s*\(\s*\"([^\"]*)\"")
SPAN_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*\.[a-z][a-z0-9_]*$")

NEW_RE = re.compile(r"\bnew\b")
# `new` owned at the allocation site: smart-pointer construction or reset.
OWNED_NEW_RE = re.compile(r"(?:_ptr\s*<[^;()]*>\s*\w*\s*\(|\.reset\s*\()\s*new\b")
MALLOC_RE = re.compile(r"\b(?:malloc|calloc|realloc)\s*\(")

IOSTREAM_RE = re.compile(
    r"\bstd::(?:cout|cerr|clog)\b|^\s*#\s*include\s*<iostream>")


def in_dir(relpath, prefix):
    return relpath.startswith(prefix + "/")


def rule_eps_compare(relpath, lexed):
    if not any(in_dir(relpath, d) for d in EPS_DIRS):
        return
    if relpath in EPS_ALLOWLIST:
        return
    for idx, line in enumerate(lexed.masked, 1):
        if EPS_CMP_RE.search(line):
            yield (idx, "eps-compare",
                   "raw floating-point ordering comparison; use the Eps "
                   "predicates from src/common/types.h (EpsGe/EpsGt/EpsLe/"
                   "EpsLt/EpsEq)")


def rule_clock(relpath, lexed):
    if relpath in CLOCK_ALLOWLIST:
        return
    for idx, line in enumerate(lexed.masked, 1):
        if CHRONO_RE.search(line):
            yield (idx, "clock",
                   "raw std::chrono outside src/common/stats.h; time through "
                   "the one clock in common/stats.h")


def rule_span_name(relpath, lexed):
    for idx, line in enumerate(lexed.code, 1):
        for m in SPAN_RE.finditer(line):
            name = m.group(1)
            if not SPAN_NAME_RE.match(name):
                yield (idx, "span-name",
                       "span name %r does not follow subsystem.verb "
                       "(lowercase [a-z0-9_], exactly one dot)" % name)


def rule_naked_new(relpath, lexed):
    if not in_dir(relpath, "src"):
        return
    for idx, line in enumerate(lexed.masked, 1):
        if MALLOC_RE.search(line):
            yield (idx, "naked-new",
                   "raw malloc/calloc/realloc in src/; use owned allocation")
            continue
        if NEW_RE.search(line) and not OWNED_NEW_RE.search(line):
            yield (idx, "naked-new",
                   "naked new in src/; own it at the allocation site "
                   "(unique_ptr<T> p(new T) / .reset(new T)) or suppress an "
                   "intentional leak with a reason")


def rule_iostream(relpath, lexed):
    if not in_dir(relpath, "src"):
        return
    for idx, line in enumerate(lexed.masked, 1):
        if IOSTREAM_RE.search(line):
            yield (idx, "iostream",
                   "std::cout/cerr/clog in src/; library code reports via "
                   "return values and obs, only utk_cli/tools print")


ALL_RULES = (rule_eps_compare, rule_clock, rule_span_name, rule_naked_new,
             rule_iostream)


# ---------------------------------------------------------------------------
# Scanning.
# ---------------------------------------------------------------------------

class Finding(object):
    def __init__(self, relpath, line, rule, message):
        self.relpath = relpath
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return "%s:%d: [%s] %s" % (self.relpath, self.line, self.rule,
                                   self.message)


def scan_text(relpath, text):
    """All unsuppressed findings for one file's contents."""
    lexed = lex(text)
    try:
        sups = parse_suppressions(lexed)
    except ConfigError as e:
        return [Finding(relpath, 0, "bad-suppression", str(e))]
    raw = []
    for rule_fn in ALL_RULES:
        for line, rule, msg in rule_fn(relpath, lexed):
            raw.append(Finding(relpath, line, rule, msg))
    kept = []
    for f in raw:
        hit = None
        for s in sups:
            if s.target_line == f.line and f.rule in s.rules:
                hit = s
                break
        if hit is not None:
            hit.used = True
        else:
            kept.append(f)
    return kept


def iter_source_files(root, paths):
    for p in paths:
        top = os.path.join(root, p)
        if os.path.isfile(top):
            yield os.path.relpath(top, root).replace(os.sep, "/")
            continue
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith(SOURCE_EXTS):
                    continue
                rel = os.path.relpath(os.path.join(dirpath, name),
                                      root).replace(os.sep, "/")
                if rel.startswith(FIXTURE_DIR + "/"):
                    continue  # fixtures violate on purpose
                yield rel


def fixture_scan_path(rel):
    """For a tests/lint/<rule>__<kind>.cc fixture named explicitly on the
    command line, the path the rule expects it at — so
    `utk_lint.py tests/lint/eps-compare__violate.cc` exits non-zero just
    like the self-check harness says it should. None for non-fixtures."""
    if not rel.startswith(FIXTURE_DIR + "/"):
        return None
    stem = os.path.splitext(os.path.basename(rel))[0]
    rule = stem.split("__", 1)[0]
    fx = EMBEDDED.get(rule)
    return fx["path"] if fx else None


def scan_tree(root, paths):
    findings = []
    count = 0
    for rel in iter_source_files(root, paths):
        count += 1
        with open(os.path.join(root, rel), "r", encoding="utf-8") as f:
            got = scan_text(fixture_scan_path(rel) or rel, f.read())
        for finding in got:
            finding.relpath = rel  # report the real path, not the scan alias
            findings.append(finding)
    return findings, count


# ---------------------------------------------------------------------------
# Self-check: embedded fixtures + tests/lint/ fixture files.
# ---------------------------------------------------------------------------

def _expect(cond, label):
    if not cond:
        raise AssertionError("self-check failed: %s" % label)


# Each rule: a violating snippet, a clean one, and the violation suppressed.
# Paths place the snippet where the rule applies.
EMBEDDED = {
    "eps-compare": {
        "path": "src/geometry/fixture.cc",
        "violate": "bool f(double x) { return x <= kEps; }\n",
        "clean": "bool f(double x) { return EpsLe(x, 0.0); }\n",
        "suppressed": ("bool f(double x) {\n"
                       "  // utk-lint: allow(eps-compare) exact sign test\n"
                       "  return x < 0.0;\n"
                       "}\n"),
    },
    "clock": {
        "path": "src/live/fixture.cc",
        "violate": "#include <chrono>\nauto t = std::chrono::steady_clock::now();\n",
        "clean": "#include \"common/stats.h\"\nauto t = Timer();\n",
        "suppressed": ("auto d = std::chrono::milliseconds(5);"
                       "  // utk-lint: allow(clock) test sleep\n"),
    },
    "span-name": {
        "path": "src/exec/fixture.cc",
        "violate": "void f() { UTK_SPAN(\"RunQuery\"); }\n",
        "clean": "void f() { UTK_SPAN(\"engine.run\"); }\n",
        "suppressed": ("void f() { UTK_SPAN(\"Legacy\"); }"
                       "  // utk-lint: allow(span-name) pre-scheme name\n"),
    },
    "naked-new": {
        "path": "src/obs/fixture.cc",
        "violate": "int* p = new int(7);\n",
        "clean": "std::unique_ptr<int> p(new int(7));\nq.reset(new int(8));\n",
        "suppressed": ("static X* g = new X();"
                       "  // utk-lint: allow(naked-new) intentional leak\n"),
    },
    "iostream": {
        "path": "src/api/fixture.cc",
        "violate": "#include <iostream>\nvoid f() { std::cout << 1; }\n",
        "clean": "void f(std::string* out) { out->append(\"1\"); }\n",
        "suppressed": ("void f() { std::cerr << 1; }"
                       "  // utk-lint: allow(iostream) fatal-path report\n"),
    },
}

# (source, expected-ok) pairs exercising the lexer and pragma machinery.
LEXER_CASES = [
    # A rule name inside a comment or string must never trip.
    ("src/geometry/c.cc", "// x <= kEps in prose\n", True),
    ("src/geometry/c.cc", "const char* s = \"x <= kEps\";\n", True),
    ("src/geometry/c.cc", "/* block\n   x < 1.0\n*/\n", True),
    # Raw strings mask their contents too.
    ("src/api/c.cc", "auto s = R\"(std::cout << 1.0)\";\n", True),
    # Integer comparisons never match eps-compare.
    ("src/geometry/c.cc", "for (int i = 0; i < n; ++i) {}\n", True),
    ("src/geometry/c.cc", "if (h >= 2) {}\n", True),
    # Shifts and arrows are not comparisons.
    ("src/geometry/c.cc", "x <<= 2; y = p->v; b = a >> 3.0;\n", True),
    # But a real float comparison is caught either side of the operator.
    ("src/geometry/c.cc", "if (1e-7 < x) {}\n", False),
    ("src/geometry/c.cc", "if (x > kPivotEps) {}\n", False),
    # The arrangement's radius thresholds are in scope too.
    ("src/arrangement/c.cc", "if (r > kInteriorEps) {}\n", False),
    # The same comparison outside geometry/arrangement/skyline is out of
    # scope.
    ("src/api/c.cc", "if (x > kPivotEps) {}\n", True),
]


def self_check(root):
    # Lexer masks comments and strings.
    lx = lex("int a; // trail\nchar* s = \"b // c\";\n/* d */ int e;\n")
    _expect("trail" not in lx.masked[0], "line comment masked")
    _expect("b // c" not in lx.masked[1], "string contents masked")
    _expect('"' in lx.masked[1], "string delimiters kept")
    _expect("b // c" in lx.code[1], "string contents kept in code view")
    _expect("d" not in lx.masked[2].replace("int e", ""), "block comment masked")
    _expect(lx.comments.get(1, "").startswith("//"), "comment captured")

    # Pragma parsing: reason required, rules validated, placement honored.
    try:
        parse_suppressions(lex("// utk-lint: allow(clock)\nint x;\n"))
        raise AssertionError("self-check failed: reasonless allow accepted")
    except ConfigError:
        pass
    try:
        parse_suppressions(lex("// utk-lint: allow(bogus) why\nint x;\n"))
        raise AssertionError("self-check failed: unknown rule accepted")
    except ConfigError:
        pass
    sups = parse_suppressions(
        lex("// utk-lint: allow(clock) test sleep\nauto d = 5;\n"))
    _expect(len(sups) == 1 and sups[0].target_line == 2,
            "own-line pragma covers next code line")
    findings = scan_text("src/x.cc", "// utk-lint: allow(clock)\nint x;\n")
    _expect(len(findings) == 1 and findings[0].rule == "bad-suppression",
            "reasonless allow is reported as a finding")

    for path, src, ok in LEXER_CASES:
        got = scan_text(path, src)
        _expect(bool(got) != ok,
                "lexer case %r -> %s" % (src.strip(), [str(g) for g in got]))

    # Embedded per-rule fixtures.
    for rule, fx in sorted(EMBEDDED.items()):
        got = scan_text(fx["path"], fx["violate"])
        _expect(any(f.rule == rule for f in got),
                "%s: violating fixture not flagged" % rule)
        _expect(all(f.rule == rule for f in got),
                "%s: violating fixture tripped other rules: %s"
                % (rule, [str(g) for g in got]))
        _expect(not scan_text(fx["path"], fx["clean"]),
                "%s: clean fixture flagged" % rule)
        _expect(not scan_text(fx["path"], fx["suppressed"]),
                "%s: suppression not honored" % rule)

    # tests/lint/ fixture files: <rule>__{violate,clean,suppressed}.cc,
    # scanned as if they lived at the rule's embedded path.
    fixture_dir = os.path.join(root, FIXTURE_DIR)
    n_files = 0
    if os.path.isdir(fixture_dir):
        for name in sorted(os.listdir(fixture_dir)):
            if not name.endswith(SOURCE_EXTS) or "__" not in name:
                continue
            rule, kind = os.path.splitext(name)[0].split("__", 1)
            if rule not in RULES or kind not in ("violate", "clean",
                                                 "suppressed"):
                raise ConfigError("unrecognized fixture name: %s" % name)
            with open(os.path.join(fixture_dir, name), "r",
                      encoding="utf-8") as f:
                got = scan_text(EMBEDDED[rule]["path"], f.read())
            if kind == "violate":
                _expect(any(f2.rule == rule for f2 in got),
                        "%s: expected a %s finding, got %s"
                        % (name, rule, [str(g) for g in got] or "none"))
            else:
                _expect(not got, "%s: expected clean, got %s"
                        % (name, [str(g) for g in got]))
            n_files += 1
        expected = 3 * len(RULES)
        _expect(n_files >= expected,
                "tests/lint has %d fixtures, want >= %d (3 per rule)"
                % (n_files, expected))
    print("utk_lint --self-check OK (%d embedded fixtures, %d lexer cases, "
          "%d fixture files)" % (3 * len(EMBEDDED), len(LEXER_CASES), n_files))
    return 0


def main(argv):
    root = "."
    paths = []
    self_check_mode = False
    i = 1
    while i < len(argv):
        a = argv[i]
        if a == "--root":
            i += 1
            if i >= len(argv):
                print("utk_lint: --root needs a directory", file=sys.stderr)
                return 1
            root = argv[i]
        elif a == "--self-check":
            self_check_mode = True
        elif a in ("-h", "--help"):
            print(__doc__)
            return 0
        else:
            paths.append(a)
        i += 1
    if self_check_mode:
        try:
            return self_check(root)
        except (AssertionError, ConfigError) as e:
            print("utk_lint: %s" % e, file=sys.stderr)
            return 1
    findings, count = scan_tree(root, paths or list(DEFAULT_PATHS))
    for f in sorted(findings, key=lambda x: (x.relpath, x.line, x.rule)):
        print(f)
    if findings:
        print("utk_lint: %d finding(s) in %d files (suppress with "
              "\"// utk-lint: allow(<rule>) <reason>\")"
              % (len(findings), count), file=sys.stderr)
        return 1
    print("utk_lint: clean (%d files, rules: %s)" % (count, ", ".join(RULES)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
