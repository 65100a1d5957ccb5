#!/usr/bin/env python3
"""fc_lint: FlowCube's project-specific determinism & style lint.

The cube's core invariant since PR 2 is byte-identical output across
serial, parallel, and incremental builds. These rules encode the coding
conventions that protect it (DESIGN.md §11):

  unordered-iteration  No iteration over std::unordered_map/unordered_set
                       in a canonical-order path (serialization, dump,
                       checkpoint, audit, render, or hashing code) — those
                       must go through SortedCells()-style orderings.
                       Scoped to files matching --canonical-paths.
  raw-random           No rand()/srand()/std::random_device and no
                       wall-clock reads (system_clock, time(), localtime,
                       gettimeofday, ...) outside src/common/random.*.
                       Seeded determinism lives there; wall clocks don't
                       belong in cube construction at all.
  raw-clock            No monotonic clock reads (steady_clock,
                       high_resolution_clock) outside src/common/stopwatch.h
                       — timing goes through Stopwatch/TraceSpan so it can
                       never leak into computed results.
  raw-assert           No raw assert(); use FC_CHECK (always on) or
                       FC_AUDIT (audit tier) so failures are reported
                       uniformly and never compiled out silently by NDEBUG.
  no-cout              No std::cout in src/; use the logging layer (or
                       return strings to the caller). Library code printing
                       to stdout corrupts tool output (dumps, metrics).
  raw-intrinsics       No raw SIMD intrinsics (immintrin.h/arm_neon.h
                       includes, _mm*/vld1*/vst1* calls) outside
                       src/common/simd.h — the ISA surface stays in one
                       audited file with a scalar fallback per kernel.

Suppression: append to the offending line (or the line directly above)

    // fc-lint: allow(<rule>): <justification>

A suppression without a justification is itself a finding. Findings print
as "file:line: [rule] message"; exit status is 1 when any exist.

Engine: when the python libclang bindings and a compile_commands.json are
available, unordered-iteration is checked on the AST (range-for/iterator
loops with an unordered range type — no false positives from comments or
names). Everywhere else a conservative regex engine runs; both engines see
the same suppressions. The regex engine is the one exercised by
tools/fc_lint_test.py, so CI behavior never depends on libclang presence.
"""

import argparse
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# Files where each rule does NOT apply (repo-relative, regex).
ALLOWLIST = {
    "raw-random": [r"^src/common/random\.(h|cc)$"],
    "raw-clock": [r"^src/common/stopwatch\.h$", r"^src/common/random\.(h|cc)$"],
    "raw-intrinsics": [r"^src/common/simd\.h$"],
}

# unordered-iteration only applies to canonical-order code paths.
CANONICAL_PATHS = (
    r"(dump|checkpoint|codec|audit|render|hash|text_io|binary_io|serializ)"
)

SUPPRESS_RE = re.compile(
    r"//\s*fc-lint:\s*allow\(([A-Za-z0-9_,\s-]+)\)\s*:?\s*(.*)"
)

# A line comment or the tail of one; stripped before rule matching.
LINE_COMMENT_RE = re.compile(r"//.*$")
STRING_RE = re.compile(r'"(?:[^"\\]|\\.)*"')
CHAR_RE = re.compile(r"'(?:[^'\\]|\\.)'")

UNORDERED_DECL_RE = re.compile(
    r"unordered_(?:map|set|multimap|multiset)\s*<[^;{]*>\s+(\w+)\s*[;({=]"
)
RANGE_FOR_RE = re.compile(r"\bfor\s*\([^;]*?:\s*([^)]+)\)")
BEGIN_CALL_RE = re.compile(r"\b(\w+)\s*\.\s*c?begin\s*\(")

RULES = ("unordered-iteration", "raw-random", "raw-clock", "raw-assert",
         "no-cout", "raw-intrinsics")

RAW_RANDOM_RES = [
    (re.compile(r"(?<![\w.])s?rand\s*\("), "rand()/srand()"),
    (re.compile(r"\brandom_device\b"), "std::random_device"),
    (re.compile(r"\bsystem_clock\b"), "wall clock (system_clock)"),
    (re.compile(r"(?<![\w.:])time\s*\(\s*(?:NULL|nullptr|0)?\s*\)"),
     "wall clock (time())"),
    (re.compile(r"\b(?:localtime|gmtime|gettimeofday|clock_gettime)\s*\("),
     "wall clock"),
]
RAW_CLOCK_RE = re.compile(
    r"\b(?:steady_clock|high_resolution_clock)\s*::\s*now\b")
RAW_ASSERT_RE = re.compile(r"(?<![\w_])assert\s*\(")
NO_COUT_RE = re.compile(r"\bstd\s*::\s*cout\b")
RAW_INTRINSICS_RES = [
    (re.compile(r"#\s*include\s*[<\"](?:immintrin|x86intrin|emmintrin|"
                r"smmintrin|tmmintrin|nmmintrin|wmmintrin|avxintrin|"
                r"avx2intrin|arm_neon)\.h[>\"]"),
     "SIMD intrinsics header"),
    (re.compile(r"\b_mm(?:256|512)?_\w+\s*\("), "x86 SIMD intrinsic"),
    (re.compile(r"\b(?:vld|vst)[1-4]q?_\w+\s*\("), "NEON intrinsic"),
]


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def rel(path: Path) -> str:
    try:
        return path.resolve().relative_to(REPO).as_posix()
    except ValueError:
        return path.as_posix()


def rule_applies(rule: str, relpath: str) -> bool:
    for pattern in ALLOWLIST.get(rule, []):
        if re.search(pattern, relpath):
            return False
    if rule == "unordered-iteration":
        return re.search(CANONICAL_PATHS, relpath) is not None
    return True


def suppressions_for(lines, index):
    """Yields (rule, reason, line_no) suppressions covering line `index`."""
    for at in (index, index - 1):
        if at < 0:
            continue
        m = SUPPRESS_RE.search(lines[at])
        if m:
            rules = [r.strip() for r in m.group(1).split(",")]
            yield rules, m.group(2).strip(), at + 1


def strip_code(line: str) -> str:
    """Removes strings, char literals, and comments so rule regexes only
    see code. (Block comments are handled line-wise by the caller.)"""
    line = STRING_RE.sub('""', line)
    line = CHAR_RE.sub("''", line)
    return LINE_COMMENT_RE.sub("", line)


def check_file_regex(path: Path, active_rules, findings):
    relpath = rel(path)
    text = path.read_text(encoding="utf-8", errors="replace")
    lines = text.splitlines()

    # Names of locals declared with unordered types (file-wide; the regex
    # engine does not track scopes — conservative is fine for a lint).
    unordered_vars = set()
    if "unordered-iteration" in active_rules and rule_applies(
            "unordered-iteration", relpath):
        for line in lines:
            code = strip_code(line)
            m = UNORDERED_DECL_RE.search(code)
            if m:
                unordered_vars.add(m.group(1))

    in_block_comment = False
    used_suppressions = set()
    for i, raw in enumerate(lines):
        line = raw
        if in_block_comment:
            end = line.find("*/")
            if end < 0:
                continue
            line = line[end + 2:]
            in_block_comment = False
        start = line.find("/*")
        while start >= 0:
            end = line.find("*/", start + 2)
            if end < 0:
                line = line[:start]
                in_block_comment = True
                break
            line = line[:start] + line[end + 2:]
            start = line.find("/*")
        code = strip_code(line)

        def emit(rule, message):
            if rule not in active_rules or not rule_applies(rule, relpath):
                return
            for rules, reason, sline in suppressions_for(lines, i):
                if rule in rules:
                    used_suppressions.add(sline)
                    if not reason:
                        findings.append(Finding(
                            relpath, sline, rule,
                            "suppression needs a justification: "
                            "// fc-lint: allow(%s): <why>" % rule))
                    return
            findings.append(Finding(relpath, i + 1, rule, message))

        if "unordered-iteration" in active_rules:
            m = RANGE_FOR_RE.search(code)
            range_expr = m.group(1) if m else ""
            if "unordered" in range_expr or any(
                    re.search(r"\b%s\b" % re.escape(v), range_expr)
                    for v in unordered_vars):
                emit("unordered-iteration",
                     "iteration over an unordered container in a "
                     "canonical-order path; use a sorted view "
                     "(SortedCells()-style) instead")
            else:
                m = BEGIN_CALL_RE.search(code)
                if m and m.group(1) in unordered_vars:
                    emit("unordered-iteration",
                         "iterator walk over unordered container "
                         f"'{m.group(1)}' in a canonical-order path")

        for pattern, what in RAW_RANDOM_RES:
            if pattern.search(code):
                emit("raw-random",
                     f"{what} outside src/common/random.*; use the seeded "
                     "RNG / schedule-provided timestamps")
                break
        if RAW_CLOCK_RE.search(code):
            emit("raw-clock",
                 "raw monotonic clock outside src/common/stopwatch.h; "
                 "time through Stopwatch or TraceSpan")
        if RAW_ASSERT_RE.search(code):
            emit("raw-assert",
                 "raw assert() compiles out under NDEBUG; use FC_CHECK "
                 "(always on) or FC_AUDIT (audit tier)")
        if NO_COUT_RE.search(code):
            emit("no-cout",
                 "std::cout in library code corrupts tool stdout; use "
                 "common/logging.h or return the string")
        for pattern, what in RAW_INTRINSICS_RES:
            if pattern.search(code):
                emit("raw-intrinsics",
                     f"{what} outside src/common/simd.h; add or extend a "
                     "kernel there (with its scalar fallback) instead")
                break


def try_libclang(paths, compile_commands, active_rules, findings):
    """AST-accurate unordered-iteration pass. Returns True when it ran (the
    regex engine then skips that one rule); any failure falls back."""
    try:
        from clang import cindex  # noqa: F401
    except Exception:
        return False
    try:
        db_dir = Path(compile_commands).resolve().parent
        db = cindex.CompilationDatabase.fromDirectory(str(db_dir))
        index = cindex.Index.create()
    except Exception:
        return False

    wanted = {p.resolve() for p in paths if p.suffix in (".cc", ".cpp")}
    checked = False
    for path in sorted(wanted):
        relpath = rel(path)
        if not rule_applies("unordered-iteration", relpath):
            continue
        commands = db.getCompileCommands(str(path))
        if not commands:
            continue
        args = [a for a in list(commands[0].arguments)[1:-1]
                if a not in ("-c", "-o", str(path))]
        try:
            tu = index.parse(str(path), args=args)
        except Exception:
            continue
        checked = True
        lines = path.read_text(encoding="utf-8",
                               errors="replace").splitlines()

        def visit(node):
            if node.kind == cindex.CursorKind.CXX_FOR_RANGE_STMT:
                children = list(node.get_children())
                if children:
                    range_type = children[-2].type.spelling if len(
                        children) >= 2 else ""
                    if "unordered_" in range_type:
                        i = node.location.line - 1
                        for rules, reason, sline in suppressions_for(
                                lines, i):
                            if "unordered-iteration" in rules:
                                if not reason:
                                    findings.append(Finding(
                                        relpath, sline,
                                        "unordered-iteration",
                                        "suppression needs a "
                                        "justification"))
                                return
                        findings.append(Finding(
                            relpath, node.location.line,
                            "unordered-iteration",
                            f"range-for over '{range_type}' in a "
                            "canonical-order path"))
            for child in node.get_children():
                if child.location.file and Path(
                        str(child.location.file)).resolve() == path:
                    visit(child)

        visit(tu.cursor)
    return checked


def collect_files(paths):
    files = []
    for p in paths:
        path = Path(p)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.h")))
            files.extend(sorted(path.rglob("*.cc")))
            files.extend(sorted(path.rglob("*.cpp")))
        elif path.is_file():
            files.append(path)
        else:
            print(f"fc_lint: no such path: {p}", file=sys.stderr)
            sys.exit(2)
    return files


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", default=None,
                        help="files or directories (default: src/)")
    parser.add_argument("--rules", default=",".join(RULES),
                        help="comma-separated rule subset to run")
    parser.add_argument("--compile-commands",
                        default=str(REPO / "build" / "compile_commands.json"),
                        help="compilation database for the libclang engine")
    parser.add_argument("--no-libclang", action="store_true",
                        help="force the regex engine")
    parser.add_argument("--list-rules", action="store_true")
    args = parser.parse_args()

    if args.list_rules:
        for r in RULES:
            print(r)
        return 0

    active_rules = set()
    for r in args.rules.split(","):
        r = r.strip()
        if r and r not in RULES:
            print(f"fc_lint: unknown rule '{r}'", file=sys.stderr)
            return 2
        if r:
            active_rules.add(r)

    paths = args.paths if args.paths else [str(REPO / "src")]
    files = collect_files(paths)

    findings = []
    regex_rules = set(active_rules)
    if (not args.no_libclang and "unordered-iteration" in active_rules
            and Path(args.compile_commands).is_file()):
        if try_libclang(files, args.compile_commands, active_rules,
                        findings):
            # Headers still go through the regex engine (no TU of their
            # own); .cc files were AST-checked.
            pass

    for path in files:
        check_file_regex(path, regex_rules, findings)

    # The two engines can overlap on .cc files; report each site once.
    seen = set()
    unique = []
    for f in sorted(findings, key=lambda f: (f.path, f.line, f.rule)):
        key = (f.path, f.line, f.rule)
        if key in seen:
            continue
        seen.add(key)
        unique.append(f)

    for f in unique:
        print(f, file=sys.stderr)
    print(f"fc_lint: {len(files)} files scanned, {len(unique)} finding(s)",
          file=sys.stderr)
    return 1 if unique else 0


if __name__ == "__main__":
    sys.exit(main())
