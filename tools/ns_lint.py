#!/usr/bin/env python3
"""netshuffle repo-contract linter (DESIGN.md §10).

Token-aware (comments and string literals are stripped before matching, so
a pattern named in prose does not fire), but deliberately not AST-aware:
every rule is a textual contract chosen to be checkable line-by-line.

Rules
-----
  nondet      Nondeterminism sources (std::rand, std::random_device, wall
              clocks, std::time) inside the deterministic core: shuffle/,
              dp/, graph/, and util/rng.h.  The repo's contract is
              bit-identical output for a fixed seed at any thread count;
              one wall-clock read anywhere in those dirs breaks it.
  narrow32    Raw static_cast<uint32_t> narrowing in library dirs.  The
              CSR offset columns are uint32; a silently wrapped narrowing
              corrupts every slice after it, so narrowing goes through
              CheckedNarrow32 (core/status.h) unless a justified allow
              marker argues the bound.
  nodiscard   A bare-statement call to a function whose only declared
              return type in the library headers is Status or Expected<T>.
              The compiler enforces this too ([[nodiscard]] on both types);
              the lint keeps the contract visible in CI logs and in
              pre-build review.  Names that are ALSO declared with a void
              return anywhere (e.g. Step, BeginEpoch) are skipped as
              ambiguous — the attribute still covers them.
  wire        Raw memcpy / reinterpret_cast anywhere in shuffle/.  An
              ad-hoc struct memcpy is unchecked, endian- and padding-
              fragile serialization; byte encodings are written byte at a
              time (shuffle/aead.cc's little-endian helpers).  In-process
              uses (typed payload columns, heap<->mmap moves, SIMD register
              stores) carry a justified allow marker.
  tsa-escape  NS_NO_THREAD_SAFETY_ANALYSIS outside util/annotations.h.
              The repo contract is zero escapes: an annotation that will
              not typecheck is a design finding to fix, not to suppress.
  marker      A malformed `ns-lint: allow(...)` marker — unknown rule id,
              or no justification after the colon.  An unjustified
              suppression is itself a finding.
  schema      bench/experiment_common.h's emitted "schema_version" must
              match the "schema_version" of every bench/baseline_*.json
              (and each baseline must carry one): the perf gate compares
              fields across that boundary.

Suppression: `// ns-lint: allow(<rule>): <justification>` on the flagged
line or within the three lines above it.

Usage:
  python3 tools/ns_lint.py [--root DIR]   lint the tree (exit 1 on findings)
  python3 tools/ns_lint.py --self-test    run the linter against the known-
                                          bad fixtures in tests/lint_fixtures/
                                          and the in-process schema cases
"""

import argparse
import json
import re
import sys
from pathlib import Path

RULES = ("nondet", "narrow32", "nodiscard", "wire", "tsa-escape", "marker",
         "schema")

LIB_DIRS = ("core", "shuffle", "dp", "graph", "estimation", "util", "data")
NONDET_DIRS = ("shuffle", "dp", "graph")
NONDET_FILES = ("util/rng.h",)

# Directories never linted: generated trees and the deliberately-bad
# fixture corpus.
SKIP_PARTS = {".git", "build", "build-tsan", "build-clang", "lint_fixtures"}

NONDET_PATTERNS = (
    (re.compile(r"std::rand\b|[^\w:.]s?rand\s*\("), "C rand()/srand()"),
    (re.compile(r"\brandom_device\b"), "std::random_device"),
    (re.compile(r"\bsystem_clock\b|\bsteady_clock\b|\bhigh_resolution_clock\b"),
     "a clock read"),
    (re.compile(r"std::time\s*\(|[^\w:.]time\s*\(\s*(?:NULL|nullptr|0)\s*\)"),
     "std::time()"),
)

NARROW_RE = re.compile(r"static_cast<\s*(?:std::)?uint32_t\s*>")
WIRE_RE = re.compile(r"\bmemcpy\s*\(|\breinterpret_cast\b")
MARKER_RE = re.compile(r"ns-lint:\s*allow\(([^)]*)\)(:?)\s*(.*)")
DECL_RE = re.compile(
    r"(?:^|[;{}]\s*|\s)(?:static\s+)?(Status|Expected<[^;={}()]*>)\s+"
    r"([A-Za-z_]\w*)\s*\(")
VOID_DECL_RE = re.compile(r"(?:^|[;{}]\s*|\s)void\s+([A-Za-z_]\w*)\s*\(")
# A whole-statement call: optional receiver chain, the name, one balanced-ish
# argument list, and the statement terminator — nothing consuming the result.
BARE_CALL_RE = re.compile(
    r"^\s*(?:[A-Za-z_]\w*(?:\.|->|::))*([A-Za-z_]\w*)\s*\(.*\)\s*;\s*$")
# A previous line ending in any of these means the current line continues an
# expression (the result IS consumed), not a fresh statement.
CONTINUATION_TAIL = re.compile(r"(?:[=(,+\-*/<>?:]|&&|\|\||\breturn|\bco_return)\s*$")
SCHEMA_EMIT_RE = re.compile(r"\\\"schema_version\\\":\s*(\d+)")


def strip_code(text):
    """Blanks comments and string/char literals, preserving line structure.

    Handles //, /* */, "...", '...' with backslash escapes.  Raw strings are
    not special-cased (none in this tree hold lintable tokens).
    """
    out = []
    i, n = 0, len(text)
    state = None  # None | "line" | "block" | '"' | "'"
    while i < n:
        c = text[i]
        if state is None:
            if c == "/" and i + 1 < n and text[i + 1] == "/":
                state = "line"
                out.append("  ")
                i += 2
                continue
            if c == "/" and i + 1 < n and text[i + 1] == "*":
                state = "block"
                out.append("  ")
                i += 2
                continue
            if c in "\"'":
                state = c
                out.append(c)
                i += 1
                continue
            out.append(c)
        elif state == "line":
            if c == "\n":
                state = None
                out.append(c)
            else:
                out.append(" ")
        elif state == "block":
            if c == "*" and i + 1 < n and text[i + 1] == "/":
                state = None
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        else:  # inside a quoted literal
            if c == "\\" and i + 1 < n:
                out.append("  ")
                i += 2
                continue
            if c == state:
                state = None
                out.append(c)
            elif c == "\n":  # unterminated (multiline macro string); recover
                state = None
                out.append(c)
            else:
                out.append(" ")
        i += 1
    return "".join(out).split("\n")


class Finding:
    def __init__(self, path, line, rule, message):
        self.path, self.line, self.rule, self.message = path, line, rule, message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def parse_markers(raw_lines):
    """Returns ({line_no: set(rules)}, [malformed Finding args])."""
    allows, malformed = {}, []
    for ln, raw in enumerate(raw_lines, 1):
        m = MARKER_RE.search(raw)
        if not m:
            continue
        rule, colon, rest = m.group(1).strip(), m.group(2), m.group(3).strip()
        if rule not in RULES:
            malformed.append((ln, f"allow marker names unknown rule '{rule}'"))
        elif not colon or not rest:
            malformed.append(
                (ln, f"allow({rule}) marker has no justification — an "
                     "unjustified suppression is itself a finding"))
        else:
            allows.setdefault(ln, set()).add(rule)
    return allows, malformed


def allowed(allows, line_no, rule):
    return any(rule in allows.get(ln, ())
               for ln in range(max(1, line_no - 3), line_no + 1))


def collect_return_names(root):
    """Status/Expected-returning names from library headers, minus names that
    are also declared void anywhere (ambiguous)."""
    status_names, void_names = set(), set()
    for d in LIB_DIRS:
        for path in sorted((root / d).glob("**/*.h")):
            code = "\n".join(strip_code(path.read_text(errors="replace")))
            for m in DECL_RE.finditer(code):
                status_names.add(m.group(2))
            for m in VOID_DECL_RE.finditer(code):
                void_names.add(m.group(1))
    return status_names - void_names


def lint_file(rel, raw_lines, code_lines, status_names):
    findings = []
    allows, malformed = parse_markers(raw_lines)
    for ln, msg in malformed:
        findings.append(Finding(rel, ln, "marker", msg))

    in_nondet = rel.startswith(tuple(d + "/" for d in NONDET_DIRS)) or \
        rel in NONDET_FILES
    in_lib = rel.startswith(tuple(d + "/" for d in LIB_DIRS))

    prev_code = ""
    for ln, code in enumerate(code_lines, 1):
        stripped = code.strip()
        if in_nondet:
            for pat, what in NONDET_PATTERNS:
                if pat.search(code) and not allowed(allows, ln, "nondet"):
                    findings.append(Finding(
                        rel, ln, "nondet",
                        f"{what} in the deterministic core: output must be "
                        "bit-identical for a fixed seed (seed util/rng.h "
                        "streams instead)"))
        if in_lib and rel != "core/status.h" and NARROW_RE.search(code):
            if not allowed(allows, ln, "narrow32"):
                findings.append(Finding(
                    rel, ln, "narrow32",
                    "raw static_cast<uint32_t> narrowing: use CheckedNarrow32 "
                    "(core/status.h) or justify the bound with an allow "
                    "marker"))
        if rel.startswith("shuffle/") and WIRE_RE.search(code) and \
                not allowed(allows, ln, "wire"):
            findings.append(Finding(
                rel, ln, "wire",
                "raw memcpy/reinterpret_cast in shuffle/: encode bytes one "
                "at a time, or justify the in-process use with an allow "
                "marker"))
        if rel != "util/annotations.h" and \
                "NS_NO_THREAD_SAFETY_ANALYSIS" in code and \
                not allowed(allows, ln, "tsa-escape"):
            findings.append(Finding(
                rel, ln, "tsa-escape",
                "NS_NO_THREAD_SAFETY_ANALYSIS outside util/annotations.h: an "
                "annotation that will not typecheck is a design finding to "
                "fix, not to suppress"))
        m = BARE_CALL_RE.match(code)
        if m and m.group(1) in status_names and \
                not CONTINUATION_TAIL.search(prev_code) and \
                not allowed(allows, ln, "nodiscard"):
            findings.append(Finding(
                rel, ln, "nodiscard",
                f"result of {m.group(1)}() (Status/Expected) is discarded: "
                "check it or fail loudly"))
        if stripped:
            prev_code = stripped
    return findings


def check_schema(emit_text, baselines):
    """baselines: {name: json text}.  Returns [(name_or_None, message)]."""
    problems = []
    m = SCHEMA_EMIT_RE.search(emit_text)
    if not m:
        return [(None, "bench/experiment_common.h no longer emits "
                       '"schema_version"')]
    emitted = int(m.group(1))
    for name, text in sorted(baselines.items()):
        try:
            doc = json.loads(text)
        except ValueError as e:
            problems.append((name, f"unparseable JSON: {e}"))
            continue
        if "schema_version" not in doc:
            problems.append(
                (name, f'missing "schema_version" (harnesses emit '
                       f"{emitted}; the perf gate compares fields across "
                       "that schema)"))
        elif doc["schema_version"] != emitted:
            problems.append(
                (name, f'"schema_version" is {doc["schema_version"]} but '
                       f"bench/experiment_common.h emits {emitted}"))
    return problems


def lint_tree(root):
    status_names = collect_return_names(root)
    findings = []
    for path in sorted(root.glob("**/*")):
        if path.suffix not in (".h", ".cc", ".cpp"):
            continue
        if SKIP_PARTS.intersection(path.relative_to(root).parts):
            continue
        rel = path.relative_to(root).as_posix()
        raw = path.read_text(errors="replace")
        findings.extend(
            lint_file(rel, raw.split("\n"), strip_code(raw), status_names))

    common = root / "bench" / "experiment_common.h"
    baselines = {p.relative_to(root).as_posix(): p.read_text()
                 for p in sorted((root / "bench").glob("baseline_*.json"))}
    if common.exists():
        for name, msg in check_schema(common.read_text(), baselines):
            findings.append(Finding(name or "bench/experiment_common.h", 1,
                                    "schema", msg))
    return findings


# ---- self-test ------------------------------------------------------------

FIXTURE_HEADER_RE = re.compile(
    r"//\s*ns-lint-fixture:\s*as=(\S+)\s+expects=(\S*)")


def self_test(root):
    status_names = collect_return_names(root)
    failures = []
    fixture_dir = root / "tests" / "lint_fixtures"
    fixtures = sorted(fixture_dir.glob("*"))
    if not fixtures:
        failures.append(f"no fixtures found under {fixture_dir}")
    for path in fixtures:
        raw = path.read_text(errors="replace")
        m = FIXTURE_HEADER_RE.match(raw.splitlines()[0] if raw else "")
        if not m:
            failures.append(f"{path.name}: missing '// ns-lint-fixture: "
                            "as=<path> expects=<rules>' header")
            continue
        rel, expects = m.group(1), sorted(r for r in m.group(2).split(",") if r)
        got = sorted(f.rule for f in lint_file(
            rel, raw.split("\n"), strip_code(raw), status_names))
        if got != expects:
            failures.append(
                f"{path.name}: expected rules {expects}, got {got}")

    # The schema rule is exercised in-process with synthesized inputs (the
    # real baselines must stay clean, so no on-disk bad fixture exists).
    emit = '    std::fprintf(f, "  \\"schema_version\\": 7,\\n");'
    cases = [
        ({"b.json": '{"schema_version": 7}'}, 0, "matching version"),
        ({"b.json": '{"schema_version": 6}'}, 1, "stale version"),
        ({"b.json": '{"name": "x"}'}, 1, "missing field"),
        ({"b.json": '{broken'}, 1, "unparseable baseline"),
    ]
    for baselines, want, label in cases:
        n = len(check_schema(emit, baselines))
        if n != want:
            failures.append(
                f"schema self-test '{label}': expected {want} problem(s), "
                f"got {n}")
    if check_schema("no emission here", {}) == []:
        failures.append("schema self-test: missing emission not detected")

    # The clean-tree invariant is part of the self-test: the fixtures prove
    # the rules fire, this proves they are quiet where they must be.
    tree = lint_tree(root)
    for f in tree:
        failures.append(f"clean-tree violation: {f}")

    return failures


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=str(Path(__file__).resolve().parent.parent),
                    help="repo root to lint (default: the checkout)")
    ap.add_argument("--self-test", action="store_true",
                    help="run against tests/lint_fixtures/ and exit")
    args = ap.parse_args()
    root = Path(args.root)

    if args.self_test:
        failures = self_test(root)
        if failures:
            for f in failures:
                print(f"ns_lint self-test FAIL: {f}", file=sys.stderr)
            return 1
        print("ns_lint self-test: all fixtures and schema cases pass; "
              "tree is clean")
        return 0

    findings = lint_tree(root)
    for f in findings:
        print(f)
    if findings:
        print(f"ns_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("ns_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
