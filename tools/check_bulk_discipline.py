#!/usr/bin/env python3
"""Bulk-discipline lint for the SCM simulator sources.

The sharded bulk engine (Machine::send_bulk / op_bulk / send_elements)
assumes every round is issued as one batch, under a named phase, over
storage that outlives the call. This lint enforces the source-level half
of that contract; the runtime half (batch independence) is checked by
src/spatial/independence.*. Three rules:

  scalar-send-in-bulk-round
      A scalar Machine::send() inside a loop that also builds or flushes
      a bulk batch. Scalar sends inside a bulk round loop are charged one
      virtual dispatch each, dodge the batch-independence footprint of
      the round, and usually indicate a half-converted loop. Either batch
      the message or hoist it out of the round loop.

  bulk-call-outside-phase
      A *_bulk / send_elements call with no PhaseScope declared in any
      enclosing block of the same function. Phase scopes are how bulk
      rounds are attributed (profiler phase tree, conformance imbalance,
      per-phase independence footprints); an unphased bulk call files its
      cost and its conflicts under the root. Helpers that deliberately
      rely on the *caller's* scope must say so with a suppression.

  span-of-temporary
      A named std::span variable initialized from a function call's
      return value. The temporary dies at the end of the declaration and
      the span dangles before the first use. Bind the owning container to
      a named variable first.

Suppression: append `// bulk-ok: <reason>` to the flagged line (or the
line directly above it). The reason is mandatory — a bare `bulk-ok` is
itself a finding.

Exit status: 0 when clean, 1 when findings (or bad suppressions) exist,
2 on usage errors. `--self-test` runs the embedded fixtures and exits
0/1; CI runs it before the real scan so rule regressions fail loudly.

This is a lexical, brace-tracking heuristic, not a parser: it is tuned
to this repository's style (Allman-free, clang-format'd) and errs toward
silence on constructs it cannot classify.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

# Implementation of the charging/observability machinery itself: these
# files *define* the bulk engine and its oracles, so "bulk call without a
# phase" is their job description, not a finding.
DEFAULT_EXCLUDE = (
    "src/spatial/machine.hpp",
    "src/spatial/machine.cpp",
    "src/spatial/trace.hpp",
    "src/spatial/trace.cpp",
    "src/spatial/bulk_ab.hpp",
    "src/spatial/profile.hpp",
    "src/spatial/profile.cpp",
    "src/spatial/independence.hpp",
    "src/spatial/independence.cpp",
)

BULK_CALL = re.compile(
    r"\b(?:send_bulk|op_bulk|birth_bulk|death_bulk|send_elements)\s*\(")
SCALAR_SEND = re.compile(r"\.\s*send\s*\(")
PHASE_SCOPE = re.compile(r"\bPhaseScope\b")
LOOP_HEADER = re.compile(r"^\s*(?:for|while)\s*\(")
# `std::span<...> name = make_something(...)` — a free call's return value
# dies at the `;`. Method calls on a named object (`m.touched_phases()`)
# are the repo's standard safe idiom (a span over the object's own storage)
# and are not matched, nor are plain `= variable` copies or the direct
# constructor form `std::span<...> name(container)`.
SPAN_OF_TEMPORARY = re.compile(
    r"\bstd::span<[^;{}=]*>\s+\w+\s*=\s*(?!std::span\s*\()"
    r"[A-Za-z_][\w:]*\s*\(")
SUPPRESS = re.compile(r"//\s*bulk-ok\b:?\s*(.*)$")
CONTROL_HEADER = re.compile(
    r"^\s*(?:if|else|for|while|switch|do|namespace|struct|class|enum|union"
    r"|try|catch)\b")


class Finding:
    def __init__(self, path: str, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(line: str) -> str:
    """Blanks string/char literals and drops the trailing // comment so
    the matchers never fire inside documentation or log text."""
    out = []
    i, n = 0, len(line)
    while i < n:
        c = line[i]
        if c == '/' and i + 1 < n and line[i + 1] == '/':
            break
        if c in ('"', "'"):
            quote = c
            out.append(' ')
            i += 1
            while i < n:
                if line[i] == '\\':
                    i += 2
                    continue
                if line[i] == quote:
                    i += 1
                    break
                i += 1
            continue
        out.append(c)
        i += 1
    return ''.join(out)


class Block:
    """One open `{` scope: what it is and what it has seen so far."""

    def __init__(self, is_loop: bool, is_function: bool):
        self.is_loop = is_loop
        self.is_function = is_function
        self.has_phase_scope = False
        # Function blocks: whether any bulk call appeared, and the lines
        # of scalar sends seen inside loops of this function. Flagged at
        # block close only when both are present — a scalar send chain in
        # a function with no bulk traffic is legitimate (dependent-chain
        # algorithms), and a lambda is its own function for this rule.
        self.saw_bulk_call = False
        self.loop_sends: list[int] = []


def check_file(path: pathlib.Path, rel: str) -> list[Finding]:
    findings: list[Finding] = []
    try:
        text = path.read_text(encoding="utf-8", errors="replace")
    except OSError as err:
        return [Finding(rel, 0, "io", str(err))]

    stack: list[Block] = []
    # Header text accumulated since the last `{`/`}`/`;` — classifies the
    # next opened block as loop / function / other.
    pending_header = ""
    paren_depth = 0
    prev_suppressed: tuple[bool, str] = (False, "")

    for lineno, raw in enumerate(text.splitlines(), start=1):
        sup = SUPPRESS.search(raw)
        suppressed = sup is not None or prev_suppressed[0]
        if sup is not None and not sup.group(1).strip():
            findings.append(Finding(
                rel, lineno, "bad-suppression",
                "bulk-ok needs a reason: `// bulk-ok: <why this is safe>`"))
        code = strip_comments_and_strings(raw)
        # A suppression on its own comment line covers the next code line.
        prev_suppressed = (sup is not None and not code.strip(), rel)

        if PHASE_SCOPE.search(code) and stack:
            stack[-1].has_phase_scope = True

        # Index of the innermost enclosing function block, if any.
        func_idx = next((i for i in range(len(stack) - 1, -1, -1)
                         if stack[i].is_function), None)

        bulk_match = BULK_CALL.search(code)
        if bulk_match is not None:
            # `void send_elements(...)` is a declaration, not a call: skip
            # when the name is preceded by a type-ish token (identifier,
            # `>`, `&`, `*`) other than `return`.
            prefix = code[:bulk_match.start()]
            if re.search(r"[\w>\]&*]\s+$", prefix) and \
                    not prefix.rstrip().endswith("return"):
                bulk_match = None
        if bulk_match is not None:
            if func_idx is not None:
                stack[func_idx].saw_bulk_call = True
            if not suppressed and \
                    not any(b.has_phase_scope for b in stack):
                findings.append(Finding(
                    rel, lineno, "bulk-call-outside-phase",
                    "bulk call with no enclosing PhaseScope; open one, or "
                    "suppress with `// bulk-ok: caller holds the phase "
                    "scope` if this is a helper"))

        if SCALAR_SEND.search(code) and not BULK_CALL.search(code) \
                and not suppressed and func_idx is not None:
            # `.send(` that is not `.send_bulk(` etc. (BULK_CALL would
            # have matched those names instead), inside a loop of the
            # innermost function.
            if any(b.is_loop for b in stack[func_idx + 1:]):
                stack[func_idx].loop_sends.append(lineno)

        if SPAN_OF_TEMPORARY.search(code) and not suppressed:
            findings.append(Finding(
                rel, lineno, "span-of-temporary",
                "std::span bound to a temporary return value dangles "
                "immediately; name the owning container first"))

        # Brace tracking. clang-format keeps `{` on the statement line,
        # so the pending header at each `{` classifies the block. `;` only
        # ends a header at paren depth 0 (a for-header's semicolons must
        # not split it).
        for ch in code:
            if ch == '(':
                paren_depth += 1
            elif ch == ')':
                paren_depth = max(0, paren_depth - 1)
            if ch == '{':
                header = pending_header
                is_loop = LOOP_HEADER.match(header) is not None
                is_function = (
                    not is_loop
                    and CONTROL_HEADER.match(header) is None
                    and '(' in header)
                stack.append(Block(is_loop, is_function))
                pending_header = ""
            elif ch == '}':
                if stack:
                    closed = stack.pop()
                    if closed.is_function and closed.saw_bulk_call:
                        for send_line in closed.loop_sends:
                            findings.append(Finding(
                                rel, send_line, "scalar-send-in-bulk-round",
                                "scalar Machine::send() in a round loop of "
                                "a function that issues bulk batches; "
                                "batch the message or hoist it out of the "
                                "round"))
                pending_header = ""
            elif ch == ';' and paren_depth == 0:
                pending_header = ""
            else:
                pending_header += ch
        if pending_header:
            pending_header += "\n"

    return findings


def gather_sources(roots: list[str], repo: pathlib.Path) -> list[pathlib.Path]:
    files: list[pathlib.Path] = []
    for root in roots:
        p = (repo / root) if not pathlib.Path(root).is_absolute() \
            else pathlib.Path(root)
        if p.is_file():
            files.append(p)
            continue
        files.extend(sorted(p.rglob("*.hpp")))
        files.extend(sorted(p.rglob("*.cpp")))
    excluded = {repo / e for e in DEFAULT_EXCLUDE}
    return [f for f in sorted(set(files)) if f not in excluded]


# --- self test -------------------------------------------------------------

SELF_TEST_CASES = [
    # (name, source, expected rule names in line order)
    ("scalar send mixed into a batch loop", """
void round(Machine& m, GridArray<int>& a) {
  Machine::PhaseScope scope(m, "round");
  std::vector<MessageEvent> batch;
  for (index_t i = 0; i < a.size(); ++i) {
    batch.push_back(make_event(a, i));
    m.send(a.coord(i), a.coord(0), a[i].clock);
  }
  m.send_bulk(batch);
}
""", ["scalar-send-in-bulk-round"]),
    ("scalar send loop with no batch is fine", """
void chain(Machine& m, GridArray<int>& a) {
  Machine::PhaseScope scope(m, "chain");
  for (index_t i = 1; i < a.size(); ++i) {
    m.send(a.coord(i - 1), a.coord(i), a[i].clock);
  }
}
""", []),
    ("bulk call without a phase scope", """
void flush(Machine& m, std::vector<MessageEvent>& batch) {
  m.send_bulk(batch);
}
""", ["bulk-call-outside-phase"]),
    ("suppressed helper is fine", """
void flush(Machine& m, std::vector<MessageEvent>& batch) {
  m.send_bulk(batch);  // bulk-ok: caller holds the phase scope
}
""", []),
    ("suppression on the previous line also works", """
void flush(Machine& m, std::vector<MessageEvent>& batch) {
  // bulk-ok: caller holds the phase scope
  m.send_bulk(batch);
}
""", []),
    ("reason-less suppression is itself a finding", """
void flush(Machine& m, std::vector<MessageEvent>& batch) {
  m.send_bulk(batch);  // bulk-ok
}
""", ["bad-suppression"]),
    ("phase scope in an enclosing block exempts the call", """
void round(Machine& m, std::vector<MessageEvent>& batch) {
  Machine::PhaseScope scope(m, "round");
  for (int step = 0; step < 3; ++step) {
    m.send_bulk(batch);
  }
}
""", []),
    ("span bound to a temporary", """
void use(Machine& m) {
  std::span<const MessageEvent> s = make_batch();
  m.send_bulk(s);  // bulk-ok: fixture
}
""", ["span-of-temporary"]),
    ("span over a named container is fine", """
void use(Machine& m, const std::vector<MessageEvent>& batch) {
  Machine::PhaseScope scope(m, "use");
  std::span<const MessageEvent> s = batch;
  m.send_bulk(s);
}
""", []),
    ("a bulk-named function definition is not a call", """
template <class T>
void send_elements(Machine& m, const GridArray<T>& src, GridArray<T>& dst,
                   std::span<const std::pair<index_t, index_t>> moves) {
  std::vector<MessageEvent> batch(moves.size());
  m.send_bulk(batch);  // bulk-ok: caller holds the phase scope
}
""", []),
    ("bulk names inside strings and comments never match", """
void doc(Machine& m) {
  Machine::PhaseScope scope(m, "doc");
  log("call send_bulk(batch) under a phase");
  // send_bulk(batch) outside a phase would be flagged
}
""", []),
]


def self_test() -> int:
    import tempfile
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        for i, (name, source, expected) in enumerate(SELF_TEST_CASES):
            p = pathlib.Path(tmp) / f"case_{i}.hpp"
            p.write_text(source, encoding="utf-8")
            got = [f.rule for f in check_file(p, p.name)]
            if got != expected:
                failures += 1
                print(f"self-test FAIL: {name}\n  expected {expected}\n"
                      f"  got      {got}", file=sys.stderr)
    if failures:
        print(f"self-test: {failures} case(s) failed", file=sys.stderr)
        return 1
    print(f"self-test: {len(SELF_TEST_CASES)} cases ok")
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description="Bulk-discipline lint (see module docstring).")
    parser.add_argument("roots", nargs="*", default=["src"],
                        help="files or directories to scan (default: src)")
    parser.add_argument("--repo", default=None,
                        help="repository root (default: parent of tools/)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the embedded rule fixtures and exit")
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test()

    repo = pathlib.Path(args.repo) if args.repo else \
        pathlib.Path(__file__).resolve().parent.parent
    roots = args.roots if args.roots else ["src"]
    files = gather_sources(roots, repo)
    if not files:
        print(f"check_bulk_discipline: no sources under {roots}",
              file=sys.stderr)
        return 2

    findings: list[Finding] = []
    for f in files:
        try:
            rel = str(f.relative_to(repo))
        except ValueError:
            rel = str(f)
        findings.extend(check_file(f, rel))

    for finding in findings:
        print(finding)
    if findings:
        print(f"check_bulk_discipline: {len(findings)} finding(s) in "
              f"{len(files)} files", file=sys.stderr)
        return 1
    print(f"check_bulk_discipline: clean ({len(files)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
