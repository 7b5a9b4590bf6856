#!/usr/bin/env python3
"""Lint: no discarded Status / Result return values.

Clang-tidy's bugprone-unused-return-value covers this only where the
[[nodiscard]] attribute is present; this script enforces the convention
repo-wide without needing a compiler. It harvests every function and method
in src/ whose declared return type is `Status` or `Result<...>`, then flags
statements that invoke one of them and ignore the value.

A call is "consumed" when the statement assigns it, returns it, feeds it to
another call, tests it in a condition, or routes it through one of the
project idioms (OODB_RETURN_IF_ERROR / OODB_ASSIGN_OR_RETURN / ASSERT_OK /
EXPECT_OK / an explicit (void) cast).

Usage: scripts/lint_status.py [--root DIR]
Exit 0 = clean, 1 = violations (printed as file:line: message).
"""

import argparse
import pathlib
import re
import sys

DECL_RE = re.compile(
    r"^\s*(?:static\s+|virtual\s+|inline\s+|constexpr\s+|\[\[nodiscard\]\]\s+)*"
    r"(?:Status|Result<[^;=]*>)\s+"
    r"(?:[A-Za-z_]\w*::)*"          # optional class qualification (defs)
    r"([A-Za-z_]\w*)\s*\("
)

# Any declaration shape, to spot names that are *also* declared with a
# non-Status return type somewhere (SimStream::Read vs ObjectStore::Read).
# A grep-level lint cannot resolve which overload a call hits, so ambiguous
# names are excluded from checking rather than risking false positives.
ANY_DECL_RE = re.compile(
    r"^\s*(?:static\s+|virtual\s+|inline\s+|constexpr\s+|explicit\s+"
    r"|\[\[nodiscard\]\]\s+)*"
    r"([A-Za-z_][\w:]*(?:<[^;()]*>)?)[\s*&]+"
    r"([A-Za-z_]\w*)\s*\("
)
KEYWORDS = {"return", "co_return", "throw", "new", "delete", "else", "case",
            "using", "typedef", "goto"}

# Status's named constructors (and similar factories) produce a value from
# nothing; a bare call would be dead code, not a dropped error, and they are
# matched by DECL_RE inside class Status. Keep the harvest honest but skip
# names that never carry an error produced *by the callee's work*.
FACTORY_NAMES = {"OK"}

# Statement openers that consume or legitimately discard the value.
CONSUMED_RE = re.compile(
    r"^\s*(?:return\b|co_return\b|\(void\)|"
    r"OODB_RETURN_IF_ERROR|OODB_ASSIGN_OR_RETURN|"
    r"ASSERT_OK|EXPECT_OK|ASSERT_TRUE|EXPECT_TRUE|ASSERT_FALSE|EXPECT_FALSE|"
    r"if\b|while\b|for\b|switch\b|case\b|else\b|do\b)"
)


def strip_comments_and_strings(text: str) -> str:
    """Blanks comments and string/char literals, preserving line structure."""
    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if ch == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                i += 1
        elif ch == "/" and nxt == "*":
            i += 2
            while i + 1 < n and not (text[i] == "*" and text[i + 1] == "/"):
                if text[i] == "\n":
                    out.append("\n")
                i += 1
            i += 2
        elif ch in "\"'":
            quote = ch
            i += 1
            while i < n and text[i] != quote:
                i += 2 if text[i] == "\\" else 1
            i += 1
            out.append("~")  # keep the token non-empty
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def harvest_names(root: pathlib.Path) -> set:
    names = set()
    ambiguous = set()
    for path in sorted((root / "src").rglob("*.h")):
        text = strip_comments_and_strings(path.read_text())
        for line in text.splitlines():
            m = DECL_RE.match(line)
            if m:
                if m.group(1) not in FACTORY_NAMES:
                    names.add(m.group(1))
                continue
            m = ANY_DECL_RE.match(line)
            if m and m.group(1) not in KEYWORDS:
                ambiguous.add(m.group(2))
    return names - ambiguous


def statements(text: str):
    """Yields (line_number, statement_text) split on ; { }."""
    line = 1
    start_line = 1
    buf = []
    seen_content = False
    for ch in text:
        if not seen_content and not ch.isspace():
            start_line = line
            seen_content = True
        if ch == "\n":
            line += 1
        if ch in ";{}":
            yield start_line, "".join(buf)
            buf = []
            seen_content = False
        else:
            buf.append(ch)
    if buf:
        yield start_line, "".join(buf)


def check_file(path: pathlib.Path, names: set) -> list:
    text = strip_comments_and_strings(path.read_text())
    call_re = re.compile(
        r"^\s*(?:[A-Za-z_]\w*(?:\.|->|::))*(" +
        "|".join(sorted(re.escape(n) for n in names)) + r")\s*\($"
    )
    bad = []
    for lineno, stmt in statements(text):
        stmt = stmt.strip()
        if not stmt or CONSUMED_RE.match(stmt):
            continue
        # Truncate at the first '(' so chained/nested arguments don't hide
        # the callee; a consumed value always has something *before* the
        # call (lvalue =, return, macro) which the regex rejects.
        paren = stmt.find("(")
        if paren < 0 or "=" in stmt[:paren]:
            continue
        head = stmt[: paren + 1]
        m = call_re.match(head)
        if m:
            bad.append((lineno, m.group(1)))
    return bad


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", default=".", help="repository root")
    args = ap.parse_args()
    root = pathlib.Path(args.root)

    names = harvest_names(root)
    if not names:
        print("lint_status: no Status/Result declarations found", file=sys.stderr)
        return 2

    violations = 0
    scan_dirs = [root / "src", root / "tests", root / "bench"]
    for d in scan_dirs:
        if not d.is_dir():
            continue
        for path in sorted(d.rglob("*.cc")) + sorted(d.rglob("*.h")):
            for lineno, name in check_file(path, names):
                print(f"{path.relative_to(root)}:{lineno}: "
                      f"result of '{name}(...)' (Status/Result) is discarded")
                violations += 1

    if violations:
        print(f"lint_status: {violations} discarded Status/Result call(s)",
              file=sys.stderr)
        return 1
    print(f"lint_status: clean ({len(names)} Status/Result-returning "
          f"functions checked)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
