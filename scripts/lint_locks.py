#!/usr/bin/env python3
"""Lint: no raw standard-library locking primitives outside the wrapper.

Every mutex in the engine must be an oodb::Mutex (and every scoped lock a
MutexLock / UniqueLock, every condition variable an oodb::CondVar) so that
(a) the Clang Thread Safety capability annotations see every acquisition and
(b) the Debug-build lock-rank registry checks every acquisition against the
global order in src/common/mutex.h. A raw std primitive is invisible to
both — one unchecked lock re-opens the deadlock- and data-race surface the
wrappers closed — so this script rejects them repo-wide. The engine has no
reader/writer lock; std::shared_mutex and std::shared_lock stay banned so
that one cannot come back without a ranked, annotated wrapper.

The only files allowed to name the std primitives are the wrapper itself
(src/common/mutex.h / .cc), which is their single point of encapsulation.

Usage: scripts/lint_locks.py [--root DIR]
Exit 0 = clean, 1 = violations (printed as file:line: message).
"""

import argparse
import pathlib
import re
import sys

# The banned surface, each name matched as a full token (a trailing \b plus
# a lookahead so `std::mutex` does not also flag e.g. a hypothetical
# `std::mutex_like` identifier).
BANNED = [
    "std::mutex",
    "std::timed_mutex",
    "std::recursive_mutex",
    "std::recursive_timed_mutex",
    "std::shared_mutex",
    "std::shared_timed_mutex",
    "std::lock_guard",
    "std::unique_lock",
    "std::shared_lock",
    "std::scoped_lock",
    "std::condition_variable",
    "std::condition_variable_any",
]

BANNED_RE = re.compile(
    "(" + "|".join(re.escape(n) for n in BANNED) + r")\b(?!_)"
)

# The wrapper encapsulates the std primitives; nothing else may name them.
ALLOWED = {"src/common/mutex.h", "src/common/mutex.cc"}


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


def check_file(path: pathlib.Path) -> list:
    text = strip_comments_and_strings(path.read_text())
    bad = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        for m in BANNED_RE.finditer(line):
            bad.append((lineno, m.group(1)))
    return bad


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", default=".", help="repository root")
    args = ap.parse_args()
    root = pathlib.Path(args.root)

    violations = 0
    checked = 0
    scan_dirs = [root / "src", root / "tests", root / "bench"]
    for d in scan_dirs:
        if not d.is_dir():
            continue
        for path in sorted(d.rglob("*.cc")) + sorted(d.rglob("*.h")):
            rel = path.relative_to(root).as_posix()
            if rel in ALLOWED:
                continue
            checked += 1
            for lineno, name in check_file(path):
                print(f"{rel}:{lineno}: raw '{name}' — use the annotated "
                      f"wrappers in src/common/mutex.h (Mutex / MutexLock / "
                      f"UniqueLock / CondVar ...)")
                violations += 1

    if violations:
        print(f"lint_locks: {violations} raw locking primitive(s)",
              file=sys.stderr)
        return 1
    print(f"lint_locks: clean ({checked} files checked)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
