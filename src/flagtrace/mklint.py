"""Makefile near-miss macro linter.

Finds macro assignments whose name is a small edit away from a
well-known build variable (CXFLAGS for CXXFLAGS) and that are never
expanded anywhere in the scanned files: an assigned-but-never-read
near-miss is the typo signature.

The scan is purely lexical: conditional branches are not evaluated, so
a typo inside a platform conditional we cannot take on this host is
still caught. Lines are joined by `cmdline.logical_lines`, the joiner
build logs use, so linting needs no more of flagtrace than `cmdline`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from os.path import commonprefix

from .cmdline import logical_lines

BUILTIN_VOCABULARY = frozenset({
    "CFLAGS", "CXXFLAGS", "CPPFLAGS", "LDFLAGS", "LDLIBS",
    "ASFLAGS", "ARFLAGS", "YFLAGS", "LFLAGS",
})

DEFAULT_THRESHOLD = 2

_ASSIGN = re.compile(
    r"^\s*(?:export\s+|override\s+)*([^\s:#=$]+?)\s*(\+=|\?=|::=|:=|=)(.*)$"
)
_EXPANSION = re.compile(r"\$[({]([A-Za-z0-9_.%-]+)[)}]")
_INCLUDE = re.compile(r"^\s*[-s]?include\s+(.+)$")

_OP_NAMES = {"=": "recursive", ":=": "simple", "::=": "simple", "+=": "append", "?=": "conditional"}


@dataclass(frozen=True)
class MacroAssignment:
    name: str
    op: str  # recursive | simple | append | conditional
    line: int
    value_text: str
    path: str


@dataclass(frozen=True)
class LintFinding:
    name: str
    line: int
    suggestion: str
    distance: int
    path: str


def levenshtein(a: str, b: str) -> int:
    """Standard dynamic-programming edit distance (insert/delete/substitute)."""
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def scan_makefile(path: str, _depth: int = 0) -> tuple[list[MacroAssignment], set[str]]:
    """Lexically scan one makefile (plus one level of includes).

    Returns the macro assignments found on non-recipe lines and the set
    of names expanded anywhere, recipes included. Malformed lines are
    simply skipped; only I/O errors propagate.
    """
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        text = fh.read()
    assignments: list[MacroAssignment] = []
    expansions: set[str] = set()
    for lineno, line in logical_lines(text):
        expansions.update(_EXPANSION.findall(line))
        if line.startswith("\t"):
            continue  # recipe line: shell territory, not make macros
        stripped = line.split("#", 1)[0]
        inc = _INCLUDE.match(stripped)
        if inc and _depth < 1:
            base = path.replace("\\", "/").rsplit("/", 1)[0] if "/" in path.replace("\\", "/") else "."
            for name in inc.group(1).split():
                if "$" in name:
                    continue
                sub = name if name.startswith("/") else f"{base}/{name}"
                try:
                    sub_assign, sub_expand = scan_makefile(sub, _depth + 1)
                except (OSError, ValueError):  # ValueError: a NUL in the name names no file
                    continue
                assignments.extend(sub_assign)
                expansions.update(sub_expand)
            continue
        m = _ASSIGN.match(stripped)
        if not m:
            continue
        name, op, value = m.group(1), m.group(2), m.group(3).strip()
        assignments.append(MacroAssignment(name, _OP_NAMES[op], lineno, value, path))
    return assignments, expansions


def suggest(name: str, vocabulary: frozenset | set) -> tuple[str, int]:
    """Nearest vocabulary word; ties prefer the longest shared prefix,
    then lexicographic order (so CXFLAGS suggests CXXFLAGS, not CFLAGS)."""
    distance, _, word = min((levenshtein(name, w), -len(commonprefix((name, w))), w)
                            for w in vocabulary)
    return word, distance


def lint(
    assignments: list[MacroAssignment],
    expansions: set[str],
    vocabulary: frozenset | set | None = None,
) -> list[LintFinding]:
    vocab = BUILTIN_VOCABULARY if vocabulary is None else frozenset(vocabulary)
    findings = []
    for a in assignments:
        if a.name in vocab or a.name in expansions:
            continue
        word, dist = suggest(a.name, vocab)
        if 1 <= dist <= DEFAULT_THRESHOLD:
            findings.append(LintFinding(a.name, a.line, word, dist, a.path))
    findings.sort(key=lambda f: (f.path, f.line))
    return findings
