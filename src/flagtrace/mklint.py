"""Makefile near-miss macro linter.

Finds macro assignments whose name is a small edit away from a
well-known build variable (CXFLAGS for CXXFLAGS) and that are never
expanded anywhere in the scanned files: an assigned-but-never-read
near-miss is the typo signature.

The scan is purely lexical: conditional branches are not evaluated, so
a typo inside a platform conditional we cannot take on this host is
still caught. A file's text is `cmdline.read_text`'s and its lines are
joined by `cmdline.logical_lines`, as for a build log, so linting needs
no more of flagtrace than `cmdline`. An assignment is `NAME = value`
(or `+=`, `?=`, `:=`, `::=`), plain or after `export`/`override`, or the
same after a rule's targets and colon (`app: CXFLAGS = -O2`), a
target-specific assignment. An include is found beside its makefile by
the host's path rule, and read only if it is a regular file.

A name counts as expanded where `$(NAME)` or `${NAME}` appears in a
scanned file, or where it starts a substitution reference, `$(NAME:a=b)`
or `${NAME:a=b}`, as GNU make reads one; `$$` is a literal dollar, so
`$$(NAME)` is none. A comment is not read, except on a recipe line, which
make expands before the shell sees its `#`. As make reads a line, its
comment starts at the first `#` that is neither after an odd run of
backslashes nor inside a `$(…)` or `${…}` reference or `$#`. No expansion
holds a `#`, blank, line break or backslash, so one scan of the whole text,
less one of each comment, finds the names a scan of each logical line would.

The distance is the exact Levenshtein distance (insert, delete,
substitute), computed by Myers' bit-vector algorithm (J. ACM 46(3), 1999)
in Hyyrö's form for edit distance (2001).
"""

from __future__ import annotations

import os
import re
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

from .cmdline import logical_lines, read_text

BUILTIN_VOCABULARY = frozenset({
    "CFLAGS", "CXXFLAGS", "CPPFLAGS", "LDFLAGS", "LDLIBS",
    "ASFLAGS", "ARFLAGS", "YFLAGS", "LFLAGS",
})

DEFAULT_THRESHOLD = 2

_NAME_OP = r"\s*(?:export\s+|override\s+)*([^\s:#=$]+?)\s*(?:\+=|\?=|::=|:=|=)"
_ASSIGN = re.compile("^" + _NAME_OP)
# `targets: NAME = value`, a target-specific assignment; a colon inside `$(…)` or `${…}`
# (one level of nesting deep) belongs to a reference, not to the rule.
_TARGET_ASSIGN = re.compile(r"^(?:[^:$]|\$(?:\((?:[^()]|\([^()]*\))*\)|\{(?:[^{}]|\{[^{}]*\})*\}|[^({]))+:"
                            + _NAME_OP)
_EXPANSION = re.compile(r"\$(?:\$|[({]([A-Za-z0-9_.%-]+)[:)}])")  # `$$` gives the empty name
_INCLUDE = re.compile(r"^\s*[-s]?include\s+(.+)$")
_HASH_OR_REFERENCE = re.compile(r"[#$]")


class MacroAssignment(NamedTuple):
    name: str
    line: int
    path: str


@dataclass(frozen=True)
class LintFinding:
    name: str
    line: int
    suggestion: str
    distance: int
    path: str


def levenshtein(a: str, b: str) -> int:
    """Edit distance (insert/delete/substitute) by Hyyrö's bit-vector algorithm.

    Bit i of each vector stands for row i + 1 of the dynamic-programming
    table, whose rows follow the shorter string. `pv`/`mv` mark the rows
    whose vertical difference is +1/-1, and `score` follows the last row,
    so the distance is exact for strings of any length.
    """
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    peq: dict[str, int] = {}
    for i, c in enumerate(b):
        peq[c] = peq.get(c, 0) | 1 << i
    mask = (1 << len(b)) - 1
    last = 1 << (len(b) - 1)
    pv, mv, score = mask, 0, len(b)
    for c in a:
        eq = peq.get(c, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & last:
            score += 1
        elif mh & last:
            score -= 1
        ph = ph << 1 | 1
        mh <<= 1
        pv = (mh | ~(xv | ph)) & mask
        mv = ph & xv
    return score


def split_comment(line: str) -> tuple[str, str]:
    """A logical line before its comment, and the comment after its `#` ("" for none), as make
    splits them: a `#` after an odd run of backslashes, or inside a reference (to its matching
    close, counting only its own kind of parenthesis), is literal."""
    i = 0
    while m := _HASH_OR_REFERENCE.search(line, i):
        i = m.end()
        if m[0] == "#":
            if (i - 1 - len(line[:i - 1].rstrip("\\"))) % 2 == 0:
                return line[:i - 1], line[i:]
            continue
        opener, i = line[i:i + 1], i + 1  # `$` and one character, `$$` and `$#` among them
        if opener in ("(", "{"):
            closer, depth = ")" if opener == "(" else "}", 1
            while depth and i < len(line):
                depth += (line[i] == opener) - (line[i] == closer)
                i += 1
    return line, ""


def scan_makefile(path: str, _depth: int = 0) -> tuple[list[MacroAssignment], set[str]]:
    """Lexically scan one makefile (plus one level of includes).

    Returns the macro assignments found on non-recipe lines and the set
    of names expanded outside comments, recipes included. Malformed lines
    are simply skipped; only the named file's I/O errors propagate.
    """
    text = read_text(path)
    assignments: list[MacroAssignment] = []
    counts = Counter(_EXPANSION.findall(text))  # a comment's expansions are taken off below
    for lineno, line in logical_lines(text):
        if line.startswith("\t"):
            continue  # recipe line: shell territory, not make macros
        stripped, comment = split_comment(line) if "#" in line else (line, "")
        if comment:
            counts.subtract(_EXPANSION.findall(comment))
        inc = _INCLUDE.match(stripped)
        if inc and _depth < 1:
            for name in inc.group(1).split():
                sub = os.path.join(os.path.dirname(path) or ".", name)  # an absolute name stays itself
                if "$" in name or not os.path.isfile(sub):  # a NUL, a directory, a FIFO or a device
                    continue
                try:
                    sub_assign, sub_expand = scan_makefile(sub, _depth + 1)
                except OSError:
                    continue
                assignments.extend(sub_assign)
                counts.update(sub_expand)
            continue
        m = _ASSIGN.match(stripped) or ":" in stripped and _TARGET_ASSIGN.match(stripped)
        if not m:
            continue
        assignments.append(MacroAssignment(m.group(1), lineno, path))
    return assignments, {name for name, n in counts.items() if n > 0} - {""}


def suggest(name: str, vocabulary: frozenset | set) -> tuple[str, int]:
    """Nearest vocabulary word; ties prefer the longest shared prefix,
    then lexicographic order (so CXFLAGS suggests CXXFLAGS, not CFLAGS)."""
    distance, _, word = min((levenshtein(name, w), -len(os.path.commonprefix((name, w))), w)
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
