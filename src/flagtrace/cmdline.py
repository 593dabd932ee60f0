"""Command-line tokenization for compiler and linker invocations.

Every evidence file (build log, response file, compilation database,
spool file, makefile) becomes text by one rule, `read_text`'s; a file that
evidence names (response file, include, spool record) is read only if it is a regular file.

Two quoting conventions are supported: POSIX-shell word splitting for the
GNU-ish toolchains (gcc, clang, ld, ar) and the MSVC argv rules
(backslash-doubling before quotes) for cl/link/lib. Each is one linear
regex pass over one logical line, whose backslash continuations
`logical_lines` has joined (for build logs and makefiles alike); the
character-at-a-time reference they must agree with lives in
tests/cmdline_oracle.py. A token is its text, a str; a `TokenTable`
unquotes each distinct raw word once, as a build log repeats its words.
Response files (@path) are expanded recursively with cycle and depth
protection; each word's response-file `Origin` is kept beside it. How a
snapshot stores tokens, origins and dialects is known only to `snapshot.py`.

No environment-variable expansion is ever performed: the original
environment is not available when working from archived logs, so
unexpanded $(VAR)/%VAR% tokens are preserved verbatim and left for the
audit layer to flag.
"""

from __future__ import annotations

import codecs
import os
import posixpath
import re
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from functools import cache

from .errors import NestingTooDeep, ResponseFileCycle, ResponseFileNotFound, UnterminatedQuote

MAX_RESPONSE_DEPTH = 16


class Family(str, Enum):
    GNU_LIKE = "gnu"
    MSVC = "msvc"


class ToolKind(str, Enum):
    COMPILER = "compiler"
    LINKER = "linker"
    ARCHIVER = "archiver"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class Dialect:
    family: Family
    tool_kind: ToolKind


# Every dialect, by its (family, tool_kind) values: one object each.
DIALECTS = {(f.value, k.value): Dialect(f, k) for f in Family for k in ToolKind}


@dataclass(frozen=True)
class Origin:
    """The response file a word came from, and the word's index among that file's words."""

    path: str
    index: int

    def __str__(self) -> str:
        return f"{self.path}#{self.index}"


@dataclass(frozen=True)
class RawInvocation:
    """One captured compiler/linker command with provenance.

    ``tokens`` are the words after the program name, each `@file`
    replaced by its response file's words, in command-line order; order
    is load-bearing for later-wins resolution and link-order checks.
    ``origins``, aligned with them, holds each word's response-file `Origin`, None on the command line.
    """

    program: str
    tokens: tuple[str, ...]
    origins: tuple[Origin | None, ...]
    cwd: str
    source: str  # provenance: "log:<path>:<line>", "compdb:<path>#<i>" or "spool:<file>:<line>", paths absolute
    dialect: Dialect


_TOOLS = {**dict.fromkeys(("cc", "gcc", "g++", "c++", "clang", "clang++"), ("gnu", "compiler")),
          "ld": ("gnu", "linker"), "ar": ("gnu", "archiver"),
          "cl": ("msvc", "compiler"), "link": ("msvc", "linker"), "lib": ("msvc", "archiver")}


def detect_dialect(program: str) -> Dialect:
    """Map a program name to its dialect by basename alone.

    Basename matching (case-insensitive, extension stripped) is the only
    evidence available in archived logs from machines we cannot probe.
    Unknown programs default to GNU-like parsing.
    """
    base = program.replace("\\", "/").rsplit("/", 1)[-1].lower()
    if "." in base:
        base = base.rsplit(".", 1)[0]
    return DIALECTS[_TOOLS.get(base, ("gnu", "unknown"))]


_SPACE = " \t\r\n"  # the only characters that end a word
_FIRST_WORD = re.compile(r"[^ \t\r\n]*")


def command_program(line: str) -> str:
    """The program a command line runs: its first word, less one surrounding pair of quotes.

    Words end only where the tokenizers end them, at space, tab, CR or LF.
    """
    line = line.lstrip(_SPACE)
    if line[:1] in ("'", '"'):
        end = line.find(line[0], 1)
        if end > 0:
            return line[1:end]
    return _FIRST_WORD.match(line).group()


# A word is a run of pieces. A quote that is never closed runs to the end
# of the line, so no piece fails once it has started and the scan never
# backtracks; unquoting then finds the open quote in the last word.
_POSIX_WORD = re.compile(r"""(?:[^ \t\r\n'"\\]+|'[^']*(?:'|\Z)|"(?:[^"\\]+|\\.?)*(?:"|\Z)|\\.?)+""", re.S)
# A quote matched alone, by the last branch, is one left open.
_POSIX_PIECE = re.compile(r"""'([^']*)'|"((?:[^"\\]|\\.)*)"|\\(.?)|['"]""", re.S)
_POSIX_DQ_ESCAPE = re.compile(r'\\(?:\n|([\\"$`]))')


def _unquote_posix(m: re.Match) -> str:
    single, double, escaped = m.groups()
    if single is not None:
        return single
    if double is not None:
        return _POSIX_DQ_ESCAPE.sub(r"\1", double)
    if escaped is None:
        raise UnterminatedQuote(m.start())
    return "" if escaped == "\n" else escaped or "\\"


# CommandLineToArgvW rules: 2n backslashes + quote -> n backslashes and a
# quote toggle; 2n+1 backslashes + quote -> n backslashes and a literal
# quote; backslashes not before a quote are literal. Pairs are taken
# first, so a lone backslash is always the odd one of its run.
_MSVC_WORD = re.compile(r"""(?:[^ \t\r\n"\\]+|(?:\\\\)+|\\"?|"(?:[^"\\]+|(?:\\\\)+|\\"?)*(?:"|\Z))+""")
# (?<!\\) starts a match only at the head of a backslash run: linear in its length.
_MSVC_QUOTE = re.compile(r'(?<!\\)(\\*)"')


def _unquote_msvc(m: re.Match) -> str:
    n = len(m.group(1))
    return "\\" * (n // 2) + ('"' if n % 2 else "")


def _unquote_msvc_word(word: str) -> str:
    toggles = [m.end() - 1 for m in _MSVC_QUOTE.finditer(word) if len(m.group(1)) % 2 == 0]
    if len(toggles) % 2:  # the last one opens a quote; only a last word can hold one
        raise UnterminatedQuote(toggles[-1])
    return _MSVC_QUOTE.sub(_unquote_msvc, word)


# Each family's word finder and its unquoting of one word, which raises at an open quote.
_SYNTAX = {Family.GNU_LIKE: (_POSIX_WORD.findall, lambda word: _POSIX_PIECE.sub(_unquote_posix, word)),
           Family.MSVC: (_MSVC_WORD.findall, _unquote_msvc_word)}


class TokenTable:
    """The memo of one evidence parse: each family's unquoting of a distinct raw word,
    which gives equal words one str, and each response file's expansion (`files`)."""

    def __init__(self):
        self.unquote = {family: cache(unquote) for family, (_, unquote) in _SYNTAX.items()}
        self.files: dict[tuple, tuple[list[str], list[Origin | None]]] = {}


def read_text(path: str) -> str:
    """The text of an evidence file, by the one rule for every kind: UTF-8, or UTF-16 after
    a UTF-16 byte-order mark (LE or BE), a leading byte-order mark dropped, an undecodable
    byte replaced, and CRLF and CR read as LF, as text mode reads them."""
    with open(path, "rb") as fh:
        data = fh.read()
    utf16 = data[:2] in (codecs.BOM_UTF16_LE, codecs.BOM_UTF16_BE)
    text = data.decode("utf-16" if utf16 else "utf-8", "replace")
    if "\r" in text:  # one scan where there is none, as in most logs
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.removeprefix("\ufeff")


def logical_lines(text: str):
    """Yield (first_line_number, joined_line) with backslash continuations merged.

    Lines end at LF only, as `read_text` reads CRLF and CR; a vertical tab,
    form feed or Unicode line separator stays inside its line, as it does for a shell.
    """
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    start, pending = 1, ""
    for idx, line in enumerate(lines, start=1):
        if line.endswith("\\"):
            pending += line[:-1] + " "
            continue
        yield start, pending + line
        start, pending = idx + 1, ""
    if pending:
        yield start, pending[:-1]  # less the space that stood for the last backslash


def tokenize(line: str, dialect: Dialect, table: TokenTable | None = None) -> list[str]:
    """Split one logical command line, or a response file's text, into words by the dialect's rules.

    Continuation backslashes must already have been joined by the caller.
    Quoted-empty arguments are dropped (a word is never empty). `table`
    unquotes each distinct raw word once, so equal words share one str.
    """
    words = _SYNTAX[dialect.family][0](line)
    unquote = (TokenTable() if table is None else table).unquote[dialect.family]
    try:  # the filter drops the empty text of a quoted-empty word
        return list(filter(None, map(unquote, words)))
    except UnterminatedQuote as exc:  # raised for the last word, which ends the line
        raise UnterminatedQuote(len(line) - len(words[-1]) + exc.position) from None


def expand_response_files(tokens: Sequence[str], cwd: str, dialect: Dialect, table: TokenTable | None = None,
                          _chain: tuple[str, ...] = ()) -> tuple[Sequence[str], Sequence[Origin | None]]:
    """Replace every @path word in place by the words of that file: (words, origins).

    A word's origin is None on the command line, else `Origin(path, i)`, the i-th word of file `path`.
    Recursive with a cycle check and a nesting cap of MAX_RESPONSE_DEPTH.
    A file is read only if it is a regular file; any other path is `ResponseFileNotFound`.
    Without an @path word, `tokens` itself is returned; `table` keeps each file's expansion.
    """
    if len(_chain) > MAX_RESPONSE_DEPTH:
        raise NestingTooDeep(MAX_RESPONSE_DEPTH)
    # `tokens` are the words of the file that ends `_chain`, or of the command line.
    here = [Origin(_chain[-1], i) for i in range(len(tokens))] if _chain else (None,) * len(tokens)
    for word in tokens:
        if word[:1] == "@" and len(word) > 1:
            break
    else:
        return tokens, here
    table = TokenTable() if table is None else table
    out, origins = [], []
    for word, origin in zip(tokens, here):
        if word[:1] != "@" or len(word) < 2:
            out.append(word)
            origins.append(origin)
            continue
        path = os.path.normpath(os.path.join(cwd, word[1:]))  # an absolute path stays itself
        if path in _chain:
            raise ResponseFileCycle(list(_chain) + [path])
        # An expansion that succeeded once reaches no cycle, so only its depth can change it.
        key = (path, dialect.family, len(_chain))
        if key not in table.files:
            if not os.path.isfile(path):  # a NUL in the path, a directory, a FIFO or a device
                raise ResponseFileNotFound(path)
            table.files[key] = expand_response_files(tokenize(read_text(path), dialect, table),
                                                     os.path.dirname(path) or cwd, dialect, table, _chain + (path,))
        words, where = table.files[key]
        out.extend(words)
        origins.extend(where)
    return out, origins


def is_absolute(path: str) -> bool:
    """Whether a path, on any host, starts with a slash or backslash or with a drive (`C:`)."""
    return path[:1] in ("/", "\\") or path[1:2] == ":"


def normalize_path(path: str, cwd: str = "") -> str:
    """Canonical path form used for matching across builds and hosts.

    Backslashes become forward slashes; relative paths are joined onto
    cwd; dot segments collapse. Drive letters are preserved verbatim.
    """
    p = path.replace("\\", "/")
    c = cwd.replace("\\", "/")
    if not is_absolute(p) and c:
        p = c.rstrip("/") + "/" + p
    return posixpath.normpath(p)
