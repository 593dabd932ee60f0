"""Command-line tokenization for compiler and linker invocations.

Two quoting conventions are supported: POSIX-shell word splitting for the
GNU-ish toolchains (gcc, clang, ld, ar) and the MSVC argv rules
(backslash-doubling before quotes) for cl/link/lib. Each is one linear
regex pass over the line; the character-at-a-time reference they must
agree with lives in tests/cmdline_oracle.py. Response files (@path) are
expanded recursively with cycle and depth protection. How a snapshot
stores tokens, origins and dialects is known only to `snapshot.py`.

No environment-variable expansion is ever performed: the original
environment is not available when working from archived logs, so
unexpanded $(VAR)/%VAR% tokens are preserved verbatim and left for the
audit layer to flag.
"""

from __future__ import annotations

import os
import posixpath
import re
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

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
    """Where a token came from: the command line itself or a response file."""

    kind: str  # "command-line" | "response-file"
    path: str | None = None
    index: int | None = None

    def __str__(self) -> str:
        if self.kind == "command-line":
            return "command-line"
        return f"{self.path}#{self.index}"


COMMAND_LINE = Origin("command-line")


@dataclass(frozen=True)
class Token:
    text: str
    origin: Origin = COMMAND_LINE


@dataclass(frozen=True)
class RawInvocation:
    """One captured compiler/linker command with provenance.

    ``tokens`` are the arguments after the program name, in exact
    command-line order; order is load-bearing for later-wins resolution
    and link-order checks.
    """

    program: str
    tokens: tuple[Token, ...]
    cwd: str
    source: str  # provenance tag: "log:<path>:<line>", "compdb:<path>#<i>", "spool:<file>:<line>"
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


def _tokenize_posix(line: str) -> list[str]:
    words = _POSIX_WORD.findall(line)
    try:
        return [_POSIX_PIECE.sub(_unquote_posix, w) if "'" in w or '"' in w or "\\" in w else w
                for w in words]
    except UnterminatedQuote as exc:  # raised for the last word, which ends the line
        raise UnterminatedQuote(len(line) - len(words[-1]) + exc.position) from None


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


def _tokenize_msvc(line: str) -> list[str]:
    words = _MSVC_WORD.findall(line)
    if words and '"' in words[-1]:
        open_at = None  # the last word's unclosed quote, if any
        for m in _MSVC_QUOTE.finditer(words[-1]):
            if len(m.group(1)) % 2 == 0:
                open_at = m.end() - 1 if open_at is None else None
        if open_at is not None:
            raise UnterminatedQuote(len(line) - len(words[-1]) + open_at)
    return [_MSVC_QUOTE.sub(_unquote_msvc, w) if '"' in w else w for w in words]


def _words(line: str, dialect: Dialect) -> list[str]:
    """The line's non-empty words under the dialect's quoting rules."""
    words = _tokenize_msvc(line) if dialect.family is Family.MSVC else _tokenize_posix(line)
    return [w for w in words if w]


class TokenTable(dict):
    """Word -> its one command-line Token; keep one table per evidence parse or snapshot load."""

    def __missing__(self, word: str) -> Token:
        if type(word) is not str:  # a stored token that is neither a word nor an object
            raise TypeError(f"not a word: {word!r}")
        token = self[word] = Token(word)
        return token


def tokenize(line: str, dialect: Dialect, table: TokenTable | None = None) -> list[Token]:
    """Split one logical command line into tokens under the dialect's rules.

    Continuation backslashes must already have been joined by the caller.
    Quoted-empty arguments are dropped (a token's text is never empty).
    Equal words share the Token that `table` holds for them.
    """
    table = TokenTable() if table is None else table
    return [table[w] for w in _words(line, dialect)]


def expand_response_files(
    tokens: Sequence[Token], cwd: str, dialect: Dialect, _chain: tuple[str, ...] = ()
) -> Sequence[Token]:
    """Replace every @path token in place by the tokenized file contents.

    Recursive with a cycle check and a nesting cap of MAX_RESPONSE_DEPTH.
    Files are read as UTF-8 with lossy replacement; LF and CRLF both work.
    Without an @path token, `tokens` itself is returned.
    """
    if len(_chain) > MAX_RESPONSE_DEPTH:
        raise NestingTooDeep(MAX_RESPONSE_DEPTH)
    if not any(tok.text[:1] == "@" and len(tok.text) > 1 for tok in tokens):
        return tokens
    out: list[Token] = []
    for tok in tokens:
        if not tok.text.startswith("@") or len(tok.text) < 2:
            out.append(tok)
            continue
        rel = tok.text[1:]
        path = rel if os.path.isabs(rel) else os.path.join(cwd, rel)
        path = os.path.normpath(path)
        if path in _chain:
            raise ResponseFileCycle(list(_chain) + [path])
        try:
            with open(path, "r", encoding="utf-8", errors="replace") as fh:
                body = fh.read()
        except (FileNotFoundError, ValueError):  # ValueError: a NUL in the path names no file
            raise ResponseFileNotFound(path) from None
        inner = [Token(w, Origin("response-file", path, idx))
                 for idx, w in enumerate(_words(body, dialect))]
        out.extend(expand_response_files(inner, os.path.dirname(path) or cwd, dialect, _chain + (path,)))
    return out


def normalize_path(path: str, cwd: str = "") -> str:
    """Canonical path form used for matching across builds and hosts.

    Backslashes become forward slashes; relative paths are joined onto
    cwd; dot segments collapse. Drive letters are preserved verbatim.
    """
    p = path.replace("\\", "/")
    c = cwd.replace("\\", "/")
    is_abs = p.startswith("/") or (len(p) >= 2 and p[1] == ":")
    if not is_abs and c:
        p = c.rstrip("/") + "/" + p
    return posixpath.normpath(p)
