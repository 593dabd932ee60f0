"""Command-line tokenization for compiler and linker invocations.

Two quoting conventions are supported: POSIX-shell word splitting for the
GNU-ish toolchains (gcc, clang, ld, ar) and the MSVC argv rules
(backslash-doubling before quotes) for cl/link/lib. Response files
(@path) are expanded recursively with cycle and depth protection.

No environment-variable expansion is ever performed: the original
environment is not available when working from archived logs, so
unexpanded $(VAR)/%VAR% tokens are preserved verbatim and left for the
audit layer to flag.
"""

from __future__ import annotations

import os
import posixpath
from dataclasses import dataclass, field
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

    def to_dict(self) -> dict:
        return {"family": self.family.value, "tool_kind": self.tool_kind.value}

    @classmethod
    def from_dict(cls, d: dict) -> "Dialect":
        return cls(Family(d["family"]), ToolKind(d["tool_kind"]))


@dataclass(frozen=True)
class Origin:
    """Where a token came from: the command line itself or a response file."""

    kind: str  # "command-line" | "response-file"
    path: str | None = None
    index: int | None = None

    def to_dict(self) -> dict:
        if self.kind == "command-line":
            return {"kind": self.kind}
        return {"kind": self.kind, "path": self.path, "index": self.index}

    @classmethod
    def from_dict(cls, d: dict) -> "Origin":
        if d["kind"] == "command-line":
            return COMMAND_LINE
        return cls(d["kind"], d.get("path"), d.get("index"))

    def __str__(self) -> str:
        if self.kind == "command-line":
            return "command-line"
        return f"{self.path}#{self.index}"


COMMAND_LINE = Origin("command-line")


@dataclass(frozen=True)
class Token:
    text: str
    origin: Origin = COMMAND_LINE

    def to_dict(self) -> dict:
        return {"text": self.text, "origin": self.origin.to_dict()}

    @classmethod
    def from_dict(cls, d: dict) -> "Token":
        return cls(d["text"], Origin.from_dict(d["origin"]))


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


_GNU_COMPILERS = {"cc", "gcc", "g++", "c++", "clang", "clang++"}
_MSVC_TOOLS = {"cl": ToolKind.COMPILER, "link": ToolKind.LINKER, "lib": ToolKind.ARCHIVER}


def detect_dialect(program: str) -> Dialect:
    """Map a program name to its dialect by basename alone.

    Basename matching (case-insensitive, extension stripped) is the only
    evidence available in archived logs from machines we cannot probe.
    Unknown programs default to GNU-like parsing.
    """
    base = program.replace("\\", "/").rsplit("/", 1)[-1].lower()
    if "." in base:
        base = base.rsplit(".", 1)[0]
    if base in _MSVC_TOOLS:
        return Dialect(Family.MSVC, _MSVC_TOOLS[base])
    if base in _GNU_COMPILERS:
        return Dialect(Family.GNU_LIKE, ToolKind.COMPILER)
    if base == "ld":
        return Dialect(Family.GNU_LIKE, ToolKind.LINKER)
    if base == "ar":
        return Dialect(Family.GNU_LIKE, ToolKind.ARCHIVER)
    return Dialect(Family.GNU_LIKE, ToolKind.UNKNOWN)


def _tokenize_posix(line: str) -> list[str]:
    words: list[str] = []
    buf: list[str] = []
    has_word = False
    i, n = 0, len(line)
    while i < n:
        c = line[i]
        if c in " \t\r\n":
            if has_word:
                words.append("".join(buf))
                buf, has_word = [], False
            i += 1
        elif c == "'":
            j = line.find("'", i + 1)
            if j < 0:
                raise UnterminatedQuote(i)
            buf.append(line[i + 1 : j])
            has_word = True
            i = j + 1
        elif c == '"':
            start = i
            i += 1
            has_word = True
            closed = False
            while i < n:
                c = line[i]
                if c == '"':
                    closed = True
                    i += 1
                    break
                if c == "\\" and i + 1 < n and line[i + 1] in '"\\$`\n':
                    if line[i + 1] != "\n":
                        buf.append(line[i + 1])
                    i += 2
                else:
                    buf.append(c)
                    i += 1
            if not closed:
                raise UnterminatedQuote(start)
        elif c == "\\":
            if i + 1 < n:
                if line[i + 1] != "\n":
                    buf.append(line[i + 1])
                    has_word = True
                i += 2
            else:
                buf.append("\\")
                has_word = True
                i += 1
        else:
            buf.append(c)
            has_word = True
            i += 1
    if has_word:
        words.append("".join(buf))
    return words


def _tokenize_msvc(line: str) -> list[str]:
    # CommandLineToArgvW rules: 2n backslashes + quote -> n backslashes and
    # a quote toggle; 2n+1 backslashes + quote -> n backslashes and a
    # literal quote; backslashes not before a quote are literal.
    words: list[str] = []
    buf: list[str] = []
    has_word = False
    in_quote = False
    quote_start = -1
    i, n = 0, len(line)
    while i < n:
        c = line[i]
        if c in " \t\r\n" and not in_quote:
            if has_word:
                words.append("".join(buf))
                buf, has_word = [], False
            i += 1
        elif c == "\\":
            j = i
            while j < n and line[j] == "\\":
                j += 1
            count = j - i
            if j < n and line[j] == '"':
                buf.append("\\" * (count // 2))
                if count % 2 == 0:
                    if not in_quote:
                        quote_start = j
                    in_quote = not in_quote
                else:
                    buf.append('"')
                has_word = True
                i = j + 1
            else:
                buf.append("\\" * count)
                has_word = True
                i = j
        elif c == '"':
            if not in_quote:
                quote_start = i
            in_quote = not in_quote
            has_word = True
            i += 1
        else:
            buf.append(c)
            has_word = True
            i += 1
    if in_quote:
        raise UnterminatedQuote(quote_start)
    if has_word:
        words.append("".join(buf))
    return words


def tokenize(line: str, dialect: Dialect, origin: Origin = COMMAND_LINE) -> list[Token]:
    """Split one logical command line into tokens under the dialect's rules.

    Continuation backslashes must already have been joined by the caller.
    Quoted-empty arguments are dropped (a token's text is never empty).
    """
    if dialect.family is Family.MSVC:
        words = _tokenize_msvc(line)
    else:
        words = _tokenize_posix(line)
    return [Token(w, origin) for w in words if w]


def expand_response_files(
    tokens: list[Token], cwd: str, dialect: Dialect, _chain: tuple[str, ...] = ()
) -> list[Token]:
    """Replace every @path token in place by the tokenized file contents.

    Recursive with a cycle check and a nesting cap of MAX_RESPONSE_DEPTH.
    Files are read as UTF-8 with lossy replacement; LF and CRLF both work.
    """
    if len(_chain) > MAX_RESPONSE_DEPTH:
        raise NestingTooDeep(MAX_RESPONSE_DEPTH)
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
        except FileNotFoundError:
            raise ResponseFileNotFound(path) from None
        inner = tokenize(body, dialect)
        inner = [Token(t.text, Origin("response-file", path, idx)) for idx, t in enumerate(inner)]
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
