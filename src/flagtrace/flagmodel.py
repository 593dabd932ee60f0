"""Canonical flag vocabulary and effective-flag-set resolution.

A compiler sees an ordered argument list where later members of a
mutually exclusive group (optimization level, exception model, stack
protection, ...) override earlier ones. This module maps dialect
tokens onto a canonical vocabulary and folds an ordered token stream
into the state the compiler actually acts on.

The vocabulary is a versioned data table (data/flag_vocabulary.tsv),
not code; anything the table does not know degrades to an opaque entry
rather than failing — completeness over hundreds of flags is impossible.

Classification looks every spelling up in per-family dicts. A
token's entry depends only on its family and text, except for a
separated argument flag (-D FOO), so `classify_all` builds the entry
for a command-line spelling once and reuses it for every later copy of
that spelling. Its memo is a plain dict that the caller scopes to one
snapshot; it is freed with that snapshot.

`canonical_deserialize` is the inverse of `canonical_serialize` for a
set resolved from command-line tokens alone, the one case in which the
canonical text holds everything the entries do.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources
from json.encoder import encode_basestring

from .cmdline import Dialect, Family, Origin, Token, COMMAND_LINE

POSITIVE = "positive"
NEGATIVE = "negative"
VALUED = "valued"

_SOURCE_EXTS = {".c", ".cc", ".cpp", ".cxx", ".c++", ".i", ".ii", ".s", ".asm", ".m", ".mm"}
_OBJECT_EXTS = {".o", ".obj"}
_LIB_EXTS = {".a", ".so", ".lib", ".dylib"}


@dataclass(frozen=True)
class FlagEntry:
    key: str
    value: str | None
    polarity: str
    spelling: str
    origin: Origin = COMMAND_LINE
    group: str | None = None

    def value_tuple(self) -> tuple:
        """Value identity: everything except provenance."""
        return (self.key, self.group, self.polarity, self.value, self.spelling)

    def to_dict(self) -> dict:
        return {
            "key": self.key,
            "group": self.group,
            "polarity": self.polarity,
            "value": self.value,
            "spelling": self.spelling,
        }


@dataclass(frozen=True)
class _VocabRow:
    pattern: str
    dialect: Family
    key: str
    group: str
    polarity: str
    value_from: str


def _load_vocabulary() -> tuple[dict, dict]:
    exact: dict[tuple[Family, str], _VocabRow] = {}
    prefixes: dict[Family, list[_VocabRow]] = {family: [] for family in Family}
    text = resources.files("flagtrace.data").joinpath("flag_vocabulary.tsv").read_text("utf-8")
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        pattern, dialect, key, group, polarity, value_from = line.split("\t")
        row = _VocabRow(pattern, Family(dialect), key, group, polarity, value_from)
        if pattern.endswith("*"):
            prefixes[row.dialect].append(row)
        else:
            exact[(row.dialect, pattern)] = row
    return exact, prefixes


_EXACT, _PREFIXES = _load_vocabulary()

# Flags taking their argument attached, or (unless spelled with a
# trailing ':') as the next token. Within a family no prefix here, or in
# _PREFIXES, is a prefix of another, so the first match is the only one.
_ARG_FLAGS = {
    Family.GNU_LIKE: {"-D": "macro_define", "-U": "macro_undef", "-I": "include_dir",
                      "-isystem": "include_dir", "-l": "link_lib", "-o": "output"},
    Family.MSVC: {"/D": "macro_define", "/U": "macro_undef", "/I": "include_dir",
                  "/Fo": "output", "/Fe": "output", "/OUT:": "output"},
}
_SEPARATED_ARG_FLAGS = {
    family: {p: key for p, key in flags.items() if not p.endswith(":")}
    for family, flags in _ARG_FLAGS.items()
}
_ARG_PREFIX_LENGTHS = {family: sorted({len(p) for p in flags}) for family, flags in _ARG_FLAGS.items()}
_ARG_KEY_GROUPS = {"output": "output"}


def _ext_of(text: str) -> str:
    name = text.replace("\\", "/").rsplit("/", 1)[-1]
    # libfoo.so.1.2 style versioned shared objects
    lowered = name.lower()
    if ".so." in lowered:
        return ".so"
    dot = name.rfind(".")
    return name[dot:].lower() if dot > 0 else ""


def _from_row(row: _VocabRow, token: Token) -> FlagEntry:
    if row.value_from == "spelling":
        # Canonical spelling from the table (e.g. '/O2' even when typed '-O2').
        value = row.pattern
    elif row.value_from == "suffix":
        value = token.text[len(row.pattern) - 1 :]
    else:
        value = None
    return FlagEntry(row.key, value, row.polarity, token.text, token.origin, row.group)


def classify(token: Token, dialect: Dialect, next_token: Token | None = None) -> tuple[FlagEntry, bool]:
    """Map one token onto the canonical vocabulary.

    Returns the entry plus whether the next token was consumed as this
    flag's argument (separated forms: -D FOO, -I dir, /D FOO).
    Unknown tokens never fail; they degrade to key=opaque.
    """
    text = token.text
    family = dialect.family
    lookup = text
    if family is Family.MSVC and text.startswith("-") and len(text) > 1:
        # MSVC accepts '-' for '/'; canonicalize for matching only.
        lookup = "/" + text[1:]

    key = _SEPARATED_ARG_FLAGS[family].get(lookup)
    if key is not None:
        if next_token is not None:
            return (
                FlagEntry(key, next_token.text, VALUED, f"{text} {next_token.text}",
                          token.origin, _ARG_KEY_GROUPS.get(key)),
                True,
            )
        return FlagEntry("opaque", None, VALUED, text, token.origin), False
    arg_flags = _ARG_FLAGS[family]
    for n in _ARG_PREFIX_LENGTHS[family]:
        if len(lookup) <= n:
            break
        key = arg_flags.get(lookup[:n])
        if key is not None:
            return FlagEntry(key, lookup[n:], VALUED, text, token.origin,
                             _ARG_KEY_GROUPS.get(key)), False

    row = _EXACT.get((family, lookup))
    if row is not None:
        return _from_row(row, token), False
    for row in _PREFIXES[family]:
        if lookup.startswith(row.pattern[:-1]):
            return _from_row(row, token), False

    if (
        family is Family.GNU_LIKE
        and text.startswith("-W")
        and len(text) > 2
        and not text.startswith(("-Wl,", "-Wa,", "-Wp,"))
    ):
        name = text[2:]
        polarity = POSITIVE
        if name.startswith("no-"):
            polarity = NEGATIVE
            name = name[3:]
        if name:
            return FlagEntry("warning", name, polarity, text, token.origin, f"warning:{name}"), False

    # On GNU-likes only '-' marks a flag; a leading '/' is an absolute path.
    is_flag_like = text.startswith("-") or (
        family is Family.MSVC and text.startswith("/")
    )
    if not is_flag_like:
        ext = _ext_of(text)
        if ext in _SOURCE_EXTS or (ext == ".c" or text.endswith(".C")):
            return FlagEntry("source_file", text, VALUED, text, token.origin), False
        if ext in _OBJECT_EXTS:
            return FlagEntry("link_obj", text, VALUED, text, token.origin), False
        if ext in _LIB_EXTS:
            return FlagEntry("link_lib", text, VALUED, text, token.origin), False

    return FlagEntry("opaque", None, VALUED, text, token.origin), False


def classify_all(tokens: list[Token], dialect: Dialect, memo: dict | None = None) -> list[FlagEntry]:
    """Classify a token stream; equal to calling `classify` on each token in turn.

    `memo` maps a family to the entries built so far for command-line
    tokens, by spelling; pass one dict for all commands of a snapshot.
    Response-file tokens carry their own origin and are never memoized.
    """
    seen = (memo if memo is not None else {}).setdefault(dialect.family, {})
    entries = []
    n = len(tokens)
    i = 0
    while i < n:
        token = tokens[i]
        shared = token.origin is COMMAND_LINE
        if shared:
            entry = seen.get(token.text)
            if entry is not None:
                entries.append(entry)
                i += 1
                continue
        nxt = tokens[i + 1] if i + 1 < n else None
        entry, consumed = classify(token, dialect, nxt)
        entries.append(entry)
        if consumed:
            i += 2
            continue
        # A separated argument flag consumes a present next token, so an
        # entry built with one present depends on the spelling alone.
        if shared and nxt is not None:
            seen[token.text] = entry
        i += 1
    return entries


def _macro_name(value: str) -> str:
    return value.split("=", 1)[0]


@dataclass
class EffectiveFlagSet:
    """The resolved flag state after later-wins folding.

    scalar_groups holds the winner per exclusive group; defines folds
    -D/-U left to right (an undef removes the macro); ordered fields
    keep exact command order, which is semantically significant.
    """

    scalar_groups: dict[str, FlagEntry] = field(default_factory=dict)
    defines: dict[str, FlagEntry] = field(default_factory=dict)
    include_dirs: list[FlagEntry] = field(default_factory=list)
    link_inputs: list[FlagEntry] = field(default_factory=list)
    sources: list[FlagEntry] = field(default_factory=list)
    opaque: list[FlagEntry] = field(default_factory=list)

    def extend(self, entries: list[FlagEntry]) -> "EffectiveFlagSet":
        out = EffectiveFlagSet(
            dict(self.scalar_groups), dict(self.defines),
            list(self.include_dirs), list(self.link_inputs),
            list(self.sources), list(self.opaque),
        )
        for e in entries:
            if e.group is not None:
                out.scalar_groups[e.group] = e
            elif e.key == "macro_define":
                name = _macro_name(e.value or "")
                out.defines.pop(name, None)
                out.defines[name] = e
            elif e.key == "macro_undef":
                out.defines.pop(e.value or "", None)
            elif e.key == "include_dir":
                out.include_dirs.append(e)
            elif e.key in ("link_obj", "link_lib"):
                out.link_inputs.append(e)
            elif e.key == "source_file":
                out.sources.append(e)
            else:
                out.opaque.append(e)
        return out

    def entries(self) -> list[FlagEntry]:
        """Re-linearize to an entry list; resolve() of it is a fixed point."""
        out = [self.scalar_groups[g] for g in sorted(self.scalar_groups)]
        out.extend(self.defines[n] for n in sorted(self.defines))
        out.extend(self.include_dirs)
        out.extend(self.link_inputs)
        out.extend(self.sources)
        out.extend(self.opaque)
        return out

    def group_value(self, group: str) -> FlagEntry | None:
        return self.scalar_groups.get(group)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EffectiveFlagSet):
            return NotImplemented
        return canonical_serialize(self) == canonical_serialize(other)


def resolve(entries: list[FlagEntry]) -> EffectiveFlagSet:
    """Fold ordered entries into the effective state (later wins per group)."""
    return EffectiveFlagSet().extend(entries)


def _opt(value: str | None) -> str:
    return "null" if value is None else encode_basestring(value)


def canonical_serialize(fset: EffectiveFlagSet) -> bytes:
    """Deterministic byte encoding of a resolved set, fit for hashing.

    Scalar groups are sorted by group id; order-significant fields keep
    their order. Equal values produce identical bytes and vice versa.
    Each line is the compact JSON array that `json.dumps(...,
    ensure_ascii=False, separators=(",", ":"))` would write, built with
    the same string escaper.
    """
    q = encode_basestring
    lines = ['["flagset",1]']
    for gid in sorted(fset.scalar_groups):
        e = fset.scalar_groups[gid]
        lines.append(f'["group",{q(gid)},{q(e.key)},{q(e.polarity)},{_opt(e.value)},{q(e.spelling)}]')
    for name in sorted(fset.defines):
        e = fset.defines[name]
        lines.append(f'["define",{q(name)},{_opt(e.value)},{q(e.spelling)}]')
    for e in fset.include_dirs:
        lines.append(f'["include",{_opt(e.value)},{q(e.spelling)}]')
    for e in fset.link_inputs:
        kind = "obj" if e.key == "link_obj" else "lib"
        lines.append(f'["link","{kind}",{_opt(e.value)},{q(e.spelling)}]')
    for e in fset.sources:
        lines.append(f'["source",{_opt(e.value)}]')
    for e in fset.opaque:
        lines.append(f'["opaque",{q(e.spelling)}]')
    lines.append("")
    return "\n".join(lines).encode("utf-8")


_LINE_FIELD_TYPES = {str, type(None)}


def _entry_of_line(row) -> tuple[str, str | None, FlagEntry]:
    """(tag, group id or macro name, entry) of a line that `canonical_serialize`
    wrote for a command-line entry, given the line JSON-decoded."""
    # Every field is a string, and only a value may be null.
    if type(row) is list and row and {*map(type, row)} <= _LINE_FIELD_TYPES:
        tag, n = row[0], len(row)
        if tag == "group":
            if n == 6 and None not in (row[1], row[2], row[3], row[5]):
                _, gid, key, polarity, value, spelling = row
                return tag, gid, FlagEntry(key, value, polarity, spelling, COMMAND_LINE, gid)
        elif tag == "define":
            if n == 4 and row[3] is not None and row[1] == _macro_name(row[2] or ""):
                return tag, row[1], FlagEntry("macro_define", row[2], VALUED, row[3])
        elif tag == "include":
            if n == 3 and row[2] is not None:
                return tag, None, FlagEntry("include_dir", row[1], VALUED, row[2])
        elif tag == "link":
            if n == 4 and row[1] in ("obj", "lib") and row[3] is not None:
                return tag, None, FlagEntry(f"link_{row[1]}", row[2], VALUED, row[3])
        elif tag == "source":
            if n == 2 and row[1] is not None:
                return tag, None, FlagEntry("source_file", row[1], VALUED, row[1])
        elif tag == "opaque":
            if n == 2 and row[1] is not None:
                return tag, None, FlagEntry("opaque", None, VALUED, row[1])
    raise ValueError(f"not a canonical flag-set line: {row!r}")


def canonical_deserialize(text: str, memo: dict) -> EffectiveFlagSet:
    """The set that `canonical_serialize` wrote as `text`, every entry from the command line.

    `memo` maps a line to what `_entry_of_line` made of it; pass one
    dict for all records of a snapshot, so equal lines share one
    FlagEntry. The lines not in it yet are JSON-decoded in one call.
    Raises ValueError on text that `canonical_serialize` cannot have
    written.
    """
    lines = text.split("\n")
    if lines[0] != '["flagset",1]' or lines[-1]:
        raise ValueError("not a canonical flag set")
    del lines[0], lines[-1]
    new = set(lines).difference(memo)
    if new:
        new = list(new)
        batch = "[" + ",".join(new) + "]"
        rows = json.loads(batch)
        if len(rows) != len(new):
            raise ValueError("not a canonical flag set")
        if not batch.isascii() or "\\u" in batch:
            # Such text may decode to a lone surrogate, which no UTF-8 text
            # holds: encoding raises UnicodeEncodeError, a ValueError.
            json.dumps(rows, ensure_ascii=False).encode("utf-8")
        for line, row in zip(new, rows):
            memo[line] = _entry_of_line(row)
    groups, defines = {}, {}
    in_order = {"include": [], "link": [], "source": [], "opaque": []}
    for line in lines:
        tag, name, e = memo[line]
        if tag == "group":
            groups[name] = e
        elif tag == "define":
            defines[name] = e
        else:
            in_order[tag].append(e)
    return EffectiveFlagSet(groups, defines, in_order["include"], in_order["link"],
                            in_order["source"], in_order["opaque"])
