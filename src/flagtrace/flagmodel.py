"""Canonical flag vocabulary and effective-flag-set resolution.

A compiler sees an ordered argument list where later members of a
mutually exclusive group (optimization level, exception model, stack
protection, ...) override earlier ones. This module maps dialect
tokens onto a canonical vocabulary and folds an ordered token stream
into the state the compiler actually acts on.

The vocabulary is a versioned data table (data/flag_vocabulary.tsv),
not code: every spelling, prefix and file extension the classifier
knows is a row there, saying which key, group, polarity and value a
token maps to. Anything the table does not know degrades to an opaque
entry rather than failing — completeness over hundreds of flags is
impossible. The code keeps only how a token is read: MSVC's '-' for
'/', which tokens are flag-like, and how a file's extension is found.

`classify` makes one exact lookup, one longest-prefix lookup for a
flag-like token, or one extension lookup for any other, all in
dicts. A token's entry depends only on its family and text, except for
a flag that takes the next token (-D FOO), so `classify_all` builds
the entry for a command-line spelling once and reuses it for every
later copy of that spelling. Its memo is a plain dict that the caller
scopes to one snapshot; it is freed with that snapshot.

`canonical_deserialize` is the inverse of `canonical_serialize` for a
set resolved from command-line tokens alone, the one case in which the
canonical text holds everything the entries do.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources
from json.encoder import encode_basestring

from . import strictjson
from .cmdline import Dialect, Family, Origin, Token, COMMAND_LINE

POSITIVE = "positive"
NEGATIVE = "negative"
VALUED = "valued"


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
    key: str
    group: str | None
    polarity: str
    value_from: str


def _load_vocabulary() -> tuple[dict, dict, dict]:
    """Exact rows by (family, spelling), prefix rows by family and stem, extension rows."""
    exact: dict[tuple[Family, str], _VocabRow] = {}
    prefixes: dict[Family, dict[str, _VocabRow]] = {family: {} for family in Family}
    extensions: dict[str, _VocabRow] = {}
    text = resources.files("flagtrace.data").joinpath("flag_vocabulary.tsv").read_text("utf-8")
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        pattern, dialect, key, group, polarity, value_from = line.split("\t")
        row = _VocabRow(pattern, key, None if group == "-" else group, polarity, value_from)
        if pattern.startswith("*."):
            extensions[pattern[1:]] = row
        elif pattern.endswith("*"):
            prefixes[Family(dialect)][pattern[:-1]] = row
        else:
            exact[(Family(dialect), pattern)] = row
    return exact, prefixes, extensions


_EXACT, _PREFIXES, _EXTENSIONS = _load_vocabulary()
_PREFIX_LENGTHS = {family: sorted({len(stem) for stem in stems}, reverse=True)
                   for family, stems in _PREFIXES.items()}


def _ext_of(text: str) -> str:
    """The extension a file token is looked up by, in lower case."""
    if text.endswith(".C"):
        return ".c"  # C++ source by convention, whatever precedes it
    name = text.replace("\\", "/").rsplit("/", 1)[-1].lower()
    # libfoo.so.1.2 style versioned shared objects
    if ".so." in name:
        return ".so"
    dot = name.rfind(".")
    return name[dot:] if dot > 0 else ""


def _entry(row: _VocabRow, value: str | None, spelling: str, origin: Origin) -> FlagEntry:
    group = row.group
    if group is not None and group.endswith("*"):
        group = group[:-1] + value
    return FlagEntry(row.key, value, row.polarity, spelling, origin, group)


def classify(token: Token, dialect: Dialect, next_token: Token | None = None) -> tuple[FlagEntry, bool]:
    """Map one token onto the canonical vocabulary.

    A flag-like token is looked up as an exact spelling, then by the
    longest prefix it starts with; any other token by its file extension.
    Returns the entry plus whether the next token was consumed as this
    flag's argument (a `next` row: -D FOO, -I dir, /D FOO).
    Unknown tokens never fail; they degrade to key=opaque.
    """
    text = token.text
    family = dialect.family
    lookup = text
    if family is Family.MSVC and text.startswith("-") and len(text) > 1:
        # MSVC accepts '-' for '/'; canonicalize for matching only.
        lookup = "/" + text[1:]

    row = _EXACT.get((family, lookup))
    rest = ""
    if row is None:
        # On GNU-likes only '-' marks a flag; a leading '/' is an absolute path.
        if text.startswith("-") or (family is Family.MSVC and text.startswith("/")):
            stems = _PREFIXES[family]
            for n in _PREFIX_LENGTHS[family]:  # longest first
                row = stems.get(lookup[:n])
                if row is not None:
                    rest = text[n:]
                    break
        else:
            row = _EXTENSIONS.get(_ext_of(text))

    if row is not None:
        how = row.value_from
        if how == "next":
            if next_token is not None:
                arg = next_token.text
                return _entry(row, arg, f"{text} {arg}", token.origin), True
        elif rest or how != "attached":
            if how == "spelling":
                # Canonical spelling from the table (e.g. '/O2' even when typed '-O2').
                value = row.pattern
            elif how == "text":
                value = text
            elif how == "none":
                value = None
            else:
                value = rest
            return _entry(row, value, text, token.origin), False
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
        # A `next` row's flag consumes a present next token, so an entry
        # built with one present depends on the spelling alone.
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
    written, given text that holds no lone surrogate, as a string that
    `strictjson.loads` returned does not.
    """
    lines = text.split("\n")
    if lines[0] != '["flagset",1]' or lines[-1]:
        raise ValueError("not a canonical flag set")
    del lines[0], lines[-1]
    new = set(lines).difference(memo)
    if new:
        new = list(new)
        rows = strictjson.loads("[" + ",".join(new) + "]")
        if len(rows) != len(new):
            raise ValueError("not a canonical flag set")
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
