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
the entry for a spelling once and reuses it for every later copy of
that spelling, from a response file or not. Its memo is a plain dict
that the caller scopes to one snapshot; it is freed with that snapshot.

An entry holds no provenance; `token_indices` finds the token it came
from. `resolve` is the one fold from entries to a set, and folds what a
caller holds in each entry's place by the same rule.
`_LINES` writes each kind of set line for both directions, so a set line
reads only as written; whether a set's lines are in canonical order, and
are what its tokens resolve to, is `verify`'s question.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from importlib import resources
from json.encoder import encode_basestring as _q  # a string as JSON writes it

from . import strictjson
from .cmdline import Dialect, Family

POSITIVE = "positive"
NEGATIVE = "negative"
VALUED = "valued"
ABSENT = "Absent"  # how reports show a group or macro that has no winner


@dataclass(frozen=True)
class FlagEntry:
    key: str
    value: str | None
    polarity: str
    spelling: str
    group: str | None = None


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


def _entry(row: _VocabRow, value: str | None, spelling: str) -> FlagEntry:
    group = row.group
    if group is not None and group.endswith("*"):
        group = group[:-1] + value
    return FlagEntry(row.key, value, row.polarity, spelling, group)


def classify(text: str, dialect: Dialect, next_token: str | None = None) -> tuple[FlagEntry, bool]:
    """Map one token onto the canonical vocabulary.

    A flag-like token is looked up as an exact spelling, then by the
    longest prefix it starts with; any other token by its file extension.
    Returns the entry plus whether the next token was consumed as this
    flag's argument (a `next` row: -D FOO, -I dir, /D FOO).
    Unknown tokens never fail; they degrade to key=opaque.
    """
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
                return _entry(row, next_token, f"{text} {next_token}"), True
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
            return _entry(row, value, text), False
    return FlagEntry("opaque", None, VALUED, text), False


def classify_all(tokens: Sequence[str], dialect: Dialect, memo: dict | None = None) -> list[FlagEntry]:
    """Classify a token stream; equal to calling `classify` on each token in turn.
    `memo` maps a family to the entries built so far, by spelling; pass one dict
    for all commands of a snapshot."""
    seen = (memo if memo is not None else {}).setdefault(dialect.family, {})
    entries = []
    n = len(tokens)
    i = 0
    while i < n:
        text = tokens[i]
        entry = seen.get(text)
        if entry is None:
            nxt = tokens[i + 1] if i + 1 < n else None
            entry, consumed = classify(text, dialect, nxt)
            if consumed:
                i += 1
            elif nxt is not None:
                # A `next` row's flag consumes a present next token, so an entry
                # built with one present depends on the spelling alone.
                seen[text] = entry
        entries.append(entry)
        i += 1
    return entries


def token_indices(tokens: Sequence[str], entries: Sequence[FlagEntry]) -> list[int]:
    """The index in `tokens` of the token each entry of `classify_all(tokens, ...)` came from.
    Only a `next` row with a next token spells its entry `f"{text} {arg}"`, so an
    entry not spelled as its token's text also took the token after it."""
    out, i = [], 0
    for e in entries:
        out.append(i)
        i += 1 if e.spelling == tokens[i] else 2
    return out


def _macro_name(value: str) -> str:
    return value.split("=", 1)[0]


@dataclass(eq=False)
class EffectiveFlagSet:
    """The resolved flag state after later-wins folding.

    scalar_groups holds the winner per exclusive group; defines folds
    -D/-U left to right (an undef removes the macro); ordered fields
    keep exact command order, which is semantically significant. Sets
    compare by their `canonical_serialize` text; `==` is identity.
    """

    scalar_groups: dict[str, FlagEntry] = field(default_factory=dict)
    defines: dict[str, FlagEntry] = field(default_factory=dict)
    include_dirs: list[FlagEntry] = field(default_factory=list)
    link_inputs: list[FlagEntry] = field(default_factory=list)
    sources: list[FlagEntry] = field(default_factory=list)
    opaque: list[FlagEntry] = field(default_factory=list)

    def group_value(self, group: str) -> FlagEntry | None:
        return self.scalar_groups.get(group)


def resolve(entries: Sequence[FlagEntry], held: Sequence | None = None) -> EffectiveFlagSet:
    """Fold ordered entries into the effective state (later wins per group).
    `held`, if given, is what the set holds in each entry's place, item for item."""
    out = EffectiveFlagSet()
    for e, h in zip(entries, entries if held is None else held):
        if e.group is not None:
            out.scalar_groups[e.group] = h
        elif e.key == "macro_define":
            out.defines[_macro_name(e.value or "")] = h
        elif e.key == "macro_undef":
            out.defines.pop(e.value or "", None)
        elif e.key == "include_dir":
            out.include_dirs.append(h)
        elif e.key in ("link_obj", "link_lib"):
            out.link_inputs.append(h)
        elif e.key == "source_file":
            out.sources.append(h)
        else:
            out.opaque.append(h)
    return out


# The writer of each kind of set line, for both directions: the line of entry `e` filed
# under `name`, its group or the macro it defines, as the compact JSON array that
# `json.dumps(..., ensure_ascii=False, separators=(",", ":"))` writes; only a value may be null.
_LINES = {
    "group": lambda e, name: (f'["group",{_q(name)},{_q(e.key)},{_q(e.polarity)},'
                              f'{"null" if e.value is None else _q(e.value)},{_q(e.spelling)}]'),
    "define": lambda e, name: (f'["define",{_q(name)},'
                               f'{"null" if e.value is None else _q(e.value)},{_q(e.spelling)}]'),
    "include": lambda e, _: f'["include",{"null" if e.value is None else _q(e.value)},{_q(e.spelling)}]',
    "link": lambda e, _: (f'["link","{"obj" if e.key == "link_obj" else "lib"}",'
                          f'{"null" if e.value is None else _q(e.value)},{_q(e.spelling)}]'),
    "source": lambda e, _: f'["source",{"null" if e.value is None else _q(e.value)}]',
    "opaque": lambda e, _: f'["opaque",{_q(e.spelling)}]',
}
# The entry of each kind of set line, built by position from the decoded line.
_ENTRIES = {
    "group": lambda r: FlagEntry(r[2], r[4], r[3], r[5], r[1]),
    "define": lambda r: FlagEntry("macro_define", r[2], VALUED, r[3]),
    "include": lambda r: FlagEntry("include_dir", r[1], VALUED, r[2]),
    "link": lambda r: FlagEntry("link_" + r[1], r[2], VALUED, r[3]),
    "source": lambda r: FlagEntry("source_file", r[1], VALUED, r[1]),
    "opaque": lambda r: FlagEntry("opaque", None, VALUED, r[1]),
}


def canonical_serialize(fset: EffectiveFlagSet) -> str:
    """Deterministic text of a resolved set, fit for hashing, which a record stores.
    Groups are sorted by group id and defines by macro name; order-significant
    fields keep their order. Equal sets produce identical text and vice versa."""
    group_line, define_line, include_line, link_line, source_line, opaque_line = _LINES.values()
    lines = ['["flagset",1]']
    add = lines.append
    for gid in sorted(fset.scalar_groups):
        add(group_line(fset.scalar_groups[gid], gid))
    for name in sorted(fset.defines):
        add(define_line(fset.defines[name], name))
    for e in fset.include_dirs:
        add(include_line(e, None))
    for e in fset.link_inputs:
        add(link_line(e, None))
    for e in fset.sources:
        add(source_line(e, None))
    for e in fset.opaque:
        add(opaque_line(e, None))
    add("")
    return "\n".join(lines)


def canonical_deserialize(text: str, memo: dict) -> EffectiveFlagSet:
    """The set that `canonical_serialize` wrote as `text`, folded by `resolve` in line order.

    A line reads only as written: its kind's writer must write exactly that line
    for the entry built from it, filed under the name `resolve` files it by (a
    source line writes no spelling, but its value is one, and every entry has one).
    `memo` maps a line to its entry; pass one dict for all records of a snapshot,
    so each distinct line is decoded and checked once. Raises ValueError on text
    `canonical_serialize` cannot have written that holds no lone surrogate.
    """
    lines = text.split("\n")
    if lines[0] != '["flagset",1]' or lines[-1]:
        raise ValueError("not a canonical flag set")
    del lines[0], lines[-1]
    for line in set(lines).difference(memo):
        row = strictjson.loads(line)
        try:
            tag = row[0]
            e = _ENTRIES[tag](row)
            name = e.group if tag == "group" else _macro_name(e.value) if tag == "define" else None
            if type(e.spelling) is not str or _LINES[tag](e, name) != line:
                raise ValueError(f"not a line canonical_serialize writes: {line}")
            memo[line] = e
        except (AttributeError, LookupError, TypeError) as exc:  # no kind's entry or writer fits
            raise ValueError(f"not a canonical flag-set line: {exc!r}") from None
    return resolve([memo[line] for line in lines])
