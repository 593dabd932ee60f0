"""Reference implementations, used only by tests.

`canonical_serialize` is the flag-set encoder as first written: one
`json.dumps` call per line. `classify_each` classifies a token stream
with one `classify` call per token and no memo. `classify` is the
classifier as it was while argument flags, the -W warning rule and file
extensions were tables and branches in code, beside the vocabulary rows
of the other kinds. `entries` re-linearizes a resolved set. The runtime
versions must give the same results.
"""

import json
from dataclasses import dataclass
from importlib import resources

from flagtrace import flagmodel
from flagtrace.cmdline import Dialect, Family, Token
from flagtrace.flagmodel import NEGATIVE, POSITIVE, VALUED, EffectiveFlagSet, FlagEntry


def _line(*parts) -> str:
    return json.dumps(list(parts), ensure_ascii=False, separators=(",", ":"))


def canonical_serialize(fset: EffectiveFlagSet) -> bytes:
    lines = [_line("flagset", 1)]
    for gid in sorted(fset.scalar_groups):
        e = fset.scalar_groups[gid]
        lines.append(_line("group", gid, e.key, e.polarity, e.value, e.spelling))
    for name in sorted(fset.defines):
        e = fset.defines[name]
        lines.append(_line("define", name, e.value, e.spelling))
    for e in fset.include_dirs:
        lines.append(_line("include", e.value, e.spelling))
    for e in fset.link_inputs:
        lines.append(_line("link", "obj" if e.key == "link_obj" else "lib", e.value, e.spelling))
    for e in fset.sources:
        lines.append(_line("source", e.value))
    for e in fset.opaque:
        lines.append(_line("opaque", e.spelling))
    return ("\n".join(lines) + "\n").encode("utf-8")


def classify_each(tokens, dialect):
    entries = []
    i = 0
    while i < len(tokens):
        nxt = tokens[i + 1] if i + 1 < len(tokens) else None
        entry, consumed = flagmodel.classify(tokens[i], dialect, nxt)
        entries.append(entry)
        i += 2 if consumed else 1
    return entries


def entries(fset: EffectiveFlagSet) -> list[FlagEntry]:
    """Re-linearize to an entry list; resolve() of it is a fixed point."""
    out = [fset.scalar_groups[g] for g in sorted(fset.scalar_groups)]
    out.extend(fset.defines[n] for n in sorted(fset.defines))
    out.extend(fset.include_dirs)
    out.extend(fset.link_inputs)
    out.extend(fset.sources)
    out.extend(fset.opaque)
    return out


_SOURCE_EXTS = {".c", ".cc", ".cpp", ".cxx", ".c++", ".i", ".ii", ".s", ".asm", ".m", ".mm"}
_OBJECT_EXTS = {".o", ".obj"}
_LIB_EXTS = {".a", ".so", ".lib", ".dylib"}


@dataclass(frozen=True)
class _VocabRow:
    pattern: str
    dialect: Family
    key: str
    group: str
    polarity: str
    value_from: str


def _load_vocabulary() -> tuple[dict, dict]:
    """The table's rows of the kinds it had then: exact and prefix flag rows
    whose value comes from nowhere, the spelling or the suffix, and that map
    to a key other than opaque."""
    exact: dict[tuple[Family, str], _VocabRow] = {}
    prefixes: dict[Family, list[_VocabRow]] = {family: [] for family in Family}
    text = resources.files("flagtrace.data").joinpath("flag_vocabulary.tsv").read_text("utf-8")
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        pattern, dialect, key, group, polarity, value_from = line.split("\t")
        if value_from not in ("none", "spelling", "suffix") or key == "opaque":
            continue
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
