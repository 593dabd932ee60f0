"""Immutable build-snapshot records and their canonical serialization.

A snapshot captures every translation unit and link target observed in
one build of one configuration. Records serialize to line-delimited
canonical JSON (UTF-8, LF) so stored snapshots stay diffable with plain
text tools. A record holds the tokens its effective flag set was
resolved from: its invocation's tokens after `@file` expansion, each
with its origin. `serialize()` encodes each record once and sets the
content hash, SHA-256 over the record lines it writes. This module
alone knows how tokens, origins and dialects are stored.

The header's `snapshot_version` says how tokens are stored. Version 2,
which every snapshot is written in, stores a command-line token as its
bare text and a response-file token as a {"text", "origin"} object;
version 1 stores every token as an object. Both read through one
decoder under one load rule, and the version is then forgotten: a
loaded v1 snapshot serializes as v2. Any other version is rejected.

On load the hash is checked over the record lines as stored, without
re-serializing them; diagnostic lines are outside it, and a line of any
other kind is unreadable. Every line is JSON-decoded, with each field it
reads checked for its JSON type. Effective flag sets are stored
denormalized for query speed. Every record, loaded or assembled, holds
the canonical text it stores, `effective_text`, which the hash covers
and writing copies. Its set is the set that text stores, built from it
by one rule when first read, so a command decodes only the sets it
reads; a set that fails to decode then raises `CorruptSnapshot` naming
its line. A load notices neither a rewritten set whose hashes were
recomputed nor a vocabulary edit since ingest. `flagtrace verify` finds
both through `drifted()`, which decodes no stored set: a record's tokens
must resolve to a set that serializes to exactly its text, byte for byte.

The stored text has no token origins, which only audit evidence reads.
A record's `origins` re-classifies its tokens when one came from a
response file, by the rule `drifted()` checks: while they resolve to the
stored text, each winner's token origin stands in the winner's place;
otherwise there are none, and evidence names the source alone.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from types import GenericAlias

from . import flagmodel, strictjson
from .cmdline import COMMAND_LINE, DIALECTS, Origin, RawInvocation, Token, TokenTable
from .errors import CorruptSnapshot

SNAPSHOT_VERSION = 2  # the version every snapshot is written in
_READABLE_VERSIONS = (1, 2)


_canon = json.JSONEncoder(ensure_ascii=False, sort_keys=True, separators=(",", ":")).encode


class _Record:
    """Both kinds of record hold `effective_text`, and build `effective` from it on first read."""

    _flagset_lines: dict | None = None  # the line memo of the load that read the record
    _line = 0  # the line the record was read from

    @cached_property
    def effective(self) -> flagmodel.EffectiveFlagSet:
        """The set the record stores."""
        try:
            return flagmodel.canonical_deserialize(
                self.effective_text, {} if self._flagset_lines is None else self._flagset_lines)
        except (AttributeError, LookupError, TypeError, ValueError) as exc:
            raise _unreadable(self._line, exc) from None

    @cached_property
    def origins(self) -> flagmodel.EffectiveFlagSet | None:
        """`effective` with the origin of each winner's token in the winner's place.
        None when no token came from a response file, or when the tokens no longer
        resolve to the stored text; every winner is then cited by its source alone."""
        tokens = self.invocation.tokens
        if any(t.origin is not COMMAND_LINE for t in tokens):
            entries = _classified_as_stored(self, {})
            if entries is not None:
                return flagmodel.resolve(entries, [tokens[i].origin
                                                   for i in flagmodel.token_indices(tokens, entries)])
        return None


@dataclass
class TranslationUnitRecord(_Record):
    KIND = "tu"
    FIELDS = {"source_file": str, "output_file": (str, type(None))}  # stored name: JSON type

    source_file: str
    output_file: str | None
    invocation: RawInvocation
    effective_text: str  # canonical_serialize of the effective set


@dataclass
class LinkTargetRecord(_Record):
    KIND = "target"
    FIELDS = {"output": str, "inputs": list[str], "member_tus": list[str],
              "external_inputs": list[str]}

    output: str
    inputs: list[str]  # normalized paths / library names, command order
    member_tus: list[str]  # bare sources of linked TUs: kept for the stored format, read by nothing
    external_inputs: list[str]  # inputs with no TU evidence in this snapshot
    invocation: RawInvocation
    effective_text: str  # canonical_serialize of the effective set


# Both kinds share one codec: a record line holds "kind", the record's own
# FIELDS under their names, the invocation and the canonical effective text.
Record = TranslationUnitRecord | LinkTargetRecord

_RECORD_TYPES = {cls.KIND: cls for cls in (TranslationUnitRecord, LinkTargetRecord)}


def _encode_record(rec: Record) -> str:
    d = {name: getattr(rec, name) for name in rec.FIELDS}
    d["kind"] = rec.KIND
    inv = rec.invocation
    d["invocation"] = {
        "program": inv.program,
        # A command-line token is stored as its bare text, any other as an object.
        "tokens": [t.text if t.origin.kind == "command-line" else
                   {"text": t.text, "origin": vars(t.origin)} for t in inv.tokens],
        "cwd": inv.cwd,
        "source": inv.source,
        "dialect": {"family": inv.dialect.family.value, "tool_kind": inv.dialect.tool_kind.value},
    }
    d["effective"] = rec.effective_text
    return _canon(d)


def _field(d: dict, name: str, kind=str):
    """The value stored in `d` under `name`, which must be of type `kind`."""
    value = d[name]  # of an exact type: JSON decodes to no subclass, and a bool is an int
    if type(value) is not kind and not (strictjson.is_str_list(value) if type(kind) is GenericAlias
                                        else type(kind) is tuple and type(value) in kind):
        raise TypeError(f"stored {name} has the wrong type: {type(value).__name__}")
    return value


def _stored_token(t: dict, tokens: TokenTable) -> Token:
    """The token stored as the object `t`; a command-line one is the load's Token for its text."""
    text, o = _field(t, "text"), t["origin"]
    if _field(o, "kind") == "command-line":
        return tokens[text]
    return Token(text, Origin(o["kind"], _field(o, "path"), _field(o, "index", int)))


def _unreadable(lineno: int, exc: Exception) -> CorruptSnapshot:
    return CorruptSnapshot("a snapshot line", f"{type(exc).__name__}: {exc}",
                           f"unreadable snapshot line {lineno}")


def _classified_as_stored(rec: Record, memo: dict) -> list[flagmodel.FlagEntry] | None:
    """The entries a record's tokens classify to now, if they resolve to a set
    that serializes to exactly its stored text; else None."""
    entries = flagmodel.classify_all(rec.invocation.tokens, rec.invocation.dialect, memo)
    resolved = flagmodel.canonical_serialize(flagmodel.resolve(entries))
    return entries if resolved == rec.effective_text.encode("utf-8") else None


class _Load:
    """What the records of one load share: one Token per command-line text, and
    one FlagEntry per flag-set line, which each record keeps to build its set."""

    def __init__(self):
        self.tokens = TokenTable()
        self.flagset_lines: dict = {}

    def record(self, cls: type[Record], d: dict, lineno: int) -> Record:
        """The record stored as `d` on line `lineno`, with its set not yet built."""
        i = d["invocation"]
        stored = _field(i, "tokens", list)  # a string would read as one token per character
        try:  # a bare string is a command-line token, one per text; an object is any token
            tokens = tuple(map(self.tokens.__getitem__, stored))
        except TypeError:  # an object token is unhashable
            tokens = tuple(self.tokens[t] if type(t) is str else _stored_token(t, self.tokens)
                           for t in stored)
        inv = RawInvocation(_field(i, "program"), tokens, _field(i, "cwd"), _field(i, "source"),
                            DIALECTS[i["dialect"]["family"], i["dialect"]["tool_kind"]])
        rec = cls(**{name: _field(d, name, kind) for name, kind in cls.FIELDS.items()},
                  invocation=inv, effective_text=_field(d, "effective"))
        rec._flagset_lines, rec._line = self.flagset_lines, lineno
        return rec


@dataclass
class BuildSnapshot:
    build_id: str
    label: str
    created: str  # RFC3339
    tus: list[TranslationUnitRecord] = field(default_factory=list)
    targets: list[LinkTargetRecord] = field(default_factory=list)
    diagnostics: list[dict] = field(default_factory=list)
    content_hash: str = ""

    def named(self, scope: str) -> list[tuple[str, Record]]:
        """Each record of one scope, "tu" or "target", with its subject, in stored order.
        A TU whose source another TU shares is named by its output file. A name may
        repeat: a build that links one output twice lists two targets of that name.
        `drifted` checks every record through it, as audit R2, R3 and R5 check every target."""
        if scope == "target":
            return [(r.output, r) for r in self.targets]
        shared = Counter(r.source_file for r in self.tus)
        return [(r.output_file if shared[r.source_file] > 1 and r.output_file else r.source_file, r)
                for r in self.tus]

    def by_subject(self, scope: str) -> dict[str, Record]:
        """Records of one scope keyed by subject; of two that share one, the later, the file
        the build leaves. diff, history, query, stamp and audit R7 read records through it."""
        return dict(self.named(scope))

    def record(self, subject: str) -> Record | None:
        """The TU with this subject, else the link target with it, else None."""
        return self.by_subject("tu").get(subject) or self.by_subject("target").get(subject)

    def drifted(self) -> list[tuple[str, Record]]:
        """(subject, record) pairs, TUs then link targets, of the records whose
        effective text is not the bytes their tokens resolve to now.

        Re-resolves every record by the rule `origins` uses, `_classified_as_stored`,
        and decodes no stored set. A rewritten or non-canonical stored set, or a
        vocabulary edit since ingest, shows here, and only here.
        """
        memo: dict = {}
        return [(subject, r) for scope in ("tu", "target") for subject, r in self.named(scope)
                if _classified_as_stored(r, memo) is None]

    def serialize(self) -> bytes:
        """Encode each record once, set content_hash over those lines and return the file."""
        lines = [_encode_record(r).encode("utf-8") for r in (*self.tus, *self.targets)]
        h = hashlib.sha256()
        for line in lines:
            h.update(line)
            h.update(b"\n")
        self.content_hash = h.hexdigest()
        lines.insert(0, _canon({
            "snapshot_version": SNAPSHOT_VERSION,
            "build_id": self.build_id,
            "label": self.label,
            "created": self.created,
            "content_hash": self.content_hash,
        }).encode("utf-8"))
        lines.extend(_canon({"kind": "diagnostic", **d}).encode("utf-8") for d in self.diagnostics)
        lines.append(b"")
        return b"\n".join(lines)

    @classmethod
    def deserialize(cls, data: bytes) -> "BuildSnapshot":
        """Decode stored bytes, hashing each record line as read.

        Lines split on LF only: paths may hold U+0085 or U+2028, which
        canonical JSON leaves unescaped. A line whose JSON gives a lone
        surrogate is as unreadable as one that is not JSON.
        """
        lines = data.removesuffix(b"\n").split(b"\n")
        h = hashlib.sha256()
        lineno = 1
        try:
            header = strictjson.loads(lines[0].decode("utf-8"))
            version = header["snapshot_version"]
            if type(version) is not int or version not in _READABLE_VERSIONS:
                raise CorruptSnapshot(" or ".join(map(str, _READABLE_VERSIONS)), repr(version),
                                      "unsupported snapshot version")
            snap = cls(_field(header, "build_id"), _field(header, "label"), _field(header, "created"),
                       content_hash=_field(header, "content_hash"))
            load = _Load()
            for lineno, line in enumerate(lines[1:], start=2):
                d = strictjson.loads(line.decode("utf-8"))
                kind = d.pop("kind")
                if kind == "diagnostic":
                    snap.diagnostics.append(d)
                    continue
                h.update(line)
                h.update(b"\n")
                rec = load.record(_RECORD_TYPES[kind], d, lineno)
                (snap.tus if kind == "tu" else snap.targets).append(rec)
        except (AttributeError, LookupError, TypeError, ValueError) as exc:
            raise _unreadable(lineno, exc) from None
        actual = h.hexdigest()
        if actual != snap.content_hash:
            raise CorruptSnapshot(snap.content_hash, actual)
        return snap
