"""Immutable build-snapshot records and their canonical serialization.

A snapshot captures every translation unit and link target observed in
one build of one configuration. Records serialize to line-delimited
canonical JSON (UTF-8, LF) so stored snapshots stay diffable with plain
text tools. A record holds the tokens its effective flag set was
resolved from: its invocation's tokens after `@file` expansion, each
with its origin. `serialize()` encodes each record once and sets the
content hash, SHA-256 over the record lines it writes.

The header's `snapshot_version` says how tokens are stored. Version 2,
which new snapshots use, stores a command-line token as its bare text
and a response-file token as a {"text", "origin"} object; version 1
stores every token as an object. Both read through one decoder, and a
snapshot re-serializes in the version it was read in, so a stored v1
file keeps its bytes and hash. Any other version is rejected.

On load the hash is checked over the record lines as stored, without
re-serializing them. Effective flag sets are stored denormalized for
query speed, and a load has one rule for them: a record's set is the set
it stored, which the hash already covers. So a load notices neither a
rewritten set whose hashes were recomputed nor a vocabulary edit since
ingest; `drifted()` re-resolves every record to find both, for
`flagtrace verify`, the only judge of a stored set against the current
vocabulary.

The stored text has no token origins, which audit evidence needs, so a
record with a response-file token (and every v1 record) is re-resolved
to recover them: if the re-resolved set serializes to the stored text,
the record takes it, origins and all. Otherwise a v2 record keeps its
stored set, whose entries then name only the command line, and a v1
record is rejected, as v1 always was.

One `RecordDecoder` serves every load of one command (a `Store` makes
one), so the snapshots a command loads decode each distinct command-line
token, flag-set line and stored effective text once, and records of
consecutive builds share those objects. It keeps at most two loads'
worth: the current load's entries and those of the previous load that
the current one has not used yet.
"""

from __future__ import annotations

import gc
import hashlib
import json
from contextlib import contextmanager
from dataclasses import dataclass, field

from . import flagmodel, strictjson
from .cmdline import DIALECTS, RawInvocation, Token
from .errors import CorruptSnapshot

SNAPSHOT_VERSION = 2  # the version new snapshots are written in
_READABLE_VERSIONS = (1, 2)


_canon = json.JSONEncoder(ensure_ascii=False, sort_keys=True, separators=(",", ":")).encode


@dataclass
class TranslationUnitRecord:
    KIND = "tu"
    FIELDS = ("source_file", "output_file")

    source_file: str
    output_file: str | None
    invocation: RawInvocation
    effective: flagmodel.EffectiveFlagSet

    @property
    def subject(self) -> str:
        return self.source_file


@dataclass
class LinkTargetRecord:
    KIND = "target"
    FIELDS = ("output", "inputs", "member_tus", "external_inputs")

    output: str
    inputs: list[str]  # normalized paths / library names, command order
    member_tus: list[str]  # source files of TUs matched by output object path
    external_inputs: list[str]  # inputs with no TU evidence in this snapshot
    invocation: RawInvocation
    effective: flagmodel.EffectiveFlagSet

    @property
    def subject(self) -> str:
        return self.output


# Both kinds share one codec: a record line holds "kind", the record's own
# FIELDS under their names, the invocation and the canonical effective text.
Record = TranslationUnitRecord | LinkTargetRecord

_RECORD_TYPES = {cls.KIND: cls for cls in (TranslationUnitRecord, LinkTargetRecord)}


def _encode_record(rec: Record, version: int) -> str:
    d = {name: getattr(rec, name) for name in rec.FIELDS}
    d["kind"] = rec.KIND
    inv = rec.invocation
    d["invocation"] = {
        "program": inv.program,
        # v2 stores a command-line token as its bare text; v1 as an object.
        "tokens": [t.text if version > 1 and t.origin.kind == "command-line" else t.to_dict()
                   for t in inv.tokens],
        "cwd": inv.cwd,
        "source": inv.source,
        "dialect": inv.dialect.to_dict(),
    }
    d["effective"] = flagmodel.canonical_serialize(rec.effective).decode("utf-8")
    return _canon(d)


@contextmanager
def _cyclic_gc_paused():
    """Keep the cyclic garbage collector, if it is on, from running in the block.

    A load builds tens of thousands of objects that form no reference
    cycles and live as long as the snapshot; each pass the collector makes
    while they are built only walks them again. Pausing it saves about 5%
    of loading a 200-TU snapshot.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


class _Interned(dict):
    """One load's command-line tokens by text. Looking up a text this load has
    not used yet takes the previous load's Token for it, else makes one.

    Looking up anything but a string raises TypeError, as an unhashable
    object token does.
    """

    def __init__(self, previous: dict):
        self.previous = previous

    def __missing__(self, text):
        tok = self.previous.get(text)
        if tok is None:
            if type(text) is not str:
                raise TypeError("not a command-line token")
            tok = Token(text)
        self[text] = tok
        return tok


def _resolve(inv: RawInvocation, memo: dict) -> flagmodel.EffectiveFlagSet:
    """The set the invocation's tokens resolve to under the current vocabulary."""
    return flagmodel.resolve(flagmodel.classify_all(list(inv.tokens), inv.dialect, memo))


class RecordDecoder:
    """Rebuilds the records of the snapshots one command loads, each with the set
    it stored, sharing what they have in common: one Token per command-line
    text, one FlagEntry per flag-set line and one EffectiveFlagSet per stored
    effective text. That last table is keyed by the SHA-256 digest of the
    text, so the text is not kept.

    Each table maps stored content to what that content alone decodes to,
    so a load that fails leaves nothing wrong for the next one. Records
    with equal stored sets hold one object, so no caller may change a
    record's set in place; none does.

    Memory stays at two loads' worth: `start_load` keeps only the entries
    the last load used, and a lookup in the new load carries over what it
    finds there. The records a load re-resolves share one `classify_all`
    memo, which the next load does not inherit.
    """

    def __init__(self):
        self.tokens = _Interned({})
        self.flagset_lines: dict = {}
        self.effective_sets: dict[bytes, flagmodel.EffectiveFlagSet] = {}
        self.previous: tuple[dict, dict] = ({}, {})
        self.classified: dict = {}

    def start_load(self) -> None:
        """Begin a load: the last load's entries become the ones a lookup may carry over."""
        last_tokens, self.tokens.previous = self.tokens, {}
        self.tokens = _Interned(last_tokens)
        self.previous = (self.flagset_lines, self.effective_sets)
        self.flagset_lines, self.effective_sets = {}, {}
        self.classified = {}

    def decode(self, cls: type[Record], d: dict, version: int) -> Record:
        """The record with the set it stored; for one with an object token, that
        set as re-resolved, with its entries' origins, if it is the same set."""
        i = d["invocation"]
        tokens, command_line_only = self._tokens(i["tokens"])
        dialect = DIALECTS[i["dialect"]["family"], i["dialect"]["tool_kind"]]
        inv = RawInvocation(i["program"], tokens, i["cwd"], i["source"], dialect)
        text = d["effective"]
        eff = None
        if not command_line_only:  # re-resolve to recover the origins the text lacks
            resolved = _resolve(inv, self.classified)
            stored, actual = text.encode("utf-8"), flagmodel.canonical_serialize(resolved)
            if stored == actual:
                eff = resolved
            elif version == 1:
                raise CorruptSnapshot(hashlib.sha256(stored).hexdigest(),
                                      hashlib.sha256(actual).hexdigest())
        return cls(*(d[name] for name in cls.FIELDS), inv,
                   self._stored_set(text) if eff is None else eff)

    def _stored_set(self, text: str) -> flagmodel.EffectiveFlagSet:
        """The set stored as `text`: the one this load or the previous one made
        for its SHA-256 digest, else the text decoded."""
        digest = hashlib.sha256(text.encode("utf-8")).digest()
        eff = self.effective_sets.get(digest)
        if eff is None:
            previous_lines, previous_sets = self.previous
            eff = previous_sets.get(digest)
            if eff is None:
                eff = flagmodel.canonical_deserialize(text, self.flagset_lines, previous_lines)
            self.effective_sets[digest] = eff
        return eff

    def _tokens(self, stored: list) -> tuple[tuple[Token, ...], bool]:
        """The tokens, and whether all came from the command line.

        A bare string is a command-line token, shared per text; an object is any token.
        """
        try:
            return tuple(map(self.tokens.__getitem__, stored)), True
        except TypeError:  # an object token is unhashable
            pass
        return tuple(self.tokens[t] if type(t) is str else Token.from_dict(t)
                     for t in stored), False


@dataclass
class BuildSnapshot:
    build_id: str
    label: str
    created: str  # RFC3339
    tus: list[TranslationUnitRecord] = field(default_factory=list)
    targets: list[LinkTargetRecord] = field(default_factory=list)
    diagnostics: list[dict] = field(default_factory=list)
    content_hash: str = ""
    snapshot_version: int = SNAPSHOT_VERSION

    def by_subject(self, scope: str) -> dict[str, Record]:
        """Records of one scope, "tu" or "target", keyed by subject; a later duplicate wins."""
        return {r.subject: r for r in (self.targets if scope == "target" else self.tus)}

    def record(self, subject: str) -> Record | None:
        """The TU with this subject, else the link target with it, else None."""
        return self.by_subject("tu").get(subject) or self.by_subject("target").get(subject)

    def drifted(self) -> list[Record]:
        """Records whose effective set differs from what their tokens resolve to now.

        Re-resolves every record through the function load uses to recover
        origins, so a rewritten stored set or a vocabulary edit since
        ingest shows here, and only here.
        """
        memo: dict = {}
        return [r for r in (*self.tus, *self.targets) if _resolve(r.invocation, memo) != r.effective]

    def serialize(self) -> bytes:
        """Encode each record once, set content_hash over those lines and return the file."""
        lines = [_encode_record(r, self.snapshot_version).encode("utf-8")
                 for r in (*self.tus, *self.targets)]
        h = hashlib.sha256()
        for line in lines:
            h.update(line)
            h.update(b"\n")
        self.content_hash = h.hexdigest()
        lines.insert(0, _canon({
            "snapshot_version": self.snapshot_version,
            "build_id": self.build_id,
            "label": self.label,
            "created": self.created,
            "content_hash": self.content_hash,
        }).encode("utf-8"))
        lines.extend(_canon({"kind": "diagnostic", **d}).encode("utf-8") for d in self.diagnostics)
        lines.append(b"")
        return b"\n".join(lines)

    @classmethod
    @_cyclic_gc_paused()
    def deserialize(cls, data: bytes, decoder: RecordDecoder | None = None) -> "BuildSnapshot":
        """Decode stored bytes, hashing each record line as read.

        Pass one `decoder` for all the snapshots one command loads, so
        they share what they have in common; without one, the load uses
        its own. Lines split on LF only: paths may hold U+0085 or U+2028,
        which canonical JSON leaves unescaped. A line whose JSON gives a
        lone surrogate is as unreadable as one that is not JSON.
        """
        lines = data.removesuffix(b"\n").split(b"\n")
        h = hashlib.sha256()
        if decoder is None:
            decoder = RecordDecoder()
        decoder.start_load()
        lineno = 1
        try:
            header = strictjson.loads(lines[0].decode("utf-8"))
            version = header["snapshot_version"]
            if type(version) is not int or version not in _READABLE_VERSIONS:
                raise CorruptSnapshot(" or ".join(map(str, _READABLE_VERSIONS)), repr(version),
                                      "unsupported snapshot version")
            snap = cls(header["build_id"], header["label"], header["created"],
                       content_hash=header["content_hash"], snapshot_version=version)
            for lineno, line in enumerate(lines[1:], start=2):
                d = strictjson.loads(line.decode("utf-8"))
                kind = d.pop("kind")
                if kind not in _RECORD_TYPES:
                    snap.diagnostics.append(d)
                    continue
                h.update(line)
                h.update(b"\n")
                rec = decoder.decode(_RECORD_TYPES[kind], d, version)
                (snap.tus if kind == "tu" else snap.targets).append(rec)
        except (AttributeError, LookupError, TypeError, ValueError) as exc:
            raise CorruptSnapshot("a snapshot line", f"{type(exc).__name__}: {exc}",
                                  f"unreadable snapshot line {lineno}") from None
        actual = h.hexdigest()
        if actual != snap.content_hash:
            raise CorruptSnapshot(snap.content_hash, actual)
        return snap
