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
query speed and still revalidated on load by re-resolving the stored
tokens; the records of one snapshot share one classification memo and
one Token object per command-line text.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from . import flagmodel
from .cmdline import Dialect, RawInvocation, Token
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


def _decode_tokens(stored: list, interned: dict[str, Token]) -> tuple[Token, ...]:
    """A bare string is a command-line token, shared per text; an object is any token."""
    tokens = []
    for t in stored:
        if type(t) is str:
            tok = interned.get(t)
            if tok is None:
                tok = interned[t] = Token(t)
        else:
            tok = Token.from_dict(t)
        tokens.append(tok)
    return tuple(tokens)


def _decode_record(cls: type[Record], d: dict, memo: dict, interned: dict[str, Token]) -> Record:
    """Rebuild a record, re-resolving its invocation to check the stored effective set.

    `memo` is the snapshot's `classify_all` memo and `interned` its
    command-line tokens by text.
    """
    i = d["invocation"]
    inv = RawInvocation(i["program"], _decode_tokens(i["tokens"], interned),
                        i["cwd"], i["source"], Dialect.from_dict(i["dialect"]))
    eff = flagmodel.resolve(flagmodel.classify_all(list(inv.tokens), inv.dialect, memo))
    stored = d["effective"].encode("utf-8")
    actual = flagmodel.canonical_serialize(eff)
    if stored != actual:
        raise CorruptSnapshot(
            hashlib.sha256(stored).hexdigest(), hashlib.sha256(actual).hexdigest()
        )
    return cls(*(d[name] for name in cls.FIELDS), inv, eff)


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
    def deserialize(cls, data: bytes) -> "BuildSnapshot":
        """Decode stored bytes, hashing each record line as read.

        Lines split on LF only: paths may hold U+0085 or U+2028, which
        canonical JSON leaves unescaped.
        """
        lines = data.removesuffix(b"\n").split(b"\n")
        h = hashlib.sha256()
        memo: dict = {}
        interned: dict[str, Token] = {}
        lineno = 1
        try:
            header = json.loads(lines[0].decode("utf-8"))
            version = header["snapshot_version"]
            if type(version) is not int or version not in _READABLE_VERSIONS:
                raise CorruptSnapshot(" or ".join(map(str, _READABLE_VERSIONS)), repr(version),
                                      "unsupported snapshot version")
            snap = cls(header["build_id"], header["label"], header["created"],
                       content_hash=header["content_hash"], snapshot_version=version)
            for lineno, line in enumerate(lines[1:], start=2):
                d = json.loads(line.decode("utf-8"))
                kind = d.pop("kind")
                if kind not in _RECORD_TYPES:
                    snap.diagnostics.append(d)
                    continue
                h.update(line)
                h.update(b"\n")
                rec = _decode_record(_RECORD_TYPES[kind], d, memo, interned)
                (snap.tus if kind == "tu" else snap.targets).append(rec)
        except (AttributeError, LookupError, RecursionError, TypeError, ValueError) as exc:
            raise CorruptSnapshot("a snapshot line", f"{type(exc).__name__}: {exc}",
                                  f"unreadable snapshot line {lineno}") from None
        actual = h.hexdigest()
        if actual != snap.content_hash:
            raise CorruptSnapshot(snap.content_hash, actual)
        return snap
