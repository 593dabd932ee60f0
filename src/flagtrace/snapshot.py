"""Immutable build-snapshot records and their canonical serialization.

A snapshot captures every translation unit and link target observed in
one build of one configuration. Records serialize to line-delimited
canonical JSON (UTF-8, LF) so stored snapshots stay diffable with plain
text tools. A record holds the tokens its effective flag set was
resolved from: its invocation's tokens after `@file` expansion, each
with its origin. `serialize()` encodes each record once and sets the
content hash, SHA-256 over the record lines it writes.

On load the hash is checked over the record lines as stored, without
re-serializing them. Effective flag sets are stored denormalized for
query speed and still revalidated on load by re-resolving the stored
tokens; the records of one snapshot share one classification memo.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from . import flagmodel
from .cmdline import RawInvocation
from .errors import CorruptSnapshot

SNAPSHOT_VERSION = 1


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


def _encode_record(rec: Record) -> str:
    d = {name: getattr(rec, name) for name in rec.FIELDS}
    d["kind"] = rec.KIND
    d["invocation"] = rec.invocation.to_dict()
    d["effective"] = flagmodel.canonical_serialize(rec.effective).decode("utf-8")
    return _canon(d)


def _decode_record(cls: type[Record], d: dict, memo: dict) -> Record:
    """Rebuild a record, re-resolving its invocation to check the stored effective set.

    `memo` is the snapshot's `classify_all` memo.
    """
    inv = RawInvocation.from_dict(d["invocation"])
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

    def by_subject(self, scope: str) -> dict[str, Record]:
        """Records of one scope, "tu" or "target", keyed by subject; a later duplicate wins."""
        return {r.subject: r for r in (self.targets if scope == "target" else self.tus)}

    def record(self, subject: str) -> Record | None:
        """The TU with this subject, else the link target with it, else None."""
        return self.by_subject("tu").get(subject) or self.by_subject("target").get(subject)

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
        canonical JSON leaves unescaped.
        """
        lines = data.removesuffix(b"\n").split(b"\n")
        h = hashlib.sha256()
        memo: dict = {}
        lineno = 1
        try:
            header = json.loads(lines[0].decode("utf-8"))
            snap = cls(header["build_id"], header["label"], header["created"],
                       content_hash=header["content_hash"])
            for lineno, line in enumerate(lines[1:], start=2):
                d = json.loads(line.decode("utf-8"))
                kind = d.pop("kind")
                if kind not in _RECORD_TYPES:
                    snap.diagnostics.append(d)
                    continue
                h.update(line)
                h.update(b"\n")
                rec = _decode_record(_RECORD_TYPES[kind], d, memo)
                (snap.tus if kind == "tu" else snap.targets).append(rec)
        except (AttributeError, LookupError, TypeError, ValueError) as exc:
            raise CorruptSnapshot("a snapshot line", f"{type(exc).__name__}: {exc}",
                                  f"unreadable snapshot line {lineno}") from None
        actual = h.hexdigest()
        if actual != snap.content_hash:
            raise CorruptSnapshot(snap.content_hash, actual)
        return snap
