"""Immutable build-snapshot records and their canonical serialization.

A snapshot captures every translation unit and link target observed in one
build of one configuration. Records serialize to line-delimited canonical
JSON (UTF-8, LF, keys sorted) so stored snapshots stay diffable with plain
text tools; `_encode_record` writes each line from its parts, escaping each
string once. A record holds its invocation's tokens after `@file`
expansion, each a str, with their origins beside them. The content hash,
`_content_hash`, is SHA-256 over the record lines. This module alone knows
how tokens, origins and dialects are stored.

The header's `snapshot_version` says how tokens are stored. Version 2, which
every snapshot is written in, stores a command-line token as its bare text
and a response-file token as a {"text", "origin"} object; version 1 stores
every token as an object, a command-line one with the origin {"kind":
"command-line"}. Both read through one decoder, and a loaded v1 snapshot
serializes as v2; any other version is rejected. The header, outside the
hash, reads only as the line `_header` writes.

A load reads each other line only in writing's layout: every JSON object in
it (a line by its kind, an invocation, a dialect, a token and its origin)
holds exactly its layout's keys, in sorted order, each value of the type
named there, an origin's index an int that is no bool; a target's inputs are
strs and its member lists the ones `_members` derives. A load does not
compare spaces, escapes or a repeated key (comparing each line with
`_encode_record` made it 53-56% slower); `verify` compares each line of a v2
file through `check_as_written`. Diagnostic lines are outside the hash: one
can be deleted or reworded, as written, unnoticed. A load interns
command-line words and builds an invocation only when read. Every record
holds the canonical text of its effective set, `effective_text`, which the
hash covers and writing copies; the set is built from it when first read, so
a command decodes only the sets it reads, each set line once per `Store`. A
set line that does not decode, or is not the line `flagmodel` writes for its
entry, raises `CorruptSnapshot` naming its line. A load notices neither a
rewritten set whose hashes were recomputed nor a vocabulary edit since
ingest; `verify` finds both through `drifted()`, which decodes no stored
set: a record's tokens must resolve to a set that serializes to exactly its
text.

The stored text has no token origins, which only audit evidence reads.
A record's `origins` re-classifies its tokens when one came from a
response file, by the rule `drifted()` checks: while they resolve to the
stored text, each winner's token origin stands in the winner's place;
otherwise there are none, and evidence names the source alone.
"""

from __future__ import annotations

import hashlib
import io
import json
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import cached_property
from json.encoder import encode_basestring as _q  # a string as `_canon` writes it

from . import flagmodel, strictjson
from .cmdline import DIALECTS, Origin, RawInvocation
from .errors import CorruptSnapshot

SNAPSHOT_VERSION = 2  # the version every snapshot is written in; 1 and 2 read


_canon = json.JSONEncoder(ensure_ascii=False, sort_keys=True, separators=(",", ":")).encode


class _Record:
    """Both kinds of record hold `effective_text`, and build `effective` from it on first read."""

    _flagset_lines: dict | None = None  # the set-line memo of the load that read the record
    _line = 0  # the line the record was read from

    def __getattr__(self, name: str):
        """A loaded record's `invocation`, built on first read from the parts its load checked."""
        if name != "invocation":
            raise AttributeError(name)
        self.invocation = inv = RawInvocation(*self._invocation_parts)
        return inv

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
        inv = self.invocation
        if any(inv.origins):
            entries = _classified_as_stored(self, {})
            if entries is not None:
                return flagmodel.resolve(entries, [inv.origins[i]
                                                   for i in flagmodel.token_indices(inv.tokens, entries)])
        return None


@dataclass
class TranslationUnitRecord(_Record):
    KIND = "tu"
    FIELDS = ("source_file", "output_file")  # the record's own stored fields

    source_file: str
    output_file: str | None
    invocation: RawInvocation
    effective_text: str  # canonical_serialize of the effective set


@dataclass
class LinkTargetRecord(_Record):
    KIND = "target"
    FIELDS = ("output", "inputs")

    output: str
    inputs: list[str]  # normalized paths / library names, command order
    invocation: RawInvocation
    effective_text: str  # canonical_serialize of the effective set


Record = TranslationUnitRecord | LinkTargetRecord  # both kinds share one codec


def _layout(**types):
    """The check that an object is laid out as writing writes it: exactly these keys, in
    this order, each value of its type. JSON decodes to no subclass of str, list or dict."""
    keys, json_types = tuple(types), tuple(types.values())
    def laid_out(d: dict) -> dict:
        if tuple(d) != keys or not all(map(isinstance, d.values(), json_types)):
            raise ValueError(f"stored object is not laid out as writing writes {keys}")
        return d
    return laid_out


# A line's layout by its kind; a target's lists are tested as `_members` reads and derives them.
_LINES = {"tu": _layout(effective=str, invocation=dict, kind=str, output_file=(str, type(None)), source_file=str),
          "target": _layout(effective=str, external_inputs=list, inputs=list, invocation=dict, kind=str,
                            member_tus=list, output=str),
          "diagnostic": _layout(kind=str, program=str, reason=str, source=str)}
_INVOCATION = _layout(cwd=str, dialect=dict, program=str, source=str, tokens=list)
_DIALECT, _TOKEN = _layout(family=str, tool_kind=str), _layout(origin=dict, text=str)
_RSP_ORIGIN = _layout(index=int, kind=str, path=str)


def _members(target: LinkTargetRecord, by_output: dict) -> dict[str, list[str]]:
    """A target's member lists as stored: the sources of the TUs it links, in link
    order, and its other inputs. Writing stores them; a load refuses any others."""
    return {"member_tus": [by_output[p][1].source_file for p in target.inputs if p in by_output],
            "external_inputs": [p for p in target.inputs if p not in by_output]}


def _encode_record(rec: Record, by_output: dict) -> str:
    """The line `_canon` writes for the record, written from its parts in sorted key order."""
    inv, dialect = rec.invocation, rec.invocation.dialect
    # A command-line token is stored as its bare text, a response-file one as an object.
    tokens = ",".join([_q(t) if o is None else
                       '{"origin":{"index":%d,"kind":"response-file","path":%s},"text":%s}'
                       % (o.index, _q(o.path), _q(t))
                       for t, o in zip(inv.tokens, inv.origins)])
    invocation = (f'"invocation":{{"cwd":{_q(inv.cwd)},"dialect":{{"family":"{dialect.family.value}",'
                  f'"tool_kind":"{dialect.tool_kind.value}"}},"program":{_q(inv.program)},'
                  f'"source":{_q(inv.source)},"tokens":[{tokens}]}}')
    effective = f'{{"effective":{_q(rec.effective_text)}'
    if rec.KIND == "tu":
        return (f'{effective},{invocation},"kind":"tu","output_file":{_canon(rec.output_file)},'
                f'"source_file":{_q(rec.source_file)}}}')
    members = _members(rec, by_output)
    return (f'{effective},"external_inputs":{_canon(members["external_inputs"])},'
            f'"inputs":{_canon(rec.inputs)},{invocation},"kind":"target",'
            f'"member_tus":{_canon(members["member_tus"])},"output":{_q(rec.output)}}}')


def _stored_token(t, words: dict[str, str], version: int) -> tuple[str, Origin | None]:
    """The token stored as `t` in a snapshot of `version`, and its origin; `words` as in `_decode_record`."""
    if type(t) is str and version == 2:
        return words.setdefault(t, t), None
    o, text = _TOKEN(t).values()
    if version == 1 and o == {"kind": "command-line"}:
        return words.setdefault(text, text), None
    index, kind, path = _RSP_ORIGIN(o).values()
    if kind != "response-file" or type(index) is not int:  # a bool is an int to isinstance
        raise ValueError(f"stored origin is not one writing writes: {o}")
    return text, Origin(path, index)


def _content_hash(record_lines: Iterable[bytes]) -> str:
    """The content hash: SHA-256 over the `tu` and `target` lines in stored order, each given without LF, then LF."""
    h = hashlib.sha256()
    for line in record_lines:
        h.update(line)
        h.update(b"\n")
    return h.hexdigest()


def _unreadable(lineno: int, exc: Exception) -> CorruptSnapshot:
    return CorruptSnapshot("a snapshot line", f"{type(exc).__name__}: {exc}",
                           f"unreadable snapshot line {lineno}")


def _classified_as_stored(rec: Record, memo: dict) -> list[flagmodel.FlagEntry] | None:
    """The entries a record's tokens classify to now, if they resolve to a set
    that serializes to exactly its stored text; else None."""
    entries = flagmodel.classify_all(rec.invocation.tokens, rec.invocation.dialect, memo)
    resolved = flagmodel.canonical_serialize(flagmodel.resolve(entries))
    return entries if resolved == rec.effective_text else None


def _decode_record(kind: str, d: dict, words: dict[str, str], version: int) -> Record:
    """The `kind` record stored as `d` in `version`, its set and invocation unbuilt; `words` interns its words."""
    cwd, dialect, program, source, stored = _INVOCATION(d["invocation"]).values()
    if not stored or version == 2 and strictjson.is_str_list(stored):  # only command-line words
        toks, origins = tuple(map(words.setdefault, stored, stored)), (None,) * len(stored)
    else:
        toks, origins = zip(*[_stored_token(t, words, version) for t in stored])
    rec = object.__new__(TranslationUnitRecord if kind == "tu" else LinkTargetRecord)
    for name in rec.FIELDS:
        setattr(rec, name, d[name])
    rec.effective_text, rec._invocation_parts = d["effective"], (
        program, toks, origins, cwd, source, DIALECTS[tuple(_DIALECT(dialect).values())])
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

    def by_output(self) -> dict[str, tuple[str, TranslationUnitRecord]]:
        """(subject, TU) by output file: the TUs a link target's inputs name are its members."""
        return {tu.output_file: (subject, tu) for subject, tu in self.named("tu")}

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

    def _header(self, version: int) -> str:
        """The header line of this snapshot in `version`, as `_canon` writes its fields."""
        return ('{"build_id":%s,"content_hash":%s,"created":%s,"label":%s,"snapshot_version":%d}'
                % (_q(self.build_id), _q(self.content_hash), _q(self.created), _q(self.label), version))

    def lines(self) -> list[bytes]:
        """Encode each record once, set content_hash over those lines and return the file's lines, without LFs."""
        by_output = self.by_output()
        records = [_encode_record(r, by_output).encode("utf-8") for r in (*self.tus, *self.targets)]
        self.content_hash = _content_hash(records)
        return [self._header(SNAPSHOT_VERSION).encode("utf-8"), *records, *(
            _canon({"kind": "diagnostic", **d}).encode("utf-8") for d in self.diagnostics)]

    def serialize(self) -> bytes:
        """The file: each of `lines` ending in LF."""
        return b"\n".join([*self.lines(), b""])

    @classmethod
    def deserialize(cls, data: bytes | Iterable[bytes], flagset_lines: dict | None = None) -> "BuildSnapshot":
        """Decode stored bytes or an open binary file one line at a time, each line checked and hashed,
        then dropped; check targets' member lists. Lines end at LF only, as binary line iteration
        ends them: a CR ends none, nor does a path's U+0085 or U+2028, which canonical JSON leaves
        unescaped. A line whose JSON gives a lone surrogate is as unreadable as one that is not JSON;
        sets decode through `flagset_lines`."""
        lines = io.BytesIO(data) if isinstance(data, bytes) else iter(data)
        lineno = 1
        try:
            header = strictjson.loads(text := next(lines, b"").removesuffix(b"\n").decode("utf-8"))
            version = header["snapshot_version"]
            if type(version) is not int or version not in (1, 2):
                raise CorruptSnapshot("1 or 2", repr(version), "unsupported snapshot version")
            snap = cls(header["build_id"], header["label"], header["created"],
                       content_hash=header["content_hash"])
            if snap._header(version) != text:
                raise ValueError("the header is not the line writing writes for its fields")
            words, target_lines, flagset_lines = {}, [], {} if flagset_lines is None else flagset_lines
            def record_lines():  # each line after the header, decoded; a record line goes on to the hash
                nonlocal lineno
                for lineno, line in enumerate(lines, start=2):
                    d = strictjson.loads((line := line.removesuffix(b"\n")).decode("utf-8"))
                    kind = _LINES[d["kind"]](d).pop("kind")
                    if kind == "diagnostic":
                        snap.diagnostics.append(d)
                        continue
                    rec = _decode_record(kind, d, words, version)
                    rec._flagset_lines, rec._line = flagset_lines, lineno
                    (snap.tus if kind == "tu" else snap.targets).append(rec)
                    if kind == "target":
                        target_lines.append(d)
                    yield line
            actual = _content_hash(record_lines())
        except (AttributeError, LookupError, TypeError, ValueError) as exc:
            raise _unreadable(lineno, exc) from None
        if actual != snap.content_hash:
            raise CorruptSnapshot(snap.content_hash, actual)
        by_output = snap.by_output()
        for rec, d in zip(snap.targets, target_lines):
            if not strictjson.is_str_list(rec.inputs) or any(  # strs before `_members` reads them
                    d.get(name) != value for name, value in _members(rec, by_output).items()):
                raise _unreadable(rec._line, ValueError("inputs or member lists are not as written"))
        return snap

    def check_as_written(self, data: bytes) -> None:
        """Raise CorruptSnapshot naming the first line of the loaded v2 file `data` not as written.
        `verify` reads the file once and passes the same bytes here and to `deserialize`."""
        lines = io.BytesIO(data)
        if next(lines, b"").removesuffix(b"\n") != self._header(SNAPSHOT_VERSION).encode():
            return
        by_output, diagnostics = self.by_output(), iter(self.diagnostics)
        written = {r._line: _encode_record(r, by_output) for r in (*self.tus, *self.targets)}
        for lineno, line in enumerate(lines, start=2):
            text = written.get(lineno) or _canon({"kind": "diagnostic", **next(diagnostics)})
            if line.removesuffix(b"\n") != text.encode():
                raise CorruptSnapshot("writing's bytes", "other bytes", f"snapshot line {lineno} is not as written")
