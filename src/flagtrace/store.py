"""Append-only snapshot store with retrieval by id, label, and time order.

Layout (frozen, version-headed):

    <root>/VERSION              "flagtrace-store v1"
    <root>/index.tsv            tab-separated: build_id label created hash relpath
    <root>/snapshots/<name>.fts line-delimited canonical snapshot file

The directories and VERSION are created by the first put; reading a store that
does not exist finds no builds and creates nothing. Snapshots are immutable once
written: there is no delete or compact command, and a put never rewrites
previously stored bytes. LF alone commits an index line: readers ignore a torn
final line (without an LF, as a crash during put leaves, or ending in CR) and
the next put cuts it; a committed line holding a CR is malformed. Put refuses a
TAB, CR or LF in a build id, label or created time, and text that is not UTF-8,
before it creates anything, and a build id whose file another holds; it writes
the lines it encoded without joining them. A load opens only the file put names,
and checks the hash, then the header's build id, label and created time, against
the index line. It reads the file one line at a time and checks each record line
in full, builds invocations when read, and shares one set-line memo among a
Store's loads; only verify, which compares each line with writing's bytes, holds
the file's bytes. Writes are serialized through an advisory lock file; reads
take no lock.
"""

from __future__ import annotations

import fcntl
import hashlib
import os
from pathlib import Path
from typing import NamedTuple

from .errors import CorruptSnapshot, DuplicateBuildId, FlagtraceError, MalformedIndex, NotFound
from .flagmodel import ABSENT, EffectiveFlagSet
from .snapshot import BuildSnapshot

STORE_VERSION = "flagtrace-store v1"

FIELD_BREAKS = "\t\r\n"  # an index field holds none: each would end the field or its line
_BUFFER = 1 << 20  # a snapshot file's read and write buffer: a few calls for a full-size build


class IndexEntry(NamedTuple):
    build_id: str
    label: str
    created: str
    content_hash: str
    relpath: str


class Store:
    def __init__(self, root: str):
        self.root = root
        self.snap_dir = os.path.join(root, "snapshots")
        self.index_path = os.path.join(root, "index.tsv")
        self.version_path = os.path.join(root, "VERSION")
        self.lock_path = os.path.join(root, ".lock")
        self._flagset_lines: dict = {}  # the set-line memo of every load, as `deserialize` takes it

    def _read_index(self, index: bytes | None = None) -> list[IndexEntry]:
        if index is None:
            index = Path(self.index_path).read_bytes() if os.path.exists(self.index_path) else b""
        entries = []
        for lineno, line in enumerate(index[:_committed(index)].split(b"\n")[:-1], start=1):
            if not line:
                continue
            if b"\r" in line:
                raise MalformedIndex(self.index_path, lineno, "CR in line")
            try:
                fields = line.decode("utf-8").split("\t")
            except UnicodeDecodeError:
                raise MalformedIndex(self.index_path, lineno, "not UTF-8") from None
            if len(fields) != 5:
                raise MalformedIndex(self.index_path, lineno)
            if "\0" in fields[4]:
                raise MalformedIndex(self.index_path, lineno, "NUL in snapshot path")
            entries.append(IndexEntry(*fields))
        return entries

    def put(self, snapshot: BuildSnapshot) -> str:
        """Durably write a snapshot, then index it; returns the content hash."""
        for field in ("build_id", "label", "created"):
            if any(c in getattr(snapshot, field) for c in FIELD_BREAKS):
                raise FlagtraceError(f"{field} must not contain a tab, CR or LF")
        try:
            lines = snapshot.lines()  # sets snapshot.content_hash over these lines
        except UnicodeEncodeError as exc:  # a lone surrogate: a word or file name not UTF-8
            raise FlagtraceError(f"not UTF-8, cannot be stored: {exc.object[:exc.end][-60:]!r}") from None
        os.makedirs(self.snap_dir, exist_ok=True)
        with open(self.lock_path, "w") as lock, open(self.index_path, "a+b") as index_fh:
            fcntl.flock(lock, fcntl.LOCK_EX)
            if not os.path.exists(self.version_path):
                Path(self.version_path).write_text(STORE_VERSION + "\n", encoding="utf-8")
            index_fh.seek(0)
            index = index_fh.read()
            relpath = _snapshot_relpath(snapshot.build_id)
            for e in self._read_index(index):
                if e.build_id == snapshot.build_id:
                    raise DuplicateBuildId(snapshot.build_id)
                if e.relpath == relpath:  # two build ids whose names share 64 bits of hash
                    raise FlagtraceError(f"{relpath} already holds the snapshot of {e.build_id}")
            final = os.path.join(self.root, relpath)
            tmp = final + ".tmp"
            with open(tmp, "wb", buffering=_BUFFER) as fh:
                fh.writelines(line + b"\n" for line in lines)
                fh.flush()
                os.fsync(fh.fileno())
            os.rename(tmp, final)
            dir_fd = os.open(self.snap_dir, os.O_RDONLY)  # make the rename durable
            try:
                os.fsync(dir_fd)
            finally:
                os.close(dir_fd)
            line = "\t".join([snapshot.build_id, snapshot.label, snapshot.created,
                              snapshot.content_hash, relpath]) + "\n"
            if _committed(index) < len(index):  # a torn final line, as read under the lock
                index_fh.truncate(_committed(index))
            index_fh.write(line.encode("utf-8"))
            index_fh.flush()
            os.fsync(index_fh.fileno())
        return snapshot.content_hash

    def get(self, build_id: str) -> BuildSnapshot:
        """Load and hash-verify one snapshot; NotFound for unknown ids."""
        for e in self._read_index():
            if e.build_id == build_id:
                return self._load(e)
        raise NotFound(build_id)

    def _load(self, e: IndexEntry, as_written: bool = False) -> BuildSnapshot:
        """Load the snapshot an index entry names; its hash, then its header, must match the entry.
        With `as_written`, which only verify sets, each line must be the line writing writes."""
        if e.relpath != (relpath := _snapshot_relpath(e.build_id)):  # before anything is opened
            raise CorruptSnapshot(relpath, e.relpath, "index line names another snapshot file")
        with open(os.path.join(self.root, e.relpath), "rb", buffering=_BUFFER) as fh:
            data = fh.read() if as_written else fh  # only verify compares bytes, so only it holds them
            snap = BuildSnapshot.deserialize(data, self._flagset_lines)
        if snap.content_hash != e.content_hash:
            raise CorruptSnapshot(e.content_hash, snap.content_hash)
        if (header := (snap.build_id, snap.label, snap.created)) != e[:3]:
            raise CorruptSnapshot(e[:3], header, "snapshot header disagrees with its index line")
        if as_written:
            snap.check_as_written(data)
        return snap

    def list_builds(self, label: str | None = None) -> list[IndexEntry]:
        return sorted((e for e in self._read_index() if label is None or e.label == label),
                      key=lambda e: (e.created, e.build_id))

    def history(
        self, label: str, flag_query: tuple[str, str] | None = None
    ) -> list[tuple[str, str, dict]]:
        """Builds with the label in created order, optionally summarizing a flag.

        flag_query is (scope, key) with scope "tu" or "target"; the
        summary maps each subject in scope to the winning value of the
        group `key` (or ABSENT). Also reports a macro name's definition
        when `key` names no scalar group.

        History queries are a linear scan over stored snapshots, after
        one read of the index; there is no imposed bound on history length.
        A summary value is found once per stored effective text of the
        build being read and of the build before it.
        """
        out = []
        values: dict[str, str] = {}  # summary value by stored effective text
        for e in self.list_builds(label):
            summary: dict[str, str] = {}
            if flag_query is not None:
                scope, key = flag_query
                previous, values = values, {}  # keep the last build's values only
                for subject, rec in self._load(e).by_subject(scope).items():
                    text = rec.effective_text
                    summary[subject] = values[text] = (values.get(text) or previous.get(text)
                                                       or _summary_value(rec.effective, key))
            out.append((e.build_id, e.created, summary))
        return out

    def verify(self, build_ids: list[str] | None = None) -> list[tuple[str, str | None, list[str]]]:
        """Load each named build (default: every indexed build) and re-resolve its records.

        Returns (build_id, error, drifted subjects) per build, in the
        order given or else created order: error is why the build, or a
        drifted record's stored set, could not be read, else None; drifted subjects
        name the records whose stored text is not what they resolve to now.
        Raises NotFound for an unknown id before loading anything.
        """
        entries = self.list_builds()
        if build_ids:
            by_id = {e.build_id: e for e in entries}
            for build_id in build_ids:
                if build_id not in by_id:
                    raise NotFound(build_id)
            entries = [by_id[b] for b in build_ids]
        out = []
        for e in entries:
            try:
                drifted = self._load(e, as_written=True).drifted()
                for _, rec in drifted:  # decodes its stored set: one that cannot be decoded fails here
                    rec.effective
                out.append((e.build_id, None, [subject for subject, _ in drifted]))
            except (CorruptSnapshot, OSError) as exc:
                out.append((e.build_id, str(exc), []))
        return out


def _snapshot_relpath(build_id: str) -> str:
    """The one file, relative to the root, that holds a build's snapshot."""
    return os.path.join("snapshots", hashlib.sha256(build_id.encode()).hexdigest()[:16] + ".fts")


def _committed(index: bytes) -> int:
    return index.rfind(b"\n") + 1  # the committed lines of index bytes end at the last LF


def _summary_value(eff: EffectiveFlagSet, key: str) -> str:
    """The winning value (else spelling) of group `key`, else macro `key`'s spelling, else ABSENT."""
    winner = eff.group_value(key)
    if winner is not None:
        return winner.value if winner.value is not None else winner.spelling
    if key in eff.defines:
        return eff.defines[key].spelling
    return ABSENT
