"""Append-only snapshot store with retrieval by id, label, and time order.

Layout (frozen, version-headed):

    <root>/VERSION              "flagtrace-store v1"
    <root>/index.tsv            tab-separated: build_id label created hash relpath
    <root>/snapshots/<name>.fts line-delimited canonical snapshot file

The directories and VERSION are created by the first put; reading a
store that does not exist finds no builds and creates nothing.
Snapshots are immutable once written: there is no delete or compact
command, and a put never rewrites previously stored bytes. An index
line is committed by its LF: readers ignore a final line without one,
which a crash during put can leave, and the next put cuts it. Writes
are serialized through an advisory lock file; reads take no lock.
"""

from __future__ import annotations

import fcntl
import hashlib
import os
import re
from dataclasses import dataclass

from .errors import CorruptSnapshot, DuplicateBuildId, MalformedIndex, NotFound
from .flagmodel import EffectiveFlagSet
from .snapshot import BuildSnapshot

STORE_VERSION = "flagtrace-store v1"

ABSENT = "Absent"


@dataclass(frozen=True)
class IndexEntry:
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

    def _read_index(self) -> list[IndexEntry]:
        if not os.path.exists(self.index_path):
            return []
        with open(self.index_path, "r", encoding="utf-8", errors="surrogateescape") as fh:
            text = fh.read()
        suspect = "\0" in text or not text.isascii()  # else no line needs the two checks below
        entries = []
        # The last piece is "" or a torn line that was never committed.
        for lineno, line in enumerate(text.split("\n")[:-1], start=1):
            if not line:
                continue
            if suspect and re.search("[\udc80-\udcff]", line):  # a byte surrogateescape kept
                raise MalformedIndex(self.index_path, lineno, "not UTF-8")
            fields = line.split("\t")
            if len(fields) != 5:
                raise MalformedIndex(self.index_path, lineno)
            if suspect and "\0" in fields[4]:
                raise MalformedIndex(self.index_path, lineno, "NUL in snapshot path")
            entries.append(IndexEntry(*fields))
        return entries

    def put(self, snapshot: BuildSnapshot) -> str:
        """Durably write a snapshot, then index it; returns the content hash."""
        os.makedirs(self.snap_dir, exist_ok=True)
        with open(self.lock_path, "w") as lock:
            fcntl.flock(lock, fcntl.LOCK_EX)
            if not os.path.exists(self.version_path):
                with open(self.version_path, "w", encoding="utf-8") as fh:
                    fh.write(STORE_VERSION + "\n")
            for e in self._read_index():
                if e.build_id == snapshot.build_id:
                    raise DuplicateBuildId(snapshot.build_id)
            name = hashlib.sha256(snapshot.build_id.encode("utf-8")).hexdigest()[:16] + ".fts"
            relpath = os.path.join("snapshots", name)
            final = os.path.join(self.root, relpath)
            tmp = final + ".tmp"
            data = snapshot.serialize()  # sets snapshot.content_hash over these bytes
            with open(tmp, "wb") as fh:
                fh.write(data)
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
            with open(self.index_path, "a+b") as fh:
                end = fh.seek(0, os.SEEK_END)
                if end and os.pread(fh.fileno(), 1, end - 1) != b"\n":  # a torn final line
                    fh.seek(0)
                    fh.truncate(fh.read().rfind(b"\n") + 1)
                fh.write(line.encode("utf-8"))
                fh.flush()
                os.fsync(fh.fileno())
        return snapshot.content_hash

    def get(self, build_id: str) -> BuildSnapshot:
        """Load and hash-verify one snapshot; NotFound for unknown ids."""
        for e in self._read_index():
            if e.build_id == build_id:
                return self._load(e)
        raise NotFound(build_id)

    def _load(self, e: IndexEntry) -> BuildSnapshot:
        """Load the snapshot an index entry names, checking it against the entry's hash."""
        with open(os.path.join(self.root, e.relpath), "rb") as fh:
            snap = BuildSnapshot.deserialize(fh.read())
        if snap.content_hash != e.content_hash:
            raise CorruptSnapshot(e.content_hash, snap.content_hash)
        return snap

    def list_builds(self, label: str | None = None) -> list[IndexEntry]:
        entries = self._read_index()
        if label is not None:
            entries = [e for e in entries if e.label == label]
        entries.sort(key=lambda e: (e.created, e.build_id))
        return entries

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
                drifted = self._load(e).drifted()
                for _, rec in drifted:  # decodes its stored set: one that cannot be decoded fails here
                    rec.effective
            except (CorruptSnapshot, OSError) as exc:
                out.append((e.build_id, str(exc), []))
                continue
            out.append((e.build_id, None, [subject for subject, _ in drifted]))
        return out


def _summary_value(eff: EffectiveFlagSet, key: str) -> str:
    """The winning value (else spelling) of group `key`, else macro `key`'s spelling, else ABSENT."""
    winner = eff.group_value(key)
    if winner is not None:
        return winner.value if winner.value is not None else winner.spelling
    if key in eff.defines:
        return eff.defines[key].spelling
    return ABSENT
