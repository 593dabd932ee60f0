import hashlib
import json
import os
import shutil
from pathlib import Path

import pytest

from flagtrace.cli import run
from flagtrace.errors import CorruptSnapshot, DuplicateBuildId, MalformedIndex, NotFound
from flagtrace.store import ABSENT, Store
from tests.test_ingest import log_snapshot


def tree_digest(root):
    h = hashlib.sha256()
    for p in sorted(Path(root).rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(root)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


class TestPutGet:
    def test_round_trip(self, tmp_path):
        store = Store(str(tmp_path / "store"))
        snap = log_snapshot(tmp_path, "gcc -O2 -c a.c -o a.o\ngcc a.o -o app\n")
        returned = store.put(snap)
        got = store.get("b1")
        data = snap.serialize()
        assert got.serialize() == data
        records = b"".join(line + b"\n" for line in data.split(b"\n")[1:-1])
        assert returned == got.content_hash == hashlib.sha256(records).hexdigest()

    def test_duplicate_id(self, tmp_path):
        store = Store(str(tmp_path / "store"))
        store.put(log_snapshot(tmp_path, "gcc -c a.c\n"))
        with pytest.raises(DuplicateBuildId):
            store.put(log_snapshot(tmp_path, "gcc -c b.c\n"))

    def test_get_unknown(self, tmp_path):
        with pytest.raises(NotFound):
            Store(str(tmp_path / "store")).get("nope")

    @pytest.mark.parametrize("old, new", [
        pytest.param(b"-O2", b"-O0", id="flipped-byte"),
        pytest.param(b'"kind":"tu"', b'"kynd":"tu"', id="renamed-kind-key"),
        pytest.param(b"-O2", b"-\xff2", id="invalid-utf8"),
        pytest.param(b'"content_hash"', b'"content_hasx"', id="header-without-hash"),
    ])
    def test_corruption_detected(self, tmp_path, old, new):
        store = Store(str(tmp_path / "store"))
        store.put(log_snapshot(tmp_path, "gcc -O2 -c a.c -o a.o\n"))
        snap_file = next((tmp_path / "store" / "snapshots").glob("*.fts"))
        data = bytearray(snap_file.read_bytes())
        pos = data.find(old)
        data[pos:pos + len(old)] = new
        snap_file.write_bytes(bytes(data))
        with pytest.raises(CorruptSnapshot):
            store.get("b1")

    def test_append_only(self, tmp_path):
        store_dir = tmp_path / "store"
        store = Store(str(store_dir))
        store.put(log_snapshot(tmp_path, "gcc -c a.c\n", "a1"))
        first_file = next((store_dir / "snapshots").glob("*.fts"))
        before = first_file.read_bytes()
        store.put(log_snapshot(tmp_path, "gcc -c b.c\n", "a2"))
        assert first_file.read_bytes() == before


class TestHistory:
    def test_timeline_shows_opt_change(self, tmp_path):
        store = Store(str(tmp_path / "store"))
        for bid, created, opt in [("b1", "2026-01-01T00:00:00Z", "-O2"),
                                  ("b2", "2026-01-02T00:00:00Z", "-O2"),
                                  ("b3", "2026-01-03T00:00:00Z", "-O0")]:
            store.put(log_snapshot(tmp_path, f"gcc {opt} -c a.c -o a.o\n", bid, "ci", created))
        rows = store.history("ci", ("tu", "opt_level"))
        values = [next(iter(s.values())) for _, _, s in rows]
        # fold oracle: the last -O flag on each line wins
        assert values == ["-O2", "-O2", "-O0"]
        assert [b for b, _, _ in rows] == ["b1", "b2", "b3"]

    def test_unknown_label_empty(self, tmp_path):
        assert Store(str(tmp_path / "store")).history("ghost") == []

    def test_absent_key(self, tmp_path):
        store = Store(str(tmp_path / "store"))
        store.put(log_snapshot(tmp_path, "gcc -c a.c -o a.o\n", "b1", "ci"))
        rows = store.history("ci", ("tu", "stack_protector"))
        assert list(rows[0][2].values()) == [ABSENT]

    def test_length_matches_put_count(self, tmp_path):
        store = Store(str(tmp_path / "store"))
        for i in range(5):
            store.put(log_snapshot(tmp_path, "gcc -c a.c\n", f"n{i}", "lbl",
                                   f"2026-01-0{i+1}T00:00:00Z"))
        assert len(store.history("lbl")) == 5

    def test_index_is_read_once(self, tmp_path, monkeypatch):
        store = Store(str(tmp_path / "store"))
        for i in range(50):
            store.put(log_snapshot(tmp_path, "gcc -O2 -c a.c\n", f"n{i:02d}", "lbl",
                                   f"2026-01-01T00:{i:02d}:00Z"))
        reads = []
        read_index = Store._read_index
        monkeypatch.setattr(Store, "_read_index", lambda self: reads.append(1) or read_index(self))
        rows = store.history("lbl", ("tu", "opt_level"))
        assert [b for b, _, _ in rows] == [f"n{i:02d}" for i in range(50)]
        assert len(reads) == 1


class TestMissingStore:
    @pytest.mark.parametrize("argv, code", [
        (["diff", "a", "b"], 3),
        (["history", "ci", "--key", "opt_level"], 0),
        (["query", "effective", "--build", "a", "--subject", "a.c"], 3),
    ], ids=["diff", "history", "query-effective"])
    def test_read_commands_create_nothing(self, tmp_path, capsys, argv, code):
        root = tmp_path / "typo"
        assert run(["--store", str(root), "--format", "json", *argv]) == code
        out = capsys.readouterr()
        if code == 3:
            assert "no snapshot with build id: a" in out.err
        else:
            assert json.loads(out.out) == []
        assert not root.exists()

    def test_first_put_creates_layout(self, tmp_path):
        root = tmp_path / "new"
        Store(str(root)).put(log_snapshot(tmp_path, "gcc -c a.c\n"))
        assert (root / "VERSION").read_text() == "flagtrace-store v1\n"
        assert len(list((root / "snapshots").glob("*.fts"))) == 1


class TestIndex:
    @pytest.mark.parametrize("tail, reason", [
        (b"b2\tci", "expected 5 tab-separated fields"),
        (b"b2\tci\t2026\th\tsnapshots/x.fts\textra", "expected 5 tab-separated fields"),
        (b"b2\tc\xffi\t2026\th\tsnapshots/x.fts", "not UTF-8"),
        (b"b2\tci\t2026\th\tsnap\x00shots/x.fts", "NUL in snapshot path"),
    ], ids=["short", "six-fields", "non-utf8", "nul-in-path"])
    def test_malformed_line_is_typed(self, tmp_path, capsys, tail, reason):
        root = tmp_path / "store"
        Store(str(root)).put(log_snapshot(tmp_path, "gcc -c a.c\n", "b1", "ci"))
        with open(root / "index.tsv", "ab") as fh:
            fh.write(tail + b"\n")  # committed: a line without its LF is not read
        with pytest.raises(MalformedIndex) as exc:
            Store(str(root)).get("b1")
        assert exc.value.line == 2
        log = tmp_path / "b3.log"
        log.write_text("gcc -c a.c\n")
        for argv in (["query", "builds"], ["history", "ci"], ["verify"],
                     ["query", "effective", "--build", "b1", "--subject", str(tmp_path / "a.c")],
                     ["ingest", str(log), "--label", "ci", "--build-id", "b3"]):
            assert run(["--store", str(root), *argv]) == 3, argv
            assert f"index.tsv line 2: {reason}" in capsys.readouterr().err

    def test_torn_final_line_is_ignored_and_cut(self, tmp_path, capsys):
        """Whatever prefix of its last line, less the LF, a crash during put left, the
        index still reads, the earlier build still loads, and the next put commits after it."""
        template = tmp_path / "template"
        for build_id in ("b1", "b2"):
            Store(str(template)).put(log_snapshot(tmp_path, f"gcc -c {build_id}.c\n", build_id, "ci"))
        committed, last = (template / "index.tsv").read_bytes()[:-1].rsplit(b"\n", 1)
        log = tmp_path / "b3.log"
        log.write_text("gcc -O1 -c b3.c\n")
        for cut in range(len(last) + 1):
            root = tmp_path / f"cut-{cut}"
            shutil.copytree(template, root)
            (root / "index.tsv").write_bytes(committed + b"\n" + last[:cut])

            def report(*argv):
                assert run(["--store", str(root), "--format", "json", *argv]) == 0, (cut, argv)
                return json.loads(capsys.readouterr().out)

            assert [b["build_id"] for b in report("query", "builds")] == ["b1"], cut
            report("query", "effective", "--build", "b1", "--subject", str(tmp_path / "b1.c"))
            report("ingest", str(log), "--label", "ci", "--build-id", "b3")
            assert "-O1" in report("query", "effective", "--build", "b3",
                                   "--subject", str(tmp_path / "b3.c"))["effective"], cut
            assert [e.build_id for e in Store(str(root)).list_builds()] == ["b1", "b3"], cut
