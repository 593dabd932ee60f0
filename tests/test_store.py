import hashlib
import json
import os
import shutil
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from flagtrace.cli import run
from flagtrace.errors import (CorruptSnapshot, DuplicateBuildId, FlagtraceError, MalformedIndex,
                              NotFound)
from flagtrace.store import ABSENT, Store, _snapshot_relpath
from test_ingest import log_snapshot


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

    def test_put_refuses_a_build_whose_file_another_holds(self, tmp_path, monkeypatch, capsys):
        """Two build ids whose file names collide: the second put exits 3 and leaves the
        first build's snapshot and the index as they were."""
        root = tmp_path / "store"
        Store(str(root)).put(log_snapshot(tmp_path, "gcc -O2 -c a.c -o a.o\n", "b1"))
        before = tree_digest(root)
        monkeypatch.setattr("flagtrace.store._snapshot_relpath",
                            lambda b: _snapshot_relpath("b1" if b == "b2" else b))
        (tmp_path / "b2.log").write_text("gcc -O0 -c a.c -o a.o\n")
        assert run(["--store", str(root), "ingest", str(tmp_path / "b2.log"), "--label", "dev",
                    "--build-id", "b2"]) == 3
        assert f"{_snapshot_relpath('b1')} already holds the snapshot of b1" in capsys.readouterr().err
        assert tree_digest(root) == before
        assert Store(str(root)).verify() == [("b1", None, [])]

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


def _peak_traced(fn) -> int:
    """The most memory, in bytes, that Python held at once for allocations made during `fn()`."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_put_and_get_hold_no_whole_copy_of_the_file(tmp_path):
    """A put writes the lines it encoded without joining them, and a get reads one line
    at a time: for a 2,000-TU build (about 3 MB stored) put peaks near 1.5 times the
    file's size and get, which builds its records, near 2.4 times. A joined copy of the
    file, or its bytes and the lines split from them, would break the bound."""
    include = " ".join(f"-I include/module{k}/public" for k in range(2))
    log = "".join(f"gcc -O2 -g -Wall -Wextra -fPIC -DBUILD_ID={i} -DUNIT_{i}=1 {include} "
                  f"-c src/part{i % 40}/unit{i}.c -o obj/part{i % 40}/unit{i}.o\n" for i in range(2000))
    snap = log_snapshot(tmp_path, log + "gcc " + " ".join(f"obj/part{i % 40}/unit{i}.o" for i in range(2000))
                        + " -o app\n")
    root = str(tmp_path / "store")
    put = _peak_traced(lambda: Store(root).put(snap))
    size = os.path.getsize(os.path.join(root, _snapshot_relpath("b1")))
    get = _peak_traced(lambda: Store(root).get("b1"))
    assert put < 1.8 * size and get < 3.0 * size, (put / size, get / size)


class TestHeaderAgainstIndex:
    """A load checks the snapshot header's build id, label and created time against the
    index line, after the hash: the header is not covered by the content hash, and audit
    reads the label to decide whether a build is a release."""

    RELEASE = "gcc -O2 -fno-stack-protector -c a.c -o a.o\ngcc a.o -o app\n"

    def ingest(self, tmp_path, build_id, label="release"):
        log = tmp_path / f"{build_id}.log"
        log.write_text(self.RELEASE)
        assert run(["--store", str(tmp_path / "store"), "ingest", str(log), "--label", label,
                    "--build-id", build_id, "--created", "2026-01-01T00:00:00Z"]) == 0

    def snapshot_file(self, tmp_path, build_id):
        name = hashlib.sha256(build_id.encode()).hexdigest()[:16] + ".fts"
        return tmp_path / "store" / "snapshots" / name

    def test_relabelled_header_exits_3(self, tmp_path, capsys):
        self.ingest(tmp_path, "r1")
        store = str(tmp_path / "store")
        assert run(["--store", store, "audit", "r1"]) == 1
        snap_file = self.snapshot_file(tmp_path, "r1")
        data = snap_file.read_bytes()
        snap_file.write_bytes(data.replace(b'"label":"release"', b'"label":"dev"', 1))
        capsys.readouterr()
        assert run(["--store", store, "audit", "r1"]) == 3
        error = ("snapshot header disagrees with its index line: expected "
                 "('r1', 'release', '2026-01-01T00:00:00Z'), got ('r1', 'dev', '2026-01-01T00:00:00Z')")
        assert capsys.readouterr() == ("", f"error: {error}\n")
        assert run(["--store", store, "verify"]) == 3
        assert capsys.readouterr().out == f"corrupt  r1: {error}\n"
        assert run(["--store", store, "query", "builds"]) == 0  # the index alone still reads

    @pytest.mark.parametrize("field, old, new", [
        ("build_id", "r1", "r9"), ("label", "release", "dev"),
        ("created", "2026-01-01T00:00:00Z", "2027-01-01T00:00:00Z")])
    def test_any_header_field_edit_is_corrupt(self, tmp_path, capsys, field, old, new):
        self.ingest(tmp_path, "r1")
        snap_file = self.snapshot_file(tmp_path, "r1")
        data = snap_file.read_bytes()
        snap_file.write_bytes(data.replace(f'"{field}":"{old}"'.encode(),
                                           f'"{field}":"{new}"'.encode(), 1))
        with pytest.raises(CorruptSnapshot, match="snapshot header disagrees"):
            Store(str(tmp_path / "store")).get("r1")
        assert Store(str(tmp_path / "store")).verify()[0][1].startswith(
            "snapshot header disagrees with its index line")

    @pytest.mark.parametrize("outside", ["../outside.fts", "{tmp}/outside.fts"],
                             ids=["relative", "absolute"])
    def test_index_line_naming_a_file_outside_the_store_exits_3(self, tmp_path, capsys, outside):
        """A load opens only the file put names for the build id: an index line naming a
        byte copy of the snapshot outside the store is refused, though the copy would verify."""
        self.ingest(tmp_path, "r1")
        outside = outside.format(tmp=tmp_path)
        shutil.copy(self.snapshot_file(tmp_path, "r1"), tmp_path / "outside.fts")
        index = tmp_path / "store" / "index.tsv"
        fields = index.read_text().split("\t")
        index.write_text("\t".join([*fields[:4], outside]) + "\n")
        store = str(tmp_path / "store")
        capsys.readouterr()
        assert run(["--store", store, "query", "effective", "--build", "r1",
                    "--subject", str(tmp_path / "a.c")]) == 3
        error = ("index line names another snapshot file: "
                 f"expected snapshots/{self.snapshot_file(tmp_path, 'r1').name}, got {outside}")
        assert capsys.readouterr() == ("", f"error: {error}\n")
        assert run(["--store", store, "verify"]) == 3
        assert capsys.readouterr().out == f"corrupt  r1: {error}\n"

    def test_index_line_copied_from_another_build_exits_3(self, tmp_path, capsys):
        self.ingest(tmp_path, "r1")
        self.ingest(tmp_path, "r2")
        index = tmp_path / "store" / "index.tsv"
        first, second = (line.split("\t") for line in index.read_text().splitlines())
        second[3:] = first[3:]  # r2's line names r1's hash and snapshot file
        index.write_text("".join("\t".join(f) + "\n" for f in (first, second)))
        store = str(tmp_path / "store")
        Store(store).get("r1")
        own = f"snapshots/{self.snapshot_file(tmp_path, 'r2').name}"
        with pytest.raises(CorruptSnapshot, match=rf"^index line names another snapshot file: "
                                                  rf"expected {own}, got {first[4]}$"):
            Store(store).get("r2")
        capsys.readouterr()
        assert run(["--store", store, "audit", "r2"]) == 3
        assert run(["--store", store, "verify"]) == 3
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "ok       r1" and out[1].startswith("corrupt  r2: index line names another")


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
        (b"b2\tci\t2026\th\tsnapshots/x.fts\r", "CR in line"),
    ], ids=["short", "six-fields", "non-utf8", "nul-in-path", "crlf"])
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

    def test_blank_line_is_passed_over(self, tmp_path, capsys):
        """A committed blank index line names no build and breaks neither a put nor a read."""
        root = tmp_path / "store"
        Store(str(root)).put(log_snapshot(tmp_path, "gcc -c a.c\n", "b1", "ci"))
        with open(root / "index.tsv", "ab") as fh:
            fh.write(b"\n")
        log = tmp_path / "b2.log"
        log.write_text("gcc -O1 -c a.c\n")
        for argv in (["ingest", str(log), "--label", "ci", "--build-id", "b2"], ["verify"]):
            assert run(["--store", str(root), *argv]) == 0, argv
        assert [e.build_id for e in Store(str(root)).list_builds()] == ["b1", "b2"]

    def test_torn_final_line_is_ignored_and_cut(self, tmp_path, capsys):
        """Whatever prefix of its last line, less the LF, a crash during put left, the
        index still reads, the earlier build still loads, and the next put commits after
        it: the store then verifies, each of its two builds ok."""
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
            assert report("verify")["builds"] == [
                {"build_id": b, "status": "ok", "error": None, "subjects": []} for b in ("b1", "b3")], cut

    def test_final_line_ending_in_cr_is_torn(self, tmp_path, capsys):
        """LF alone commits a line: a complete last line that ends in CR is not listed, and
        the next put cuts it, as it cuts any torn line."""
        root = tmp_path / "store"
        for build_id in ("b1", "b2"):
            Store(str(root)).put(log_snapshot(tmp_path, f"gcc -c {build_id}.c\n", build_id, "ci"))
        index = root / "index.tsv"
        index.write_bytes(index.read_bytes()[:-1] + b"\r")
        log = tmp_path / "b3.log"
        log.write_text("gcc -O1 -c b3.c\n")

        def builds():
            assert run(["--store", str(root), "--format", "json", "query", "builds"]) == 0
            return [b["build_id"] for b in json.loads(capsys.readouterr().out)]

        assert builds() == ["b1"]
        assert run(["--store", str(root), "ingest", str(log), "--label", "ci", "--build-id", "b3"]) == 0
        capsys.readouterr()
        assert builds() == ["b1", "b3"]

    @pytest.fixture(scope="class")
    def one_build(self, tmp_path_factory):
        """A store holding build b1, and a snapshot b3 to put on a copy of it."""
        tmp = tmp_path_factory.mktemp("one-build")
        Store(str(tmp / "store")).put(log_snapshot(tmp, "gcc -c a.c\n", "b1", "ci"))
        return tmp / "store", log_snapshot(tmp, "gcc -O1 -c b3.c\n", "b3", "ci")

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(
        st.sampled_from([b"b9\tci\t2026-01-02T00:00:00Z\th\tsnapshots/x.fts", b"b9\tci", b"",
                         b"b9\tc\xffi\t2026\th\tsnapshots/x.fts",
                         b"b9\tci\t2026\th\tsnap\x00shots/x.fts"]),
        st.sampled_from([b"\n", b"\r", b"\r\n", b"\t", b""])), max_size=3))
    def test_reads_and_put_agree_on_what_is_committed(self, one_build, appended):
        """Whatever lines follow the last build's, put takes as committed what a read does: it
        fails as a read fails, leaving the index as it was, or adds its build to those read."""
        template, snap = one_build
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp) / "store"
            shutil.copytree(template, root)
            index = root / "index.tsv"
            index.write_bytes(index.read_bytes() + b"".join(line + end for line, end in appended))
            before = index.read_bytes()
            store = Store(str(root))
            try:
                builds = [e.build_id for e in store.list_builds()]
            except MalformedIndex:
                with pytest.raises(MalformedIndex):
                    store.put(snap)
                assert index.read_bytes() == before
                return
            store.put(snap)
            assert sorted(e.build_id for e in store.list_builds()) == sorted(builds + ["b3"])

    @pytest.mark.parametrize("field", ["build_id", "label", "created"])
    @pytest.mark.parametrize("char", ["\t", "\r", "\n"], ids=["tab", "cr", "lf"])
    def test_put_refuses_a_field_that_would_break_the_index(self, tmp_path, field, char):
        """A build id, label or created time holding a TAB, CR or LF is refused before put
        writes anything: no snapshot file is left, the index is unchanged and still reads."""
        root = tmp_path / "store"
        Store(str(root)).put(log_snapshot(tmp_path, "gcc -c a.c\n", "b1", "ci"))
        index, snapshots = (root / "index.tsv").read_bytes(), os.listdir(root / "snapshots")
        snap = log_snapshot(tmp_path, "gcc -c b.c\n", "b2", "ci")
        value = getattr(snap, field)
        setattr(snap, field, value[:1] + char + value[1:])
        with pytest.raises(FlagtraceError, match=field):
            Store(str(root)).put(snap)
        assert os.listdir(root / "snapshots") == snapshots
        assert (root / "index.tsv").read_bytes() == index
        assert [e.build_id for e in Store(str(root)).list_builds()] == ["b1"]
        Store(str(root)).get("b1")
