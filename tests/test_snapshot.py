"""Snapshot codec: stored bytes read back exactly, and damage is caught."""

import gc
import hashlib
import io
import json
import shlex
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from flagtrace import flagmodel
from flagtrace.cli import run
from flagtrace.cmdline import COMMAND_LINE, Family, Origin, RawInvocation, Token, detect_dialect
from flagtrace.errors import CorruptSnapshot
from flagtrace.ingest import EvidenceKind, EvidenceSource, assemble_snapshot
from flagtrace.snapshot import BuildSnapshot, TranslationUnitRecord
from flagtrace.store import Store
from tests.test_ingest import DEEP_JSON, log_snapshot

# One build in the v1 line format: a gcc TU, an MSVC TU whose path is not
# ASCII, a gcc link target and one skipped `ar` invocation (a diagnostic).
FIXTURE = Path(__file__).parent / "data" / "snapshot-v1.fts"
# The same build in the v2 line format, written by the v2 encoder, with one
# more gcc TU whose tokens mix the command line and a response file.
FIXTURE_V2 = Path(__file__).parent / "data" / "snapshot-v2.fts"


def install_fixture(root, fixture=FIXTURE) -> Store:
    """A store whose only build is the fixture, indexed the way put() does."""
    store = Store(str(root))
    data = fixture.read_bytes()
    Path(store.snap_dir).mkdir(parents=True)  # Store() creates nothing; put() would
    (Path(store.snap_dir) / "fixture.fts").write_bytes(data)
    snap = BuildSnapshot.deserialize(data)
    Path(store.index_path).write_text("\t".join(
        [snap.build_id, snap.label, snap.created, snap.content_hash, "snapshots/fixture.fts"]
    ) + "\n", encoding="utf-8")
    return store


class TestV1Fixture:
    def test_round_trips_byte_for_byte(self):
        data = FIXTURE.read_bytes()
        assert BuildSnapshot.deserialize(data).serialize() == data

    def test_store_reads_it(self, tmp_path):
        snap = install_fixture(tmp_path / "store").get("fixture-v1")
        assert [t.source_file for t in snap.tus] == [
            "/work/proj/src/core.c", "C:/work/proj/src/naïve_ü.cpp"]
        assert [t.output for t in snap.targets] == ["/work/proj/build/app"]
        assert snap.targets[0].member_tus == ["/work/proj/src/core.c"]
        assert [d["program"] for d in snap.diagnostics] == ["ar"]
        assert snap.serialize() == FIXTURE.read_bytes()


class TestV2Fixture:
    def test_round_trips_byte_for_byte(self):
        data = FIXTURE_V2.read_bytes()
        snap = BuildSnapshot.deserialize(data)
        assert snap.snapshot_version == 2
        assert snap.serialize() == data

    def test_store_reads_it(self, tmp_path):
        snap = install_fixture(tmp_path / "store", FIXTURE_V2).get("fixture-v2")
        assert [t.source_file for t in snap.tus] == [
            "/work/proj/src/core.c", "/work/proj/src/util.c", "C:/work/proj/src/naïve_ü.cpp"]
        assert [t.output for t in snap.targets] == ["/work/proj/build/app"]
        assert [d["program"] for d in snap.diagnostics] == ["ar"]
        assert [str(t.origin) for t in snap.tus[1].invocation.tokens[1:5]] == [
            "command-line", "/work/proj/opts.rsp#0", "/work/proj/opts.rsp#1",
            "/work/proj/opts.rsp#2"]
        assert snap.serialize() == FIXTURE_V2.read_bytes()

    def test_command_line_tokens_are_bare_and_shared(self):
        data = FIXTURE_V2.read_bytes()
        stored = json.loads(data.split(b"\n")[2])["invocation"]["tokens"]
        assert stored[:3] == ["-O2", "-g", {"origin": {"index": 0, "kind": "response-file",
                                                       "path": "/work/proj/opts.rsp"},
                                            "text": "-g"}]
        core, util = BuildSnapshot.deserialize(data).tus[:2]
        assert core.invocation.tokens[0] is util.invocation.tokens[0]  # "-O2"
        assert util.invocation.tokens[1] is not util.invocation.tokens[2]  # "-g" twice


def test_new_snapshots_are_v2(tmp_path):
    data = log_snapshot(tmp_path, "gcc -O2 -c a.c\n").serialize()
    header, tu = data.split(b"\n")[:2]
    assert json.loads(header)["snapshot_version"] == 2
    assert json.loads(tu)["invocation"]["tokens"] == ["-O2", "-c", "a.c"]


def _canon_line(d) -> bytes:
    return json.dumps(d, ensure_ascii=False, sort_keys=True, separators=(",", ":")).encode()


def test_stored_effective_is_revalidated(tmp_path):
    """A rewritten effective set is caught even when every hash is recomputed."""
    store = install_fixture(tmp_path / "store")
    snap_file = Path(store.snap_dir) / "fixture.fts"
    header, *rest = snap_file.read_bytes().removesuffix(b"\n").split(b"\n")
    tu = json.loads(rest[0])
    tu["effective"] = tu["effective"].replace('"-O2"', '"-O0"')
    rest[0] = _canon_line(tu)
    h = hashlib.sha256()
    for line in rest:
        if json.loads(line)["kind"] != "diagnostic":
            h.update(line + b"\n")
    head = json.loads(header)
    head["content_hash"] = h.hexdigest()
    snap_file.write_bytes(b"\n".join([_canon_line(head), *rest]) + b"\n")
    index = Path(store.index_path)
    fields = index.read_text(encoding="utf-8").rstrip("\n").split("\t")
    fields[3] = h.hexdigest()
    index.write_text("\t".join(fields) + "\n", encoding="utf-8")

    with pytest.raises(CorruptSnapshot, match="snapshot hash mismatch") as exc:
        store.get("fixture-v1")
    assert exc.value.expected == hashlib.sha256(tu["effective"].encode()).hexdigest()


def _rewrite_line(store: Store, n: int, edit) -> None:
    """Replace line n (0 is the header) of the only stored snapshot, keeping every hash."""
    snap_file = Path(store.snap_dir) / "fixture.fts"
    lines = snap_file.read_bytes().split(b"\n")
    lines[n] = edit(lines[n])
    snap_file.write_bytes(b"\n".join(lines))


def _query_fixture(store: Store) -> int:
    return run(["--store", store.root, "query", "effective", "--build", "fixture-v1",
                "--subject", "/work/proj/src/core.c"])


def test_unknown_snapshot_version_exit_3(tmp_path, capsys):
    store = install_fixture(tmp_path / "store")
    _rewrite_line(store, 0, lambda h: _canon_line({**json.loads(h), "snapshot_version": 3}))
    assert _query_fixture(store) == 3
    assert "unsupported snapshot version: expected 1 or 2, got 3" in capsys.readouterr().err


def test_deeply_nested_line_exit_3(tmp_path, capsys):
    store = install_fixture(tmp_path / "store")
    _rewrite_line(store, 1, lambda _: DEEP_JSON.encode())
    assert _query_fixture(store) == 3
    assert "unreadable snapshot line 2" in capsys.readouterr().err


_RSP_ORIGINS = st.builds(Origin, st.just("response-file"),
                         st.sampled_from(["/w/a.rsp", "C:\\w\\b.rsp"]), st.integers(0, 9))
_TOKENS = st.builds(
    Token,
    st.one_of(st.sampled_from(["-O2", "-g", "-D", "-DX=1", "-o", "a.o", "/O2", "/Fo", "@x.rsp"]),
              st.text(st.characters(blacklist_categories=("Cs",)), min_size=1)),
    st.one_of(st.just(COMMAND_LINE), _RSP_ORIGINS))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["gcc", "cl"]), st.lists(_TOKENS, max_size=12)),
                min_size=1, max_size=4),
       st.sampled_from([1, 2]))
@example([("gcc", [Token("-g"), Token("-g", Origin("response-file", "/w/a.rsp", 0)), Token("-g")]),
          ("gcc", [Token("-g", Origin("response-file", "/w/a.rsp", 0)), Token("-g")])], 2)
def test_token_streams_round_trip(streams, version):
    """Any mix of command-line and response-file tokens reads back at either version."""
    tus = []
    for i, (program, tokens) in enumerate(streams):
        inv = RawInvocation(program, tuple(tokens), "/w", f"log:b.log:{i + 1}",
                            detect_dialect(program))
        eff = flagmodel.resolve(flagmodel.classify_all(tokens, inv.dialect))
        tus.append(TranslationUnitRecord(f"/w/{i}.c", None, inv, eff))
    data = BuildSnapshot("b1", "dev", "2026-01-01T00:00:00Z", tus,
                         snapshot_version=version).serialize()
    back = BuildSnapshot.deserialize(data)
    assert back.snapshot_version == version
    assert [r.invocation for r in back.tus] == [r.invocation for r in tus]
    assert all(t.origin is COMMAND_LINE for r in back.tus for t in r.invocation.tokens
               if t.origin.kind == "command-line")
    assert back.serialize() == data


@given(st.text(st.characters(blacklist_categories=("Cs",)), min_size=1))
@example("c\u0085d")
@example("c\u2028d")
def test_any_source_path_round_trips(name):
    inv = RawInvocation("gcc", (Token("-c"), Token(f"src/{name}.c")), "/w",
                        "compdb:compile_commands.json#0", detect_dialect("gcc"))
    source = EvidenceSource(EvidenceKind.COMPILATION_DB, "compile_commands.json", "dev", "b1")
    data = assemble_snapshot([inv], source, created="2026-01-01T00:00:00Z").serialize()
    assert BuildSnapshot.deserialize(data).serialize() == data


@pytest.mark.parametrize("char", ["\u0085", "\u2028"], ids=["U+0085", "U+2028"])
def test_ingested_line_break_path_reads_back(tmp_path, capsys, char):
    db = tmp_path / "compile_commands.json"
    db.write_text(json.dumps([{"directory": "/w", "file": f"src/c{char}d.c",
                               "arguments": ["gcc", "-O2", "-c", f"src/c{char}d.c"]}]),
                  encoding="utf-8")
    store = str(tmp_path / "store")
    assert run(["--store", store, "ingest", str(db), "--kind", "compdb",
                "--label", "dev", "--build-id", "b1"]) == 0
    assert run(["--store", store, "--format", "json", "query", "effective",
                "--build", "b1", "--subject", f"/w/src/c{char}d.c"]) == 0
    assert '\\"-O2\\"' in capsys.readouterr().out


def test_subject_lookup_is_shared(tmp_path):
    """A source compiled twice: record() returns the TU by_subject() keeps, the last."""
    snap = log_snapshot(tmp_path, "gcc -O1 -c a.c -o a1.o\ngcc -O3 -c a.c -o a3.o\n")
    subject = snap.tus[1].subject
    assert snap.record(subject) is snap.by_subject("tu")[subject] is snap.tus[1]


# Arguments of a GNU compile line; "-o a.o" and "-I inc" are one argument
# of two words. One is quoted, one holds an unexpanded make variable.
_GNU_ARGS = ["-O0", "-O2", "-O3", "-g", "-DFOO", "-DBAR=1", "-UFOO", "-DMSG=a b",
             "-DV=$(VERSION)", "-Iinc", "-I inc", "-Wall", "-fPIC", "-std=c11",
             "-fstack-protector", "-fno-stack-protector", "-fexceptions", "-o a.o"]


def _words(arg: str) -> list[str]:
    return [arg] if arg.startswith("-D") else arg.split(" ")


def _line(words: list[str]) -> str:
    return " ".join(shlex.quote(w) for w in words) + "\n"


@st.composite
def rsp_builds(draw):
    """(command words, response files by name): each argument stays on the
    command line, moves to outer.rsp or moves to inner.rsp inside outer.rsp."""
    args = draw(st.permutations(draw(st.lists(st.sampled_from(_GNU_ARGS), max_size=10))
                                + ["-c a.c"]))
    command, files = [], {"outer.rsp": [], "inner.rsp": []}
    for arg in args:
        place = draw(st.sampled_from(["command", "outer.rsp", "inner.rsp"]))
        if place == "command":
            command += _words(arg)
            continue
        if "@outer.rsp" not in command:
            command.append("@outer.rsp")
        if place == "inner.rsp" and "@inner.rsp" not in files["outer.rsp"]:
            files["outer.rsp"].append("@inner.rsp")
        files[place] += _words(arg)
    return command, files


def _query_effective(store: str, build_id: str, subject: str) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        assert run(["--store", store, "query", "effective", "--build", build_id,
                    "--subject", subject]) == 0
    return out.getvalue()


@settings(max_examples=60, deadline=None)
@given(rsp_builds())
def test_response_file_builds_read_back(build):
    """A build that used @file reads back, with the flags of the inlined command."""
    command, files = build

    def inline(words):
        return [x for w in words for x in (inline(files[w[1:]]) if w[0] == "@" else [w])]

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, words in files.items():
            (root / name).write_text(_line(words))
        (root / "rsp.log").write_text("gcc " + _line(command))
        (root / "flat.log").write_text("gcc " + _line(inline(command)))
        store = str(root / "store")
        with redirect_stdout(io.StringIO()):
            for bid in ("rsp", "flat"):
                assert run(["--store", store, "ingest", str(root / f"{bid}.log"),
                            "--label", "dev", "--build-id", bid]) == 0
        subject = str(root / "a.c")
        assert _query_effective(store, "rsp", subject) == _query_effective(store, "flat", subject)
        for entry in Store(store).list_builds():
            written = (Path(store) / entry.relpath).read_bytes()
            assert Store(store).get(entry.build_id).serialize() == written


def _rewrite_record(store: Store, build_id: str, n: int, edit) -> None:
    """Apply edit to record n of a build, then recompute the header and index hashes."""
    entry = next(e for e in store.list_builds() if e.build_id == build_id)
    snap_file = Path(store.root) / entry.relpath
    header, *rest = snap_file.read_bytes().removesuffix(b"\n").split(b"\n")
    rec = json.loads(rest[n])
    edit(rec)
    rest[n] = json.dumps(rec, sort_keys=True, separators=(",", ":")).encode()
    content_hash = hashlib.sha256(b"".join(
        line + b"\n" for line in rest if json.loads(line)["kind"] != "diagnostic")).hexdigest()
    snap_file.write_bytes(b"\n".join(
        [_canon_line({**json.loads(header), "content_hash": content_hash}), *rest]) + b"\n")
    index = Path(store.index_path)
    index.write_text(index.read_text(encoding="utf-8").replace(entry.content_hash, content_hash),
                     encoding="utf-8")


def _set_opt(spelling: str):
    """An edit that rewrites the stored -O2 opt_level entry's value and spelling."""
    def edit(rec):
        assert '"-O2","-O2"' in rec["effective"]
        rec["effective"] = rec["effective"].replace('"-O2","-O2"', f'"{spelling}","{spelling}"')
    return edit


def _ingest_log(tmp_path, capsys, text: str) -> Store:
    log = tmp_path / "b.log"
    log.write_text(text)
    store = Store(str(tmp_path / "store"))
    assert run(["--store", store.root, "ingest", str(log), "--label", "dev",
                "--build-id", "b1"]) == 0
    capsys.readouterr()
    return store


def _query_a(store: Store, tmp_path) -> int:
    return run(["--store", store.root, "query", "effective", "--build", "b1",
                "--subject", str(tmp_path / "a.c")])


def _verify(store: Store, capsys) -> tuple[int, dict]:
    code = run(["--store", store.root, "--format", "json", "verify"])
    return code, json.loads(capsys.readouterr().out)


def test_command_line_record_reads_its_stored_set(tmp_path, capsys):
    """get trusts the hash for a command-line-only record; verify re-resolves it."""
    store = _ingest_log(tmp_path, capsys, "gcc -O2 -c a.c -o a.o\ngcc -O2 -c b.c -o b.o\n")
    _rewrite_record(store, "b1", 0, _set_opt("-O0"))

    assert _query_a(store, tmp_path) == 0
    assert '["group","opt_level","opt_level","valued","-O0","-O0"]' in capsys.readouterr().out
    assert _verify(store, capsys) == (3, {"report_version": 1, "builds": [
        {"build_id": "b1", "status": "corrupt", "error": None,
         "subjects": [str(tmp_path / "a.c")]}]})
    assert run(["--store", store.root, "verify", "b1"]) == 3
    out = capsys.readouterr().out
    assert out.startswith("corrupt  b1: 1 stored effective flag sets") and str(tmp_path / "a.c") in out


def test_response_file_record_is_still_revalidated(tmp_path):
    store = install_fixture(tmp_path / "store", FIXTURE_V2)
    _rewrite_record(store, "fixture-v2", 1, _set_opt("-O0"))
    with pytest.raises(CorruptSnapshot, match="snapshot hash mismatch"):
        store.get("fixture-v2")


def _set_first_token(rec):
    rec["invocation"]["tokens"][0] = "-O\ud800"


@pytest.mark.parametrize("edit", [_set_opt("-O\\ud800"), _set_opt("-O\ud800"), _set_first_token],
                         ids=["escaped-in-flag-set-line", "raw-in-flag-set-text", "in-token"])
def test_lone_surrogate_is_unreadable(tmp_path, capsys, edit):
    """No read returns text that cannot be written back as UTF-8."""
    store = _ingest_log(tmp_path, capsys, "gcc -O2 -c a.c -o a.o\n")
    _rewrite_record(store, "b1", 0, edit)
    assert _query_a(store, tmp_path) == 3
    assert "unreadable snapshot line 2" in capsys.readouterr().err
    code, doc = _verify(store, capsys)
    assert code == 3 and "unreadable snapshot line 2" in doc["builds"][0]["error"]


def test_lone_surrogate_in_source_file_is_unreadable(tmp_path, capsys):
    store = _ingest_log(tmp_path, capsys, "gcc -O2 -c a.c -o a.o\n")
    _rewrite_record(store, "b1", 0, lambda rec: rec.update(source_file="\ud800.c"))
    for argv in (["query", "find", "--build", "b1", "--group", "opt_level", "--value=-O2"],
                 ["history", "dev", "--key", "opt_level"]):
        assert run(["--store", store.root, *argv]) == 3
        assert "unreadable snapshot line 2" in capsys.readouterr().err


def test_vocabulary_edit_does_not_brick_command_line_builds(tmp_path, capsys, monkeypatch):
    """With -O2 dropped from the vocabulary, a build that used it still reads back."""
    store = _ingest_log(tmp_path, capsys, "gcc -O2 -c a.c -o a.o\n")
    monkeypatch.delitem(flagmodel._EXACT, (Family.GNU_LIKE, "-O2"))
    assert flagmodel.classify(Token("-O2"), detect_dialect("gcc"))[0].key == "opaque"

    assert _query_a(store, tmp_path) == 0
    assert '["group","opt_level","opt_level","valued","-O2","-O2"]' in capsys.readouterr().out
    code, doc = _verify(store, capsys)
    assert code == 3 and doc["builds"][0]["subjects"] == [str(tmp_path / "a.c")]


def test_load_leaves_the_cyclic_collector_as_it_found_it():
    assert gc.isenabled()
    with pytest.raises(CorruptSnapshot):
        BuildSnapshot.deserialize(b"not json\n")
    assert gc.isenabled()
    assert BuildSnapshot.deserialize(FIXTURE_V2.read_bytes()).build_id == "fixture-v2"
    assert gc.isenabled()
    gc.disable()
    try:
        BuildSnapshot.deserialize(FIXTURE_V2.read_bytes())
        assert not gc.isenabled()
    finally:
        gc.enable()
