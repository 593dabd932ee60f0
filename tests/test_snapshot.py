"""Snapshot codec: stored bytes read back exactly, and damage is caught."""

import hashlib
import io
import json
import shlex
import tempfile
from collections import Counter
from contextlib import redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import canonical_oracle
from conftest import build_minimal_elf
from flagtrace import flagmodel, snapshot
from flagtrace.cli import run
from flagtrace.cmdline import COMMAND_LINE, Family, Origin, RawInvocation, Token, detect_dialect
from flagtrace.ingest import assemble_snapshot
from flagtrace.snapshot import BuildSnapshot, TranslationUnitRecord
from flagtrace.store import Store
from tests.test_ingest import DEEP_JSON, log_snapshot

# One build in the v1 line format: a gcc TU, an MSVC TU whose path is not
# ASCII, a gcc link target and one skipped `ar` invocation (a diagnostic).
FIXTURE = Path(__file__).parent / "data" / "snapshot-v1.fts"
# The same build in the v2 line format, written by the v2 encoder, with one
# more gcc TU whose tokens mix the command line and a response file.
FIXTURE_V2 = Path(__file__).parent / "data" / "snapshot-v2.fts"


def _canon_line(d) -> bytes:
    return json.dumps(d, ensure_ascii=False, sort_keys=True, separators=(",", ":")).encode()


def as_v1(data: bytes) -> bytes:
    """Reference v1 encoder: the v2 snapshot `data` with every token stored as an
    object, a command-line one by its origin's kind alone, and its hashes recomputed."""
    header, *lines = data.removesuffix(b"\n").split(b"\n")
    h = hashlib.sha256()
    for n, line in enumerate(lines):
        rec = json.loads(line)
        if rec["kind"] != "diagnostic":
            rec["invocation"]["tokens"] = [{"text": t, "origin": {"kind": "command-line"}}
                                           if type(t) is str else t
                                           for t in rec["invocation"]["tokens"]]
            lines[n] = _canon_line(rec)
            h.update(lines[n] + b"\n")
    head = {**json.loads(header), "snapshot_version": 1, "content_hash": h.hexdigest()}
    return b"\n".join([_canon_line(head), *lines, b""])


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
        """A v1 file reads as the build it stored and is written back as v2."""
        data = FIXTURE.read_bytes()
        assert as_v1(BuildSnapshot.deserialize(data).serialize()) == data

    def test_store_reads_it(self, tmp_path):
        snap = install_fixture(tmp_path / "store").get("fixture-v1")
        assert [t.source_file for t in snap.tus] == [
            "/work/proj/src/core.c", "C:/work/proj/src/naïve_ü.cpp"]
        assert [t.output for t in snap.targets] == ["/work/proj/build/app"]
        assert snap.targets[0].member_tus == ["/work/proj/src/core.c"]
        assert [d["program"] for d in snap.diagnostics] == ["ar"]
        assert as_v1(snap.serialize()) == FIXTURE.read_bytes()

    def test_command_line_tokens_are_shared(self):
        """A v1 load keeps one Token per command-line text across records, as a v2 load does."""
        snap = BuildSnapshot.deserialize(FIXTURE.read_bytes())
        core_o, target_o = (next(t for t in r.invocation.tokens if t.text == "-o")
                            for r in (snap.tus[0], snap.targets[0]))
        assert core_o is target_o


class TestV2Fixture:
    def test_round_trips_byte_for_byte(self):
        data = FIXTURE_V2.read_bytes()
        assert BuildSnapshot.deserialize(data).serialize() == data

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


def test_line_of_unknown_kind_exit_3(tmp_path, capsys):
    """A line that is not a TU, a link target or a diagnostic is unreadable, though the
    content hash, which covers only record lines, still matches."""
    store = install_fixture(tmp_path / "store")
    snap_file = Path(store.snap_dir) / "fixture.fts"
    n = snap_file.read_bytes().count(b"\n") + 1
    with open(snap_file, "ab") as fh:
        fh.write(b'{"kind":"nonsense","x":1}\n')
    assert _query_fixture(store) == 3
    assert f"unreadable snapshot line {n}" in capsys.readouterr().err
    code, doc = _verify(store, capsys)
    assert code == 3 and f"unreadable snapshot line {n}" in doc["builds"][0]["error"]


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
    """Any mix of command-line and response-file tokens reads back from either
    version and is written back as v2."""
    tus = []
    for i, (program, tokens) in enumerate(streams):
        inv = RawInvocation(program, tuple(tokens), "/w", f"log:b.log:{i + 1}",
                            detect_dialect(program))
        eff = flagmodel.resolve(flagmodel.classify_all(tokens, inv.dialect))
        tus.append(TranslationUnitRecord(f"/w/{i}.c", None, inv,
                                         flagmodel.canonical_serialize(eff).decode()))
    data = BuildSnapshot("b1", "dev", "2026-01-01T00:00:00Z", tus).serialize()
    back = BuildSnapshot.deserialize(as_v1(data) if version == 1 else data)
    assert [r.invocation for r in back.tus] == [r.invocation for r in tus]
    assert [vars(r.effective) for r in back.tus] == [vars(r.effective) for r in tus]
    assert all(t.origin is COMMAND_LINE for r in back.tus for t in r.invocation.tokens
               if t.origin.kind == "command-line")
    assert back.serialize() == data


@given(st.text(st.characters(blacklist_categories=("Cs",)), min_size=1))
@example("c\u0085d")
@example("c\u2028d")
def test_any_source_path_round_trips(name):
    inv = RawInvocation("gcc", (Token("-c"), Token(f"src/{name}.c")), "/w",
                        "compdb:compile_commands.json#0", detect_dialect("gcc"))
    data = assemble_snapshot([inv], "b1", "dev", created="2026-01-01T00:00:00Z").serialize()
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
    """A source compiled twice: record() and by_subject() name each of its TUs by its
    output file, and the bare source names neither."""
    snap = log_snapshot(tmp_path, "gcc -O1 -c a.c -o a1.o\ngcc -O3 -c a.c -o a3.o\n")
    outputs = [tu.output_file for tu in snap.tus]
    assert [o.rsplit("/", 1)[1] for o in outputs] == ["a1.o", "a3.o"]
    assert list(snap.by_subject("tu")) == outputs
    for subject, tu in zip(outputs, snap.tus):
        assert snap.record(subject) is snap.by_subject("tu")[subject] is tu
    assert snap.record(snap.tus[0].source_file) is None


def test_a_shared_source_without_a_stored_output_keeps_its_source_as_key():
    """A stored TU may have no output file; sharing its source, it is still named by a string."""
    inv = RawInvocation("gcc", (Token("-c"), Token("a.c")), "/w", "log:b.log:1",
                        detect_dialect("gcc"))
    eff = flagmodel.resolve(flagmodel.classify_all(inv.tokens, inv.dialect))
    text = flagmodel.canonical_serialize(eff).decode()
    tus = [TranslationUnitRecord("/w/a.c", out, inv, text) for out in (None, "/w/b.o")]
    data = BuildSnapshot("b1", "dev", "2026-01-01T00:00:00Z", tus).serialize()
    snap = BuildSnapshot.deserialize(data)
    assert list(snap.by_subject("tu")) == ["/w/a.c", "/w/b.o"]


def _rsp_snapshot(tmp_path):
    """An assembled build whose one TU takes -O2 and -fno-exceptions from opts.rsp, and its link."""
    (tmp_path / "opts.rsp").write_text("-O2 -fno-exceptions\n")
    return log_snapshot(tmp_path, "gcc @opts.rsp -c a.c -o a.o\ngcc a.o -o app\n")


def test_an_assembled_build_has_not_drifted(tmp_path):
    assert _rsp_snapshot(tmp_path).drifted() == []


def test_every_record_builds_its_set_on_first_read(tmp_path):
    """An assembled TU, an assembled target and a loaded TU hold their text, and no set."""
    snap = _rsp_snapshot(tmp_path)
    loaded = BuildSnapshot.deserialize(snap.serialize())
    for rec in (snap.tus[0], snap.targets[0], loaded.tus[0]):
        assert "effective" not in vars(rec)
        assert flagmodel.canonical_serialize(rec.effective).decode() == rec.effective_text
        assert "effective" in vars(rec)


def test_an_assembled_response_file_tu_keeps_its_origins(tmp_path):
    origins = _rsp_snapshot(tmp_path).tus[0].origins
    rsp = str(tmp_path / "opts.rsp")
    assert origins.group_value("opt_level") == Origin("response-file", rsp, 0)
    assert origins.group_value("exceptions") == Origin("response-file", rsp, 1)


# Spellings that win group, define and link-input slots, among others.
_SLOT_TOKENS = st.builds(
    Token,
    st.one_of(st.sampled_from(["-O2", "-O0", "/O2", "-fno-stack-protector", "-fstack-protector",
                               "-D", "/D", "X", "-DX", "-DX=1", "/DX", "-UX", "-o", "/Fo", "a.o",
                               "-lfoo-1.2", "-lfoo-1.3", "m.lib", "libz.a", "-c", "a.c", "-g"]),
              st.text(st.characters(blacklist_categories=("Cs",)), min_size=1)),
    st.one_of(st.just(COMMAND_LINE), _RSP_ORIGINS))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["gcc", "cl", "ld"]), st.lists(_SLOT_TOKENS, max_size=16))
@example("ld", [Token("-lfoo-1.2", Origin("response-file", "/w/libs.rsp", 2)),
                Token("-lfoo-1.3"), Token("-lfoo-1.2")])
@example("gcc", [Token("-DX"), Token("-D", Origin("response-file", "/w/d.rsp", 1)),
                 Token("X", Origin("response-file", "/w/d.rsp", 2)), Token("-O2")])
def test_origins_agree_with_an_origin_carrying_fold(program, tokens):
    """Each winner's origin in `origins`, of an assembled record and of it loaded, is
    the origin of the winner that entries carrying their token's origin fold to."""
    dialect = detect_dialect(program)
    inv = RawInvocation(program, tuple(tokens), "/w", "log:/w/b.log:1", dialect)
    text = flagmodel.canonical_serialize(flagmodel.resolve(flagmodel.classify_all(inv.tokens, dialect)))
    snap = BuildSnapshot("b", "dev", "2026-01-01T00:00:00Z",
                         tus=[TranslationUnitRecord("/w/a.c", "/w/a.o", inv, text.decode())])
    want = canonical_oracle.resolve_with_origins(inv.tokens, dialect)
    for rec in (snap.tus[0], BuildSnapshot.deserialize(snap.serialize()).tus[0]):
        got = rec.origins
        if got is None:
            assert all(t.origin is COMMAND_LINE for t in rec.invocation.tokens)
            assert all(e.origin is COMMAND_LINE for e in canonical_oracle.entries(want))
            continue
        assert got.scalar_groups == {g: e.origin for g, e in want.scalar_groups.items()}
        assert got.defines == {m: e.origin for m, e in want.defines.items()}
        assert got.link_inputs == [e.origin for e in want.link_inputs]


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
    lines = index.read_text(encoding="utf-8").splitlines(keepends=True)
    index.write_text("".join(line.replace(entry.content_hash, content_hash)
                             if line.split("\t", 1)[0] == build_id else line for line in lines),
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


def test_verify_names_a_drifted_tu_as_every_command_does(tmp_path, capsys):
    """A source compiled twice: verify names the drifted one of its TUs by its object."""
    store = _ingest_log(tmp_path, capsys, "gcc -O2 -c a.c -o a.o\ngcc -O0 -fPIC -c a.c -o a_pic.o\n")
    _rewrite_record(store, "b1", 0, _set_opt("-O3"))

    code, doc = _verify(store, capsys)
    assert code == 3 and doc["builds"][0]["subjects"] == [str(tmp_path / "a.o")]


def test_verify_reads_each_link_of_one_output(tmp_path, capsys):
    """A log that links one output twice stores two targets of one name, and verify
    re-resolves both: a rewrite of the first shows though the name keys the second."""
    store = _ingest_log(tmp_path, capsys, "gcc -c a.c -o a.o\ngcc -O2 a.o -o app\ngcc a.o -o app\n")
    _rewrite_record(store, "b1", 1, _set_opt("-O3"))

    code, doc = _verify(store, capsys)
    assert code == 3 and doc["builds"][0]["subjects"] == [str(tmp_path / "app")]


def test_response_file_record_reads_its_stored_set(tmp_path, capsys):
    """get trusts the hash for a response-file record too, which then has no
    origins; verify re-resolves it."""
    store = install_fixture(tmp_path / "store", FIXTURE_V2)
    util = "/work/proj/src/util.c"
    debug_info = store.get("fixture-v2").tus[1].origins.group_value("debug_info")
    assert str(debug_info) == "/work/proj/opts.rsp#0"
    _rewrite_record(store, "fixture-v2", 1, _set_opt("-O0"))

    assert run(["--store", store.root, "query", "effective", "--build", "fixture-v2",
                "--subject", util]) == 0
    assert '["group","opt_level","opt_level","valued","-O0","-O0"]' in capsys.readouterr().out
    assert store.get("fixture-v2").tus[1].origins is None
    assert _verify(store, capsys) == (3, {"report_version": 1, "builds": [
        {"build_id": "fixture-v2", "status": "corrupt", "error": None, "subjects": [util]}]})


def test_v1_record_reads_its_stored_set(tmp_path, capsys):
    """get trusts the hash for a v1 record as for a v2 one; verify re-resolves it."""
    store = install_fixture(tmp_path / "store")
    _rewrite_record(store, "fixture-v1", 0, _set_opt("-O0"))

    assert _query_fixture(store) == 0
    assert '["group","opt_level","opt_level","valued","-O0","-O0"]' in capsys.readouterr().out
    assert _verify(store, capsys) == (3, {"report_version": 1, "builds": [
        {"build_id": "fixture-v1", "status": "corrupt", "error": None,
         "subjects": ["/work/proj/src/core.c"]}]})


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


@pytest.mark.parametrize("log, rsp", [
    ("gcc -O2 -c a.c -o a.o\ngcc -O2 -c b.c -o b.o\n", None),
    ("gcc @opts.rsp -c a.c -o a.o\ngcc -O2 -c b.c -o b.o\n", "-O2 -DUSE_X\n"),
    (None, None),
], ids=["command-line", "response-file", "v1-fixture"])
def test_vocabulary_edit_does_not_brick_stored_builds(tmp_path, capsys, monkeypatch, log, rsp):
    """With gcc's -O2 dropped from the vocabulary, a build that used it still reads
    back, each TU with the optimization level it stored, and verify names each TU
    that used -O2; with -O2 restored, verify passes. No log means the v1 fixture."""
    if log is None:
        store, build_id = install_fixture(tmp_path / "store"), "fixture-v1"
        opt_levels = {"/work/proj/src/core.c": "-O2", "C:/work/proj/src/naïve_ü.cpp": "/O2"}
    else:
        if rsp is not None:
            (tmp_path / "opts.rsp").write_text(rsp)
        store, build_id = _ingest_log(tmp_path, capsys, log), "b1"
        opt_levels = {str(tmp_path / "a.c"): "-O2", str(tmp_path / "b.c"): "-O2"}
    monkeypatch.delitem(flagmodel._EXACT, (Family.GNU_LIKE, "-O2"))
    assert flagmodel.classify(Token("-O2"), detect_dialect("gcc"))[0].key == "opaque"

    for subject, opt in opt_levels.items():
        assert run(["--store", store.root, "query", "effective", "--build", build_id,
                    "--subject", subject]) == 0
        stored = f'["group","opt_level","opt_level","valued","{opt}","{opt}"]'
        assert stored in capsys.readouterr().out
    code, doc = _verify(store, capsys)
    assert code == 3
    assert doc["builds"][0]["subjects"] == [s for s, opt in opt_levels.items() if opt == "-O2"]
    monkeypatch.undo()
    assert _verify(store, capsys)[0] == 0


@pytest.fixture
def set_builds(monkeypatch) -> Counter:
    """Counts of the calls that build a loaded record's set: decoding its stored
    text, or re-resolving its tokens."""
    calls = Counter()
    for owner, name in ((flagmodel, "canonical_deserialize"), (snapshot, "_classified_as_stored")):
        def counted(*args, _original=getattr(owner, name), _name=name):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(owner, name, counted)
    return calls


_THREE_TUS = ("gcc -O2 -DA -c a.c -o a.o\ngcc -O2 -c b.c -o b.o\ngcc @opts.rsp -c r.c -o r.o\n"
              "gcc a.o b.o r.o -o app\n")


def test_a_command_builds_only_the_sets_it_reads(tmp_path, capsys, set_builds):
    """query effective and stamp build one set, of a v1 build too; diff builds none
    for equal stored texts; history --key builds one per distinct text of
    consecutive builds."""
    (tmp_path / "opts.rsp").write_text("-O2 -DUSE_X\n")
    store = str(tmp_path / "store")
    logs = {"b1": _THREE_TUS, "b2": _THREE_TUS, "b3": _THREE_TUS.replace("-O2 -DA", "-O3 -DA")}
    for i, (build_id, text) in enumerate(logs.items()):
        (tmp_path / f"{build_id}.log").write_text(text)
        assert run(["--store", store, "ingest", str(tmp_path / f"{build_id}.log"), "--label", "dev",
                    "--build-id", build_id, "--created", f"2026-01-0{i + 1}T00:00:00Z"]) == 0
    a, r = str(tmp_path / "a.c"), str(tmp_path / "r.c")
    elf = build_minimal_elf(tmp_path / "a.o.elf")
    for argv, code, want in [
        (["query", "effective", "--build", "b3", "--subject", a], 0, {"canonical_deserialize": 1}),
        (["query", "effective", "--build", "b3", "--subject", r], 0, {"canonical_deserialize": 1}),
        (["stamp", elf, "b3", a], 0, {"canonical_deserialize": 1}),
        (["diff", "b1", "b2"], 0, {}),
        (["diff", "b2", "b3"], 4, {"canonical_deserialize": 2}),  # a.c changed
        (["history", "dev", "--key", "opt_level"], 0, {"canonical_deserialize": 4}),
        (["verify", "b3"], 0, {"_classified_as_stored": 4}),  # every record re-resolved, no stored set decoded
    ]:
        set_builds.clear()
        assert run(["--store", store, *argv]) == code, argv
        assert set_builds == Counter(want), argv
    v1 = install_fixture(tmp_path / "v1")  # a v1 build reads by the same rule
    set_builds.clear()
    assert run(["--store", v1.root, "query", "effective", "--build", "fixture-v1",
                "--subject", "/work/proj/src/core.c"]) == 0
    assert set_builds == Counter({"canonical_deserialize": 1})
    capsys.readouterr()


def test_verify_compares_stored_bytes(tmp_path, capsys):
    """A stored set with two group lines swapped, and every hash recomputed, decodes
    to the set its tokens resolve to, but is not the text ingest writes: verify
    names its subject."""
    store = _ingest_log(tmp_path, capsys, "gcc -O2 -DNDEBUG -c a.c -o a.o\n")
    assert _query_a(store, tmp_path) == 0
    ingested = capsys.readouterr().out

    def swap_groups(rec):
        lines = rec["effective"].split("\n")
        assert [line[:8] for line in lines[1:3]] == ['["group"'] * 2
        lines[1], lines[2] = lines[2], lines[1]
        rec["effective"] = "\n".join(lines)
    _rewrite_record(store, "b1", 0, swap_groups)

    assert _query_a(store, tmp_path) == 0
    assert capsys.readouterr().out == ingested  # the stored text decodes to the same set
    assert _verify(store, capsys) == (3, {"report_version": 1, "builds": [
        {"build_id": "b1", "status": "corrupt", "error": None,
         "subjects": [str(tmp_path / "a.c")]}]})


def test_a_set_that_cannot_be_decoded_fails_when_read(tmp_path, capsys):
    """With a malformed flag-set line in record Y and every hash recomputed, the
    build loads: record X reads back, Y exits 3 naming its line, and verify reports
    the build corrupt with that error."""
    store = _ingest_log(tmp_path, capsys, "gcc -O2 -c a.c -o a.o\ngcc -O2 -DA -c b.c -o b.o\n")

    def bad_define(rec):
        assert '["define","A","A","-DA"]' in rec["effective"]
        rec["effective"] = rec["effective"].replace('"A","A"', '"B","A"')
    _rewrite_record(store, "b1", 1, bad_define)

    assert _query_a(store, tmp_path) == 0
    assert '["group","opt_level","opt_level","valued","-O2","-O2"]' in capsys.readouterr().out
    assert run(["--store", store.root, "query", "effective", "--build", "b1",
                "--subject", str(tmp_path / "b.c")]) == 3
    assert "unreadable snapshot line 3" in capsys.readouterr().err
    code, doc = _verify(store, capsys)
    assert code == 3
    [build] = doc["builds"]
    assert build["status"] == "corrupt" and "unreadable snapshot line 3" in build["error"]


def _set_rsp_token_text(rec):
    assert rec["invocation"]["tokens"][0]["origin"]["kind"] == "response-file"
    rec["invocation"]["tokens"][0]["text"] = 5


def _set_rsp_token_index_true(rec):
    assert rec["invocation"]["tokens"][0]["origin"]["index"] == 0
    rec["invocation"]["tokens"][0]["origin"]["index"] = True  # a bool, which Python calls an int


def _join_tokens(rec):
    rec["invocation"]["tokens"] = " ".join(rec["invocation"]["tokens"])


@pytest.mark.parametrize("log, edit, commands", [
    ("gcc -O2 -c a.c -o a.o\n", lambda rec: rec.update(source_file=5),
     [["diff", "b1", "b2"], ["history", "dev", "--key", "opt_level"],
      ["query", "find", "--build", "b1", "--group", "opt_level", "--value=-O2"]]),
    ("gcc a.o b.o -o app\n", lambda rec: rec["inputs"].insert(0, 5),
     [["audit", "b2", "--previous", "b1"]]),
    ("gcc @opts.rsp -c a.c -o a.o\n", _set_rsp_token_text, [["audit", "b1"]]),
    ("gcc @opts.rsp -c a.c -o a.o\n", _set_rsp_token_index_true, [["audit", "b1"]]),
    ("gcc -O2 -c a.c -o a.o\n", _join_tokens, [["query", "find", "--build", "b1",
                                                "--group", "opt_level", "--value=-O2"]]),
], ids=["number-source-file", "number-in-target-inputs", "number-rsp-token-text",
        "bool-rsp-token-index", "string-tokens"])
def test_mistyped_stored_field_is_unreadable(tmp_path, capsys, log, edit, commands):
    """A stored field of another JSON type, with every hash recomputed, makes its line
    unreadable: each read command exits 3 naming it, and verify reports the build corrupt."""
    (tmp_path / "opts.rsp").write_text("-O2\n")
    (tmp_path / "b.log").write_text(log)
    store = Store(str(tmp_path / "store"))
    for i in (1, 2):
        assert run(["--store", store.root, "ingest", str(tmp_path / "b.log"), "--label", "dev",
                    "--build-id", f"b{i}", "--created", f"2026-01-0{i}T00:00:00Z"]) == 0
    _rewrite_record(store, "b1", 0, edit)
    store.get("b2")  # an edit of b1 leaves b2, which stores the same records, readable
    capsys.readouterr()
    for argv in commands:
        for fmt in ("text", "json"):
            assert run(["--store", store.root, "--format", fmt, *argv]) == 3, (argv, fmt)
            assert "unreadable snapshot line 2" in capsys.readouterr().err
    code, doc = _verify(store, capsys)
    assert code == 3 and doc["builds"][0]["build_id"] == "b1"
    assert doc["builds"][0]["status"] == "corrupt"
    assert "unreadable snapshot line 2" in doc["builds"][0]["error"]
