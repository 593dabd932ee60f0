"""Snapshot codec: stored bytes read back exactly, and damage is caught."""

import functools
import io
import json
import shlex
import tempfile
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import canonical_oracle
import record_oracle
from conftest import build_minimal_elf
from forge import forge, forged
from flagtrace import flagmodel, snapshot
from flagtrace.cli import run
from flagtrace.cmdline import (
    DIALECTS,
    Family,
    Origin,
    RawInvocation,
    detect_dialect,
)
from flagtrace.ingest import assemble_snapshot
from flagtrace.snapshot import BuildSnapshot, LinkTargetRecord, TranslationUnitRecord
from flagtrace.store import Store, _snapshot_relpath
from test_ingest import DEEP_JSON, log_snapshot

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
    object, a command-line one by its origin's kind alone, and forged."""
    header, *lines = data.removesuffix(b"\n").split(b"\n")
    for n, line in enumerate(lines):
        rec = json.loads(line)
        if rec["kind"] != "diagnostic":
            rec["invocation"]["tokens"] = [{"text": t, "origin": {"kind": "command-line"}}
                                           if type(t) is str else t
                                           for t in rec["invocation"]["tokens"]]
            lines[n] = _canon_line(rec)
    return forged(b"\n".join([_canon_line({**json.loads(header), "snapshot_version": 1}), *lines]))[0]


def install_fixture(root, fixture=FIXTURE) -> Store:
    """A store whose only build is the fixture, indexed the way put() does."""
    store = Store(str(root))
    data = fixture.read_bytes()
    snap = BuildSnapshot.deserialize(data)
    relpath = _snapshot_relpath(snap.build_id)
    Path(store.snap_dir).mkdir(parents=True)  # Store() creates nothing; put() would
    (Path(store.root) / relpath).write_bytes(data)
    Path(store.index_path).write_text("\t".join(
        [snap.build_id, snap.label, snap.created, snap.content_hash, relpath]
    ) + "\n", encoding="utf-8")
    return store


def _fixture_file(store: Store) -> Path:
    return Path(store.root) / store.list_builds()[0].relpath


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
        by_output = snap.by_output()  # the target's members, as its stored line lists them
        assert [by_output[p][1].source_file for p in snap.targets[0].inputs
                if p in by_output] == ["/work/proj/src/core.c"]
        assert [d["program"] for d in snap.diagnostics] == ["ar"]
        assert as_v1(snap.serialize()) == FIXTURE.read_bytes()

    def test_command_line_tokens_are_shared(self):
        """A v1 load keeps one str per command-line text across records, as a v2 load does."""
        snap = BuildSnapshot.deserialize(FIXTURE.read_bytes())
        core_o, target_o = (next(t for t in r.invocation.tokens if t == "-o")
                            for r in (snap.tus[0], snap.targets[0]))
        assert core_o is target_o
        assert snap.tus[0].invocation.origins == (None,) * len(snap.tus[0].invocation.tokens)

    @pytest.mark.parametrize("origin, readable", [
        ({"kind": "command-line", "x": 1}, False),
        ({"index": True, "kind": "response-file", "path": "/work/proj/opts.rsp"}, False),
        ({"index": 0, "kind": "response-file", "path": "/work/proj/opts.rsp"}, True),
    ], ids=["command-line-with-another-key", "bool-index", "response-file"])
    def test_a_token_origin_reads_only_as_v1_wrote_it(self, tmp_path, capsys, origin, readable):
        """With every hash recomputed, the first token's origin reads as the command line's
        only as {"kind": "command-line"}, and as a response file's only with an int index."""
        store = install_fixture(tmp_path / "store")
        _rewrite_record(store, "fixture-v1", 0,
                        lambda rec: rec["invocation"]["tokens"][0].update(origin=origin))
        if readable:
            inv = store.get("fixture-v1").tus[0].invocation
            assert inv.origins[0] == Origin("/work/proj/opts.rsp", 0)
            assert _verify(store, capsys)[0] == 0
        else:
            assert _query_fixture(store) == 3
            assert "unreadable snapshot line 2" in capsys.readouterr().err


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
        assert snap.tus[1].invocation.origins[1:5] == (
            None, *(Origin("/work/proj/opts.rsp", i) for i in range(3)))
        assert snap.serialize() == FIXTURE_V2.read_bytes()

    def test_command_line_tokens_are_bare_and_shared(self):
        data = FIXTURE_V2.read_bytes()
        stored = json.loads(data.split(b"\n")[2])["invocation"]["tokens"]
        assert stored[:3] == ["-O2", "-g", {"origin": {"index": 0, "kind": "response-file",
                                                       "path": "/work/proj/opts.rsp"},
                                            "text": "-g"}]
        core, util = BuildSnapshot.deserialize(data).tus[:2]
        assert core.invocation.tokens[0] is util.invocation.tokens[0]  # "-O2"
        # "-g" twice: the origins tell the command line's from the response file's
        assert util.invocation.tokens[1] == util.invocation.tokens[2] == "-g"
        assert util.invocation.origins[1:3] == (None, Origin("/work/proj/opts.rsp", 0))


def test_new_snapshots_are_v2(tmp_path):
    data = log_snapshot(tmp_path, "gcc -O2 -c a.c\n").serialize()
    header, tu = data.split(b"\n")[:2]
    assert json.loads(header)["snapshot_version"] == 2
    assert json.loads(tu)["invocation"]["tokens"] == ["-O2", "-c", "a.c"]


def _rewrite_line(store: Store, n: int, edit) -> None:
    """Replace line n (0 is the header) of the only stored snapshot, keeping every hash."""
    snap_file = _fixture_file(store)
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


@pytest.mark.parametrize("edit", [
    lambda h: h[:-1] + b',"zz_extra":1}',
    lambda h: b"{ " + h[1:],
    lambda h: h.replace(b'"label":"dev"', b'"label":"d\\u0065v"'),
], ids=["extra-key", "space-after-brace", "escaped-label"])
def test_a_header_reads_only_as_written(tmp_path, capsys, edit):
    """A header that is not the line writing writes for the fields it decodes to is
    unreadable, though the content hash does not cover it: every read and verify exit 3."""
    store = _ingest_log(tmp_path, capsys, "gcc -O2 -c a.c -o a.o\n")
    _rewrite_line(store, 0, edit)
    a = str(tmp_path / "a.c")
    for argv in (["query", "effective", "--build", "b1", "--subject", a],
                 ["query", "find", "--build", "b1", "--group", "opt_level", "--value=-O2"],
                 ["audit", "b1"], ["diff", "b1", "b1"], ["history", "dev", "--key", "opt_level"],
                 ["stamp", build_minimal_elf(tmp_path / "a.o.elf"), "b1", a]):
        assert run(["--store", store.root, *argv]) == 3, argv
        assert "unreadable snapshot line 1" in capsys.readouterr().err
    code, doc = _verify(store, capsys)
    assert code == 3 and "unreadable snapshot line 1" in doc["builds"][0]["error"]


def test_deeply_nested_line_exit_3(tmp_path, capsys):
    store = install_fixture(tmp_path / "store")
    _rewrite_line(store, 1, lambda _: DEEP_JSON.encode())
    assert _query_fixture(store) == 3
    assert "unreadable snapshot line 2" in capsys.readouterr().err


@pytest.mark.parametrize("line", [
    b'{"kind":"nonsense","x":1}',
    b'{"kind":"nonsense"}',
    b'{"kind":"diagnostic","reason":5,"x":[1,2]}',
    b'{"kind":"diagnostic","reason":5}',
    b'{"kind":"diagnostic","program":"ar","reason":"r","source":"s","x":1}',
    b'{"kind":"diagnostic","program":"ar","reason":null,"source":"s"}',
    b'{"kind":"diagnostic","source":"s","reason":"r","program":"ar"}',
], ids=["unknown-kind", "unknown-kind-alone", "diagnostic-number-reason-and-extra-key",
        "diagnostic-number-reason-alone", "diagnostic-extra-key", "diagnostic-null-reason",
        "diagnostic-keys-reversed"])
def test_line_of_unknown_kind_exit_3(tmp_path, capsys, line):
    """A line that is not a TU, a link target or a diagnostic is unreadable, and so is a
    diagnostic line other than writing writes: keys kind, program, reason and source, in
    that order, each a string. The content hash covers only record lines, so it still matches."""
    store = install_fixture(tmp_path / "store")
    snap_file = _fixture_file(store)
    n = snap_file.read_bytes().count(b"\n") + 1
    with open(snap_file, "ab") as fh:
        fh.write(line + b"\n")
    assert _query_fixture(store) == 3
    assert f"unreadable snapshot line {n}" in capsys.readouterr().err
    assert run(["--store", store.root, "query", "find", "--build", "fixture-v1",
                "--group", "opt_level", "--value=-O2"]) == 3
    assert f"unreadable snapshot line {n}" in capsys.readouterr().err
    code, doc = _verify(store, capsys)
    assert code == 3 and f"unreadable snapshot line {n}" in doc["builds"][0]["error"]


@pytest.mark.parametrize("fixture, code", [(FIXTURE_V2, 3), (FIXTURE, 0)], ids=["v2", "v1"])
def test_verify_compares_a_diagnostic_line_of_a_v2_file(tmp_path, capsys, fixture, code):
    """A diagnostic line with a space after a colon decodes as written, so it reads; verify
    compares each line of a v2 file with the line writing writes, and names it. Writing
    never writes v1, so verify compares no v1 line."""
    store = install_fixture(tmp_path / "store", fixture)
    n = _fixture_file(store).read_bytes().count(b"\n")
    _rewrite_line(store, n - 1, lambda line: line.replace(b'"kind":', b'"kind": '))
    assert run(["--store", store.root, "query", "effective", "--build", store.list_builds()[0].build_id,
                "--subject", "/work/proj/src/core.c"]) == 0
    capsys.readouterr()
    got, doc = _verify(store, capsys)
    assert got == code
    assert doc["builds"][0]["error"] is None if code == 0 else f"snapshot line {n} " in doc["builds"][0]["error"]


_RSP_ORIGINS = st.builds(Origin, st.sampled_from(["/w/a.rsp", "C:\\w\\b.rsp"]), st.integers(0, 9))
# (text, origin) pairs: None is the command line's origin
_TOKENS = st.tuples(
    st.one_of(st.sampled_from(["-O2", "-g", "-D", "-DX=1", "-o", "a.o", "/O2", "/Fo", "@x.rsp"]),
              st.text(st.characters(blacklist_categories=("Cs",)), min_size=1)),
    st.one_of(st.none(), _RSP_ORIGINS))
_RSP_G = ("-g", Origin("/w/a.rsp", 0))


def _split(pairs) -> tuple[tuple, tuple]:
    """The tokens and the origins of (text, origin) `pairs`."""
    return tuple(t for t, _ in pairs), tuple(o for _, o in pairs)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["gcc", "cl"]), st.lists(_TOKENS, max_size=12)),
                min_size=1, max_size=4),
       st.sampled_from([1, 2]))
@example([("gcc", [("-g", None), _RSP_G, ("-g", None)]), ("gcc", [_RSP_G, ("-g", None)])], 2)
def test_token_streams_round_trip(streams, version):
    """Any mix of command-line and response-file tokens reads back from either
    version and is written back as v2."""
    tus = []
    for i, (program, pairs) in enumerate(streams):
        inv = RawInvocation(program, *_split(pairs), "/w", f"log:b.log:{i + 1}", detect_dialect(program))
        eff = flagmodel.resolve(flagmodel.classify_all(inv.tokens, inv.dialect))
        tus.append(TranslationUnitRecord(f"/w/{i}.c", None, inv,
                                         flagmodel.canonical_serialize(eff)))
    data = BuildSnapshot("b1", "dev", "2026-01-01T00:00:00Z", tus).serialize()
    back = BuildSnapshot.deserialize(as_v1(data) if version == 1 else data)
    assert [r.invocation for r in back.tus] == [r.invocation for r in tus]
    assert [vars(r.effective) for r in back.tus] == [vars(r.effective) for r in tus]
    words = {}  # one str per command-line text across the load
    assert all(words.setdefault(t, t) is t for r in back.tus
               for t, o in zip(r.invocation.tokens, r.invocation.origins) if o is None)
    assert back.serialize() == data


@given(st.text(st.characters(blacklist_categories=("Cs",)), min_size=1))
@example("c\u0085d")
@example("c\u2028d")
def test_any_source_path_round_trips(name):
    inv = RawInvocation("gcc", ("-c", f"src/{name}.c"), (None, None), "/w",
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
    inv = RawInvocation("gcc", ("-c", "a.c"), (None, None), "/w", "log:b.log:1",
                        detect_dialect("gcc"))
    eff = flagmodel.resolve(flagmodel.classify_all(inv.tokens, inv.dialect))
    text = flagmodel.canonical_serialize(eff)
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
        assert flagmodel.canonical_serialize(rec.effective) == rec.effective_text
        assert "effective" in vars(rec)


def test_an_assembled_response_file_tu_keeps_its_origins(tmp_path):
    origins = _rsp_snapshot(tmp_path).tus[0].origins
    rsp = str(tmp_path / "opts.rsp")
    assert origins.group_value("opt_level") == Origin(rsp, 0)
    assert origins.group_value("exceptions") == Origin(rsp, 1)


# Spellings that win group, define and link-input slots, among others.
_SLOT_TOKENS = st.tuples(
    st.one_of(st.sampled_from(["-O2", "-O0", "/O2", "-fno-stack-protector", "-fstack-protector",
                               "-D", "/D", "X", "-DX", "-DX=1", "/DX", "-UX", "-o", "/Fo", "a.o",
                               "-lfoo-1.2", "-lfoo-1.3", "m.lib", "libz.a", "-c", "a.c", "-g"]),
              st.text(st.characters(blacklist_categories=("Cs",)), min_size=1)),
    st.one_of(st.none(), _RSP_ORIGINS))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["gcc", "cl", "ld"]), st.lists(_SLOT_TOKENS, max_size=16))
@example("ld", [("-lfoo-1.2", Origin("/w/libs.rsp", 2)), ("-lfoo-1.3", None), ("-lfoo-1.2", None)])
@example("gcc", [("-DX", None), ("-D", Origin("/w/d.rsp", 1)), ("X", Origin("/w/d.rsp", 2)), ("-O2", None)])
def test_origins_agree_with_an_origin_carrying_fold(program, pairs):
    """Each winner's origin in `origins`, of an assembled record and of it loaded, is
    the origin of the winner that entries carrying their token's origin fold to."""
    dialect = detect_dialect(program)
    inv = RawInvocation(program, *_split(pairs), "/w", "log:/w/b.log:1", dialect)
    text = flagmodel.canonical_serialize(flagmodel.resolve(flagmodel.classify_all(inv.tokens, dialect)))
    snap = BuildSnapshot("b", "dev", "2026-01-01T00:00:00Z",
                         tus=[TranslationUnitRecord("/w/a.c", "/w/a.o", inv, text)])
    want = canonical_oracle.resolve_with_origins(inv.tokens, inv.origins, dialect)
    for rec in (snap.tus[0], BuildSnapshot.deserialize(snap.serialize()).tus[0]):
        got = rec.origins
        if got is None:
            assert rec.invocation.origins == (None,) * len(rec.invocation.tokens)
            assert all(e.origin is None for e in canonical_oracle.entries(want))
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


def _rewrite_lines(store: Store, build_id: str, edit, header_fields: dict | None = None) -> None:
    """Replace a build's lines after its header with what edit returns for them, set
    `header_fields` in the header, and forge the build."""
    entry = next(e for e in store.list_builds() if e.build_id == build_id)
    snap_file, index = Path(store.root) / entry.relpath, Path(store.index_path)
    header, *rest = snap_file.read_bytes().removesuffix(b"\n").split(b"\n")
    rest = edit(rest)  # before `header_fields` is read: `_rewrite_record`'s edit sets them
    header = _canon_line({**json.loads(header), **(header_fields or {})})
    files = {entry.relpath: b"\n".join([header, *rest]), "index.tsv": index.read_bytes()}
    forge(files, entry.relpath)
    snap_file.write_bytes(files[entry.relpath])
    index.write_bytes(files["index.tsv"])


def _rewrite_record(store: Store, build_id: str, n: int, edit) -> None:
    """Apply edit to record n of a build, keeping the order of its keys, and forge the
    build. The header fields that edit returns, if any, are set too."""
    header_fields = {}

    def edit_line(rest: list[bytes]) -> list[bytes]:
        rec = json.loads(rest[n])
        header_fields.update(edit(rec) or {})
        rest[n] = json.dumps(rec, separators=(",", ":")).encode()
        return rest
    _rewrite_lines(store, build_id, edit_line, header_fields)


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
    assert flagmodel.classify("-O2", detect_dialect("gcc"))[0].key == "opaque"

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


def test_a_command_builds_only_the_invocations_it_reads(tmp_path, capsys, monkeypatch):
    """history --key, diff, query and stamp build no invocation from a load; audit builds
    one per record whose invocation it reads, verify one per record. history over three
    builds decodes each distinct flag-set line once."""
    (tmp_path / "opts.rsp").write_text("-O2 -DUSE_X\n")
    store = str(tmp_path / "store")
    logs = {"b1": _THREE_TUS, "b2": _THREE_TUS, "b3": _THREE_TUS.replace("-O2 -DA", "-O3 -DA")}
    for i, (build_id, text) in enumerate(logs.items()):
        (tmp_path / f"{build_id}.log").write_text(text)
        assert run(["--store", store, "ingest", str(tmp_path / f"{build_id}.log"), "--label", "dev",
                    "--build-id", build_id, "--created", f"2026-01-0{i + 1}T00:00:00Z"]) == 0
    built, decoded = Counter(), Counter()  # invocations a load built; set lines decoded

    def build(*parts, _original=snapshot.RawInvocation):
        built["RawInvocation"] += 1
        return _original(*parts)

    def deserialize(text, memo, _original=flagmodel.canonical_deserialize):
        decoded.update(set(text.split("\n")[1:-1]).difference(memo))
        return _original(text, memo)
    monkeypatch.setattr(snapshot, "RawInvocation", build)
    monkeypatch.setattr(flagmodel, "canonical_deserialize", deserialize)
    a = str(tmp_path / "a.c")
    elf = build_minimal_elf(tmp_path / "a.o.elf")
    for argv, code, want in [
        (["history", "dev", "--key", "opt_level"], 0, 0),
        (["diff", "b2", "b3"], 4, 0),
        (["query", "effective", "--build", "b3", "--subject", a], 0, 0),
        (["query", "find", "--build", "b3", "--group", "opt_level", "--value=-O2"], 0, 0),
        (["stamp", elf, "b3", a], 0, 0),
        (["audit", "b3", "--previous", "b2"], 4, 3),  # R8 reads each TU of b3; no finding cites its target
        (["verify", "b3"], 0, 4),
    ]:
        built.clear()
        assert run(["--store", store, *argv]) == code, argv
        assert built["RawInvocation"] == want, argv
    decoded.clear()
    assert run(["--store", store, "history", "dev", "--key", "opt_level"]) == 0
    assert set(decoded.values()) == {1}  # b1's lines, then b3's one new line, each once
    assert '["group","opt_level","opt_level","valued","-O3","-O3"]' in decoded
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


def _respell_set_line(old: str, new: str):
    """An edit that rewrites part of the stored effective text."""
    def edit(rec):
        assert old in rec["effective"]
        rec["effective"] = rec["effective"].replace(old, new)
    return edit


@pytest.mark.parametrize("edit", [
    _respell_set_line('"-O2","-O2"]', '"-O2", "-O2"]'),
    _respell_set_line('"-O2","-O2"]', '"-O2","-O\\u0032"]'),
], ids=["spaced", "escaped-digit"])
def test_a_set_line_reads_only_as_written(tmp_path, capsys, edit):
    """A stored set line that decodes to the entry writing wrote, but is not the line
    writing writes for it, with every hash recomputed, is unreadable: each read of its
    set exits 3 naming the record's line, and verify reports it as the build's error."""
    (tmp_path / "b.log").write_text("gcc -O2 -c a.c -o a.o\n")
    store = str(tmp_path / "store")
    for i in (1, 2):
        assert run(["--store", store, "ingest", str(tmp_path / "b.log"), "--label", "dev",
                    "--build-id", f"b{i}", "--created", f"2026-01-0{i}T00:00:00Z"]) == 0
    _rewrite_record(Store(store), "b1", 0, edit)
    capsys.readouterr()
    a = str(tmp_path / "a.c")
    for argv in (["query", "effective", "--build", "b1", "--subject", a],
                 ["stamp", build_minimal_elf(tmp_path / "a.o.elf"), "b1", a],
                 ["query", "find", "--build", "b1", "--group", "opt_level", "--value=-O2"],
                 ["diff", "b1", "b2"], ["history", "dev", "--key", "opt_level"]):
        assert run(["--store", store, *argv]) == 3, argv
        assert "unreadable snapshot line 2" in capsys.readouterr().err
    code, doc = _verify(Store(store), capsys)
    assert code == 3
    assert doc["builds"][0]["status"] == "corrupt" and doc["builds"][0]["subjects"] == []
    assert "unreadable snapshot line 2" in doc["builds"][0]["error"]
    assert doc["builds"][1] == {"build_id": "b2", "status": "ok", "error": None, "subjects": []}


@pytest.mark.parametrize("name, value", [("member_tus", "a.c"), ("external_inputs", [5])],
                         ids=["string-member-tus", "number-in-external-inputs"])
def test_mistyped_stored_member_list_is_unreadable(tmp_path, capsys, name, value):
    """A target's member lists are written from the TUs it links and not kept on
    load, but a load still checks their JSON types: with every hash recomputed, a
    mistyped one makes its line unreadable."""
    store = _ingest_log(tmp_path, capsys, "gcc -c a.c -o a.o\ngcc a.o b.o -o app\n")
    _rewrite_record(store, "b1", 1, lambda rec: rec.update({name: value}))
    assert run(["--store", store.root, "audit", "b1"]) == 3
    assert "unreadable snapshot line 3" in capsys.readouterr().err
    code, doc = _verify(store, capsys)
    assert code == 3 and "unreadable snapshot line 3" in doc["builds"][0]["error"]


_LINKED = "gcc -c a.c -o a.o\ngcc -c b.c -o b.o\ngcc a.o b.o -lm -o app\n"


@pytest.mark.parametrize("edit", [
    lambda rec: rec.update(member_tus=[]),
    lambda rec: rec.update(external_inputs=["/nowhere.o"]),
    lambda rec: rec["member_tus"].reverse(),
], ids=["no-members", "an-input-it-does-not-link", "members-reversed"])
def test_stored_member_lists_other_than_writing_derives_are_unreadable(tmp_path, capsys, edit):
    """With every hash recomputed, a target line whose member lists are not the ones
    writing derives from the build's TUs is unreadable, for every read and for verify."""
    store = _ingest_log(tmp_path, capsys, _LINKED)
    _rewrite_record(store, "b1", 2, edit)
    for argv in (["audit", "b1"],
                 ["query", "effective", "--build", "b1", "--subject", str(tmp_path / "app")]):
        assert run(["--store", store.root, *argv]) == 3, argv
        assert "unreadable snapshot line 4" in capsys.readouterr().err
    code, doc = _verify(store, capsys)
    assert code == 3 and doc["builds"][0]["status"] == "corrupt"
    assert "unreadable snapshot line 4" in doc["builds"][0]["error"]


def test_a_target_line_before_its_tu_lines_reads_back(tmp_path, capsys):
    """A load checks member lists against every TU of the build, wherever its line
    is: a target line moved before the TUs it links, with every hash recomputed, reads
    back as before and verifies."""
    store = _ingest_log(tmp_path, capsys, _LINKED)
    app = ["query", "effective", "--build", "b1", "--subject", str(tmp_path / "app")]
    assert run(["--store", store.root, *app]) == 0
    before = capsys.readouterr().out
    _rewrite_lines(store, "b1", lambda rest: [rest[2], *rest[:2], *rest[3:]])
    assert [t.output for t in store.get("b1").targets] == [str(tmp_path / "app")]
    assert run(["--store", store.root, *app]) == 0
    assert capsys.readouterr().out == before
    assert _verify(store, capsys) == (0, {"report_version": 1, "builds": [
        {"build_id": "b1", "status": "ok", "error": None, "subjects": []}]})


def _set_rsp_origin_kind(rec):
    assert rec["invocation"]["tokens"][0]["origin"]["kind"] == "response-file"
    rec["invocation"]["tokens"][0]["origin"]["kind"] = "bogus"


def _set_rsp_token_text(rec):
    assert rec["invocation"]["tokens"][0]["origin"]["kind"] == "response-file"
    rec["invocation"]["tokens"][0]["text"] = 5


def _set_rsp_token_index_true(rec):
    assert rec["invocation"]["tokens"][0]["origin"]["index"] == 0
    rec["invocation"]["tokens"][0]["origin"]["index"] = True  # a bool, which Python calls an int


def _join_tokens(rec):
    rec["invocation"]["tokens"] = " ".join(rec["invocation"]["tokens"])


def _append_token(value):
    return lambda rec: rec["invocation"]["tokens"].append(value)


def _command_line_token_object(rec):
    """The first token stored as v1 stores a command-line token, which v2 never does."""
    assert rec["invocation"]["tokens"][0] == "-O2"
    rec["invocation"]["tokens"][0] = {"origin": {"kind": "command-line"}, "text": "-O2"}


def _keys_reversed(rec):
    """Every key of the line in reverse order, each with its value: writing's keys, not in its order."""
    items = [*rec.items()][::-1]
    rec.clear()
    rec.update(items)


def _header_version_1(rec):
    """The header says version 1, where every token is an object; the line is left as v2 wrote it."""
    return {"snapshot_version": 1}


@pytest.mark.parametrize("log, edit, commands", [
    ("gcc -O2 -c a.c -o a.o\n", lambda rec: rec.update(source_file=5),
     [["diff", "b1", "b2"], ["history", "dev", "--key", "opt_level"],
      ["query", "find", "--build", "b1", "--group", "opt_level", "--value=-O2"]]),
    ("gcc a.o b.o -o app\n", lambda rec: rec["inputs"].insert(0, 5),
     [["audit", "b2", "--previous", "b1"]]),
    ("gcc @opts.rsp -c a.c -o a.o\n", _set_rsp_token_text, [["audit", "b1"]]),
    ("gcc @opts.rsp -c a.c -o a.o\n", _set_rsp_token_index_true, [["audit", "b1"]]),
    ("gcc @opts.rsp -c a.c -o a.o\n", _set_rsp_origin_kind, [["audit", "b1"]]),
    ("gcc -O2 -c a.c -o a.o\n", _join_tokens, [["query", "find", "--build", "b1",
                                                "--group", "opt_level", "--value=-O2"]]),
    *(("gcc -O2 -c a.c -o a.o\n", _append_token(value), [["query", "find", "--build", "b1",
                                                         "--group", "opt_level", "--value=-O2"]])
      for value in (5, True, None)),
    ("gcc -O2 -c a.c -o a.o\n", lambda rec: rec.update(bogus=1),
     [["query", "find", "--build", "b1", "--group", "opt_level", "--value=-O2"]]),
    ("gcc -O2 -c a.c -o a.o\n", lambda rec: rec["invocation"].update(env="X=1"),
     [["history", "dev", "--key", "opt_level"]]),
    *(("gcc -O2 -c a.c -o a.o\n", edit, [["diff", "b1", "b2"], ["history", "dev", "--key", "opt_level"],
                                         ["query", "find", "--build", "b1", "--group", "opt_level",
                                          "--value=-O2"]])
      for edit in (_command_line_token_object, _header_version_1,
                   lambda rec: rec["invocation"].update(env="X=1"))),
    ("gcc -O2 -c a.c -o a.o\n", _keys_reversed,
     [["query", "effective", "--build", "b1", "--subject", "a.c"], ["audit", "b1"], ["diff", "b1", "b2"],
      ["history", "dev", "--key", "opt_level"],
      ["query", "find", "--build", "b1", "--group", "opt_level", "--value=-O2"]]),
], ids=["number-source-file", "number-in-target-inputs", "number-rsp-token-text",
        "bool-rsp-token-index", "unknown-rsp-origin-kind", "string-tokens",
        "number-token", "bool-token", "null-token",
        "record-key-never-written", "invocation-key-never-written",
        "command-line-token-object-in-v2", "v2-line-under-a-v1-header",
        "invocation-key-never-written-every-read", "tu-keys-reversed-every-read"])
def test_mistyped_stored_field_is_unreadable(tmp_path, capsys, log, edit, commands):
    """A stored field of another JSON type, a key or an origin kind writing never
    stores, or keys out of writing's order, with every hash recomputed, makes its line
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


# One build with a response-file token and a link target: a.c's TU line (line 2)
# holds command-line and response-file tokens, b.c's is line 3 and app's line 4.
_LAYOUT_LOG = "gcc @opts.rsp -O2 -c a.c -o a.o\ngcc -O2 -c b.c -o b.o\ngcc a.o b.o -lm -o app\n"
_LAYOUT_READS = (["query", "find", "--build", "b1", "--group", "opt_level", "--value=-O2"],
                 ["history", "dev", "--key", "opt_level"])


def _in_order(d: dict) -> bytes:
    """A decoded line written back compactly, with its keys in the order they stand in."""
    return json.dumps(d, ensure_ascii=False, separators=(",", ":")).encode()


def _run_quietly(store: str, argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one command on `store`."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(["--store", store, *argv])
    return code, out.getvalue(), err.getvalue()


@functools.lru_cache(maxsize=None)
def _layout_store() -> tuple[dict, list[bytes]]:
    """The files of a store holding `_LAYOUT_LOG` as build b1, by path within it, and
    the build's record lines. Every read of it exits 0, and `_in_order` writes each
    record line back byte for byte."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "opts.rsp").write_text("-g -DUSE_X\n")
        (root / "b.log").write_text(_LAYOUT_LOG)
        store = root / "store"
        assert _run_quietly(str(store), ["ingest", str(root / "b.log"), "--label", "dev",
                                         "--build-id", "b1"])[0] == 0
        for argv in (*_LAYOUT_READS, ["verify"]):
            assert _run_quietly(str(store), argv)[0] == 0, argv
        files = {str(p.relative_to(store)): p.read_bytes() for p in store.rglob("*") if p.is_file()}
    lines = next(data for rel, data in files.items() if rel.endswith(".fts")).split(b"\n")[1:-1]
    assert len(lines) == 3 and all(_in_order(json.loads(line)) == line for line in lines)
    return files, lines


def _objects(value):
    """Every JSON object in a decoded value, outermost first."""
    if type(value) is dict:
        yield value
    for v in value.values() if type(value) is dict else value if type(value) is list else ():
        yield from _objects(v)


def _set_items(d: dict, items: list) -> None:
    """Make `items` the keys and values of `d`, in their order."""
    d.clear()
    d.update(items)


@st.composite
def _layout_edits(draw) -> tuple[int, bytes]:
    """A record line of `_layout_store`'s build, by its index after the header, with one
    edit writing never makes: a key added to one of its objects, a value given a JSON type
    writing never writes there, two keys of one object swapped, or a command-line word
    stored as a v1 token object."""
    n = draw(st.integers(0, 2))
    line = json.loads(_layout_store()[1][n])
    objects, tokens = list(_objects(line)), line["invocation"]["tokens"]
    edit = draw(st.sampled_from(["add-key", "mistype", "swap-keys", "v1-token"]))
    if edit == "add-key":
        d = draw(st.sampled_from(objects))
        items = list(d.items())
        items.insert(draw(st.integers(0, len(items))),
                     (draw(st.sampled_from(["a", "env", "kind", "zz"]).filter(lambda k: k not in d)),
                      draw(st.sampled_from(["x", 1, None]))))
        _set_items(d, items)
    elif edit == "swap-keys":
        d = draw(st.sampled_from([d for d in objects if len(d) > 1]))
        items = list(d.items())
        i, j = draw(st.lists(st.integers(0, len(items) - 1), min_size=2, max_size=2, unique=True))
        items[i], items[j] = items[j], items[i]
        _set_items(d, items)
    elif edit == "mistype":
        slots = [(d, k) for d in objects for k in d]
        slots += [(v, i) for d in objects for v in d.values() if type(v) is list for i in range(len(v))]
        container, key = draw(st.sampled_from(slots))
        written = {type(container[key])}  # and null for a TU's output, an object for a token
        written |= {type(None)} if key == "output_file" else {str, dict} if container is tokens else set()
        container[key] = draw(st.sampled_from([v for v in ("x", 5, 1.5, True, None, [], {})
                                               if type(v) not in written]))
    else:
        i = draw(st.sampled_from([i for i, t in enumerate(tokens) if type(t) is str]))
        tokens[i] = {"origin": {"kind": "command-line"}, "text": tokens[i]}
    return n, _in_order(line)


@settings(max_examples=80, deadline=None)
@given(_layout_edits())
def test_a_record_line_writing_never_writes_is_unreadable(edit):
    """A record line with one edit that writing never makes, and every hash recomputed,
    is unreadable: query find and history --key exit 3 naming its line, and verify
    reports the build corrupt. Key sets alone do not tell a line whose keys are swapped."""
    n, edited = edit
    files, _ = _layout_store()
    with tempfile.TemporaryDirectory() as tmp:
        for rel, data in files.items():
            (Path(tmp) / rel).parent.mkdir(parents=True, exist_ok=True)
            (Path(tmp) / rel).write_bytes(data)
        _rewrite_lines(Store(tmp), "b1", lambda rest: [*rest[:n], edited, *rest[n + 1:]])
        for argv in _LAYOUT_READS:
            code, _, err = _run_quietly(tmp, argv)
            assert code == 3 and f"unreadable snapshot line {n + 2}" in err, argv
        code, out, _ = _run_quietly(tmp, ["--format", "json", "verify"])
        build = json.loads(out)["builds"][0]
        assert code == 3 and build["status"] == "corrupt"
        assert f"unreadable snapshot line {n + 2}" in build["error"]


def _positions(line: str) -> tuple[list[int], list[int]]:
    """The index in a compact JSON line of each `,` and `:` outside a string, and of
    each string character written as itself."""
    marks, chars, i, in_string = [], [], 0, False
    while i < len(line):
        c = line[i]
        if in_string and c == "\\":
            i += 6 if line[i + 1] == "u" else 2
            continue
        if c == '"':
            in_string = not in_string
        elif in_string:
            chars.append(i)
        elif c in ",:":
            marks.append(i)
        i += 1
    return marks, chars


@st.composite
def _respellings(draw) -> tuple[int, bytes]:
    """A record line of `_layout_store`'s build, by its index after the header, with one
    edit that keeps what it decodes to, keys in order, but not its bytes: a space after
    a `,` or `:` outside a string, a string character written as its \\u escape, or a key
    repeated before its first position with another value, which the later one overrides."""
    n = draw(st.integers(0, 2))
    line = _layout_store()[1][n].decode("utf-8")
    marks, chars = _positions(line)
    edit = draw(st.sampled_from(["space", "escape", "repeated-key"]))
    if edit == "space":
        i = draw(st.sampled_from(marks)) + 1
        edited = f"{line[:i]} {line[i:]}"
    elif edit == "escape":
        i = draw(st.sampled_from(chars))
        units = line[i].encode("utf-16-be")
        edited = line[:i] + "".join(f"\\u{int.from_bytes(units[j:j + 2], 'big'):04x}"
                                    for j in range(0, len(units), 2)) + line[i + 1:]
    else:
        d = draw(st.sampled_from(list(_objects(json.loads(line)))))
        key = draw(st.sampled_from(list(d)))
        other = draw(st.sampled_from([v for v in ("x", 5, None, []) if v != d[key]]))
        items = [_in_order({k: v}).decode()[1:-1] for k, v in d.items()]
        items.insert(list(d).index(key), _in_order({key: other}).decode()[1:-1])
        # an object's text stands in no string of the line, where every quote is escaped
        edited = line.replace(_in_order(d).decode(), "{" + ",".join(items) + "}", 1)
    edited = edited.encode("utf-8")
    assert edited != _layout_store()[1][n] and _in_order(json.loads(edited)) == _layout_store()[1][n]
    return n, edited


@settings(max_examples=60, deadline=None)
@given(_respellings())
def test_verify_compares_each_line_with_the_line_writing_writes(edit):
    """A record line that decodes to what writing wrote but is other bytes, with every
    hash recomputed, makes verify report the build corrupt and name the line: verify
    compares each line of a v2 file with `_encode_record` of the record read from it.
    The unedited store verifies ok (`_layout_store`)."""
    n, edited = edit
    files, _ = _layout_store()
    with tempfile.TemporaryDirectory() as tmp:
        for rel, data in files.items():
            (Path(tmp) / rel).parent.mkdir(parents=True, exist_ok=True)
            (Path(tmp) / rel).write_bytes(data)
        _rewrite_lines(Store(tmp), "b1", lambda rest: [*rest[:n], edited, *rest[n + 1:]])
        code, out, _ = _run_quietly(tmp, ["--format", "json", "verify"])
        build = json.loads(out)["builds"][0]
        assert code == 3 and build["status"] == "corrupt"
        assert f"snapshot line {n + 2} is not as written" in build["error"]


# Text a record line must escape or keep as it is, each kind weighted above
# the rest of Unicode: quotes, backslashes, control characters, the line
# breaks JSON leaves unescaped, and text outside the BMP.
LINE_TEXT = st.text(alphabet=st.one_of(
    st.sampled_from(list('"\\/\x00\x1f\x7f\n\r\t\x85\u2028\u2029')),
    st.sampled_from(["\U0001f600", "\U00010000", "\xe9", "a", "."]),
    st.characters(blacklist_categories=("Cs",)),  # a lone surrogate is no UTF-8 text
), max_size=10)
_ORIGINS = st.one_of(st.none(), st.builds(Origin, LINE_TEXT, st.integers(0, 10**9)))
_INVOCATIONS = st.builds(lambda program, pairs, *rest: RawInvocation(program, *_split(pairs), *rest),
                         LINE_TEXT, st.lists(st.tuples(LINE_TEXT.filter(bool), _ORIGINS), max_size=4),
                         LINE_TEXT, LINE_TEXT, st.sampled_from(list(DIALECTS.values())))


@st.composite
def _snapshots(draw) -> BuildSnapshot:
    """TUs whose outputs are None or drawn from a few names, and targets whose inputs
    name some of those outputs, their members, and other text, their external inputs."""
    outputs = draw(st.lists(LINE_TEXT, min_size=1, max_size=3))
    tus = draw(st.lists(st.builds(TranslationUnitRecord, LINE_TEXT,
                                  st.none() | st.sampled_from(outputs), _INVOCATIONS, LINE_TEXT),
                        max_size=3))
    targets = draw(st.lists(st.builds(LinkTargetRecord, LINE_TEXT,
                                      st.lists(st.sampled_from(outputs) | LINE_TEXT, max_size=4),
                                      _INVOCATIONS, LINE_TEXT), max_size=2))
    return BuildSnapshot("b1", "dev", "2026-01-01T00:00:00Z", tus, targets)


@settings(max_examples=100, deadline=None)
@given(_snapshots())
def test_record_line_is_json_dumps_of_its_dict_form(snap):
    """Each record line, written from its parts, is the sorted-key compact JSON of the
    record's dict form, and reads back to the same record."""
    by_output = snap.by_output()
    for rec in (*snap.tus, *snap.targets):
        assert snapshot._encode_record(rec, by_output) == record_oracle.encode_record(rec, by_output)
    loaded = BuildSnapshot.deserialize(snap.serialize())
    assert (loaded.tus, loaded.targets) == (snap.tus, snap.targets)
