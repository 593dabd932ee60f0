"""Many loads through one Store: each build reads as its file does on its own.

Whatever builds one Store has loaded before, and in whatever order, a
load must read back exactly what a load of the file on its own reads,
and fail the same way on a damaged build, on load or when the damaged
set is first read, without affecting the builds after it.
"""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from flagtrace import flagmodel
from flagtrace.cli import run
from flagtrace.cmdline import Origin, RawInvocation, Token, detect_dialect
from flagtrace.errors import CorruptSnapshot
from flagtrace.snapshot import BuildSnapshot, LinkTargetRecord, TranslationUnitRecord
from flagtrace.store import Store
from tests.test_snapshot import _rewrite_record


def _record_view(rec) -> tuple:
    """Everything a record holds: kind, stored fields, invocation and tokens, the
    canonical bytes of its set and the set's entries with their origins."""
    return (type(rec), [getattr(rec, name) for name in rec.FIELDS], rec.invocation,
            flagmodel.canonical_serialize(rec.effective), vars(rec.effective))


def _read_all(load) -> tuple | str:
    """What a load reads: every record's view and the serialized bytes, or the
    error that loading or reading its sets raised."""
    try:
        snap = load()
        return [_record_view(r) for r in (*snap.tus, *snap.targets)], snap.serialize()
    except CorruptSnapshot as exc:
        return str(exc)


def _assert_reads_as_alone(store: Store, build_id: str) -> None:
    """The build loads through `store` exactly as the stored file decodes on its own."""
    entry = next(e for e in store.list_builds() if e.build_id == build_id)
    data = (Path(store.root) / entry.relpath).read_bytes()
    alone = _read_all(lambda: BuildSnapshot.deserialize(data))
    assert _read_all(lambda: store.get(build_id)) == alone
    assert isinstance(alone, str) or alone[1] == data


_SPELLINGS = ["-O0", "-O2", "-g", "-DX=1", "-DX=2", "-UX", "-Iinc", "-fPIC", "-fweird", "-o", "a.o",
              "-lz", "/O2", "/MD"]
# Command-line tokens of one length, so builds differ in sets of equal size.
_VARIANTS = st.sampled_from(["-O0", "-O2", "-O3", "-DX=1", "-DX=2"]).map(Token)
_RSP_TOKENS = st.builds(Token, st.sampled_from(_SPELLINGS),
                        st.builds(Origin, st.just("response-file"), st.just("/w/a.rsp"),
                                  st.integers(0, 3)))


def _record_parts(tokens: list, program: str, source: str):
    """An invocation of `program` with these tokens, and the set they resolve to."""
    inv = RawInvocation(program, tuple(tokens), "/w", source, detect_dialect(program))
    return inv, flagmodel.resolve(flagmodel.classify_all(tokens, inv.dialect))


@st.composite
def label_builds(draw):
    """Builds of one label drawn from a pool of commands: each build keeps or drops
    each command, appends a variant token and may append a response-file token to
    it, and may link. Then an order to load them in."""
    pool = draw(st.lists(st.tuples(st.sampled_from(["gcc", "cl"]),
                                   st.lists(st.sampled_from(_SPELLINGS).map(Token), max_size=6)),
                         min_size=1, max_size=5))
    builds = []
    for b in range(draw(st.integers(2, 4))):
        tus = []
        for i, (program, tokens) in enumerate(pool):
            if draw(st.integers(0, 3)):  # keep three commands in four
                rsp = [draw(_RSP_TOKENS)] if not draw(st.integers(0, 3)) else []
                extra = [*rsp, draw(_VARIANTS)]
                inv, eff = _record_parts(tokens + extra, program, f"log:b{b}.log:{i + 1}")
                tus.append(TranslationUnitRecord(f"/w/{i}.c", f"/w/{i}.o", inv,
                                                 flagmodel.canonical_serialize(eff).decode()))
        targets = []
        if draw(st.booleans()):
            extra = draw(st.lists(st.one_of(_VARIANTS, _RSP_TOKENS), max_size=2))
            inv, eff = _record_parts([Token("a.o"), *extra, Token("-o"), Token("app")], "gcc",
                                     f"log:b{b}.log:9")
            targets.append(LinkTargetRecord("/w/app", ["/w/a.o"], [], ["/w/a.o"], inv,
                                            flagmodel.canonical_serialize(eff).decode()))
        builds.append(BuildSnapshot(f"b{b}", "dev", f"2026-01-0{b + 1}T00:00:00Z", tus, targets))
    order = draw(st.lists(st.sampled_from([s.build_id for s in builds]), min_size=2, max_size=8))
    return builds, order


@settings(max_examples=100, deadline=None)
@given(label_builds())
def test_loads_through_one_store_read_as_each_alone(drawn):
    """However builds share records, and in whatever order one Store loads them,
    each reads back as its file does on its own."""
    builds, order = drawn
    with tempfile.TemporaryDirectory() as tmp:
        store = Store(str(Path(tmp) / "store"))
        for snap in builds:
            store.put(snap)
        for build_id in order:
            _assert_reads_as_alone(store, build_id)


def _ingest(tmp_path, builds: dict) -> Store:
    store = Store(str(tmp_path / "store"))
    for i, (build_id, text) in enumerate(builds.items()):
        log = tmp_path / f"{build_id}.log"
        log.write_text(text)
        assert run(["--store", store.root, "ingest", str(log), "--label", "dev",
                    "--build-id", build_id, "--created", f"2026-01-0{i + 1}T00:00:00Z"]) == 0
    return store


_SAME_BUILD = "gcc -O2 -DA -Iinc -c a.c -o a.o\ngcc -O2 -DA -c b.c -o b.o\ngcc a.o b.o -o app\n"


def _flip_byte(store: Store) -> None:
    """Change -O2 to -O3 in the second build's first record, leaving every hash as it was."""
    path = Path(store.root) / store.list_builds()[1].relpath
    stored = b'\\"-O2\\",\\"-O2\\"'
    assert stored in path.read_bytes()
    path.write_bytes(path.read_bytes().replace(stored, b'\\"-O2\\",\\"-O3\\"', 1))


def _bad_define_line(store: Store) -> None:
    """A define line whose macro name disagrees with its value, with every hash recomputed."""
    def edit(rec):
        assert '["define","A","A","-DA"]' in rec["effective"]
        rec["effective"] = rec["effective"].replace('["define","A","A","-DA"]',
                                                    '["define","B","A","-DA"]')
    _rewrite_record(store, "b2", 0, edit)


def _rewritten_set(store: Store) -> None:
    """A well-formed but rewritten set (-O2 to -O0), with every hash recomputed."""
    def edit(rec):
        assert '"-O2","-O2"' in rec["effective"]
        rec["effective"] = rec["effective"].replace('"-O2","-O2"', '"-O0","-O0"')
    _rewrite_record(store, "b2", 0, edit)


@pytest.mark.parametrize("damage, load_error, read_error", [
    (_flip_byte, "snapshot hash mismatch", None),
    (_bad_define_line, None, "unreadable snapshot line 2"),
    (_rewritten_set, None, None),
], ids=["flipped-byte", "bad-define-line", "rewritten-set"])
def test_damaged_build_between_good_ones(tmp_path, capsys, damage, load_error, read_error):
    """A damaged middle build fails on load, or when its damaged set is first read,
    as it does on its own, and the builds after it read back unchanged; verify
    reports each build as it does alone."""
    store = _ingest(tmp_path, {"b1": _SAME_BUILD, "b2": _SAME_BUILD, "b3": _SAME_BUILD})
    damage(store)

    shared = Store(store.root)
    for build_id in ("b1", "b2", "b3"):
        _assert_reads_as_alone(shared, build_id)
    if load_error is not None:
        with pytest.raises(CorruptSnapshot, match=load_error):
            shared.get("b2")
    else:
        b2 = shared.get("b2")
        assert b2.tus[1].effective.group_value("opt_level").value == "-O2"  # b.c is undamaged
        if read_error is not None:
            with pytest.raises(CorruptSnapshot, match=read_error):
                b2.tus[0].effective
    assert shared.get("b3").tus[0].effective.group_value("opt_level").value == "-O2"

    ids = ["b1", "b2", "b3"]
    assert Store(store.root).verify() == [Store(store.root).verify([b])[0] for b in ids]
    capsys.readouterr()
    assert run(["--store", store.root, "--format", "json", "verify"]) == 3
    builds = json.loads(capsys.readouterr().out)["builds"]
    assert [b["status"] for b in builds] == ["ok", "corrupt", "ok"]
    error = load_error or read_error
    assert (builds[1]["error"] is None) == (error is None)
    assert error is None or error in builds[1]["error"]
