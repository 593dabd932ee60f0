"""Arbitrary evidence files and ELF files end in an exit code, never an exception.

`flagtrace ingest` reads raw build logs (with a response file beside
them), compile databases and wrapper spool directories; `read-stamp
--comment` and `stamp` read ELF files. Each property draws bytes or JSON
values weighted towards its input's syntax, and writes output through
strict UTF-8, as to a terminal or a pipe. Every ingest that stores a
build (exit 0) is followed by a `verify` of the store, which must exit 0:
what ingest writes reads back. Likewise every `stamp` that exits 0 is
followed by a `read-stamp`, which must return the stamped build and subject.
"""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from flagtrace.elfnote import read_stamp

from conftest import build_minimal_elf
from test_fuzz_lint_audit import _bytes, _run
from test_fuzz_store import _mutate


def _ingest_reads_back(root: Path, evidence: Path, kind: str) -> None:
    store = str(root / "store")
    code = _run(["--store", store, "ingest", str(evidence), "--kind", kind,
                 "--label", "fuzz", "--build-id", "b1"])
    assert code in {0, 3}
    if code == 0:
        assert _run(["--store", store, "verify"]) == 0


# Escape and quote bytes, which the makefile fuzzer's pieces leave out.
QUOTES = [b"\\", b'"', b"'"]
LOG = _bytes(QUOTES + [b"gcc ", b"cl ", b"ld ", b"link ", b"ar rcs ", b"-c ", b"/c ", b"a.c ",
                       b"b.cpp ", b"-o ", b"a.o ", b"/Fo", b"obj\\ ", b"/OUT:app.exe ", b"-O2 ",
                       b"-DX=1 ", b"@opts.rsp ", b"@", b"\\\n", b"$(CC) ", b"%VAR% "])
RSP = _bytes(QUOTES + [b"-O2 ", b"-DUSE_X ", b"-Iinc ", b"@opts.rsp ", b"@other.rsp "])
COMPDB = _bytes(QUOTES + [b"[", b"]", b"{", b"}", b",", b":", b"null", b"0", b"true",
                          b'"directory"', b'"file"', b'"command"', b'"arguments"', b'"/w"',
                          b'"a.c"', b'"gcc -c a.c"', b'["cl","/c","a.c"]', b'"\\ud800"',
                          b'"\\u0000"'])

# Any JSON value, with the words a compile command holds weighted above the rest.
WORDS = st.sampled_from(["gcc", "cl", "link", "ld", "", "-c", "/c", "a.c", "b.c", "-o", "a.o",
                         "/Foobj\\", "obj\\a.obj", "/OUT:app.exe", "-O2", "@opts.rsp", "C:/w"])
JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False), WORDS,
              st.text(max_size=4)),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=6,
)
ARGV = st.one_of(st.lists(WORDS, max_size=6), JSON)
ENTRY = st.one_of(
    st.fixed_dictionaries({}, optional={"directory": st.one_of(WORDS, JSON), "file": WORDS,
                                        "command": st.one_of(st.lists(WORDS).map(" ".join), JSON),
                                        "arguments": ARGV, "output": JSON}),
    JSON,
)
RECORD = st.one_of(
    st.fixed_dictionaries({}, optional={"v": st.one_of(st.just(1), JSON), "argv": ARGV,
                                        "cwd": st.one_of(WORDS, JSON),
                                        "ts": st.one_of(st.sampled_from(["1", "2"]), JSON),
                                        "tool": st.one_of(WORDS, JSON)}),
    JSON,
)


@settings(max_examples=120, deadline=None)
@given(log=LOG, rsp=RSP)
@example(log=b"gcc @opts.rsp -c a.c -o a.o\ngcc a.o -o app\n", rsp=b"-O2 -DUSE_X\n")
def test_raw_log_bytes(log, rsp):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "build.log").write_bytes(log)
        (root / "opts.rsp").write_bytes(rsp)
        _ingest_reads_back(root, root / "build.log", "raw-log")


@settings(max_examples=100, deadline=None)
@given(COMPDB)
@example(b'[{"directory":"/w","file":"a.c","command":"gcc -c a.c"}]')
def test_compdb_bytes(data):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "compile_commands.json").write_bytes(data)
        _ingest_reads_back(root, root / "compile_commands.json", "compdb")


@settings(max_examples=120, deadline=None)
@given(st.one_of(st.lists(ENTRY, max_size=4), JSON))
@example([{"directory": "C:/w", "arguments": ["cl", "/c", "a.c", "/Foobj\\"]},
          {"directory": "C:/w", "arguments": ["cl", "/c", "b.c", "/Foobj\\"]},
          {"directory": "C:/w", "arguments": ["link", "obj\\a.obj", "obj\\b.obj", "/OUT:app.exe"]}])
def test_compdb_values(entries):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "compile_commands.json").write_text(json.dumps(entries))
        _ingest_reads_back(root, root / "compile_commands.json", "compdb")


@settings(max_examples=100, deadline=None)
@given(files=st.lists(st.lists(RECORD, max_size=3), max_size=2),
       junk=st.one_of(st.none(), st.binary(max_size=12)), subdir=st.booleans())
@example(files=[[{"v": 1, "argv": ["gcc", "-c", "a.c"], "cwd": "/s", "ts": "1", "tool": "gcc"}]],
         junk=None, subdir=True)
def test_spool_directory(files, junk, subdir):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        spool = root / "spool"
        spool.mkdir()
        for i, records in enumerate(files):
            (spool / f"{i}.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records))
        if junk is not None:
            (spool / "junk.bin").write_bytes(junk)
        if subdir:
            (spool / "nested").mkdir()
            (spool / "nested" / "x.jsonl").write_text("{not a record\n")
        _ingest_reads_back(root, spool, "spool")


_EDITS = st.lists(st.tuples(st.integers(0, 1 << 12), st.integers(0, 8),
                            st.one_of(st.binary(max_size=4),
                                      st.sampled_from([b"\x00" * 8, b"\xff" * 8, b"FLAGTRACE"]))),
                  min_size=1, max_size=4)


@pytest.fixture(scope="module")
def elves(tmp_path_factory):
    """A store with one TU, and an unstamped and a stamped ELF's bytes."""
    root = tmp_path_factory.mktemp("elf")
    (root / "b.log").write_text("gcc -O2 -c a.c -o a.o\n")
    store = str(root / "store")
    assert _run(["--store", store, "ingest", str(root / "b.log"), "--label", "dev",
                 "--build-id", "b1"]) == 0
    plain = Path(build_minimal_elf(root / "plain.o")).read_bytes()
    stamped = build_minimal_elf(root / "stamped.o")
    assert _run(["--store", store, "stamp", stamped, "b1", str(root / "a.c")]) == 0
    return root, store, {"plain": plain, "stamped": Path(stamped).read_bytes()}


@settings(max_examples=100, deadline=None)
@given(which=st.sampled_from(["plain", "stamped"]), edits=_EDITS)
@example(which="plain", edits=[(61, 0, b"\x00" * 8)])  # e_shstrndx 0: no section name table
@example(which="stamped", edits=[(452, 1, b"\x00")])  # the note's type word: stamp rewrites it
def test_mutated_elf(elves, which, edits):
    root, store, blobs = elves
    elf = root / "mutated.o"
    elf.write_bytes(_mutate(blobs[which], edits))
    for fmt in ("text", "json"):
        assert _run(["--format", fmt, "read-stamp", str(elf), "--comment"]) in {0, 3}
    code = _run(["--store", store, "stamp", str(elf), "b1", str(root / "a.c")])
    assert code in {0, 3}
    if code == 0:  # a stamp that succeeds reads back
        assert _run(["read-stamp", str(elf)]) == 0
        got = read_stamp(str(elf))
        assert (got.build_id, got.subject) == ("b1", str(root / "a.c"))
