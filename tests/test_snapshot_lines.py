"""A snapshot is read one line at a time, and lines end at LF alone.

An open file reads exactly as its bytes do, and both read as the bytes split
on LF, the rule every load has read by: each line keeps its number, so a
damaged file gives the same `CorruptSnapshot` message however it is read. A
CR, U+0085 or U+2028 ends no line.
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from forge import forged
from flagtrace.snapshot import BuildSnapshot
from test_ingest import log_snapshot
from test_snapshot import FIXTURE_V2, as_v1
from test_store_loads import _read_all

V2 = FIXTURE_V2.read_bytes()  # a header, three TUs, a link target and a diagnostic
_HEADER = V2[:V2.index(b"\n")]
_LINE_3 = V2.index(b"\n", len(_HEADER) + 1) + 1
_BETWEEN_KEYS = V2.index(b',"invocation"', len(_HEADER)) + 1  # JSON whitespace may stand here
_IN_A_STRING = V2.index(b",", len(_HEADER) + 1)  # inside line 2's effective text
_NO_VALUE = ("unreadable snapshot line {}: expected a snapshot line, "
             "got JSONDecodeError: Expecting value: line 1 column 1 (char 0)")
_HASH_OF_NO_RECORDS = ("snapshot hash mismatch: expected 7f94594d462426bced341035775a8480004137aff8883264be0393d9"
                       "b0af3285, got e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")


def _read_both(data: bytes) -> tuple | str:
    """What `data` reads as, bytes or an open file: the records' views and the bytes they
    serialize to, or the message. The file's buffer is shorter than a line."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "b.fts"
        path.write_bytes(data)
        with open(path, "rb", buffering=16) as fh:
            from_file = _read_all(lambda: BuildSnapshot.deserialize(fh))
    assert _read_all(lambda: BuildSnapshot.deserialize(data)) == from_file
    return from_file


@pytest.mark.parametrize("data, expected", [
    (V2.removesuffix(b"\n"), V2),
    (V2 + b"\n", _NO_VALUE.format(7)),
    (b"", _NO_VALUE.format(1)),
    (b"\n", _NO_VALUE.format(1)),
    (_HEADER + b"\n", _HASH_OF_NO_RECORDS),
    (_HEADER, _HASH_OF_NO_RECORDS),
    (forged(_HEADER)[0], forged(_HEADER)[0]),
    (V2[:_LINE_3] + b"\n" + V2[_LINE_3:], _NO_VALUE.format(3)),
    (forged(V2[:_BETWEEN_KEYS] + b"\r" + V2[_BETWEEN_KEYS:])[0], V2),
    (V2[:_IN_A_STRING] + b"\r" + V2[_IN_A_STRING:], "unreadable snapshot line 2: expected a snapshot line, "
     "got JSONDecodeError: Invalid control character at: line 1 column 27 (char 26)"),
    (V2.replace(b"\n", b"\r\n"), "unreadable snapshot line 1: expected a snapshot line, "
     "got ValueError: the header is not the line writing writes for its fields"),
], ids=["no-final-lf", "final-lf-doubled", "empty", "lf-alone", "header-only", "header-only-no-lf",
        "header-only-forged", "blank-line-in-the-middle", "cr-between-keys-forged", "cr-in-a-string", "crlf"])
def test_edge_of_the_line_rule(data, expected):
    """A file reads as the snapshot `expected` (its bytes) or fails with exactly its message."""
    assert _read_both(data) == (expected if isinstance(expected, str) else _read_all(
        lambda: BuildSnapshot.deserialize(expected)))


def test_next_line_and_line_separator_in_a_path_end_no_line(tmp_path):
    snap = log_snapshot(tmp_path, "gcc -c 'a\u0085b\u2028c.c' -o a.o\ngcc a.o -o 'app\u2028x'\n")
    data = snap.serialize()
    assert "\u0085".encode() in data and "\u2028".encode() in data and data.count(b"\n") == 3
    assert _read_both(data) == _read_all(lambda: snap)


def _edit_lfs(data: bytes, edits) -> bytes:
    """`data` with an LF inserted at a position, or one of its LFs removed or doubled, per edit."""
    for how, at in edits:
        lfs = [i for i, byte in enumerate(data) if byte == ord("\n")]
        if how == "insert":
            at %= len(data) + 1
            data = data[:at] + b"\n" + data[at:]
        elif lfs:
            at = lfs[at % len(lfs)]
            data = data[:at] + (b"" if how == "remove" else b"\n\n") + data[at + 1:]
    return data


@settings(max_examples=200, deadline=None)
@given(base=st.sampled_from([V2, as_v1(V2)]), forge_after=st.booleans(),
       edits=st.lists(st.tuples(st.sampled_from(["insert", "remove", "double"]), st.integers(0, 1 << 16)),
                      min_size=1, max_size=3))
@example(base=V2, forge_after=True, edits=[("remove", -1)])
@example(base=V2, forge_after=False, edits=[("remove", 0)])
def test_lines_read_as_the_bytes_split_on_lf(base, forge_after, edits):
    """A forged file with LFs inserted, removed or doubled, forged again or not, reads as
    its bytes split on LF do, to the same records or exactly the same message."""
    data = _edit_lfs(base, edits)
    if forge_after and (forgery := forged(data)) is not None:
        data = forgery[0]
    lines = data.removesuffix(b"\n").split(b"\n")
    assert _read_both(data) == _read_all(lambda: BuildSnapshot.deserialize(lines))
