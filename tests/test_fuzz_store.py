"""Damaged stored state through the read commands ends in an exit code, never an exception.

A store of two builds (response-file and plain gcc TUs, an MSVC TU, a
link target and a skipped line) is copied, one of its files is mutated,
and every command that reads the store runs on the copy: query
effective, query find, query builds, diff, audit --previous, history
--key, verify and stamp (on a minimal ELF). A file is mutated byte-wise,
or one value of a decoded header or record line is given another JSON
type. A snapshot can be forged after the mutation (`forge`: its content
hash recomputed in the header and the index), so that the damage reaches
the record decoder instead of stopping at the hash check. Output is
written through strict UTF-8, as to a terminal or a pipe.
"""

import contextlib
import functools
import io
import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import build_minimal_elf
from forge import forge
from flagtrace.cli import run

EXIT_CODES = {0, 1, 3, 4}

_LOGS = {
    "b1": "gcc @opts.rsp -c a.c -o a.o\ngcc -O2 -DX=1 -Iinc -c b.c -o b.o\n"
          "cl /O2 /c c.c /Foc.obj\ngcc 'open -c d.c\ngcc a.o b.o -lm -o app\n",
    "b2": "gcc @opts.rsp -O3 -c a.c -o a.o\ngcc -O2 -UX -c b.c -o b.o\n"
          "cl /Od /c c.c /Foc.obj\ngcc b.o a.o -lm -o app\n",
}


@functools.lru_cache(maxsize=None)
def template() -> tuple[dict, str]:
    """The files of a store holding both builds, by path within it, and a TU subject."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "opts.rsp").write_text("-O2 -DUSE_X\n-Iinc -g\n")
        for i, (build_id, text) in enumerate(_LOGS.items()):
            (root / f"{build_id}.log").write_text(text)
            with contextlib.redirect_stdout(io.StringIO()):
                assert run(["--store", str(root / "store"), "ingest", str(root / f"{build_id}.log"),
                            "--label", "dev", "--build-id", build_id,
                            "--created", f"2026-01-0{i + 1}T00:00:00Z"]) == 0
        files = {str(p.relative_to(root / "store")): p.read_bytes()
                 for p in sorted((root / "store").rglob("*")) if p.is_file()}
        return files, str(root / "a.c")


def _mutate(data: bytes, edits) -> bytes:
    for position, deleted, inserted in edits:
        at = position % (len(data) + 1)
        data = data[:at] + inserted + data[at + deleted:]
    return data


def _snapshot_of(files: dict, build_id: str) -> str:
    """The path of a build's snapshot file, as its index line names it."""
    for line in files["index.tsv"].decode().splitlines():
        fields = line.split("\t")
        if fields[0] == build_id:
            return fields[4]
    raise KeyError(build_id)


_PIECES = st.one_of(
    st.sampled_from([b"\x00", b"\xff", b"\xc3", b"\n", b"\r", b"\t", b'"', b"\\", b"{", b"}",
                     b"[", b"]", b",", b":", b"0", b"-", b"@", b"null", b"\\ud800", b"\\n",
                     b"\xc2\xa0", b'"kind":"tu"', b'["opaque","x"]']),
    st.binary(min_size=1, max_size=3),
)
_EDITS = st.lists(st.tuples(st.integers(0, 1 << 16), st.integers(0, 4), _PIECES),
                  min_size=1, max_size=4)


def _run_read_commands(files: dict, subject: str) -> list[tuple[str, int, str]]:
    """Write the store's files, run every read command on them in both formats, and
    return each command with its exit code and stdout, the directory written as $TMP."""
    with tempfile.TemporaryDirectory() as tmp:
        for rel, data in files.items():
            os.makedirs(os.path.dirname(os.path.join(tmp, rel)), exist_ok=True)
            with open(os.path.join(tmp, rel), "wb") as fh:
                fh.write(data)
        elf = build_minimal_elf(os.path.join(tmp, "a.o.elf"))
        results = []
        for argv in (["query", "effective", "--build", "b2", "--subject", subject],
                     ["query", "find", "--build", "b2", "--group", "opt_level", "--value=-O2"],
                     ["query", "builds"],
                     ["diff", "b1", "b2"],
                     ["audit", "b2", "--previous", "b1"],
                     ["history", "dev", "--key", "opt_level"],
                     ["verify"],
                     ["stamp", elf, "b2", subject]):
            for fmt in ("text", "json"):
                out, err = (io.TextIOWrapper(io.BytesIO(), encoding="utf-8") for _ in range(2))
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = run(["--store", tmp, "--format", fmt, *argv])
                    out.flush()
                    err.flush()
                assert code in EXIT_CODES, argv
                results.append((" ".join([fmt, *argv]).replace(tmp, "$TMP"), code,
                                out.buffer.getvalue().decode().replace(tmp, "$TMP")))
        return results


@pytest.mark.parametrize("build_id", ["b1", "b2"])
def test_a_forged_unedited_build_reads_as_stored(build_id):
    """Forging a build that holds no edit changes no read: each read command gives the
    exit code and stdout it gives on the untouched store, so a forged damage is read."""
    files, subject = template()
    forged = dict(files)
    forge(forged, _snapshot_of(forged, build_id))
    assert _run_read_commands(forged, subject) == _run_read_commands(dict(files), subject)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["index.tsv", "snapshot b1", "snapshot b2"]), _EDITS, st.booleans())
def test_read_commands_on_damaged_store(target, edits, rehash):
    files, subject = template()
    files = dict(files)
    name = "index.tsv" if target == "index.tsv" else _snapshot_of(files, target.split()[1])
    files[name] = _mutate(files[name], edits)
    if rehash and name != "index.tsv":
        forge(files, name)
    _run_read_commands(files, subject)


def _json_type(value) -> str:
    return {type(None): "null", bool: "bool", int: "number", float: "number", str: "string",
            list: "array", dict: "object"}[type(value)]


_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-2, 2),
                     st.sampled_from(["", "x", "-O2"]))
_OF_TYPE = {
    "number": st.one_of(st.integers(-2, 2), st.just(1.5)),
    "null": st.none(),
    "bool": st.booleans(),
    "string": st.sampled_from(["", "x", "-O2", "a.c", "command-line", "-O2 -c a.c"]),
    "array": st.lists(_SCALARS, max_size=3),
    "object": st.dictionaries(st.sampled_from(["text", "origin", "kind", "path", "index"]),
                              _SCALARS, max_size=3),
}


def _value_paths(doc: dict) -> list[tuple]:
    """Paths in a decoded header or record line to each of its fields, each invocation
    field and token, and each object token's text and origin."""
    inv = doc.get("invocation", {})
    paths = [(name,) for name in doc if name != "kind"] + [("invocation", name) for name in inv]
    for i, token in enumerate(inv.get("tokens", ())):
        paths.append(("invocation", "tokens", i))
        if isinstance(token, dict):
            paths += [("invocation", "tokens", i, "text"), ("invocation", "tokens", i, "origin")]
    return paths


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["b1", "b2"]), st.data())
def test_read_commands_on_mistyped_value(build_id, data):
    """One value of a header or record line, given another JSON type with every hash recomputed."""
    files, subject = template()
    files = dict(files)
    name = _snapshot_of(files, build_id)
    lines = files[name].split(b"\n")
    n = data.draw(st.sampled_from([n for n, line in enumerate(lines) if line and
                                   json.loads(line).get("kind") in (None, "tu", "target")]))
    doc = json.loads(lines[n])
    *parents, key = data.draw(st.sampled_from(_value_paths(doc)))
    parent = doc
    for step in parents:
        parent = parent[step]
    other = [t for t in _OF_TYPE if t != _json_type(parent[key])]
    parent[key] = data.draw(_OF_TYPE[data.draw(st.sampled_from(other))])
    lines[n] = json.dumps(doc, ensure_ascii=False, sort_keys=True, separators=(",", ":")).encode()
    files[name] = b"\n".join(lines)
    forge(files, name)
    _run_read_commands(files, subject)
