"""Damaged stored state through the read commands ends in an exit code, never an exception.

A store of two builds (response-file and plain gcc TUs, an MSVC TU, a
link target and a skipped line) is copied, one of its files is mutated
byte-wise, and every command that reads the store runs on the copy:
query effective, query find, query builds, diff, audit --previous,
history --key, verify and stamp (on a minimal ELF). A snapshot can also have its content hash
recomputed in the header and the index after the mutation, so that the
damage reaches the record decoder instead of stopping at the hash check.
Output is written through strict UTF-8, as to a terminal or a pipe.
"""

import contextlib
import functools
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from conftest import build_minimal_elf
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


def _rehash(files: dict, name: str) -> None:
    """Recompute a snapshot's content hash over its record lines, in its header and the index."""
    lines = files[name].removesuffix(b"\n").split(b"\n")
    try:
        header = json.loads(lines[0])
        old = header["content_hash"]
        kinds = [json.loads(line)["kind"] for line in lines[1:]]
        records = b"".join(line + b"\n" for line, kind in zip(lines[1:], kinds)
                           if kind in ("tu", "target"))
    except (ValueError, TypeError, KeyError):
        return  # unreadable as it is; leave it so
    new = hashlib.sha256(records).hexdigest()
    header["content_hash"] = new
    lines[0] = json.dumps(header, ensure_ascii=False, sort_keys=True).encode("utf-8", "surrogatepass")
    files[name] = b"\n".join(lines) + b"\n"
    if isinstance(old, str):
        files["index.tsv"] = files["index.tsv"].replace(old.encode("utf-8", "surrogatepass"),
                                                        new.encode())


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


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["index.tsv", "snapshot b1", "snapshot b2"]), _EDITS, st.booleans())
def test_read_commands_on_damaged_store(target, edits, rehash):
    files, subject = template()
    files = dict(files)
    name = "index.tsv" if target == "index.tsv" else _snapshot_of(files, target.split()[1])
    files[name] = _mutate(files[name], edits)
    if rehash and name != "index.tsv":
        _rehash(files, name)
    with tempfile.TemporaryDirectory() as tmp:
        for rel, data in files.items():
            os.makedirs(os.path.dirname(os.path.join(tmp, rel)), exist_ok=True)
            with open(os.path.join(tmp, rel), "wb") as fh:
                fh.write(data)
        elf = build_minimal_elf(os.path.join(tmp, "a.o.elf"))
        for argv in (["query", "effective", "--build", "b2", "--subject", subject],
                     ["query", "find", "--build", "b2", "--group", "opt_level", "--value=-O2"],
                     ["query", "builds"],
                     ["diff", "b1", "b2"],
                     ["audit", "b2", "--previous", "b1"],
                     ["history", "dev", "--key", "opt_level"],
                     ["verify"],
                     ["stamp", elf, "b2", subject]):
            for fmt in ("text", "json"):
                out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                    code = run(["--store", tmp, "--format", fmt, *argv])
                    out.flush()
                assert code in EXIT_CODES, argv

