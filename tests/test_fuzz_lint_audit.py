"""Arbitrary bytes as a makefile or an audit config end in an exit code, never an exception.

`flagtrace lint` reads makefiles and one level of their includes; `flagtrace
audit --config` reads a key = value config. Each property draws bytes
weighted towards its file's syntax, with NUL, bytes that are not UTF-8 and
line breaks among them, and writes output through strict UTF-8, as to a
terminal or a pipe.
"""

import contextlib
import io

import pytest
from hypothesis import example, given, settings, strategies as st

from flagtrace.cli import run


def _bytes(pieces: list[bytes]):
    """Bytes joined from syntax pieces, NUL, non-UTF-8 bytes, breaks and short random runs."""
    return st.lists(st.one_of(
        st.sampled_from(pieces + [b"\x00", b"\xff", b"\xc3", b"\xc2\xa0", b"\n", b"\r", b" ",
                                  b"\t", b"#", b"="]),
        st.binary(min_size=1, max_size=3),
    ), max_size=30).map(b"".join)


MAKEFILE = _bytes([b"include ", b"-include ", b"sinclude ", b"common.mk", b"Makefile", b"..",
                   b"$(", b"${", b")", b"}", b":=", b"+=", b"?=", b"\\\n", b"ifeq (a,b)\n",
                   b"endif\n", b"CFLAGS", b"CXFLAGS", b"CXXFLAGS", b"LDFLAGS", b"all:"])
CONFIG = _bytes([b"config_version", b"rules", b"release_labels", b"hardening_required",
                 b"debug_markers", b"severity.", b"R1", b"R4", b"R7", b"R9", b"error",
                 b"warning", b"info", b",", b"1", b"2", b"release", b"-DDEBUG", b"-g"])


def _run(argv: list[str]) -> int:
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = run(argv)
        out.flush()
    return code


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """A directory whose store holds two builds of a release label."""
    root = tmp_path_factory.mktemp("fuzz")
    (root / "b.log").write_text("gcc -O2 -g -DDEBUG -fno-stack-protector -c a.c -o a.o\n"
                                "gcc -O0 -fexceptions -c b.c -o b.o\ngcc a.o b.o -lz -o app\n")
    for i in (1, 2):
        assert _run(["--store", str(root / "store"), "ingest", str(root / "b.log"),
                     "--label", "release", "--build-id", f"b{i}",
                     "--created", f"2026-01-0{i}T00:00:00Z"]) == 0
    return root


@settings(max_examples=150, deadline=None)
@given(makefile=MAKEFILE, included=MAKEFILE)
@example(makefile=b"include a\x00b\n", included=b"")
def test_lint_makefile(work, makefile, included):
    (work / "Makefile").write_bytes(makefile)
    (work / "common.mk").write_bytes(included)
    for fmt in ("text", "json"):
        assert _run(["--format", fmt, "lint", str(work / "Makefile")]) in {0, 3, 4}


@settings(max_examples=150, deadline=None)
@given(config=CONFIG)
@example(config=b"config_version = 1\nrules = R1, R4\nrelease_labels = release\n")
def test_audit_config(work, config):
    (work / "audit.cfg").write_bytes(config)
    for fmt in ("text", "json"):
        assert _run(["--store", str(work / "store"), "--format", fmt,
                     "--config", str(work / "audit.cfg"), "audit", "b2", "--previous", "b1"]
                    ) in {0, 1, 3, 4}
