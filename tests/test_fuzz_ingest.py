"""Arbitrary text through `flagtrace ingest` ends in an exit code, never an exception.

Covers the inputs the command-line scanners read: raw build logs, and
compile database `command` strings for a GNU and an MSVC compiler. Exit
codes: 0 stored, 2 usage, 3 malformed or unreadable input, 4 warnings.
"""

import json
import os
import tempfile

from hypothesis import assume, given, settings, strategies as st

from flagtrace.cli import run
from flagtrace.cmdline import ToolKind, command_program, detect_dialect, tokenize
from flagtrace.errors import UnterminatedQuote

EXIT_CODES = {0, 2, 3, 4}

# Text that reaches the tokenizers: quoting, escapes, response-file and
# variable sigils, and line breaks, weighted above the rest of Unicode.
TEXT = st.lists(st.one_of(
    st.sampled_from(list("'\"\\@$`%\x00")),
    st.sampled_from(list(" \n\r\t\v\f\xa0\x85\u2028")),
    st.sampled_from(["-O2", "-c", "/c", "-o", "a.c", "b.o", "-D", "/Fo", "-l"]),
    st.text(max_size=3),
)).map("".join)
PROGRAMS = st.sampled_from(["gcc ", "cl ", "ld ", "link ", "g++ -c ", ""])
# Quoting, escape, space and path symbols around a program name.
AROUND = st.text(st.sampled_from(list("'\"\\ \t\v\r\n/.`")), max_size=4)
TOOLS = st.sampled_from(["gcc", "g++", "clang++", "cc", "ld", "ar", "cl", "CL.EXE", "link", "lib"])


def ingest(name: str, body: str, kind: str) -> int:
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(body)
        return run(["--store", os.path.join(root, "store"), "ingest", path, "--kind", kind,
                    "--label", "fuzz", "--build-id", "b1"])


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(PROGRAMS, TEXT), max_size=6))
def test_raw_log(lines):
    body = "\n".join(program + text for program, text in lines)
    assert ingest("build.log", body, "raw-log") in EXIT_CODES


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["gcc ", "cl "]), TEXT), min_size=1, max_size=4))
def test_compdb_command(commands):
    entries = [{"directory": "/w", "command": program + text} for program, text in commands]
    assert ingest("compile_commands.json", json.dumps(entries), "compdb") in EXIT_CODES


@settings(max_examples=300, deadline=None)
@given(AROUND, TOOLS, AROUND, TEXT)
def test_known_program_gives_a_token(before, tool, after, text):
    # A raw-log line whose program is a known tool, and which tokenizes,
    # gives at least one token: the program's own word.
    line = before + tool + after + text
    dialect = detect_dialect(command_program(line))
    assume(dialect.tool_kind is not ToolKind.UNKNOWN)
    try:
        tokens = tokenize(line, dialect)
    except UnterminatedQuote:
        return
    assert tokens
