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

# Quoting, escape, response-file and variable sigils, and the line breaks
# and spaces of Unicode.
SIGILS = "'\"\\@$`%\x00"
SPACES = " \n\r\t\v\f\xa0\x85\u2028"
# Text that reaches the tokenizers, those characters weighted above the rest of Unicode.
TEXT = st.lists(st.one_of(
    st.sampled_from(list(SIGILS)),
    st.sampled_from(list(SPACES)),
    st.sampled_from(["-O2", "-c", "/c", "-o", "a.c", "b.o", "-D", "/Fo", "-l"]),
    st.text(max_size=3),
)).map("".join)
PROGRAMS = st.sampled_from(["gcc ", "cl ", "ld ", "link ", "g++ -c ", ""])
# Quoting, escape, space and path symbols after a program name.
AROUND = st.text(st.sampled_from(list("'\"\\ \t\v\r\n/.`")), max_size=4)
TOOLS = st.sampled_from(["gcc", "g++", "clang++", "cc", "ld", "ar", "cl", "CL.EXE", "link", "lib"])
DIRECTORY = st.one_of(st.just(""), st.tuples(st.text(st.sampled_from(list("ab.:-")), max_size=3),
                                             st.sampled_from(["/", "\\"])).map("".join))
# A first word that names a known tool by construction: leading space, an
# optional directory and an optional pair of quotes; unquoted, a space ends it.
PROGRAM = st.builds(lambda space, quote, directory, tool: (
    space + quote + directory + tool + quote + ("" if quote else " ")),
    st.text(st.sampled_from(list(" \t\r\n")), max_size=2), st.sampled_from(["", "'", '"']),
    DIRECTORY, TOOLS)


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
@given(PROGRAM, AROUND, st.text(st.one_of(st.sampled_from(list(SIGILS + SPACES)), st.characters()),
                                  max_size=12))
def test_known_program_gives_a_token(program, after, text):
    # A raw-log line whose program is a known tool, and which tokenizes,
    # gives at least one token: the program's own word.
    line = program + after + text
    dialect = detect_dialect(command_program(line))
    assume(dialect.tool_kind is not ToolKind.UNKNOWN)
    try:
        tokens = tokenize(line, dialect)
    except UnterminatedQuote:
        return
    assert tokens
