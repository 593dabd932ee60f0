"""Turn build evidence into invocation streams and assemble snapshots.

Three evidence kinds are supported: raw build logs (text, one command
per logical line, backslash continuations joined), JSON compilation
databases (directory/file/command-or-arguments), and wrapper spool
directories (line-delimited JSON argv captures, ordered by timestamp).
Every kind becomes invocations by one rule: the program is the first
word, an empty argument is not a token, an `@file` token is expanded
there, so parsing alone reads files, and the source names the evidence
file by its absolute path. A relative or absent working directory is
the evidence file's directory joined with it. Compilation-database
entries and spool records share one shape check.

Interleaved parallel-build logs are handled line-at-a-time: make/ninja
-j output interleaves at line granularity, so nothing beyond backslash
continuation spans lines.
"""

from __future__ import annotations

import os
from datetime import datetime, timezone
from enum import Enum

from . import flagmodel, strictjson
from .cmdline import (
    Dialect,
    Family,
    RawInvocation,
    TokenTable,
    ToolKind,
    command_program,
    detect_dialect,
    expand_response_files,
    is_absolute,
    logical_lines,
    normalize_path,
    read_text,
    tokenize,
)
from .errors import DuplicateOutput, MalformedDb, MalformedRecord, UnterminatedQuote
from .snapshot import BuildSnapshot, LinkTargetRecord, TranslationUnitRecord

SPOOL_SCHEMA_VERSION = 1


class EvidenceKind(str, Enum):
    RAW_LOG = "raw-log"
    COMPILATION_DB = "compdb"
    WRAPPER_SPOOL = "spool"


# The one form of a snapshot's creation time: RFC 3339 in UTC, to the
# second, so that time order is string order.
CREATED_FORMAT = "%Y-%m-%dT%H:%M:%SZ"


def _shape_error(record, argv: str, strings: tuple[str, ...],
                 required: tuple[str, ...]) -> str | None:
    """Why a decoded compdb entry or spool record is malformed, or None.

    It must be an object holding one of `required`; `argv`, where present,
    must be a non-empty array of strings, and each of `strings` a string.
    """
    if not isinstance(record, dict):
        return "not an object"
    if not any(n in record for n in required):
        return "missing " + " or ".join(required)
    if argv in record and not (strictjson.is_str_list(record[argv]) and record[argv]):
        return f"{argv} is not a non-empty array of strings"
    bad = next((n for n in strings if n in record and not isinstance(record[n], str)), None)
    return None if bad is None else f"{bad} is not a string"


def _invocation(program: str, args: list[str], dialect: Dialect, cwd: str, home: str, source: str,
                table: TokenTable) -> RawInvocation:
    """The one way evidence becomes an invocation: its tokens are `args`, the non-empty words after
    the program, `@file` words expanded; a relative `cwd` is joined onto `home`, the evidence file's."""
    if not is_absolute(cwd):
        cwd = os.path.normpath(os.path.join(home, cwd))
    tokens, origins = expand_response_files(args, cwd, dialect, table)
    return RawInvocation(program, tuple(tokens), tuple(origins), cwd, source, dialect)


def parse_raw_log(path: str, skipped: list[dict] | None = None) -> list[RawInvocation]:
    """Extract compiler/linker invocations from a plain-text build log.

    A line counts as an invocation iff its first word's dialect has a
    known tool kind; everything else (echo, make chatter) is ignored. An
    invocation line that cannot be tokenized (an unterminated quote, as
    in a truncated or garbled log) is appended to `skipped` as a
    snapshot diagnostic; a bad response file it names is an error.
    """
    path = os.path.abspath(path)
    home, table = os.path.dirname(path), TokenTable()
    out: list[RawInvocation] = []
    for lineno, line in logical_lines(read_text(path)):
        # Not stripped: words end only at the tokenizers' spaces, which they skip.
        program = command_program(line)
        dialect = detect_dialect(program)
        if dialect.tool_kind is ToolKind.UNKNOWN:
            continue
        source = f"log:{path}:{lineno}"
        try:
            words = tokenize(line, dialect, table)
        except UnterminatedQuote as exc:
            if skipped is not None:
                skipped.append({"source": source, "program": program, "reason": str(exc)})
        else:  # a known program is a non-empty first word, so there is one word at least
            out.append(_invocation(words[0], words[1:], dialect, "", home, source, table))
    return out


def parse_compilation_db(path: str) -> list[RawInvocation]:
    """Read a JSON compilation database (command or arguments form).

    An entry is an object with arguments (a non-empty array of strings)
    or command (a string holding a word), whose directory and file, where
    present, are strings. A relative directory is relative to the database's.
    """
    path = os.path.abspath(path)
    text = read_text(path)
    try:
        entries = strictjson.loads(text)
    except ValueError as exc:
        raise MalformedDb(str(exc)) from None
    if not isinstance(entries, list):
        raise MalformedDb("top-level value is not an array")
    home, table = os.path.dirname(path), TokenTable()
    out: list[RawInvocation] = []
    for idx, entry in enumerate(entries):
        reason = _shape_error(entry, "arguments", ("directory", "file", "command"),
                              ("arguments", "command"))
        if reason is not None:
            raise MalformedDb(reason, idx)
        if "arguments" in entry:
            program, *argv = entry["arguments"]
            dialect, args = detect_dialect(program), [a for a in argv if a]
        else:
            dialect = detect_dialect(command_program(entry["command"]))
            try:
                words = tokenize(entry["command"], dialect, table)
            except UnterminatedQuote as exc:
                raise MalformedDb(f"unterminated quote: {exc}", idx) from None
            if not words:
                raise MalformedDb("empty command", idx)
            program, args = words[0], words[1:]
        out.append(_invocation(program, args, dialect, entry.get("directory", ""), home,
                               f"compdb:{path}#{idx}", table))
    return out


def parse_wrapper_spool(dirpath: str) -> list[RawInvocation]:
    """Read a directory of line-delimited wrapper interception records.

    Each record: {"v": 1, "argv": [...], "cwd": str, "ts": RFC3339, "tool": str};
    a record without "v" equal to SPOOL_SCHEMA_VERSION, without an argv
    that is a non-empty array of strings, or with a cwd, ts or tool that
    is not a string is malformed. Files that are not regular files are
    passed over. Output is ordered by (ts, filename, line); argv is taken
    verbatim, and a relative cwd is relative to the spool directory.
    """
    dirpath, table = os.path.abspath(dirpath), TokenTable()
    keyed: list[tuple[tuple, RawInvocation]] = []
    for name in sorted(os.listdir(dirpath)):
        fpath = os.path.join(dirpath, name)
        if not os.path.isfile(fpath):
            continue
        for lineno, line in enumerate(read_text(fpath).split("\n"), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = strictjson.loads(line)
            except ValueError:
                raise MalformedRecord(fpath, lineno, "invalid JSON") from None
            reason = _shape_error(rec, "argv", ("cwd", "tool", "ts"), ("argv",))
            if reason is not None:
                raise MalformedRecord(fpath, lineno, reason)
            version = rec.get("v")
            if type(version) is not int or version != SPOOL_SCHEMA_VERSION:
                raise MalformedRecord(fpath, lineno, f"unsupported version {version!r}")
            argv = rec["argv"]
            dialect = detect_dialect(rec.get("tool") or argv[0])
            inv = _invocation(argv[0], [a for a in argv[1:] if a], dialect,
                              rec.get("cwd", ""), dirpath, f"spool:{fpath}:{lineno}", table)
            keyed.append(((rec.get("ts", ""), name, lineno), inv))
    keyed.sort(key=lambda kv: kv[0])
    return [inv for _, inv in keyed]


def parse_evidence(kind: EvidenceKind, path: str,
                   skipped: list[dict] | None = None) -> list[RawInvocation]:
    """The invocations of the evidence of `kind` at `path`; see `parse_raw_log` for `skipped`."""
    if kind is EvidenceKind.RAW_LOG:
        return parse_raw_log(path, skipped)
    if kind is EvidenceKind.COMPILATION_DB:
        return parse_compilation_db(path)
    return parse_wrapper_spool(path)


def _default_object_name(src: str, dialect: Dialect) -> str:
    base = src.replace("\\", "/").rsplit("/", 1)[-1]
    return base.rsplit(".", 1)[0] + (".obj" if dialect.family is Family.MSVC else ".o")


def assemble_snapshot(
    invocations: list[RawInvocation],
    build_id: str,
    label: str,
    created: str | None = None,
    skipped: list[dict] | None = None,
) -> BuildSnapshot:
    """Fold an invocation list into a BuildSnapshot.

    Compiler invocations with recognized source inputs become TU
    records; linker invocations (and source-less compiler-driver link
    steps) become link-target records. Writing finds a target's member
    TUs by exact cwd-normalized object path, wherever their compile
    lines stand (`BuildSnapshot.by_output`); other inputs are external.
    Nothing is dropped silently: skipped invocations become
    diagnostics, after the `skipped` ones that parsing reported. Each
    record keeps its invocation's tokens, which parsing expanded (this
    reads no file), its effective set and that set's canonical text.
    """
    if created is None:
        created = datetime.now(timezone.utc).strftime(CREATED_FORMAT)
    snap = BuildSnapshot(build_id, label, created, diagnostics=list(skipped or ()))
    seen_outputs: set[str] = set()
    memo: dict = {}  # classify_all memo, shared by this snapshot's invocations

    for inv in invocations:
        effective = flagmodel.resolve(flagmodel.classify_all(inv.tokens, inv.dialect, memo))
        is_compiler = inv.dialect.tool_kind is ToolKind.COMPILER
        is_linker = inv.dialect.tool_kind is ToolKind.LINKER
        out_entry = effective.group_value("output")

        if is_compiler and effective.sources:
            out = out_entry.value if out_entry is not None else ""
            # An MSVC output that ends in a separator is the objects' directory (/Foobj\).
            out_dir = out if inv.dialect.family is Family.MSVC and out.endswith(("\\", "/")) else ""
            one_file = out and not out_dir and len(effective.sources) == 1
            text = flagmodel.canonical_serialize(effective)
            for src_entry in effective.sources:
                src = normalize_path(src_entry.value, inv.cwd)
                obj = out if one_file else out_dir + _default_object_name(src_entry.value, inv.dialect)
                out_path = normalize_path(obj, inv.cwd)
                if out_path in seen_outputs:
                    raise DuplicateOutput(out_path)
                seen_outputs.add(out_path)
                snap.tus.append(TranslationUnitRecord(src, out_path, inv, text))
        elif (is_linker or is_compiler) and effective.link_inputs:
            default = "a.exe" if inv.dialect.family is Family.MSVC else "a.out"
            output = normalize_path(out_entry.value if out_entry else default, inv.cwd)
            inputs = [normalize_path(e.value, inv.cwd) if e.key == "link_obj" else e.value
                      for e in effective.link_inputs]
            text = flagmodel.canonical_serialize(effective)
            snap.targets.append(LinkTargetRecord(output, inputs, inv, text))
        else:
            snap.diagnostics.append({
                "source": inv.source,
                "program": inv.program,
                "reason": "no recognized source or link inputs",
            })
    return snap
