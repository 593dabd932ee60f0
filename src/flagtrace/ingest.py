"""Turn build evidence into invocation streams and assemble snapshots.

Three evidence kinds are supported: raw build logs (text, one command
per logical line, backslash continuations joined), JSON compilation
databases (directory/file/command-or-arguments), and wrapper spool
directories (line-delimited JSON argv captures, ordered by timestamp).
Every kind becomes invocations by one rule: the program is the first
word, and an empty argument is not a token. Compilation-database entries
and spool records share one shape check.

Interleaved parallel-build logs are handled line-at-a-time: make/ninja
-j output interleaves at line granularity, so nothing beyond backslash
continuation spans lines.
"""

from __future__ import annotations

import os
from dataclasses import replace
from datetime import datetime, timezone
from enum import Enum

from . import flagmodel, strictjson
from .cmdline import (
    Dialect,
    Family,
    RawInvocation,
    Token,
    TokenTable,
    ToolKind,
    command_program,
    detect_dialect,
    expand_response_files,
    logical_lines,
    normalize_path,
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


def _invocation(words: list[Token], dialect: Dialect, cwd: str, source: str) -> RawInvocation:
    """The one way evidence becomes an invocation: the program is the first
    word, and an empty argument is not a token."""
    return RawInvocation(words[0].text, tuple(w for w in words[1:] if w.text), cwd, source, dialect)


def parse_raw_log(path: str, skipped: list[dict] | None = None) -> list[RawInvocation]:
    """Extract compiler/linker invocations from a plain-text build log.

    A line counts as an invocation iff its first word's dialect has a
    known tool kind; everything else (echo, make chatter) is ignored. An
    invocation line that cannot be tokenized (an unterminated quote, as
    in a truncated or garbled log) is appended to `skipped` as a
    snapshot diagnostic.
    """
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        text = fh.read()
    cwd = os.path.dirname(os.path.abspath(path))
    table = TokenTable()
    out: list[RawInvocation] = []
    for lineno, line in logical_lines(text):
        # Not stripped: words end only at the tokenizers' spaces, which they skip.
        program = command_program(line)
        dialect = detect_dialect(program)
        if dialect.tool_kind is ToolKind.UNKNOWN:
            continue
        source = f"log:{path}:{lineno}"
        try:
            # A known program is a non-empty first word, so there is one word at least.
            out.append(_invocation(tokenize(line, dialect, table), dialect, cwd, source))
        except UnterminatedQuote as exc:
            if skipped is not None:
                skipped.append({"source": source, "program": program, "reason": str(exc)})
    return out


def parse_compilation_db(path: str) -> list[RawInvocation]:
    """Read a JSON compilation database (command or arguments form).

    An entry is an object with arguments (a non-empty array of strings)
    or command (a string holding a word), whose directory and file, where
    present, are strings.
    """
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        try:
            entries = strictjson.loads(fh.read())
        except ValueError as exc:
            raise MalformedDb(str(exc)) from None
    if not isinstance(entries, list):
        raise MalformedDb("top-level value is not an array")
    table = TokenTable()
    out: list[RawInvocation] = []
    for idx, entry in enumerate(entries):
        reason = _shape_error(entry, "arguments", ("directory", "file", "command"),
                              ("arguments", "command"))
        if reason is not None:
            raise MalformedDb(reason, idx)
        if "arguments" in entry:
            dialect = detect_dialect(entry["arguments"][0])
            words = [table[a] for a in entry["arguments"]]
        else:
            dialect = detect_dialect(command_program(entry["command"]))
            try:
                words = tokenize(entry["command"], dialect, table)
            except UnterminatedQuote as exc:
                raise MalformedDb(f"unterminated quote: {exc}", idx) from None
            if not words:
                raise MalformedDb("empty command", idx)
        out.append(_invocation(words, dialect, entry.get("directory", ""), f"compdb:{path}#{idx}"))
    return out


def parse_wrapper_spool(dirpath: str) -> list[RawInvocation]:
    """Read a directory of line-delimited wrapper interception records.

    Each record: {"v": 1, "argv": [...], "cwd": str, "ts": RFC3339, "tool": str};
    a record without "v" equal to SPOOL_SCHEMA_VERSION, without an argv
    that is a non-empty array of strings, or with a cwd, ts or tool that
    is not a string is malformed. Files that are not regular files are
    passed over. Output is ordered by (ts, filename, line); argv is taken
    verbatim.
    """
    table = TokenTable()
    keyed: list[tuple[tuple, RawInvocation]] = []
    for name in sorted(os.listdir(dirpath)):
        fpath = os.path.join(dirpath, name)
        if not os.path.isfile(fpath):
            continue
        with open(fpath, "r", encoding="utf-8", errors="replace") as fh:
            for lineno, line in enumerate(fh, start=1):
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
                inv = _invocation([table[a] for a in argv], dialect, rec.get("cwd", ""),
                                  f"spool:{fpath}:{lineno}")
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
    steps) become link-target records. Member TUs are matched by exact
    cwd-normalized object path; unmatched link inputs are retained as
    external inputs, since third-party binaries arrive without TU
    evidence. Nothing is dropped silently: skipped invocations become
    diagnostics, after the `skipped` ones that parsing reported. Each
    record keeps the tokens after `@file` expansion, the ones its
    effective set was resolved from, and that set's canonical text.
    """
    if created is None:
        created = datetime.now(timezone.utc).strftime(CREATED_FORMAT)
    snap = BuildSnapshot(build_id, label, created, diagnostics=list(skipped or ()))
    seen_outputs: dict[str, str] = {}
    pending_targets: list[tuple[RawInvocation, flagmodel.EffectiveFlagSet]] = []
    memo: dict = {}  # classify_all memo, shared by this snapshot's invocations

    for inv in invocations:
        tokens = expand_response_files(inv.tokens, inv.cwd, inv.dialect)
        entries = flagmodel.classify_all(tokens, inv.dialect, memo)
        effective = flagmodel.resolve(entries)
        if tokens is not inv.tokens:
            inv = replace(inv, tokens=tuple(tokens))
        is_compiler = inv.dialect.tool_kind is ToolKind.COMPILER
        is_linker = inv.dialect.tool_kind is ToolKind.LINKER

        if is_compiler and effective.sources:
            out_entry = effective.group_value("output")
            out = out_entry.value if out_entry is not None else ""
            # An MSVC output that ends in a separator is the objects' directory (/Foobj\).
            out_dir = out if inv.dialect.family is Family.MSVC and out.endswith(("\\", "/")) else ""
            one_file = out and not out_dir and len(effective.sources) == 1
            text = flagmodel.canonical_serialize(effective).decode("utf-8")
            for src_entry in effective.sources:
                src = normalize_path(src_entry.value, inv.cwd)
                obj = out if one_file else out_dir + _default_object_name(src_entry.value, inv.dialect)
                out_path = normalize_path(obj, inv.cwd)
                if out_path in seen_outputs:
                    raise DuplicateOutput(out_path)
                seen_outputs[out_path] = src
                snap.tus.append(TranslationUnitRecord(src, out_path, inv, text))
        elif (is_linker or is_compiler) and effective.link_inputs:
            pending_targets.append((inv, effective))
        else:
            snap.diagnostics.append({
                "source": inv.source,
                "program": inv.program,
                "reason": "no recognized source or link inputs",
            })

    for inv, effective in pending_targets:
        out_entry = effective.group_value("output")
        default = "a.exe" if inv.dialect.family is Family.MSVC else "a.out"
        output = normalize_path(out_entry.value if out_entry else default, inv.cwd)
        inputs, members, external = [], [], []
        for e in effective.link_inputs:
            p = normalize_path(e.value, inv.cwd) if e.key == "link_obj" else e.value
            inputs.append(p)
            if p in seen_outputs:
                members.append(seen_outputs[p])
            else:
                external.append(p)
        text = flagmodel.canonical_serialize(effective).decode("utf-8")
        snap.targets.append(LinkTargetRecord(output, inputs, members, external, inv, text))

    return snap
