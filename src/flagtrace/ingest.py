"""Turn build evidence into invocation streams and assemble snapshots.

Three evidence kinds are supported: raw build logs (text, one command
per logical line, backslash continuations joined), JSON compilation
databases (directory/file/command-or-arguments), and wrapper spool
directories (line-delimited JSON argv captures, ordered by timestamp).

Interleaved parallel-build logs are handled line-at-a-time: make/ninja
-j output interleaves at line granularity, so nothing beyond backslash
continuation spans lines.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from enum import Enum

from . import flagmodel, strictjson
from .cmdline import (
    Family,
    RawInvocation,
    TokenTable,
    ToolKind,
    command_program,
    detect_dialect,
    expand_response_files,
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


@dataclass(frozen=True)
class EvidenceSource:
    kind: EvidenceKind
    path: str
    label: str
    build_id: str


def logical_lines(text: str):
    """Yield (first_line_number, joined_line) with backslash continuations merged.

    Lines end at LF, CRLF or CR only; a vertical tab, form feed or Unicode
    line separator stays inside its line, as it does for a shell.
    """
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if lines[-1] == "":
        lines.pop()
    pending = ""
    start = None
    for idx, line in enumerate(lines, start=1):
        if start is None:
            start = idx
        if line.endswith("\\"):
            pending += line[:-1] + " "
            continue
        yield start, pending + line
        pending = ""
        start = None
    if pending:
        yield start, pending[:-1]  # less the space that stood for the last backslash


def _non_string_field(record: dict, names: tuple[str, ...]) -> str | None:
    """The first of `names` present in `record` whose value is not a string."""
    return next((n for n in names if n in record and not isinstance(record[n], str)), None)


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
        try:
            tokens = tokenize(line, dialect, table)
        except UnterminatedQuote as exc:
            if skipped is not None:
                skipped.append({"source": f"log:{path}:{lineno}", "program": program,
                                "reason": str(exc)})
            continue
        # A known program is a non-empty first word, so `tokens` is never empty.
        out.append(RawInvocation(
            program=tokens[0].text,
            tokens=tuple(tokens[1:]),
            cwd=cwd,
            source=f"log:{path}:{lineno}",
            dialect=dialect,
        ))
    return out


def parse_compilation_db(path: str) -> list[RawInvocation]:
    """Read a JSON compilation database (command or arguments form).

    directory, file and command must be strings and arguments a
    non-empty array of strings; any other entry is malformed.
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
        if not isinstance(entry, dict):
            raise MalformedDb("entry is not an object", idx)
        bad = _non_string_field(entry, ("directory", "file", "command"))
        if bad is not None:
            raise MalformedDb(f"{bad} is not a string", idx)
        directory = entry.get("directory", "")
        if "arguments" in entry:
            argv = entry["arguments"]
            if not strictjson.is_str_list(argv):
                raise MalformedDb("arguments is not an array of strings", idx)
            if not argv:
                raise MalformedDb("empty arguments array", idx)
            program = argv[0]
            dialect = detect_dialect(program)
            tokens = tuple(table[a] for a in argv[1:] if a)
        elif "command" in entry:
            dialect = detect_dialect(command_program(entry["command"]))
            try:
                tokens_all = tokenize(entry["command"], dialect, table)
            except UnterminatedQuote as exc:
                raise MalformedDb(f"unterminated quote: {exc}", idx) from None
            if not tokens_all:
                raise MalformedDb("empty command", idx)
            program = tokens_all[0].text
            tokens = tuple(tokens_all[1:])
        else:
            raise MalformedDb("entry has neither command nor arguments", idx)
        out.append(RawInvocation(
            program=program,
            tokens=tokens,
            cwd=directory,
            source=f"compdb:{path}#{idx}",
            dialect=dialect,
        ))
    return out


def parse_wrapper_spool(dirpath: str) -> list[RawInvocation]:
    """Read a directory of line-delimited wrapper interception records.

    Each record: {"v": 1, "argv": [...], "cwd": str, "ts": RFC3339, "tool": str};
    a record without "v" equal to SPOOL_SCHEMA_VERSION, with an argv that
    is not a non-empty array of strings, or with a cwd, ts or tool that is
    not a string is malformed.
    Output is ordered by (ts, filename); argv is taken verbatim.
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
                if not isinstance(rec, dict) or "argv" not in rec or not rec["argv"]:
                    raise MalformedRecord(fpath, lineno, "missing argv")
                version = rec.get("v")
                if type(version) is not int or version != SPOOL_SCHEMA_VERSION:
                    raise MalformedRecord(fpath, lineno, f"unsupported version {version!r}")
                argv = rec["argv"]
                if not strictjson.is_str_list(argv):
                    raise MalformedRecord(fpath, lineno, "argv is not an array of strings")
                bad = _non_string_field(rec, ("cwd", "tool", "ts"))
                if bad is not None:
                    raise MalformedRecord(fpath, lineno, f"{bad} is not a string")
                program = argv[0]
                inv = RawInvocation(
                    program=program,
                    tokens=tuple(table[a] for a in argv[1:] if a),
                    cwd=rec.get("cwd", ""),
                    source=f"spool:{fpath}:{lineno}",
                    dialect=detect_dialect(rec.get("tool") or program),
                )
                keyed.append(((rec.get("ts", ""), name, lineno), inv))
    keyed.sort(key=lambda kv: kv[0])
    return [inv for _, inv in keyed]


def parse_evidence(source: EvidenceSource, skipped: list[dict] | None = None) -> list[RawInvocation]:
    """The evidence's invocations; see `parse_raw_log` for `skipped`."""
    if source.kind is EvidenceKind.RAW_LOG:
        return parse_raw_log(source.path, skipped)
    if source.kind is EvidenceKind.COMPILATION_DB:
        return parse_compilation_db(source.path)
    return parse_wrapper_spool(source.path)


def _default_object_name(src: str, family: Family) -> str:
    base = src.replace("\\", "/").rsplit("/", 1)[-1]
    stem = base.rsplit(".", 1)[0] if "." in base else base
    return stem + (".obj" if family is Family.MSVC else ".o")


def assemble_snapshot(
    invocations: list[RawInvocation],
    source: EvidenceSource,
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
    effective set was resolved from.
    """
    if created is None:
        created = datetime.now(timezone.utc).strftime(CREATED_FORMAT)
    snap = BuildSnapshot(source.build_id, source.label, created, diagnostics=list(skipped or ()))
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
            explicit_out = out_entry.value if out_entry is not None else None
            for src_entry in effective.sources:
                src = normalize_path(src_entry.value, inv.cwd)
                if explicit_out is not None and len(effective.sources) == 1:
                    out_path = normalize_path(explicit_out, inv.cwd)
                else:
                    out_path = normalize_path(
                        _default_object_name(src_entry.value, inv.dialect.family), inv.cwd
                    )
                if out_path in seen_outputs:
                    raise DuplicateOutput(out_path)
                seen_outputs[out_path] = src
                snap.tus.append(TranslationUnitRecord(src, out_path, inv, effective))
        elif (is_linker or is_compiler) and effective.link_inputs:
            pending_targets.append((inv, effective))
        else:
            snap.diagnostics.append({
                "source": inv.source,
                "program": inv.program,
                "reason": "no recognized source or link inputs",
            })

    tu_by_output = {t.output_file: t.source_file for t in snap.tus}
    for inv, effective in pending_targets:
        out_entry = effective.group_value("output")
        default = "a.exe" if inv.dialect.family is Family.MSVC else "a.out"
        output = normalize_path(out_entry.value if out_entry else default, inv.cwd)
        inputs, members, external = [], [], []
        for e in effective.link_inputs:
            p = normalize_path(e.value, inv.cwd) if e.key == "link_obj" else e.value
            inputs.append(p)
            if p in tu_by_output:
                members.append(tu_by_output[p])
            else:
                external.append(p)
        snap.targets.append(LinkTargetRecord(output, inputs, members, external, inv, effective))

    return snap
