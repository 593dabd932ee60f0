"""flagtrace command-line front door.

Subcommands: ingest, diff, history, audit, lint, stamp, read-stamp,
query, verify. Exit codes: 0 success / no findings, 1 audit errors present,
2 usage error, 3 I/O or parse failure, 4 warnings (or diff deltas)
only. Reports go to stdout, diagnostics to stderr, so CI systems can
capture machine output cleanly.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from datetime import datetime

from . import audit as audit_mod
from . import diffengine, elfnote, mklint
from .errors import FlagtraceError
from .flagmodel import canonical_serialize
from .ingest import CREATED_FORMAT, EvidenceKind, EvidenceSource, assemble_snapshot, parse_evidence
from .store import Store

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_WARNINGS = 4


def _index_field(value: str) -> str:
    """A build id or label: one tab-separated field of the store index."""
    if any(c in value for c in "\t\r\n"):
        raise argparse.ArgumentTypeError("must not contain a tab, CR or LF")
    return value


def _created(value: str) -> str:
    """A creation time in the form ingest writes itself, YYYY-MM-DDTHH:MM:SSZ."""
    try:
        if datetime.strptime(value, CREATED_FORMAT).strftime(CREATED_FORMAT) == value:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError("must be a UTC time of the form YYYY-MM-DDTHH:MM:SSZ")


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="flagtrace",
                                description="compiler flag provenance toolkit")
    p.add_argument("--store", help="store directory (default: $FLAGTRACE_STORE or .flagtrace)")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--config", help="audit config file")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("ingest", help="parse build evidence into a stored snapshot")
    sp.add_argument("path")
    sp.add_argument("--kind", choices=[k.value for k in EvidenceKind], default="raw-log")
    sp.add_argument("--label", required=True, type=_index_field)
    sp.add_argument("--build-id", required=True, type=_index_field)
    sp.add_argument("--created", type=_created,
                    help="override the creation time, YYYY-MM-DDTHH:MM:SSZ")

    sp = sub.add_parser("diff", help="structured delta between two snapshots")
    sp.add_argument("build_a")
    sp.add_argument("build_b")

    sp = sub.add_parser("history", help="flag evolution timeline for a label")
    sp.add_argument("label")
    sp.add_argument("--key", help="scalar group id (or macro name) to track")
    sp.add_argument("--scope", choices=["tu", "target"], default="tu")

    sp = sub.add_parser("audit", help="run anomaly rules over a snapshot")
    sp.add_argument("build_id")
    sp.add_argument("--previous")

    sp = sub.add_parser("lint", help="makefile near-miss macro lint")
    sp.add_argument("makefiles", nargs="+")
    sp.add_argument("--vocab", action="append", default=[],
                    help="extra known macro name (repeatable)")

    sp = sub.add_parser("stamp", help="embed a provenance note into an ELF binary")
    sp.add_argument("elf")
    sp.add_argument("build_id")
    sp.add_argument("subject", help="TU source path or link-target output path")
    sp.add_argument("--no-flags-text", action="store_true",
                    help="store only the digest, not the serialized flags")

    sp = sub.add_parser("read-stamp", help="read the provenance note from an ELF binary")
    sp.add_argument("elf")
    sp.add_argument("--comment", action="store_true", help="also list .comment strings")

    sp = sub.add_parser("query", help="fixed parameterized queries over the store")
    qsub = sp.add_subparsers(dest="query_kind", required=True)
    qp = qsub.add_parser("builds", help="list builds, optionally by label")
    qp.add_argument("--label")
    qp = qsub.add_parser("effective", help="show one subject's effective flag set")
    qp.add_argument("--build", required=True)
    qp.add_argument("--subject", required=True)
    qp = qsub.add_parser("find", help="TUs where a group resolves to a value")
    qp.add_argument("--build", required=True)
    qp.add_argument("--group", required=True)
    qp.add_argument("--value", required=True)

    sp = sub.add_parser("verify", help="check stored builds against their hashes and tokens")
    sp.add_argument("build_ids", nargs="*", metavar="BUILD_ID",
                    help="builds to check (default: every indexed build)")
    return p


def _emit(doc, fmt: str, text_lines=None) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(doc, ensure_ascii=False, sort_keys=True, indent=2) + "\n")
    else:
        for line in text_lines if text_lines is not None else [json.dumps(doc)]:
            sys.stdout.write(line + "\n")


def _cmd_ingest(args) -> int:
    source = EvidenceSource(EvidenceKind(args.kind), args.path, args.label, args.build_id)
    skipped: list[dict] = []
    invocations = parse_evidence(source, skipped)
    if not invocations:
        sys.stderr.write("warning: no compiler or linker invocations found\n")
    snap = assemble_snapshot(invocations, source, args.created, skipped)
    store = Store(args.store)
    content_hash = store.put(snap)
    _emit(
        {"build_id": snap.build_id, "label": snap.label, "content_hash": content_hash,
         "tus": len(snap.tus), "targets": len(snap.targets),
         "skipped": len(snap.diagnostics)},
        args.format,
        [f"stored {snap.build_id} ({snap.label}): {len(snap.tus)} TUs, "
         f"{len(snap.targets)} targets, hash {content_hash}"],
    )
    return EXIT_OK


def _cmd_diff(args) -> int:
    store = Store(args.store)
    report = diffengine.diff(store.get(args.build_a), store.get(args.build_b))
    sys.stdout.write(diffengine.render_report(report, args.format).decode("utf-8"))
    return EXIT_OK if report.is_empty() else EXIT_WARNINGS


def _cmd_history(args) -> int:
    store = Store(args.store)
    flag_query = (args.scope, args.key) if args.key else None
    rows = store.history(args.label, flag_query)
    doc = [{"build_id": b, "created": c, "summary": s} for b, c, s in rows]
    lines = []
    for b, c, s in rows:
        if s:
            per = ", ".join(f"{subj}={val}" for subj, val in sorted(s.items()))
            lines.append(f"{c}  {b}  {per}")
        else:
            lines.append(f"{c}  {b}")
    _emit(doc, args.format, lines)
    return EXIT_OK


def _cmd_audit(args) -> int:
    store = Store(args.store)
    config = audit_mod.load_config(args.config) if args.config else audit_mod.AuditConfig()
    snap = store.get(args.build_id)
    previous = store.get(args.previous) if args.previous else None
    findings = audit_mod.run_audit(snap, previous, config)
    sys.stdout.write(audit_mod.render_findings(findings, args.format).decode("utf-8"))
    return audit_mod.exit_code(findings)


def _cmd_lint(args) -> int:
    assignments, expansions = [], set()
    for path in args.makefiles:
        a, e = mklint.scan_makefile(path)
        assignments.extend(a)
        expansions.update(e)
    vocab = set(mklint.BUILTIN_VOCABULARY) | set(args.vocab)
    findings = mklint.lint(assignments, expansions, vocab)
    doc = {"report_version": 1, "findings": [f.to_dict() for f in findings]}
    lines = [f"{f.path}:{f.line}: '{f.name}' looks like a typo for "
             f"'{f.suggestion}' (distance {f.distance}) and is never expanded"
             for f in findings] or ["no findings"]
    _emit(doc, args.format, lines)
    return EXIT_WARNINGS if findings else EXIT_OK


def _cmd_stamp(args) -> int:
    store = Store(args.store)
    rec = store.get(args.build_id).record(args.subject)
    if rec is None:
        sys.stderr.write(f"error: no TU or target '{args.subject}' in build {args.build_id}\n")
        return EXIT_IO
    text = canonical_serialize(rec.effective)
    payload = elfnote.NotePayload(
        build_id=args.build_id,
        subject=args.subject,
        effective_digest=hashlib.sha256(text).hexdigest(),
        flags_text=None if args.no_flags_text else text.decode("utf-8"),
    )
    elfnote.stamp(args.elf, payload)
    _emit({"stamped": args.elf, "build_id": args.build_id, "subject": args.subject},
          args.format, [f"stamped {args.elf} with {args.build_id}:{args.subject}"])
    return EXIT_OK


def _cmd_read_stamp(args) -> int:
    payload = elfnote.read_stamp(args.elf)
    doc = {
        "payload": None if payload is None else {
            "version": payload.version,
            "build_id": payload.build_id,
            "subject": payload.subject,
            "effective_digest": payload.effective_digest,
            "flags_text": payload.flags_text,
        },
    }
    lines = []
    if payload is None:
        lines.append("no flagtrace note")
    else:
        lines.append(f"build_id: {payload.build_id}")
        lines.append(f"subject: {payload.subject}")
        lines.append(f"digest: {payload.effective_digest}")
        if payload.flags_text:
            lines.extend("  " + ln for ln in payload.flags_text.splitlines())
    if args.comment:
        doc["comment"] = elfnote.read_comment(args.elf)
        lines.extend(f"comment: {s}" for s in doc["comment"])
    _emit(doc, args.format, lines)
    return EXIT_OK


def _cmd_query(args) -> int:
    store = Store(args.store)
    if args.query_kind == "builds":
        entries = store.list_builds(args.label)
        doc = [{"build_id": e.build_id, "label": e.label, "created": e.created,
                "content_hash": e.content_hash} for e in entries]
        _emit(doc, args.format,
              [f"{e.created}  {e.build_id}  {e.label}  {e.content_hash}" for e in entries])
        return EXIT_OK
    if args.query_kind == "effective":
        rec = store.get(args.build).record(args.subject)
        if rec is None:
            sys.stderr.write(f"error: no TU or target '{args.subject}' in build {args.build}\n")
            return EXIT_IO
        text = canonical_serialize(rec.effective).decode("utf-8")
        _emit({"build_id": args.build, "subject": args.subject, "effective": text},
              args.format, text.splitlines())
        return EXIT_OK
    # find: TUs where a scalar group resolves to a given value
    snap = store.get(args.build)
    matches = []
    for tu in snap.tus:
        winner = tu.effective.group_value(args.group)
        if winner is not None and (winner.value == args.value or winner.spelling == args.value):
            matches.append(tu.source_file)
    _emit({"build_id": args.build, "group": args.group, "value": args.value,
           "matches": sorted(matches)},
          args.format, sorted(matches) or ["no matches"])
    return EXIT_OK


def _cmd_verify(args) -> int:
    results = Store(args.store).verify(args.build_ids)
    builds, lines = [], []
    for build_id, error, subjects in results:
        status = "ok" if error is None and not subjects else "corrupt"
        builds.append({"build_id": build_id, "status": status, "error": error,
                       "subjects": subjects})
        if error is not None:
            lines.append(f"corrupt  {build_id}: {error}")
        elif subjects:
            lines.append(f"corrupt  {build_id}: {len(subjects)} stored effective flag sets "
                         "differ from their re-resolved tokens")
            lines.extend(f"  {subject}" for subject in subjects)
        else:
            lines.append(f"ok       {build_id}")
    _emit({"report_version": 1, "builds": builds}, args.format, lines or ["no builds"])
    return EXIT_IO if any(b["status"] != "ok" for b in builds) else EXIT_OK


_COMMANDS = {
    "ingest": _cmd_ingest,
    "diff": _cmd_diff,
    "history": _cmd_history,
    "audit": _cmd_audit,
    "lint": _cmd_lint,
    "stamp": _cmd_stamp,
    "read-stamp": _cmd_read_stamp,
    "query": _cmd_query,
    "verify": _cmd_verify,
}


# Built once: parsing leaves no state in it, and building it costs most of a short command.
_PARSER = _build_parser()


def run(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    if args.store is None:
        args.store = os.environ.get("FLAGTRACE_STORE", ".flagtrace")
    try:
        return _COMMANDS[args.command](args)
    except (FlagtraceError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        if getattr(args, "format", "text") == "json":
            sys.stdout.write(json.dumps({"error": str(exc)}) + "\n")
        return EXIT_IO


def entry() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    entry()
