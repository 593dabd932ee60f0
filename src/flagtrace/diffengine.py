"""Structured delta between two build snapshots.

Replaces eyeballing two build logs with `diff`: translation units are
matched by normalized source path, link targets by output path, and
deltas are minimal (one per exclusive group, macro name, or ordered
field). Timestamps and build ids never influence the result.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .flagmodel import EffectiveFlagSet, FlagEntry
from .snapshot import BuildSnapshot

REPORT_VERSION = 1

GROUP = "group"
DEFINE = "define"
INCLUDE_ORDER = "include_order"
LINK_ORDER = "link_order"
OPAQUE = "opaque"


@dataclass(frozen=True)
class FlagDelta:
    scope: str  # GROUP | DEFINE | INCLUDE_ORDER | LINK_ORDER | OPAQUE
    name: str | None  # group id or macro name; None for ordered scopes
    before: object  # entry dict, list, or None (absent)
    after: object

    def to_dict(self) -> dict:
        return {"scope": self.scope, "name": self.name, "before": self.before, "after": self.after}


@dataclass
class DiffReport:
    added_tus: list[str] = field(default_factory=list)
    removed_tus: list[str] = field(default_factory=list)
    per_tu_changes: dict[str, list[FlagDelta]] = field(default_factory=dict)
    added_targets: list[str] = field(default_factory=list)
    removed_targets: list[str] = field(default_factory=list)
    per_target_changes: dict[str, list[FlagDelta]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def is_empty(self) -> bool:
        return not (self.added_tus or self.removed_tus or self.per_tu_changes
                    or self.added_targets or self.removed_targets or self.per_target_changes)

    def summary(self) -> dict:
        return {
            "added_tus": len(self.added_tus),
            "removed_tus": len(self.removed_tus),
            "changed_tus": len(self.per_tu_changes),
            "added_targets": len(self.added_targets),
            "removed_targets": len(self.removed_targets),
            "changed_targets": len(self.per_target_changes),
        }

    def to_dict(self) -> dict:
        return {
            "report_version": REPORT_VERSION,
            "summary": self.summary(),
            "added_tus": sorted(self.added_tus),
            "removed_tus": sorted(self.removed_tus),
            "per_tu_changes": {k: [d.to_dict() for d in v]
                               for k, v in sorted(self.per_tu_changes.items())},
            "added_targets": sorted(self.added_targets),
            "removed_targets": sorted(self.removed_targets),
            "per_target_changes": {k: [d.to_dict() for d in v]
                                   for k, v in sorted(self.per_target_changes.items())},
            "notes": list(self.notes),
        }


def _entry_dict(e: FlagEntry | None):
    return None if e is None else e.to_dict()


def _diff_effective(a: EffectiveFlagSet, b: EffectiveFlagSet) -> list[FlagDelta]:
    deltas: list[FlagDelta] = []
    for gid in sorted(set(a.scalar_groups) | set(b.scalar_groups)):
        ea, eb = a.scalar_groups.get(gid), b.scalar_groups.get(gid)
        if (ea.value_tuple() if ea else None) != (eb.value_tuple() if eb else None):
            deltas.append(FlagDelta(GROUP, gid, _entry_dict(ea), _entry_dict(eb)))
    for name in sorted(set(a.defines) | set(b.defines)):
        ea, eb = a.defines.get(name), b.defines.get(name)
        if (ea.value_tuple() if ea else None) != (eb.value_tuple() if eb else None):
            deltas.append(FlagDelta(DEFINE, name, _entry_dict(ea), _entry_dict(eb)))
    inc_a = [e.to_dict() for e in a.include_dirs]
    inc_b = [e.to_dict() for e in b.include_dirs]
    if inc_a != inc_b:
        deltas.append(FlagDelta(INCLUDE_ORDER, None, inc_a, inc_b))
    link_a = [e.to_dict() for e in a.link_inputs]
    link_b = [e.to_dict() for e in b.link_inputs]
    if link_a != link_b:
        deltas.append(FlagDelta(LINK_ORDER, None, link_a, link_b))
    op_a = [e.to_dict() for e in a.opaque]
    op_b = [e.to_dict() for e in b.opaque]
    if op_a != op_b:
        deltas.append(FlagDelta(OPAQUE, None, op_a, op_b))
    return deltas


def _drive_note(paths_a: set[str], paths_b: set[str], notes: list[str]) -> None:
    # Cross-OS comparisons: X:/p vs /p equivalence is heuristic, so it is
    # surfaced as a note instead of silently merging the records.
    def strip_drive(p: str) -> str | None:
        if len(p) >= 2 and p[1] == ":":
            return p[2:]
        return None

    only_a, only_b = paths_a - paths_b, paths_b - paths_a
    for p in only_a:
        s = strip_drive(p)
        if s is not None and s in only_b:
            notes.append(f"possible drive-letter alias: {p} vs {s}")
    for p in only_b:
        s = strip_drive(p)
        if s is not None and s in only_a:
            notes.append(f"possible drive-letter alias: {s} vs {p}")


def diff(a: BuildSnapshot, b: BuildSnapshot) -> DiffReport:
    report = DiffReport()
    tus_a, tus_b = a.by_subject("tu"), b.by_subject("tu")
    report.removed_tus = sorted(set(tus_a) - set(tus_b))
    report.added_tus = sorted(set(tus_b) - set(tus_a))
    _drive_note(set(tus_a), set(tus_b), report.notes)
    for src in sorted(set(tus_a) & set(tus_b)):
        deltas = _diff_effective(tus_a[src].effective, tus_b[src].effective)
        if deltas:
            report.per_tu_changes[src] = deltas

    tg_a, tg_b = a.by_subject("target"), b.by_subject("target")
    report.removed_targets = sorted(set(tg_a) - set(tg_b))
    report.added_targets = sorted(set(tg_b) - set(tg_a))
    for out in sorted(set(tg_a) & set(tg_b)):
        ta, tb = tg_a[out], tg_b[out]
        deltas = _diff_effective(ta.effective, tb.effective)
        if ta.inputs != tb.inputs and not any(d.scope == LINK_ORDER for d in deltas):
            deltas.append(FlagDelta(LINK_ORDER, None, list(ta.inputs), list(tb.inputs)))
        if deltas:
            report.per_target_changes[out] = deltas
    return report


def _display(side) -> str:
    if side is None:
        return "Absent"
    if isinstance(side, list):
        return " ".join(x["spelling"] if isinstance(x, dict) else str(x) for x in side)
    return side["spelling"]


def _render_text(report: DiffReport) -> str:
    if report.is_empty():
        return "no differences\n"
    lines: list[str] = []
    for out in sorted(report.added_targets):
        lines.append(f"target added: {out}")
    for out in sorted(report.removed_targets):
        lines.append(f"target removed: {out}")
    for out, deltas in sorted(report.per_target_changes.items()):
        lines.append(f"target changed: {out}")
        for d in deltas:
            name = f" {d.name}" if d.name else ""
            lines.append(f"  {d.scope}{name}: {_display(d.before)} -> {_display(d.after)}")
    for src in sorted(report.added_tus):
        lines.append(f"tu added: {src}")
    for src in sorted(report.removed_tus):
        lines.append(f"tu removed: {src}")
    for src, deltas in sorted(report.per_tu_changes.items()):
        lines.append(f"tu changed: {src}")
        for d in deltas:
            name = f" {d.name}" if d.name else ""
            lines.append(f"  {d.scope}{name}: {_display(d.before)} -> {_display(d.after)}")
    for note in report.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines) + "\n"


def render_report(report: DiffReport, fmt: str = "text") -> bytes:
    """Deterministic rendering; 'json' is the stable machine surface."""
    if fmt == "json":
        return (json.dumps(report.to_dict(), ensure_ascii=False, sort_keys=True,
                           indent=2) + "\n").encode("utf-8")
    return _render_text(report).encode("utf-8")
