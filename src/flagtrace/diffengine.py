"""Structured delta between two build snapshots.

Replaces eyeballing two build logs with `diff`: translation units are
matched by normalized source path (by object path for a source the
build compiles twice), link targets by output path, and
deltas are minimal (one per exclusive group, macro name, or ordered
field). Timestamps and build ids never influence the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .flagmodel import FlagEntry
from .snapshot import BuildSnapshot, LinkTargetRecord, Record

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


@dataclass
class DiffReport:
    added_tus: list[str] = field(default_factory=list)
    removed_tus: list[str] = field(default_factory=list)
    per_tu_changes: dict[str, list[FlagDelta]] = field(default_factory=dict)
    added_targets: list[str] = field(default_factory=list)
    removed_targets: list[str] = field(default_factory=list)
    per_target_changes: dict[str, list[FlagDelta]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def scopes(self) -> tuple:
        """(kind, added, removed, changed) for targets, then TUs, the order reports list them in."""
        return (("target", self.added_targets, self.removed_targets, self.per_target_changes),
                ("tu", self.added_tus, self.removed_tus, self.per_tu_changes))

    def is_empty(self) -> bool:
        return not any(added or removed or changed for _, added, removed, changed in self.scopes())

    def summary(self) -> dict:
        counts = {}
        for kind, added, removed, changed in self.scopes():
            counts[f"added_{kind}s"] = len(added)
            counts[f"removed_{kind}s"] = len(removed)
            counts[f"changed_{kind}s"] = len(changed)
        return counts

    def to_dict(self) -> dict:
        doc = {"report_version": REPORT_VERSION, "summary": self.summary(), "notes": list(self.notes)}
        for kind, added, removed, changed in self.scopes():
            doc[f"added_{kind}s"] = sorted(added)
            doc[f"removed_{kind}s"] = sorted(removed)
            doc[f"per_{kind}_changes"] = {subject: [vars(d) for d in deltas]
                                          for subject, deltas in sorted(changed.items())}
        return doc


_KEYED = ((GROUP, "scalar_groups"), (DEFINE, "defines"))
_ORDERED = ((INCLUDE_ORDER, "include_dirs"), (LINK_ORDER, "link_inputs"), (OPAQUE, "opaque"))


def _entry_dict(e: FlagEntry | None) -> dict | None:
    """A delta's side: the entry's fields, or None where it is absent."""
    return None if e is None else dict(vars(e))


def _diff_records(ra: Record, rb: Record) -> list[FlagDelta]:
    """Deltas between two records' effective sets."""
    if ra.effective_text == rb.effective_text:
        return []  # equal stored texts are equal sets; neither is built
    a, b = ra.effective, rb.effective
    deltas: list[FlagDelta] = []
    for scope, attr in _KEYED:
        map_a, map_b = getattr(a, attr), getattr(b, attr)
        for name in sorted(map_a.keys() | map_b.keys()):
            ea, eb = map_a.get(name), map_b.get(name)
            if ea != eb:
                deltas.append(FlagDelta(scope, name, _entry_dict(ea), _entry_dict(eb)))
    for scope, attr in _ORDERED:
        seq_a, seq_b = getattr(a, attr), getattr(b, attr)
        if seq_a != seq_b:
            deltas.append(FlagDelta(scope, None, [_entry_dict(e) for e in seq_a],
                                    [_entry_dict(e) for e in seq_b]))
    return deltas


def _diff_targets(ta: LinkTargetRecord, tb: LinkTargetRecord) -> list[FlagDelta]:
    """A target's deltas also show its inputs when only their normalized paths moved."""
    deltas = _diff_records(ta, tb)
    if ta.inputs != tb.inputs and not any(d.scope == LINK_ORDER for d in deltas):
        deltas.append(FlagDelta(LINK_ORDER, None, list(ta.inputs), list(tb.inputs)))
    return deltas


def _diff_scope(recs_a: dict, recs_b: dict, diff_pair) -> tuple[list, list, dict]:
    """Removed and added subjects of one scope, and the changed ones' deltas from `diff_pair`."""
    changed = {}
    for subject in sorted(recs_a.keys() & recs_b.keys()):
        deltas = diff_pair(recs_a[subject], recs_b[subject])
        if deltas:
            changed[subject] = deltas
    return sorted(recs_a.keys() - recs_b.keys()), sorted(recs_b.keys() - recs_a.keys()), changed


def _drive_note(paths_a: set[str], paths_b: set[str], notes: list[str]) -> None:
    # Cross-OS comparisons: X:/p vs /p equivalence is heuristic, so it is
    # surfaced as a note instead of silently merging the records.
    def strip_drive(p: str) -> str | None:
        if len(p) >= 2 and p[1] == ":":
            return p[2:]
        return None

    only_a, only_b = paths_a - paths_b, paths_b - paths_a
    for p in sorted(only_a):
        s = strip_drive(p)
        if s is not None and s in only_b:
            notes.append(f"possible drive-letter alias: {p} vs {s}")
    for p in sorted(only_b):
        s = strip_drive(p)
        if s is not None and s in only_a:
            notes.append(f"possible drive-letter alias: {s} vs {p}")


def diff(a: BuildSnapshot, b: BuildSnapshot) -> DiffReport:
    report = DiffReport()
    tus_a, tus_b = a.by_subject("tu"), b.by_subject("tu")
    report.removed_tus, report.added_tus, report.per_tu_changes = \
        _diff_scope(tus_a, tus_b, _diff_records)
    _drive_note(set(tus_a), set(tus_b), report.notes)
    report.removed_targets, report.added_targets, report.per_target_changes = \
        _diff_scope(a.by_subject("target"), b.by_subject("target"), _diff_targets)
    return report


def _display(side) -> str:
    if side is None:
        return "Absent"
    if isinstance(side, list):
        return " ".join(x["spelling"] if isinstance(x, dict) else str(x) for x in side)
    return side["spelling"]


def render_report(report: DiffReport) -> list[str]:
    """The report's text lines, in a deterministic order; `to_dict` is the machine surface."""
    if report.is_empty():
        return ["no differences"]
    lines: list[str] = []
    for kind, added, removed, changed in report.scopes():
        lines.extend(f"{kind} added: {subject}" for subject in sorted(added))
        lines.extend(f"{kind} removed: {subject}" for subject in sorted(removed))
        for subject, deltas in sorted(changed.items()):
            lines.append(f"{kind} changed: {subject}")
            for d in deltas:
                name = f" {d.name}" if d.name else ""
                lines.append(f"  {d.scope}{name}: {_display(d.before)} -> {_display(d.after)}")
    lines.extend(f"note: {note}" for note in report.notes)
    return lines
