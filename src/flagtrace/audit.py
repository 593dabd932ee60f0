"""Rule engine over build snapshots: the formal alerting layer.

Each rule targets one of the recurring flag-defect categories seen in
practice: debug tracing leaking into release builds, optimization
levels that differ across one target's members, duplicate dependency
versions on a link line, missing hardening, exception-model mismatches,
link-order drift between builds, and unresolved variable tokens.

Rules are pure functions of (snapshot, previous, config); they never
raise on content, only on a bad config.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

from .cmdline import RawInvocation, Token
from .errors import ConfigError
from .flagmodel import NEGATIVE, FlagEntry
from .snapshot import BuildSnapshot, LinkTargetRecord, TranslationUnitRecord

ERROR = "error"
WARNING = "warning"
INFO = "info"

ALL_RULES = ("R1", "R2", "R3", "R4", "R5", "R7", "R8")

DEFAULT_SEVERITY = {
    "R1": WARNING,
    "R2": WARNING,
    "R3": INFO,
    "R4": ERROR,  # missing buffer-security checks: the zero-day case
    "R5": WARNING,
    "R7": WARNING,
    "R8": INFO,
}

RULE_TITLES = {
    "R1": "debug tracing in release build",
    "R2": "optimization level inconsistent within link target",
    "R3": "duplicate dependency versions on link line",
    "R4": "hardening missing or disabled in release build",
    "R5": "exception-model mismatch within link target",
    "R7": "link input order drift between builds",
    "R8": "unresolved variable token",
}

CONFIG_VERSION = 1


@dataclass
class AuditConfig:
    rules: tuple[str, ...] = ALL_RULES
    release_labels: frozenset = frozenset({"release", "official", "official-release"})
    hardening_required: frozenset = frozenset({"stack_protector"})
    debug_markers: frozenset = frozenset({"DEBUG", "_DEBUG", "DEBUG_TRACING"})
    severity: dict = field(default_factory=dict)

    def severity_of(self, rule: str) -> str:
        return self.severity.get(rule, DEFAULT_SEVERITY[rule])


def load_config(path: str) -> AuditConfig:
    """Parse the key=value audit config document; unknown rules are rejected."""
    cfg = AuditConfig()
    sev: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw_lines = list(fh)
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    for lineno, raw in enumerate(raw_lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        values = tuple(v.strip() for v in value.split(",") if v.strip())
        if key == "config_version":
            if value != str(CONFIG_VERSION):
                raise ConfigError(f"unsupported config_version {value}")
        elif key == "rules":
            for r in values:
                if r not in ALL_RULES:
                    raise ConfigError(f"unknown rule name: {r}")
            cfg.rules = values
        elif key == "release_labels":
            cfg.release_labels = frozenset(values)
        elif key == "hardening_required":
            cfg.hardening_required = frozenset(values)
        elif key == "debug_markers":
            cfg.debug_markers = frozenset(values)
        elif key.startswith("severity."):
            rule = key.split(".", 1)[1]
            if rule not in ALL_RULES:
                raise ConfigError(f"unknown rule name: {rule}")
            if value not in (ERROR, WARNING, INFO):
                raise ConfigError(f"unknown severity: {value}")
            sev[rule] = value
        else:
            raise ConfigError(f"unknown config key: {key}")
    cfg.severity = sev
    return cfg


@dataclass(frozen=True)
class AnomalyFinding:
    rule: str
    severity: str
    subject: str
    evidence: tuple[tuple[str, str], ...]  # (provenance, spelling) pairs
    message: str

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "subject": self.subject,
            "evidence": [list(e) for e in self.evidence],
            "message": self.message,
        }


def _prov(inv: RawInvocation, item: FlagEntry | Token | None = None) -> str:
    if item is not None and item.origin.kind == "response-file":
        return f"{inv.source} via {item.origin}"
    return inv.source


def _member_tus(target: LinkTargetRecord, tus: dict[str, TranslationUnitRecord]):
    return [tus[s] for s in target.member_tus if s in tus]


_UNRESOLVED = re.compile(r"\$\(|\$\{|%[A-Za-z_][A-Za-z0-9_]*%")

_LIB_EXT = re.compile(r"\.(a|so|lib|dylib)(\.\d+)*$", re.IGNORECASE)
_VERSION_TAIL = re.compile(r"^(.*?)[-.](\d[\w.]*)$")


def _lib_stem_version(path: str) -> tuple[str, str, str]:
    """(stem, version, dir) via a purely lexical split at the last
    hyphen/dot-digit boundary: libfoo-1.2 -> (libfoo, 1.2)."""
    norm = path.replace("\\", "/")
    directory, _, base = norm.rpartition("/")
    base = _LIB_EXT.sub("", base)
    m = _VERSION_TAIL.match(base)
    if m:
        return m.group(1), m.group(2), directory
    return base, "", directory


def run_audit(
    snapshot: BuildSnapshot,
    previous: BuildSnapshot | None,
    config: AuditConfig | None = None,
) -> list[AnomalyFinding]:
    config = config or AuditConfig()
    findings: list[AnomalyFinding] = []
    is_release = snapshot.label in config.release_labels
    tus = snapshot.by_subject("tu")
    enabled = set(config.rules)

    def add(rule: str, subject: str, evidence, message: str) -> None:
        findings.append(AnomalyFinding(rule, config.severity_of(rule), subject,
                                       tuple(evidence), message))

    if "R1" in enabled and is_release:
        ndebug_haves = [t for t in snapshot.tus if "NDEBUG" in t.effective.defines]
        for tu in snapshot.tus:
            hits = [tu.effective.defines[m] for m in sorted(config.debug_markers)
                    if m in tu.effective.defines]
            if hits:
                add("R1", tu.source_file,
                    [(_prov(tu.invocation, h), h.spelling) for h in hits],
                    "release build defines a debug marker")
            elif ndebug_haves and "NDEBUG" not in tu.effective.defines:
                add("R1", tu.source_file,
                    [(_prov(tu.invocation), "NDEBUG absent")],
                    "release TU lacks NDEBUG while sibling TUs define it")

    if "R2" in enabled:
        for target in snapshot.targets:
            members = _member_tus(target, tus)
            winners = {}
            for tu in members:
                w = tu.effective.group_value("opt_level")
                winners.setdefault(w.spelling if w else "Absent", []).append(tu)
            if len(winners) > 1:
                evidence = []
                for spelling, mem in sorted(winners.items()):
                    for tu in mem:
                        evidence.append((_prov(tu.invocation), f"{tu.source_file}: {spelling}"))
                add("R2", target.output, evidence,
                    "member TUs disagree on optimization level: " + ", ".join(sorted(winners)))

    if "R3" in enabled:
        if not snapshot.targets:
            add("R3", snapshot.build_id, [(snapshot.build_id, "no link evidence")],
                "inconclusive: snapshot has no link-target evidence")
        for target in snapshot.targets:
            libs = [e for e in target.effective.link_inputs if e.key == "link_lib"]
            by_stem: dict[str, list] = {}
            for e in libs:
                stem, version, directory = _lib_stem_version(e.value or "")
                by_stem.setdefault(stem, []).append((version, directory, e))
            for stem, group in by_stem.items():
                versions = {v for v, _, _ in group}
                dirs = {d for _, d, _ in group}
                if len(group) > 1 and (len(versions) > 1 or len(dirs) > 1):
                    add("R3", target.output,
                        [(_prov(target.invocation, e), e.spelling) for _, _, e in group],
                        f"multiple versions/paths of dependency '{stem}' on one link line")

    if "R4" in enabled and is_release:
        for tu in snapshot.tus:
            bad = []
            for group in sorted(config.hardening_required):
                w = tu.effective.group_value(group)
                if w is None:
                    bad.append((_prov(tu.invocation), f"{group} absent"))
                elif w.polarity == NEGATIVE:
                    bad.append((_prov(tu.invocation, w), w.spelling))
            if bad:
                add("R4", tu.source_file, bad,
                    "release TU compiled without required hardening")

    if "R5" in enabled:
        for target in snapshot.targets:
            members = _member_tus(target, tus)
            neg = [t for t in members
                   if (w := t.effective.group_value("exceptions")) is not None
                   and w.polarity == NEGATIVE]
            pos = [t for t in members if t not in neg]
            if neg and pos:
                evidence = [(_prov(t.invocation), f"{t.source_file}: exceptions disabled")
                            for t in neg]
                evidence += [(_prov(t.invocation), f"{t.source_file}: exceptions enabled/default")
                             for t in pos]
                add("R5", target.output, evidence,
                    "link target mixes exception-disabled and exception-enabled TUs")

    if "R7" in enabled and previous is not None:
        if not snapshot.targets or not previous.targets:
            add("R7", snapshot.build_id, [(snapshot.build_id, "no link evidence")],
                "inconclusive: missing link-target evidence in one of the builds")
        else:
            prev_targets = previous.by_subject("target")
            for target in snapshot.targets:
                before = prev_targets.get(target.output)
                if before is None:
                    continue
                if sorted(before.inputs) == sorted(target.inputs) and before.inputs != target.inputs:
                    add("R7", target.output,
                        [(_prov(before.invocation), " ".join(before.inputs)),
                         (_prov(target.invocation), " ".join(target.inputs))],
                        "link input order changed while the input set is identical")

    if "R8" in enabled:
        for tu in snapshot.tus:
            hits = [t for t in tu.invocation.tokens if _UNRESOLVED.search(t.text)]
            if hits:
                add("R8", tu.source_file,
                    [(_prov(tu.invocation, t), t.text) for t in hits],
                    "unexpanded variable token in compiler command")

    findings.sort(key=lambda f: (f.rule, f.subject))
    return findings


def exit_code(findings: list[AnomalyFinding]) -> int:
    """Alerting contract: 0 clean, 1 any error, 4 warnings only."""
    severities = {f.severity for f in findings}
    if ERROR in severities:
        return 1
    if WARNING in severities:
        return 4
    return 0


def render_findings(findings: list[AnomalyFinding], fmt: str = "text") -> bytes:
    if fmt == "json":
        doc = {"report_version": 1, "findings": [f.to_dict() for f in findings]}
        return (json.dumps(doc, ensure_ascii=False, sort_keys=True, indent=2) + "\n").encode("utf-8")
    if not findings:
        return b"no findings\n"
    lines = []
    for f in findings:
        lines.append(f"{f.rule} [{f.severity}] {f.subject}: {f.message} ({RULE_TITLES[f.rule]})")
        for prov, spelling in f.evidence:
            lines.append(f"    {prov}: {spelling}")
    return ("\n".join(lines) + "\n").encode("utf-8")
