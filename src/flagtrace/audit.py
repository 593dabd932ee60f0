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

import re
from dataclasses import dataclass, field

from .cmdline import Origin
from .errors import ConfigError
from .flagmodel import ABSENT, NEGATIVE
from .snapshot import BuildSnapshot, Record

ERROR = "error"
WARNING = "warning"
INFO = "info"

# Each rule's default severity and the title its findings are reported under.
RULES = {
    "R1": (WARNING, "debug tracing in release build"),
    "R2": (WARNING, "optimization level inconsistent within link target"),
    "R3": (INFO, "duplicate dependency versions on link line"),
    "R4": (ERROR, "hardening missing or disabled in release build"),  # the zero-day case
    "R5": (WARNING, "exception-model mismatch within link target"),
    "R7": (WARNING, "link input order drift between builds"),
    "R8": (INFO, "unresolved variable token"),
}

CONFIG_VERSION = 1


@dataclass
class AuditConfig:
    rules: tuple[str, ...] = tuple(RULES)
    release_labels: frozenset = frozenset({"release", "official", "official-release"})
    hardening_required: frozenset = frozenset({"stack_protector"})
    debug_markers: frozenset = frozenset({"DEBUG", "_DEBUG", "DEBUG_TRACING"})
    severity: dict = field(default_factory=dict)

    def severity_of(self, rule: str) -> str:
        return self.severity.get(rule, RULES[rule][0])


def load_config(path: str) -> AuditConfig:
    """Parse the key=value audit config document; unknown rules are rejected."""
    cfg = AuditConfig()
    try:
        with open(path, "r", encoding="utf-8") as fh:  # read whole: an error's byte counts from the start
            raw_lines = fh.read().removeprefix("\ufeff").split("\n")
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
                if r not in RULES:
                    raise ConfigError(f"unknown rule name: {r}")
            cfg.rules = values
        elif key in ("release_labels", "hardening_required", "debug_markers"):
            setattr(cfg, key, frozenset(values))
        elif key.startswith("severity."):
            rule = key.split(".", 1)[1]
            if rule not in RULES:
                raise ConfigError(f"unknown rule name: {rule}")
            if value not in (ERROR, WARNING, INFO):
                raise ConfigError(f"unknown severity: {value}")
            cfg.severity[rule] = value
        else:
            raise ConfigError(f"unknown config key: {key}")
    return cfg


@dataclass(frozen=True)
class AnomalyFinding:
    rule: str
    severity: str
    subject: str
    evidence: tuple[tuple[str, str], ...]  # (provenance, spelling) pairs
    message: str


def _prov(rec: Record, origin: Origin | None = None) -> str:
    """The record's source, and the response file the cited token came from, `origin`; it is
    None for a command-line token, or where the record has no `origins`: the source alone."""
    if origin is not None:
        return f"{rec.invocation.source} via {origin}"
    return rec.invocation.source


_UNRESOLVED = re.compile(r"\$\(|\$\{|%[A-Za-z_][A-Za-z0-9_]*%")

_LIB_EXT = re.compile(r"\.(?:a|so|lib|dylib)((?:\.\d+)*)$", re.IGNORECASE)
_VERSION_TAIL = re.compile(r"^(.*?)[-.](\d[\w.]*)$")


def _lib_stem_version(path: str) -> tuple[str, str, str]:
    """(stem, version, dir) via a purely lexical split. The version is the name's own, at
    its last hyphen/dot-digit boundary before the suffix: libfoo-1.2.a and libfoo-1.2.so.1
    -> (libfoo, 1.2). A name without one takes the numeric tail after its suffix, as a
    soname has it: libssl.so.1.1 -> (libssl, 1.1)."""
    norm = path.replace("\\", "/")
    directory, _, base = norm.rpartition("/")
    ext = _LIB_EXT.search(base)
    base, tail = (base[:ext.start()], ext[1][1:]) if ext else (base, "")
    m = _VERSION_TAIL.match(base)
    if m:
        return m.group(1), m.group(2), directory
    return base, tail, directory


def run_audit(
    snapshot: BuildSnapshot,
    previous: BuildSnapshot | None,
    config: AuditConfig | None = None,
) -> list[AnomalyFinding]:
    config = config or AuditConfig()
    findings: list[AnomalyFinding] = []
    is_release = snapshot.label in config.release_labels
    tus = snapshot.named("tu")
    by_output = snapshot.by_output()
    enabled = set(config.rules)

    def add(rule: str, subject: str, evidence, message: str) -> None:
        findings.append(AnomalyFinding(rule, config.severity_of(rule), subject,
                                       tuple(evidence), message))

    if "R1" in enabled and is_release:
        ndebug_haves = [t for _, t in tus if "NDEBUG" in t.effective.defines]
        for subject, tu in tus:
            defines = tu.effective.defines
            hits = [m for m in sorted(config.debug_markers) if m in defines]
            if hits:
                add("R1", subject, [(_prov(tu, tu.origins and tu.origins.defines[m]),
                                     defines[m].spelling) for m in hits],
                    "release build defines a debug marker")
            elif ndebug_haves and "NDEBUG" not in defines:
                add("R1", subject, [(_prov(tu), "NDEBUG absent")],
                    "release TU lacks NDEBUG while sibling TUs define it")

    def split_members(rule: str, group: str, kind_of, message) -> None:
        """Flag each link target whose member TUs (those whose outputs it links) are of two
        kinds or more by `group`'s winner; evidence lists them by sorted kind, in link order."""
        for target in snapshot.targets:
            kinds: dict[str, list] = {}
            for subject, tu in (by_output[p] for p in target.inputs if p in by_output):
                kind = kind_of(tu.effective.group_value(group))
                kinds.setdefault(kind, []).append((subject, tu))
            if len(kinds) > 1:
                evidence = [(_prov(tu), f"{subject}: {kind}")
                            for kind, mem in sorted(kinds.items()) for subject, tu in mem]
                add(rule, target.output, evidence, message(sorted(kinds)))

    if "R2" in enabled:
        split_members("R2", "opt_level", lambda w: w.spelling if w else ABSENT,
                      lambda ks: "member TUs disagree on optimization level: " + ", ".join(ks))

    if "R3" in enabled:
        if not snapshot.targets:
            add("R3", snapshot.build_id, [(snapshot.build_id, "no link evidence")],
                "inconclusive: snapshot has no link-target evidence")
        for target in snapshot.targets:
            by_stem: dict[str, list] = {}
            for k, e in enumerate(target.effective.link_inputs):
                if e.key == "link_lib":
                    stem, version, directory = _lib_stem_version(e.value or "")
                    by_stem.setdefault(stem, []).append((version, directory, k, e))
            for stem, group in by_stem.items():
                if len({(v, d) for v, d, _, _ in group}) > 1:
                    add("R3", target.output,
                        [(_prov(target, target.origins and target.origins.link_inputs[k]), e.spelling)
                         for _, _, k, e in group],
                        f"multiple versions/paths of dependency '{stem}' on one link line")

    if "R4" in enabled and is_release:
        for subject, tu in tus:
            bad = []
            for group in sorted(config.hardening_required):
                w = tu.effective.group_value(group)
                if w is None:
                    bad.append((_prov(tu), f"{group} absent"))
                elif w.polarity == NEGATIVE:
                    bad.append((_prov(tu, tu.origins and tu.origins.scalar_groups[group]), w.spelling))
            if bad:
                add("R4", subject, bad, "release TU compiled without required hardening")

    if "R5" in enabled:
        split_members("R5", "exceptions",
                      lambda w: "exceptions disabled" if w and w.polarity == NEGATIVE
                      else "exceptions enabled/default",
                      lambda _: "link target mixes exception-disabled and exception-enabled TUs")

    if "R7" in enabled and previous is not None:
        if not snapshot.targets or not previous.targets:
            add("R7", snapshot.build_id, [(snapshot.build_id, "no link evidence")],
                "inconclusive: missing link-target evidence in one of the builds")
        else:
            # Both builds' targets by subject, as diff pairs them: an output linked twice
            # is read at its later link, the file the build leaves.
            before_of = previous.by_subject("target")
            for output, target in snapshot.by_subject("target").items():
                before = before_of.get(output)
                if (before is not None and sorted(before.inputs) == sorted(target.inputs)
                        and before.inputs != target.inputs):
                    add("R7", output,
                        [(_prov(before), " ".join(before.inputs)),
                         (_prov(target), " ".join(target.inputs))],
                        "link input order changed while the input set is identical")

    if "R8" in enabled:
        for subject, tu in tus:
            inv = tu.invocation
            hits = [(_prov(tu, o), t) for t, o in zip(inv.tokens, inv.origins) if _UNRESOLVED.search(t)]
            if hits:
                add("R8", subject, hits,
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


def render_findings(findings: list[AnomalyFinding]) -> list[str]:
    if not findings:
        return ["no findings"]
    lines = []
    for f in findings:
        lines.append(f"{f.rule} [{f.severity}] {f.subject}: {f.message} ({RULES[f.rule][1]})")
        for prov, spelling in f.evidence:
            lines.append(f"    {prov}: {spelling}")
    return lines
