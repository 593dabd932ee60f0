import json

import pytest

from flagtrace.audit import (
    ERROR,
    INFO,
    WARNING,
    AnomalyFinding,
    AuditConfig,
    exit_code,
    load_config,
    run_audit,
)
from flagtrace.cli import run
from flagtrace.errors import ConfigError
from tests.test_ingest import log_snapshot

RELEASE = AuditConfig()

# Every fixture includes a benign link step so R3/R7 have link evidence
# and stay conclusive.
CLEAN_RELEASE_LOG = (
    "gcc -O2 -fstack-protector -DNDEBUG -c a.c -o a.o\n"
    "gcc -O2 -fstack-protector -DNDEBUG -c b.c -o b.o\n"
    "gcc a.o b.o -o app -lm\n"
)


def release_snap(tmp_path, text, build_id="r1"):
    return log_snapshot(tmp_path, text, build_id, "release")


def rules_of(findings):
    return [f.rule for f in findings]


class TestRules:
    def test_clean_release_is_clean(self, tmp_path):
        snap = release_snap(tmp_path, CLEAN_RELEASE_LOG)
        assert run_audit(snap, None, RELEASE) == []

    def test_r1_debug_marker_in_release(self, tmp_path):
        snap = release_snap(
            tmp_path,
            "gcc -O2 -fstack-protector -DNDEBUG -DDEBUG_TRACING -c a.c -o a.o\n"
            "gcc -O2 -fstack-protector -DNDEBUG -c b.c -o b.o\n"
            "gcc a.o b.o -o app\n")
        findings = run_audit(snap, None, RELEASE)
        assert rules_of(findings) == ["R1"]
        assert findings[0].subject.endswith("a.c")
        assert findings[0].evidence

    def test_r1_ndebug_missing_on_one_sibling(self, tmp_path):
        snap = release_snap(
            tmp_path,
            "gcc -O2 -fstack-protector -DNDEBUG -c a.c -o a.o\n"
            "gcc -O2 -fstack-protector -c b.c -o b.o\n"
            "gcc a.o b.o -o app\n")
        findings = run_audit(snap, None, RELEASE)
        assert rules_of(findings) == ["R1"]
        assert findings[0].subject.endswith("b.c")

    def test_r1_quiet_for_dev_label(self, tmp_path):
        snap = log_snapshot(tmp_path, "gcc -DDEBUG -fstack-protector -c a.c -o a.o\n"
                                      "gcc a.o -o app\n", "d1", "dev")
        assert "R1" not in rules_of(run_audit(snap, None, RELEASE))

    def test_r2_opt_disagreement_within_target(self, tmp_path):
        snap = release_snap(
            tmp_path,
            "gcc -O2 -fstack-protector -DNDEBUG -c a.c -o a.o\n"
            "gcc -O0 -fstack-protector -DNDEBUG -c b.c -o b.o\n"
            "gcc a.o b.o -o app\n")
        findings = run_audit(snap, None, RELEASE)
        assert rules_of(findings) == ["R2"]
        assert findings[0].subject.endswith("app")

    def test_r2_monotonicity(self, tmp_path):
        agree = release_snap(
            tmp_path,
            "gcc -O2 -fstack-protector -DNDEBUG -c a.c -o a.o\n"
            "gcc -O2 -fstack-protector -DNDEBUG -c b.c -o b.o\n"
            "gcc -O2 -fstack-protector -DNDEBUG -c c.c -o c.o\n"
            "gcc a.o b.o c.o -o app\n", "m1")
        assert "R2" not in rules_of(run_audit(agree, None, RELEASE))

    def test_r3_duplicate_dependency_versions(self, tmp_path):
        snap = release_snap(
            tmp_path,
            "gcc -O2 -fstack-protector -DNDEBUG -c a.c -o a.o\n"
            "gcc a.o libfoo-1.2.a libfoo-1.3.a -o app\n")
        findings = run_audit(snap, None, RELEASE)
        assert rules_of(findings) == ["R3"]

    def test_r3_same_stem_different_paths(self, tmp_path):
        snap = release_snap(
            tmp_path,
            "gcc -O2 -fstack-protector -DNDEBUG -c a.c -o a.o\n"
            "gcc a.o vendor/libz.a /usr/lib/libz.a -o app\n")
        assert rules_of(run_audit(snap, None, RELEASE)) == ["R3"]

    def test_r4_missing_hardening_in_release(self, tmp_path):
        snap = release_snap(
            tmp_path,
            "gcc -O2 -DNDEBUG -c a.c -o a.o\n"
            "gcc -O2 -fstack-protector -DNDEBUG -c b.c -o b.o\n"
            "gcc a.o b.o -o app\n")
        findings = run_audit(snap, None, RELEASE)
        assert rules_of(findings) == ["R4"]
        assert findings[0].severity == ERROR

    def test_r4_negative_hardening_wins(self, tmp_path):
        snap = release_snap(
            tmp_path,
            "gcc -fstack-protector -fno-stack-protector -O2 -DNDEBUG -c a.c -o a.o\n"
            "gcc -fstack-protector -O2 -DNDEBUG -c b.c -o b.o\n"
            "gcc a.o b.o -o app\n")
        findings = run_audit(snap, None, RELEASE)
        assert rules_of(findings) == ["R4"]
        assert findings[0].evidence[0][1] == "-fno-stack-protector"

    def test_r5_exception_mix(self, tmp_path):
        snap = release_snap(
            tmp_path,
            "gcc -O2 -fstack-protector -DNDEBUG -fno-exceptions -c a.c -o a.o\n"
            "gcc -O2 -fstack-protector -DNDEBUG -c b.c -o b.o\n"
            "gcc a.o b.o -o app\n")
        assert rules_of(run_audit(snap, None, RELEASE)) == ["R5"]

    def test_r7_link_order_drift(self, tmp_path):
        before = release_snap(
            tmp_path,
            "gcc -O2 -fstack-protector -DNDEBUG -c a.c -o a.o\n"
            "gcc -O2 -fstack-protector -DNDEBUG -c b.c -o b.o\n"
            "gcc a.o b.o -o app\n", "p1")
        after = release_snap(
            tmp_path,
            "gcc -O2 -fstack-protector -DNDEBUG -c a.c -o a.o\n"
            "gcc -O2 -fstack-protector -DNDEBUG -c b.c -o b.o\n"
            "gcc b.o a.o -o app\n", "p2")
        findings = run_audit(after, before, RELEASE)
        assert rules_of(findings) == ["R7"]
        # identical order: no finding
        assert run_audit(after, after, RELEASE) == []

    def test_r7_set_change_is_not_drift(self, tmp_path):
        before = release_snap(
            tmp_path,
            "gcc -O2 -fstack-protector -DNDEBUG -c a.c -o a.o\n"
            "gcc a.o -o app\n", "s1")
        after = release_snap(
            tmp_path,
            "gcc -O2 -fstack-protector -DNDEBUG -c a.c -o a.o\n"
            "gcc -O2 -fstack-protector -DNDEBUG -c b.c -o b.o\n"
            "gcc a.o b.o -o app\n", "s2")
        assert "R7" not in rules_of(run_audit(after, before, RELEASE))

    def test_r8_unresolved_token(self, tmp_path):
        snap = release_snap(
            tmp_path,
            "gcc -O2 -fstack-protector -DNDEBUG '$(EXTRA_FLAGS)' -c a.c -o a.o\n"
            "gcc a.o -o app\n")
        findings = run_audit(snap, None, RELEASE)
        assert rules_of(findings) == ["R8"]
        assert findings[0].severity == INFO

    def test_r3_inconclusive_without_link_evidence(self, tmp_path):
        snap = release_snap(
            tmp_path, "gcc -O2 -fstack-protector -DNDEBUG -c a.c -o a.o\n")
        findings = run_audit(snap, None, RELEASE)
        assert rules_of(findings) == ["R3"]
        assert "inconclusive" in findings[0].message

    def test_determinism(self, tmp_path):
        snap = release_snap(
            tmp_path,
            "gcc -O0 -c a.c -o a.o\ngcc -O2 -c b.c -o b.o\ngcc a.o b.o -o app\n")
        assert run_audit(snap, None, RELEASE) == run_audit(snap, None, RELEASE)


def test_member_split_evidence_is_by_sorted_kind_in_link_order(tmp_path, capsys):
    """R2 and R5 list a target's members kind by kind, kinds sorted, each kind's members
    in link order, an object linked twice once per link."""
    log = tmp_path / "split.log"
    log.write_text("gcc -O3 -c a.c -o a.o\n"
                   "gcc -O2 -fno-exceptions -c b.c -o b.o\n"
                   "gcc -c c.c -o c.o\n"
                   "gcc -O2 -fno-exceptions -c d.c -o d.o\n"
                   "gcc d.o a.o c.o b.o a.o -o app\n")
    store = str(tmp_path / "store")
    assert run(["--store", store, "ingest", str(log), "--label", "dev", "--build-id", "b1"]) == 0
    capsys.readouterr()
    assert run(["--store", store, "--format", "json", "audit", "b1"]) == 4
    r2, r5 = json.loads(capsys.readouterr().out)["findings"]

    def member(line, kind):
        return [f"log:{log}:{line}", f"{tmp_path}/{'_abcd'[line]}.c: {kind}"]

    assert (r2["rule"], r2["subject"]) == ("R2", f"{tmp_path}/app")
    assert r2["message"] == "member TUs disagree on optimization level: -O2, -O3, Absent"
    assert r2["evidence"] == [member(4, "-O2"), member(2, "-O2"), member(1, "-O3"),
                              member(1, "-O3"), member(3, "Absent")]
    assert (r5["rule"], r5["subject"]) == ("R5", f"{tmp_path}/app")
    off, on = "exceptions disabled", "exceptions enabled/default"
    assert r5["evidence"] == [member(4, off), member(2, off),
                              member(1, on), member(3, on), member(1, on)]


class TestExitCode:
    def mk(self, severity):
        return AnomalyFinding("R1", severity, "s", (("p", "x"),), "m")

    def test_empty(self):
        assert exit_code([]) == 0

    def test_error(self):
        assert exit_code([self.mk(ERROR), self.mk(WARNING)]) == 1

    def test_warnings_only(self):
        assert exit_code([self.mk(WARNING)]) == 4

    def test_info_only(self):
        assert exit_code([self.mk(INFO)]) == 0


class TestConfig:
    def test_load(self, tmp_path):
        cfg = tmp_path / "audit.conf"
        cfg.write_text(
            "config_version = 1\n"
            "rules = R1, R4\n"
            "release_labels = prod, release\n"
            "debug_markers = DEBUG, TRACE_ON\n"
            "severity.R1 = error\n")
        config = load_config(str(cfg))
        assert config.rules == ("R1", "R4")
        assert config.release_labels == frozenset({"prod", "release"})
        assert config.severity_of("R1") == "error"
        assert config.severity_of("R4") == "error"

    def test_unknown_rule_rejected(self, tmp_path):
        cfg = tmp_path / "audit.conf"
        cfg.write_text("rules = R1, R99\n")
        with pytest.raises(ConfigError):
            load_config(str(cfg))

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "audit.conf"
        cfg.write_text("frobnicate = yes\n")
        with pytest.raises(ConfigError):
            load_config(str(cfg))

    def test_non_utf8_file_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "audit.conf"
        cfg.write_bytes(b"\xff\xferules = R1\n")
        with pytest.raises(ConfigError, match="not UTF-8"):
            load_config(str(cfg))
        assert run(["--config", str(cfg), "audit", "b1"]) == 3
        assert "not UTF-8" in capsys.readouterr().err
