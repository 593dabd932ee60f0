import json

import pytest

from flagtrace.cli import run
from conftest import build_minimal_elf

OFFICIAL_LOG = (
    "gcc -O2 -fstack-protector -DNDEBUG -c core.c -o core.o\n"
    "gcc -O2 -fstack-protector -DNDEBUG -c util.c -o util.o\n"
    "gcc core.o util.o -o app -lm\n"
)

DEV_LOG = (
    "gcc -O2 -DNDEBUG -DDEBUG_TRACING -c core.c -o core.o\n"
    "gcc -O2 -fstack-protector -DNDEBUG -c util.c -o util.o\n"
    "gcc core.o util.o -o app -lm\n"
)


@pytest.fixture
def seeded_store(tmp_path):
    logs = tmp_path / "logs"
    logs.mkdir()
    store = str(tmp_path / "store")
    for bid, label, text, created in [
        ("official-1", "official", OFFICIAL_LOG, "2026-01-01T00:00:00Z"),
        ("dev-1", "dev", DEV_LOG, "2026-01-02T00:00:00Z"),
    ]:
        log = logs / f"{bid}.log"
        log.write_text(text)
        assert run(["--store", store, "ingest", str(log), "--label", label,
                    "--build-id", bid, "--created", created]) == 0
    return store


class TestIngestAndDiff:
    def test_diff_self_is_empty(self, seeded_store, capsys):
        assert run(["--store", seeded_store, "diff", "official-1", "official-1"]) == 0
        assert capsys.readouterr().out == "no differences\n"

    def test_diff_reports_deltas_and_exit_4(self, seeded_store, capsys):
        code = run(["--store", seeded_store, "--format", "json",
                    "diff", "official-1", "dev-1"])
        assert code == 4
        doc = json.loads(capsys.readouterr().out)
        assert doc["summary"]["changed_tus"] == 1

    def test_json_output_deterministic(self, seeded_store, capsys):
        run(["--store", seeded_store, "--format", "json", "diff", "official-1", "dev-1"])
        first = capsys.readouterr().out
        run(["--store", seeded_store, "--format", "json", "diff", "official-1", "dev-1"])
        assert capsys.readouterr().out == first

    def test_unknown_build_exit_3(self, seeded_store, capsys):
        assert run(["--store", seeded_store, "diff", "official-1", "ghost"]) == 3
        assert "error" in capsys.readouterr().err


class TestAudit:
    def test_clean_build_exit_0(self, seeded_store, capsys):
        assert run(["--store", seeded_store, "audit", "official-1"]) == 0

    def test_dev_label_not_release_checked(self, seeded_store):
        # dev label: R1/R4 do not apply, so only informational findings at most
        assert run(["--store", seeded_store, "audit", "dev-1"]) == 0

    def test_release_config_catches_dev_markers(self, seeded_store, tmp_path, capsys):
        cfg = tmp_path / "audit.conf"
        cfg.write_text("release_labels = dev\n")
        code = run(["--store", seeded_store, "--config", str(cfg), "audit", "dev-1"])
        out = capsys.readouterr().out
        assert code == 1  # R4 hardening error present
        assert "R1" in out and "R4" in out


class TestResponseFiles:
    def test_audit_cites_response_file_tokens(self, tmp_path, capsys):
        (tmp_path / "opts.rsp").write_text("-fno-stack-protector -DV=$(VERSION)\n")
        log = tmp_path / "rel.log"
        log.write_text("gcc @opts.rsp -O2 -DNDEBUG -c a.c -o a.o\n")
        store = str(tmp_path / "store")
        assert run(["--store", store, "ingest", str(log), "--label", "release",
                    "--build-id", "r1"]) == 0
        capsys.readouterr()
        assert run(["--store", store, "--format", "json", "audit", "r1"]) == 1
        findings = json.loads(capsys.readouterr().out)["findings"]
        evidence = {f["rule"]: f["evidence"] for f in findings}
        rsp = tmp_path / "opts.rsp"
        assert evidence["R4"] == [[f"log:{log}:1 via {rsp}#0", "-fno-stack-protector"]]
        assert evidence["R8"] == [[f"log:{log}:1 via {rsp}#1", "-DV=$(VERSION)"]]


class TestHistoryAndQuery:
    def test_history_text(self, seeded_store, capsys):
        assert run(["--store", seeded_store, "history", "official",
                    "--key", "opt_level"]) == 0
        out = capsys.readouterr().out
        assert "official-1" in out and "-O2" in out

    def test_query_builds(self, seeded_store, capsys):
        assert run(["--store", seeded_store, "--format", "json",
                    "query", "builds", "--label", "dev"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [e["build_id"] for e in doc] == ["dev-1"]

    def test_query_find(self, seeded_store, capsys):
        assert run(["--store", seeded_store, "--format", "json", "query", "find",
                    "--build", "official-1", "--group", "opt_level",
                    "--value=-O2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["matches"]) == 2

    def test_query_effective(self, seeded_store, capsys):
        run(["--store", seeded_store, "--format", "json", "query", "builds"])
        builds = json.loads(capsys.readouterr().out)
        assert builds  # then show one TU
        snap_code = run(["--store", seeded_store, "query", "effective",
                         "--build", "official-1", "--subject", "missing.c"])
        assert snap_code == 3


class TestLintCli:
    def test_lint_finding(self, tmp_path, capsys):
        mk = tmp_path / "Makefile"
        mk.write_text("CXFLAGS = -O2\n")
        code = run(["lint", str(mk)])
        out = capsys.readouterr().out
        assert code == 4
        assert "CXXFLAGS" in out

    def test_lint_clean(self, redis_makefile, capsys):
        assert run(["lint", redis_makefile]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_extra_vocab(self, tmp_path, capsys):
        mk = tmp_path / "Makefile"
        mk.write_text("MYFLAGS = -O2\nMYFLAG = -g\n")
        code = run(["--format", "json", "lint", str(mk), "--vocab", "MYFLAGS"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 4
        assert [f["name"] for f in doc["findings"]] == ["MYFLAG"]


class TestStampCli:
    def test_stamp_and_read(self, seeded_store, tmp_path, capsys):
        elf = build_minimal_elf(tmp_path / "app.bin")
        from flagtrace.store import Store
        snap = Store(seeded_store).get("official-1")
        subject = snap.targets[0].output
        assert run(["--store", seeded_store, "stamp", elf, "official-1", subject]) == 0
        capsys.readouterr()
        assert run(["--format", "json", "read-stamp", elf, "--comment"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["payload"]["build_id"] == "official-1"
        assert doc["payload"]["subject"] == subject
        assert doc["comment"] == ["GCC: (fixture) 13.2.0"]

    def test_stamp_unknown_subject(self, seeded_store, tmp_path):
        elf = build_minimal_elf(tmp_path / "app.bin")
        assert run(["--store", seeded_store, "stamp", elf, "official-1", "nope"]) == 3


class TestUsage:
    def test_usage_error_exit_2(self):
        assert run(["no-such-command"]) == 2

    @pytest.mark.parametrize("option", ["--label", "--build-id"])
    @pytest.mark.parametrize("char", ["\t", "\r", "\n"], ids=["tab", "CR", "LF"])
    def test_index_field_control_char_exit_2(self, tmp_path, capsys, option, char):
        log = tmp_path / "b.log"
        log.write_text("gcc -c a.c\n")
        store = tmp_path / "store"
        args = {"--label": "rel", "--build-id": "b1"}
        args[option] = f"rel{char}x"
        assert run(["--store", str(store), "ingest", str(log),
                    "--label", args["--label"], "--build-id", args["--build-id"]]) == 2
        assert "must not contain a tab, CR or LF" in capsys.readouterr().err
        assert not store.exists()

    @pytest.mark.parametrize("created", [
        "2026\tbad", "zzz", "", "2026-01-01", "2026-01-01T00:00:00", "2026-01-01T00:00:00+00:00",
        "2026-1-01T00:00:00Z", "2026-13-01T00:00:00Z", "2026-01-01T24:00:00Z",
        "\uff12026-01-01T00:00:00Z", " 2026-01-01T00:00:00Z",
    ])
    def test_created_other_than_ingest_form_exit_2(self, tmp_path, capsys, created):
        log = tmp_path / "b.log"
        log.write_text("gcc -c a.c\n")
        store = tmp_path / "store"
        assert run(["--store", str(store), "ingest", str(log), "--label", "rel",
                    "--build-id", "b1", f"--created={created}"]) == 2
        assert "YYYY-MM-DDTHH:MM:SSZ" in capsys.readouterr().err
        assert not store.exists()

    def test_only_ingest_writes(self, seeded_store, tmp_path):
        import hashlib
        from pathlib import Path

        def digest():
            h = hashlib.sha256()
            for p in sorted(Path(seeded_store).rglob("*")):
                if p.is_file():
                    h.update(p.read_bytes())
            return h.hexdigest()

        before = digest()
        run(["--store", seeded_store, "diff", "official-1", "dev-1"])
        run(["--store", seeded_store, "audit", "official-1"])
        run(["--store", seeded_store, "history", "official"])
        run(["--store", seeded_store, "query", "builds"])
        assert digest() == before


class TestRunState:
    def test_store_from_environment_is_read_per_command(self, tmp_path, monkeypatch, capsys):
        log = tmp_path / "b.log"
        log.write_text("gcc -c a.c\n")
        assert run(["--store", str(tmp_path / "given"), "ingest", str(log),
                    "--label", "dev", "--build-id", "b1"]) == 0
        monkeypatch.setenv("FLAGTRACE_STORE", str(tmp_path / "env"))
        assert run(["ingest", str(log), "--label", "dev", "--build-id", "b2"]) == 0
        capsys.readouterr()
        assert run(["--format", "json", "query", "builds"]) == 0
        assert [b["build_id"] for b in json.loads(capsys.readouterr().out)] == ["b2"]

    def test_consecutive_runs_share_no_arguments(self, tmp_path, capsys):
        mk = tmp_path / "Makefile"
        mk.write_text("MYFLAGS = -O2\nMYFLAG = -g\n")
        for vocab, names in [(["--vocab", "MYFLAGS"], ["MYFLAG"]), ([], ["MYFLAGS", "MYFLAG"]),
                             (["--vocab", "MYFLAG"], ["MYFLAGS"])]:
            assert run(["--format", "json", "lint", str(mk), *vocab]) == 4
            doc = json.loads(capsys.readouterr().out)
            assert sorted(f["name"] for f in doc["findings"]) == sorted(names)


class TestVerify:
    def test_clean_store_exit_0(self, seeded_store, capsys):
        assert run(["--store", seeded_store, "--format", "json", "verify"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"report_version": 1, "builds": [
            {"build_id": "official-1", "status": "ok", "error": None, "subjects": []},
            {"build_id": "dev-1", "status": "ok", "error": None, "subjects": []},
        ]}
        assert run(["--store", seeded_store, "verify", "dev-1"]) == 0
        assert capsys.readouterr().out == "ok       dev-1\n"

    def test_empty_store_exit_0(self, tmp_path, capsys):
        assert run(["--store", str(tmp_path / "none"), "verify"]) == 0
        assert capsys.readouterr().out == "no builds\n"

    def test_unknown_build_exit_3(self, seeded_store, capsys):
        assert run(["--store", seeded_store, "verify", "dev-1", "ghost"]) == 3
        assert "no snapshot with build id: ghost" in capsys.readouterr().err

    def test_unreadable_build_is_corrupt_and_the_rest_still_checked(self, seeded_store, capsys):
        from pathlib import Path
        from flagtrace.store import Store

        entry = Store(seeded_store).list_builds("official")[0]
        snap_file = Path(seeded_store) / entry.relpath
        snap_file.write_bytes(snap_file.read_bytes().replace(b"-O2", b"-O0", 1))
        assert run(["--store", seeded_store, "--format", "json", "verify"]) == 3
        official, dev = json.loads(capsys.readouterr().out)["builds"]
        assert official["status"] == "corrupt" and "snapshot hash mismatch" in official["error"]
        assert dev["status"] == "ok"
