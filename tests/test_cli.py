import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import flagtrace
from flagtrace.cli import run
from flagtrace.store import Store
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


class TestEvidencePath:
    @pytest.mark.parametrize("kind, name, write", [
        ("raw-log", "b.log", lambda p: p.write_text(OFFICIAL_LOG)),
        ("compdb", "cc.json", lambda p: p.write_text(json.dumps(
            [{"directory": "/w", "command": "gcc -O2 -c a.c -o a.o"}]))),
        ("spool", "spool", lambda p: (p.mkdir(), (p / "cc.jsonl").write_text(json.dumps(
            {"v": 1, "argv": ["gcc", "-O2", "-c", "a.c"], "cwd": "/w"}) + "\n"))),
        ("compdb", "cc.json", lambda p: p.write_text(json.dumps(
            [{"directory": "C:/w", "arguments": ["cl", "/O2", "/c", "b.c", "/Foobj\\"]},
             {"directory": "C:/w", "arguments": ["link", "obj\\b.obj", "/OUT:app.exe"]}]))),
    ], ids=["raw-log", "compdb", "spool", "compdb-msvc-object-directory"])
    def test_one_file_by_any_path_stores_one_hash(self, tmp_path, monkeypatch, capsys,
                                                  kind, name, write):
        """Provenance names the evidence by its absolute path, however it was given."""
        monkeypatch.chdir(tmp_path)
        write(tmp_path / name)
        hashes = set()
        for i, path in enumerate([name, f"./{name}", str(tmp_path / name)]):
            assert run(["--store", "store", "--format", "json", "ingest", path, "--kind", kind,
                        "--label", "dev", "--build-id", f"b{i}", "--created",
                        "2026-01-01T00:00:00Z"]) == 0
            hashes.add(json.loads(capsys.readouterr().out)["content_hash"])
        assert len(hashes) == 1
        source = Store("store").get("b0").tus[0].invocation.source
        assert source.split(":")[1].startswith(f"{Path.cwd()}/{name}")


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

    def test_audit_cites_response_file_defines_and_link_inputs(self, tmp_path, capsys):
        """R1 cites the later of two -DDEBUG and the first token of a split -D; R3 cites
        each of two equal -lfoo-1.2 entries by its own token."""
        (tmp_path / "dbg.rsp").write_text("-g -DDEBUG -D DEBUG_TRACING\n")
        (tmp_path / "libs.rsp").write_text("-L. -lbar-1.0 -lfoo-1.2\n")
        log = tmp_path / "rel.log"
        log.write_text("gcc -DDEBUG -O2 -fstack-protector @dbg.rsp -c a.c -o a.o\n"
                       "gcc a.o @libs.rsp -lfoo-1.3 -lfoo-1.2 -o app\n")
        store = str(tmp_path / "store")
        assert run(["--store", store, "ingest", str(log), "--label", "release",
                    "--build-id", "r1"]) == 0
        capsys.readouterr()
        assert run(["--store", store, "--format", "json", "audit", "r1"]) == 4
        findings = json.loads(capsys.readouterr().out)["findings"]
        evidence = {f["rule"]: f["evidence"] for f in findings}
        dbg, libs = tmp_path / "dbg.rsp", tmp_path / "libs.rsp"
        assert evidence["R1"] == [[f"log:{log}:1 via {dbg}#1", "-DDEBUG"],
                                  [f"log:{log}:1 via {dbg}#2", "-D DEBUG_TRACING"]]
        assert evidence["R3"] == [[f"log:{log}:2 via {libs}#2", "-lfoo-1.2"],
                                  [f"log:{log}:2", "-lfoo-1.3"], [f"log:{log}:2", "-lfoo-1.2"]]


class TestSourceCompiledTwice:
    """A source built as a static and a PIC object keeps both TUs, each named by its object."""

    def test_each_object_is_its_own_subject(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        for bid, opt in (("b1", "-O2"), ("b2", "-O3")):
            log = tmp_path / f"{bid}.log"
            log.write_text(f"gcc {opt} -c a.c -o a.o\ngcc -O0 -fPIC -c a.c -o a_pic.o\n"
                           "gcc -O2 -c b.c -o b.o\ngcc a.o b.o -o app\n")
            assert run(["--store", store, "ingest", str(log), "--label", "dev",
                        "--build-id", bid]) == 0
        capsys.readouterr()

        def json_of(*argv, code=0):
            assert run(["--store", store, "--format", "json", *argv]) == code
            return json.loads(capsys.readouterr().out)

        obj, pic = f"{tmp_path}/a.o", f"{tmp_path}/a_pic.o"
        assert list(json_of("diff", "b1", "b2", code=4)["per_tu_changes"]) == [obj]
        summaries = [row["summary"] for row in json_of("history", "dev", "--key", "opt_level")]
        assert summaries == [{obj: o, pic: "-O0", f"{tmp_path}/b.c": "-O2"} for o in ("-O2", "-O3")]
        effective = json_of("query", "effective", "--build", "b1", "--subject", obj)["effective"]
        assert '"-O2"' in effective
        assert json_of("query", "find", "--build", "b1", "--group", "opt_level",
                       "--value=-O0")["matches"] == [pic]
        assert json_of("audit", "b1")["findings"] == []

    def test_audit_names_each_object(self, tmp_path, capsys):
        """audit names each TU of the source by its object, in findings and in evidence,
        and query effective accepts every TU or target it names."""
        store = str(tmp_path / "store")
        log = tmp_path / "release.log"
        log.write_text("gcc -O2 -fno-stack-protector -DV=$(X) -c a.c -o a.o\n"
                       "gcc -O0 -fPIC -fno-stack-protector -DV=$(X) -c a.c -o a_pic.o\n"
                       "gcc -O2 -fstack-protector-strong -c b.c -o b.o\n"
                       "gcc a.o b.o -o app\ngcc a.o a_pic.o -o both\n")
        assert run(["--store", store, "ingest", str(log), "--label", "release",
                    "--build-id", "r1"]) == 0
        capsys.readouterr()
        assert run(["--store", store, "--format", "json", "audit", "r1"]) == 1
        findings = json.loads(capsys.readouterr().out)["findings"]

        obj, pic = f"{tmp_path}/a.o", f"{tmp_path}/a_pic.o"
        for rule in ("R4", "R8"):
            assert [f["subject"] for f in findings if f["rule"] == rule] == [obj, pic]
        [r2] = [f for f in findings if f["rule"] == "R2"]
        assert r2["subject"] == f"{tmp_path}/both"
        assert sorted(spelling.split(": ")[0] for _, spelling in r2["evidence"]) == [obj, pic]
        for subject in {f["subject"] for f in findings} - {"r1"}:
            assert run(["--store", store, "query", "effective", "--build", "r1",
                        "--subject", subject]) == 0, subject


class TestOutputLinkedTwice:
    """A build that links one output twice is read at its later link by diff and audit R7,
    and ingest says so."""

    R7_LOG = "gcc -c a.c -o a.o\ngcc -c b.c -o b.o\ngcc a.o b.o -o app\ngcc b.o a.o -o app\n"

    def _ingest(self, store, log, bid, capsys):
        assert run(["--store", store, "--format", "json", "ingest", str(log), "--label", "dev",
                    "--build-id", bid]) == 0
        out, err = capsys.readouterr()
        return json.loads(out)["content_hash"], err

    def test_r7_pairs_the_later_links(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        log = tmp_path / "r7.log"
        log.write_text(self.R7_LOG)
        assert self._ingest(store, log, "b1", capsys) == self._ingest(store, log, "b2", capsys)

        assert run(["--store", store, "--format", "json", "audit", "b2", "--previous", "b1"]) == 0
        assert json.loads(capsys.readouterr().out)["findings"] == []
        assert run(["--store", store, "diff", "b1", "b2"]) == 0

    def test_r7_flags_a_drifted_later_link(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        log1, log2 = tmp_path / "r7.log", tmp_path / "r7b.log"
        log1.write_text(self.R7_LOG)
        log2.write_text(self.R7_LOG.replace("gcc b.o a.o -o app", "gcc a.o b.o -o app"))
        self._ingest(store, log1, "b1", capsys)
        self._ingest(store, log2, "b2", capsys)

        assert run(["--store", store, "--format", "json", "audit", "b2", "--previous", "b1"]) == 4
        [r7] = json.loads(capsys.readouterr().out)["findings"]
        assert r7["rule"] == "R7" and r7["subject"] == f"{tmp_path}/app"
        assert [prov for prov, _ in r7["evidence"]] == [f"log:{log1}:4", f"log:{log2}:4"]

    def test_ingest_warns_once_per_output_linked_twice(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        twice, once = tmp_path / "twice.log", tmp_path / "once.log"
        twice.write_text("gcc -O2 -c a.c -o a.o\ngcc a.o -o app\ngcc -O2 a.o -o app\n")
        once.write_text("gcc -O2 -c a.c -o a.o\ngcc a.o -o app\n")

        _, err = self._ingest(store, twice, "b1", capsys)
        assert err == (f"warning: {tmp_path}/app is linked 2 times; diff, history, query, "
                       "stamp and audit R7 read its last link\n")
        assert self._ingest(store, once, "b2", capsys)[1] == ""


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

    @pytest.mark.parametrize("define", ["-DNDEBUG", "-DNAME=a\u2028b"], ids=["plain", "U+2028"])
    def test_digest_is_the_hash_of_the_query_effective_text(self, tmp_path, capsys, define):
        """The stamped digest is the sha256 of the text `query effective` prints, and
        read-stamp prints the stamped lines, though one holds a line break JSON leaves
        unescaped."""
        log, a = tmp_path / "b.log", str(tmp_path / "a.c")
        log.write_text(f"gcc -O2 {define} -c a.c -o a.o\n", encoding="utf-8")
        elf = build_minimal_elf(tmp_path / "a.o")

        def out(*argv):
            assert run(["--store", str(tmp_path / "store"), *argv]) == 0, argv
            return capsys.readouterr().out
        out("ingest", str(log), "--label", "ci", "--build-id", "b1")
        text = out("query", "effective", "--build", "b1", "--subject", a)
        out("stamp", elf, "b1", a)
        payload = json.loads(out("--format", "json", "read-stamp", elf))["payload"]
        assert payload["effective_digest"] == hashlib.sha256(text.encode()).hexdigest()
        flags = out("read-stamp", elf).split("\n")[3:-1]
        assert flags == [f"  {line}" for line in text.split("\n")[:-1]]


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


class TestProcess:
    """What only a process shows: argv decoded from its bytes, the exit status that
    `entry` raises, and stderr without a traceback."""

    def test_console_entry(self, tmp_path):
        env = {**os.environ, "PYTHONPATH": str(Path(flagtrace.__file__).parents[1])}

        def entry(*argv, stdin=b""):
            # a read that waits on a FIFO fails here instead of hanging the suite
            done = subprocess.run([sys.executable, "-c", "from flagtrace.cli import entry; entry()",
                                   *argv], cwd=tmp_path, env=env, input=stdin, capture_output=True, timeout=30)
            assert b"Traceback" not in done.stderr, argv
            return done.returncode, done.stdout

        log = "gcc -O2 -c a.c -o a.o\ngcc a.o -o app\n"
        (tmp_path / os.fsdecode(b"d\xff")).mkdir()
        for where in (tmp_path, tmp_path / os.fsdecode(b"d\xff")):
            (where / "b.log").write_text(log)

        def ingest(store, path, label="ci"):
            return entry("--store", store, "ingest", path, "--label", label, "--build-id", "b1")[0]
        assert ingest("s1", "b.log", label=b"x\xff") == 2
        assert ingest("s2", b"d\xff/b.log") == 3
        assert not (tmp_path / "s1").exists() and not (tmp_path / "s2").exists()
        assert ingest("store", "b.log") == 0
        assert entry("--store", "store", "verify")[0] == 0
        code, out = entry("--store", "store", "--format", "json", "query", "effective",
                          "--build", "b1", "--subject", "nope")
        doc = json.loads(out)
        assert code == 3 and list(doc) == ["error"] and type(doc["error"]) is str

        # a path the user names may be a pipe; a FIFO that evidence names is never opened
        code, out = entry("--store", "s3", "--format", "json", "ingest", "/dev/stdin", "--label", "ci",
                          "--build-id", "b1", stdin=b"gcc -O2 -c a.c -o a.o\n")
        assert code == 0 and json.loads(out)["tus"] == 1
        os.mkfifo(tmp_path / "x.rsp")
        (tmp_path / "rsp.log").write_text("gcc -O2 @x.rsp -c a.c -o a.o\n")
        assert ingest("s4", "rsp.log") == 3 and not (tmp_path / "s4").exists()
        os.mkfifo(tmp_path / "inc.mk")
        (tmp_path / "Makefile").write_text("include inc.mk\nCXFLAGS = -O2\n")
        assert entry("lint", "Makefile") == (4, b"Makefile:2: 'CXFLAGS' looks like a typo for 'CXXFLAGS' "
                                                b"(distance 1) and is never expanded\n")

    @pytest.mark.parametrize("seed", ["1", "2"])
    def test_reports_do_not_depend_on_hash_order(self, seed):
        """The diff and report-surface tests pass under another string-hash seed; they are
        run in a child process, as a seed is fixed when the interpreter starts."""
        root = Path(__file__).parents[1]
        done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                               "tests/test_diffengine.py", "tests/test_report_surface.py"],
                              cwd=root, env={**os.environ, "PYTHONHASHSEED": seed}, capture_output=True)
        assert done.returncode == 0, done.stdout.decode(errors="replace")[-2000:]


class _ClosedPipe(io.StringIO):
    def write(self, s):
        raise BrokenPipeError(32, "Broken pipe")


class TestStdoutWrite:
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_closed_stdout_exit_3(self, seeded_store, monkeypatch, capsys, fmt):
        """A report that cannot be written is an I/O error on stderr alone, not a traceback."""
        monkeypatch.setattr(sys, "stdout", _ClosedPipe())
        assert run(["--store", seeded_store, "--format", fmt, "query", "builds"]) == 3
        assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"


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

        entry = Store(seeded_store).list_builds("official")[0]
        snap_file = Path(seeded_store) / entry.relpath
        snap_file.write_bytes(snap_file.read_bytes().replace(b"-O2", b"-O0", 1))
        assert run(["--store", seeded_store, "--format", "json", "verify"]) == 3
        official, dev = json.loads(capsys.readouterr().out)["builds"]
        assert official["status"] == "corrupt" and "snapshot hash mismatch" in official["error"]
        assert dev["status"] == "ok"


class TestQuotedProgram:
    """The program is the first word less its quotes, and its dialect tokenizes the line once."""

    def _ingest(self, tmp_path, capsys, path, kind):
        store = str(tmp_path / "store")
        assert run(["--store", store, "--format", "json", "ingest", str(path), "--kind", kind,
                    "--label", "ci", "--build-id", "b1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["tus"], doc["skipped"]) == (1, 0)
        return store

    @pytest.mark.parametrize("line, source, opt", [
        ('"C:\\Program Files\\VC\\bin\\cl.exe" /O2 /c a.c\n', "a.c", "/O2"),
        ('"/opt/my tools/gcc" -O2 -c b.c -o b.o\n', "b.c", "-O2"),
    ], ids=["msvc", "gnu"])
    def test_raw_log_line_with_a_quoted_program_is_a_tu(self, tmp_path, capsys, line, source, opt):
        log = tmp_path / "build.log"
        log.write_text(line)
        store = self._ingest(tmp_path, capsys, log, "raw-log")
        assert run(["--store", store, "query", "find", "--build", "b1", "--group", "opt_level",
                    f"--value={opt}"]) == 0
        assert capsys.readouterr().out == f"{tmp_path / source}\n"

    def test_compdb_msvc_command_with_an_apostrophe_is_a_tu(self, tmp_path, capsys):
        db = tmp_path / "cc.json"
        db.write_text(json.dumps([{"directory": "/w", "command": "cl /O2 /c it's.c"}]))
        store = self._ingest(tmp_path, capsys, db, "compdb")
        assert run(["--store", store, "query", "find", "--build", "b1", "--group", "opt_level",
                    "--value=/O2"]) == 0
        assert capsys.readouterr().out == "/w/it's.c\n"


class TestLineAndWordBreaks:
    """Raw-log lines end at LF, CRLF or CR only, and words only where the tokenizers end them."""

    def _ingest(self, tmp_path, capsys, path, kind="raw-log"):
        store = str(tmp_path / "store")
        assert run(["--store", store, "--format", "json", "ingest", str(path), "--kind", kind,
                    "--label", "ci", "--build-id", "b1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        return Store(store).get("b1"), doc

    def test_other_line_breaks_stay_inside_their_line(self, tmp_path, capsys):
        log = tmp_path / "build.log"
        log.write_bytes("gcc\x0b-O2 -c a.c -o a.o\ngcc -O3 -c b.c\r\n"
                        "gcc -O1 -DX=\x0c\x1c\x85   -c c.c\rgcc -c d.c\n".encode())
        snap, doc = self._ingest(tmp_path, capsys, log)
        # line 1 runs the program "gcc\v-O2", which is no known tool
        assert doc["skipped"] == 0
        assert [(t.source_file, t.invocation.source) for t in snap.tus] == [
            (f"{tmp_path}/{name}", f"log:{log}:{lineno}")
            for lineno, name in ((2, "b.c"), (3, "c.c"), (4, "d.c"))
        ]

    @pytest.mark.parametrize("program", ["gcc", "cl"])
    def test_program_word_ends_where_the_tokenizer_ends_it(self, tmp_path, capsys, program):
        log = tmp_path / "build.log"
        log.write_text(f"{program}\xa0-O3 -c b.c\n{program} -c a.c\n", encoding="utf-8")
        snap, doc = self._ingest(tmp_path, capsys, log)
        assert (doc["tus"], doc["skipped"]) == (1, 0)
        assert snap.tus[0].invocation.source == f"log:{log}:2"

    def test_other_spaces_are_part_of_their_word(self, tmp_path, capsys):
        log = tmp_path / "build.log"
        log.write_text("\xa0gcc -O2 -c a.c\ngcc -c a.c -o a.o\n\xa0gcc -c b.c -o a.o\n"
                       "gcc -c c.c -DV=1\xa0\\", encoding="utf-8")
        snap, doc = self._ingest(tmp_path, capsys, log)
        # lines 1 and 3 run the program "\xa0gcc", which is no known tool
        assert (doc["tus"], doc["skipped"]) == (2, 0)
        assert [t.invocation.source for t in snap.tus] == [f"log:{log}:2", f"log:{log}:4"]
        assert snap.tus[1].effective.defines["V"].value == "V=1\xa0"

    def test_compdb_program_word_and_dialect_agree(self, tmp_path, capsys):
        db = tmp_path / "cc.json"
        db.write_text(json.dumps([{"directory": "/w", "command": "gcc\xa0-O3 -c b.c"}]))
        snap, doc = self._ingest(tmp_path, capsys, db, "compdb")
        assert (doc["tus"], doc["skipped"]) == (0, 1)
        assert snap.diagnostics[0]["program"] == "gcc\xa0-O3"
