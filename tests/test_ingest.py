import hashlib
import json

import pytest

from flagtrace.cli import run
from flagtrace.cmdline import Family
from flagtrace.errors import DuplicateOutput, MalformedDb, MalformedRecord
from flagtrace.ingest import (
    EvidenceKind,
    EvidenceSource,
    assemble_snapshot,
    parse_compilation_db,
    parse_raw_log,
    parse_wrapper_spool,
)
from flagtrace.store import Store


# JSON nested past any interpreter's recursion limit.
DEEP_JSON = "[" * 100_000 + "]" * 100_000


def src_for(kind, path, build_id="b1", label="dev"):
    return EvidenceSource(kind, str(path), label, build_id)


def ingest_exit(tmp_path, evidence, kind):
    return run(["--store", str(tmp_path / "store"), "ingest", str(evidence), "--kind", kind,
                "--label", "dev", "--build-id", "b1"])


class TestParseRawLog:
    def test_single_invocation_among_noise(self, tmp_path):
        log = tmp_path / "build.log"
        log.write_text("gcc -O2 -c a.c\necho done\n")
        invs = parse_raw_log(str(log))
        assert len(invs) == 1
        assert invs[0].program == "gcc"
        assert [t.text for t in invs[0].tokens] == ["-O2", "-c", "a.c"]
        assert invs[0].source.endswith(":1")

    def test_backslash_continuation(self, tmp_path):
        log = tmp_path / "build.log"
        log.write_text("gcc -c a.c \\\n-O2\n")
        invs = parse_raw_log(str(log))
        assert len(invs) == 1
        assert len(invs[0].tokens) == 3  # -c a.c -O2; four tokens incl. program

    def test_msvc_line(self, tmp_path):
        log = tmp_path / "build.log"
        log.write_text("cl /GS /O2 foo.cxx\n")
        invs = parse_raw_log(str(log))
        assert len(invs) == 1
        assert invs[0].dialect.family is Family.MSVC

    def test_empty_log_is_not_an_error(self, tmp_path):
        log = tmp_path / "build.log"
        log.write_text("make: nothing to do\n")
        assert parse_raw_log(str(log)) == []


class TestParseCompilationDb:
    def test_arguments_form(self, tmp_path):
        db = tmp_path / "compile_commands.json"
        db.write_text(json.dumps([
            {"directory": "/src", "file": "a.c", "arguments": ["gcc", "-c", "a.c"]},
        ]))
        invs = parse_compilation_db(str(db))
        assert len(invs) == 1
        assert invs[0].cwd == "/src"
        assert [t.text for t in invs[0].tokens] == ["-c", "a.c"]

    def test_command_form_quoting(self, tmp_path):
        db = tmp_path / "cc.json"
        db.write_text(json.dumps([
            {"directory": "/src", "file": "a.c", "command": 'gcc -DMSG="a b" -c a.c'},
        ]))
        invs = parse_compilation_db(str(db))
        assert [t.text for t in invs[0].tokens] == ["-DMSG=a b", "-c", "a.c"]

    def test_empty_array(self, tmp_path):
        db = tmp_path / "cc.json"
        db.write_text("[]")
        assert parse_compilation_db(str(db)) == []

    def test_rejects_entry_without_command_or_arguments(self, tmp_path):
        db = tmp_path / "cc.json"
        db.write_text(json.dumps([{"directory": "/src", "file": "a.c"}]))
        with pytest.raises(MalformedDb) as exc:
            parse_compilation_db(str(db))
        assert exc.value.index == 0

    @pytest.mark.parametrize("field, value", [
        ("directory", 5), ("directory", None), ("file", ["a.c"]), ("command", 7),
        ("arguments", "gcc -c a.c"), ("arguments", [5, "-c", "a.c"]),
        ("arguments", ["gcc", None]), ("arguments", []), ("arguments", {"gcc": 1}),
    ])
    def test_rejects_field_of_wrong_type(self, tmp_path, field, value):
        entry = {"directory": "/src", "file": "a.c", "arguments": ["gcc", "-c", "a.c"]}
        entry[field] = value
        db = tmp_path / "cc.json"
        db.write_text(json.dumps([{"directory": "/src", "file": "b.c", "command": "gcc -c b.c"},
                                  entry]))
        with pytest.raises(MalformedDb) as exc:
            parse_compilation_db(str(db))
        assert exc.value.index == 1

    def test_deep_nesting_exit_3(self, tmp_path, capsys):
        db = tmp_path / "cc.json"
        db.write_text(DEEP_JSON)
        assert ingest_exit(tmp_path, db, "compdb") == 3
        assert "malformed compilation database" in capsys.readouterr().err


    @pytest.mark.parametrize("define, code", [("X=\ud800", 3), ("X=\U0001f600", 0)],
                             ids=["lone-surrogate", "surrogate-pair"])
    def test_lone_surrogate_escape_exit_3(self, tmp_path, capsys, define, code):
        db = tmp_path / "cc.json"
        db.write_text(json.dumps([{"directory": "/w", "file": "a.c",
                                   "arguments": ["gcc", f"-D{define}", "-c", "a.c"]}]))
        assert ingest_exit(tmp_path, db, "compdb") == code
        assert ("malformed compilation database" in capsys.readouterr().err) == (code == 3)


class TestParseWrapperSpool:
    def test_single_record(self, tmp_path):
        spool = tmp_path / "spool"
        spool.mkdir()
        (spool / "rec.jsonl").write_text(json.dumps(
            {"v": 1, "argv": ["cl", "/O2", "a.cxx"], "cwd": "C:\\src",
             "ts": "2026-01-01T00:00:00Z", "tool": "cl"}) + "\n")
        invs = parse_wrapper_spool(str(spool))
        assert len(invs) == 1
        assert invs[0].dialect.family is Family.MSVC

    def test_sorted_by_timestamp_across_files(self, tmp_path):
        spool = tmp_path / "spool"
        spool.mkdir()
        (spool / "z.jsonl").write_text(json.dumps(
            {"v": 1, "argv": ["gcc", "-c", "first.c"], "cwd": "/s",
             "ts": "2026-01-01T00:00:01Z", "tool": "gcc"}) + "\n")
        (spool / "a.jsonl").write_text(json.dumps(
            {"v": 1, "argv": ["gcc", "-c", "second.c"], "cwd": "/s",
             "ts": "2026-01-01T00:00:02Z", "tool": "gcc"}) + "\n")
        invs = parse_wrapper_spool(str(spool))
        got = [t.text for inv in invs for t in inv.tokens if t.text.endswith(".c")]
        assert got == ["first.c", "second.c"]

    def test_empty_dir(self, tmp_path):
        spool = tmp_path / "spool"
        spool.mkdir()
        assert parse_wrapper_spool(str(spool)) == []

    def test_malformed_record(self, tmp_path):
        spool = tmp_path / "spool"
        spool.mkdir()
        (spool / "bad.jsonl").write_text("{not json\n")
        with pytest.raises(MalformedRecord):
            parse_wrapper_spool(str(spool))

    @pytest.mark.parametrize("version", [None, 99, 0, "1", 1.0, True],
                             ids=["missing", "99", "0", "string", "float", "bool"])
    def test_schema_version_checked(self, tmp_path, version):
        spool = tmp_path / "spool"
        spool.mkdir()
        rec = {"argv": ["gcc", "-c", "a.c"], "cwd": "/s", "ts": "2026-01-01T00:00:00Z"}
        if version is not None:
            rec["v"] = version
        (spool / "rec.jsonl").write_text(json.dumps(rec) + "\n")
        with pytest.raises(MalformedRecord, match="unsupported version"):
            parse_wrapper_spool(str(spool))

    @pytest.mark.parametrize("field, value", [
        ("argv", "gcc -c a.c"), ("argv", [5, "-c", "a.c"]), ("argv", ["gcc", None]),
        ("argv", {"gcc": 1}), ("cwd", 5), ("cwd", None), ("tool", 1), ("tool", None),
        ("ts", 20260101), ("ts", ["2026"]),
    ])
    def test_rejects_field_of_wrong_type(self, tmp_path, field, value):
        rec = {"v": 1, "argv": ["gcc", "-c", "a.c"], "cwd": "/s",
               "ts": "2026-01-01T00:00:00Z", "tool": "gcc"}
        rec[field] = value
        spool = tmp_path / "spool"
        spool.mkdir()
        (spool / "rec.jsonl").write_text(json.dumps(rec) + "\n")
        with pytest.raises(MalformedRecord) as exc:
            parse_wrapper_spool(str(spool))
        assert exc.value.line == 1

    def test_deep_nesting_exit_3(self, tmp_path, capsys):
        spool = tmp_path / "spool"
        spool.mkdir()
        (spool / "rec.jsonl").write_text(DEEP_JSON + "\n")
        assert ingest_exit(tmp_path, spool, "spool") == 3
        assert "malformed wrapper record" in capsys.readouterr().err


    def test_lone_surrogate_escape_exit_3(self, tmp_path, capsys):
        spool = tmp_path / "spool"
        spool.mkdir()
        (spool / "rec.jsonl").write_text(json.dumps(
            {"v": 1, "argv": ["gcc", "-c", "a\udc80.c"], "cwd": "/s",
             "ts": "2026-01-01T00:00:00Z", "tool": "gcc"}) + "\n")
        assert ingest_exit(tmp_path, spool, "spool") == 3
        assert "malformed wrapper record" in capsys.readouterr().err


def log_snapshot(tmp_path, text, build_id="b1", label="dev", created="2026-01-01T00:00:00Z"):
    log = tmp_path / f"{build_id}.log"
    log.write_text(text)
    source = src_for(EvidenceKind.RAW_LOG, log, build_id, label)
    return assemble_snapshot(parse_raw_log(str(log)), source, created=created)


class TestAssembleSnapshot:
    def test_tu_and_target_with_membership(self, tmp_path):
        snap = log_snapshot(tmp_path, "gcc -c a.c -o a.o\ngcc a.o -o app\n")
        assert len(snap.tus) == 1 and len(snap.targets) == 1
        assert snap.targets[0].member_tus == [snap.tus[0].source_file]
        assert snap.targets[0].external_inputs == []

    def test_empty(self, tmp_path):
        snap = log_snapshot(tmp_path, "echo hi\n")
        assert snap.tus == [] and snap.targets == []
        other = log_snapshot(tmp_path, "echo nothing\n", "b2")
        assert snap.serialize().split(b"\n")[1:] == other.serialize().split(b"\n")[1:]
        assert snap.content_hash == other.content_hash == hashlib.sha256(b"").hexdigest()

    def test_deterministic_hash(self, tmp_path):
        text = "gcc -c a.c -o a.o\ngcc -c b.c -o b.o\ngcc a.o b.o -o app -lm\n"
        s1 = log_snapshot(tmp_path, text, "x1")
        s2 = log_snapshot(tmp_path, text, "x1")
        assert s1.serialize() == s2.serialize()
        assert s1.content_hash == s2.content_hash

    def test_duplicate_output(self, tmp_path):
        with pytest.raises(DuplicateOutput):
            log_snapshot(tmp_path, "gcc -c a.c -o a.o\ngcc -c b.c -o a.o\n")

    def test_external_inputs_flagged(self, tmp_path):
        snap = log_snapshot(tmp_path, "gcc vendor.o -o app\n")
        assert snap.targets[0].external_inputs == snap.targets[0].inputs

    def test_nothing_dropped_silently(self, tmp_path):
        log = tmp_path / "b.log"
        log.write_text("gcc -c a.c\ngcc a.o -o app\nar rcs libx.a a.o\n")
        source = src_for(EvidenceKind.RAW_LOG, log)
        invs = parse_raw_log(str(log))
        snap = assemble_snapshot(invs, source)
        assert len(invs) == len(snap.tus) + len(snap.targets) + len(snap.diagnostics)

    def test_garbled_log_line_is_a_diagnostic(self, tmp_path, capsys):
        log = tmp_path / "b.log"
        log.write_text('gcc -c "a.c\ngcc -O2 -c b.c\n')
        store = tmp_path / "store"
        assert run(["--store", str(store), "--format", "json", "ingest", str(log),
                    "--label", "dev", "--build-id", "b1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["tus"], doc["skipped"]) == (1, 1)
        assert Store(str(store)).get("b1").diagnostics == [
            {"source": f"log:{log}:1", "program": "gcc",
             "reason": "unterminated quote at position 7"}]

    def test_denormalized_effective_revalidates(self, tmp_path):
        from flagtrace.snapshot import BuildSnapshot
        snap = log_snapshot(tmp_path, "gcc -O2 -c a.c -o a.o\ngcc a.o -o app\n")
        again = BuildSnapshot.deserialize(snap.serialize())
        assert again.serialize() == snap.serialize()
