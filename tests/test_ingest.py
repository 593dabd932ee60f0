import codecs
import hashlib
import json
import os

import pytest

from flagtrace.cli import run
from flagtrace.cmdline import Family, Origin
from flagtrace.errors import DuplicateOutput, MalformedDb, MalformedRecord
from flagtrace.ingest import (
    assemble_snapshot,
    parse_compilation_db,
    parse_raw_log,
    parse_wrapper_spool,
)
from flagtrace.store import Store


# JSON nested past any interpreter's recursion limit.
DEEP_JSON = "[" * 100_000 + "]" * 100_000


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
        assert invs[0].tokens == ("-O2", "-c", "a.c")
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
        assert invs[0].tokens == ("-c", "a.c")

    def test_command_form_quoting(self, tmp_path):
        db = tmp_path / "cc.json"
        db.write_text(json.dumps([
            {"directory": "/src", "file": "a.c", "command": 'gcc -DMSG="a b" -c a.c'},
        ]))
        invs = parse_compilation_db(str(db))
        assert invs[0].tokens == ("-DMSG=a b", "-c", "a.c")

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

    def test_blank_command_is_empty(self, tmp_path, capsys):
        db = tmp_path / "cc.json"
        db.write_text(json.dumps([{"directory": "/src", "file": "a.c", "command": "gcc -c a.c"},
                                  {"directory": "/src", "file": "b.c", "command": " \t "}]))
        with pytest.raises(MalformedDb, match="empty command") as exc:
            parse_compilation_db(str(db))
        assert exc.value.index == 1
        assert ingest_exit(tmp_path, db, "compdb") == 3
        assert capsys.readouterr().err == (
            "error: malformed compilation database (entry 1): empty command\n")
        assert not (tmp_path / "store").exists()

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

    def test_blank_lines_are_passed_over(self, tmp_path, capsys):
        spool = tmp_path / "spool"
        spool.mkdir()
        rec = {"v": 1, "cwd": "/s", "ts": "2026-01-01T00:00:00Z", "tool": "gcc"}
        (spool / "rec.jsonl").write_text("\n".join([
            json.dumps({**rec, "argv": ["gcc", "-c", "a.c"]}), "", "  ",
            json.dumps({**rec, "argv": ["gcc", "-c", "b.c"]}), ""]))
        assert ingest_exit(tmp_path, spool, "spool") == 0
        assert "2 TUs" in capsys.readouterr().out

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
        got = [t for inv in invs for t in inv.tokens if t.endswith(".c")]
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


def _write_evidence(root, kind, argv):
    """Evidence of `kind` in directory `root` holding one command, `argv`, run in `root`;
    returns its path and its --kind. "compdb-command" and "compdb-arguments" name the
    two compile-database forms."""
    if kind == "raw-log":
        (root / "b.log").write_text(" ".join(argv) + "\n")
        return root / "b.log", "raw-log"
    if kind.startswith("compdb-"):
        form = kind.removeprefix("compdb-")
        entry = {"directory": str(root), "file": "a.c",
                 form: " ".join(argv) if form == "command" else argv}
        (root / "cc.json").write_text(json.dumps([entry]))
        return root / "cc.json", "compdb"
    (root / "spool").mkdir()
    (root / "spool" / "1.jsonl").write_text(json.dumps(
        {"v": 1, "argv": argv, "cwd": str(root), "ts": "2026-01-01T00:00:00Z"}) + "\n")
    return root / "spool", "spool"


class TestRelativeDirectory:
    """A compdb `directory` or spool `cwd` that is not absolute is the evidence file's
    directory joined with it, whatever the working directory of the ingest."""

    @pytest.mark.parametrize("kind, name", [("compdb", "cc.json"), ("spool", ".")])
    def test_one_database_from_two_directories_stores_one_hash(self, tmp_path, monkeypatch, capsys,
                                                               kind, name):
        db = tmp_path / "db"
        (db / "sub").mkdir(parents=True)
        (tmp_path / "sibling").mkdir()
        (db / "sub" / "opts.rsp").write_text("-O2\n")
        if kind == "compdb":
            (db / name).write_text(json.dumps([{"directory": "sub", "command": "gcc @opts.rsp -c a.c -o a.o"}]))
        else:
            (db / "cc.jsonl").write_text(json.dumps(
                {"v": 1, "argv": ["gcc", "@opts.rsp", "-c", "a.c", "-o", "a.o"], "cwd": "sub"}) + "\n")
        hashes = set()
        for i, (where, path) in enumerate([(db, name), (tmp_path / "sibling", f"../db/{name}")]):
            monkeypatch.chdir(where)
            assert run(["--store", str(tmp_path / "store"), "--format", "json", "ingest", path,
                        "--kind", kind, "--label", "dev", "--build-id", f"b{i}",
                        "--created", "2026-01-01T00:00:00Z"]) == 0
            hashes.add(json.loads(capsys.readouterr().out)["content_hash"])
        assert len(hashes) == 1
        tu = Store(str(tmp_path / "store")).get("b0").tus[0]
        assert tu.source_file == str(db / "sub" / "a.c")
        assert tu.invocation.origins[0] == Origin(str(db / "sub" / "opts.rsp"), 0)

    @pytest.mark.parametrize("entry, cwd", [
        ({"directory": "/src"}, "/src"),
        ({"directory": "C:\\proj"}, "C:\\proj"),
        ({"directory": "\\\\srv\\w"}, "\\\\srv\\w"),
        ({"directory": "sub/../x"}, "{db}/x"),
        ({"directory": ""}, "{db}"),
        ({}, "{db}"),
    ], ids=["posix", "drive", "unc", "relative", "empty", "absent"])
    def test_absolute_by_the_path_rule_else_joined(self, tmp_path, entry, cwd):
        """Absolute by `normalize_path`'s rule, on any host, is kept as it is given."""
        db = tmp_path / "cc.json"
        db.write_text(json.dumps([{**entry, "arguments": ["gcc", "-c", "a.c"]}]))
        assert parse_compilation_db(str(db))[0].cwd == cwd.format(db=tmp_path)


class TestBadResponseFile:
    """A response file that cannot be read fails the ingest of every evidence kind with
    exit 3 and its error, and stores nothing: unlike a garbled log line, it is not skipped."""

    @pytest.mark.parametrize("kind", ["raw-log", "compdb-command", "compdb-arguments", "spool"])
    @pytest.mark.parametrize("fault", ["unterminated-quote", "missing", "includes-itself", "directory",
                                       "device"])
    def test_ingest_exits_3_and_stores_nothing(self, tmp_path, capsys, kind, fault):
        """Only a regular file is read: a directory or a device is a response file not found."""
        rsp, word = tmp_path / "opts.rsp", "@opts.rsp"
        if fault == "unterminated-quote":
            rsp.write_text('-O2 "-DX=1\n')
            error = "unterminated quote at position 4"
        elif fault == "includes-itself":
            rsp.write_text("-O2 @opts.rsp\n")
            error = f"response file cycle: {rsp} -> {rsp}"
        else:
            if fault == "directory":
                rsp.mkdir()
            elif fault == "device":
                rsp, word = os.devnull, "@" + os.devnull
            error = f"response file not found: {rsp}"
        evidence, kind = _write_evidence(tmp_path, kind, ["gcc", word, "-c", "a.c", "-o", "a.o"])
        assert ingest_exit(tmp_path, evidence, kind) == 3
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {error}\n")
        assert not (tmp_path / "store").exists()


class TestTextThatIsNotUtf8:
    """A build id, label or evidence path that is not UTF-8 (argv and os.listdir decode its
    bytes to lone surrogates) ends `ingest` with an error and no traceback, and the store is
    not created: exit 2 for a build id or label, exit 3 for a path."""

    LOG = "gcc -O2 -c a.c -o a.o\ngcc a.o -o app\n"

    @pytest.mark.parametrize("option", ["--label", "--build-id"])
    def test_build_id_or_label_exit_2(self, tmp_path, capsys, option):
        (tmp_path / "b.log").write_text(self.LOG)
        argv = {"--label": "dev", "--build-id": "b1", option: os.fsdecode(b"x\xff")}
        assert run(["--store", str(tmp_path / "store"), "ingest", str(tmp_path / "b.log"),
                    *(word for item in argv.items() for word in item)]) == 2
        assert "must be UTF-8 text" in capsys.readouterr().err
        assert not (tmp_path / "store").exists()

    @pytest.mark.parametrize("where", ["log-name", "log-directory", "spool-file-name"])
    def test_path_exit_3(self, tmp_path, capsys, where):
        odd = os.fsdecode(b"r\xff")
        if where == "log-name":
            evidence, kind = tmp_path / f"{odd}.log", "raw-log"
            evidence.write_text(self.LOG)
        elif where == "log-directory":
            (tmp_path / odd).mkdir()
            evidence, kind = tmp_path / odd / "b.log", "raw-log"
            evidence.write_text(self.LOG)
        else:
            evidence, kind = tmp_path / "spool", "spool"
            evidence.mkdir()
            (evidence / f"{odd}.jsonl").write_text(json.dumps(
                {"v": 1, "argv": ["gcc", "-c", "a.c"], "cwd": "/w"}) + "\n")
        assert ingest_exit(tmp_path, evidence, kind) == 3
        assert capsys.readouterr().err.startswith("error: not UTF-8, cannot be stored: ")
        assert not (tmp_path / "store").exists()


_BOMS = {"utf-8": codecs.BOM_UTF8, "utf-16-le": codecs.BOM_UTF16_LE, "utf-16-be": codecs.BOM_UTF16_BE}
_KINDS = ["raw-log", "compdb-command", "compdb-arguments", "spool"]


def _with_bom(encoding: str, text: str) -> bytes:
    """`text` in `encoding` after its byte-order mark; UTF-16 with CRLF line ends, as
    Windows PowerShell's `>` writes it."""
    if encoding != "utf-8":
        text = text.replace("\n", "\r\n")
    return _BOMS[encoding] + text.encode(encoding)


class TestByteOrderMark:
    """A byte-order mark, which Windows tools often write first, is no part of an evidence
    file's first word: each kind, and a response file, reads as it does without one. After
    a UTF-16 mark, little- or big-endian, the file is read as UTF-16."""

    @pytest.mark.parametrize("kind, encoding", [(k, e) for e in _BOMS for k in _KINDS],
                             ids=[k if e == "utf-8" else f"{k}-{e}" for e in _BOMS for k in _KINDS])
    def test_evidence_starting_with_one_ingests(self, tmp_path, capsys, kind, encoding):
        evidence, kind = _write_evidence(tmp_path, kind, ["gcc", "-O2", "-c", "a.c", "-o", "a.o"])
        first = evidence / "1.jsonl" if kind == "spool" else evidence
        first.write_bytes(_with_bom(encoding, first.read_text()))
        assert ingest_exit(tmp_path, evidence, kind) == 0
        assert ": 1 TUs, " in capsys.readouterr().out

    def test_response_file_starting_with_one_keeps_its_first_flag(self, tmp_path, capsys):
        for encoding in _BOMS:
            root = tmp_path / encoding
            root.mkdir()
            (root / "o.rsp").write_bytes(_with_bom(encoding, "-fno-stack-protector\n"))
            (root / "b.log").write_text("gcc -O2 -fstack-protector-strong @o.rsp -c a.c -o a.o\n")
            store = str(root / "store")
            assert run(["--store", store, "ingest", str(root / "b.log"), "--label", "release",
                        "--build-id", "r1"]) == 0
            capsys.readouterr()
            assert run(["--store", store, "audit", "r1"]) == 1, encoding
            out = capsys.readouterr().out
            assert "R4 [error]" in out and f"via {root / 'o.rsp'}#0: -fno-stack-protector\n" in out


def log_snapshot(tmp_path, text, build_id="b1", label="dev", created="2026-01-01T00:00:00Z"):
    log = tmp_path / f"{build_id}.log"
    log.write_text(text)
    return assemble_snapshot(parse_raw_log(str(log)), build_id, label, created=created)


def stored_targets(snap) -> list[dict]:
    """The link-target lines of the snapshot as written, decoded."""
    lines = [json.loads(line) for line in snap.serialize().split(b"\n")[1:] if line]
    return [d for d in lines if d["kind"] == "target"]


class TestAssembleSnapshot:
    def test_tu_and_target_with_membership(self, tmp_path):
        snap = log_snapshot(tmp_path, "gcc -c a.c -o a.o\ngcc a.o -o app\n")
        assert len(snap.tus) == 1 and len(snap.targets) == 1
        [target] = stored_targets(snap)
        assert target["member_tus"] == [snap.tus[0].source_file]
        assert target["external_inputs"] == []

    def test_membership_of_a_link_line_before_its_compiles(self, tmp_path):
        """Members are the sources of the TUs whose objects the target links, in link
        order, wherever the compile lines stand: a source compiled twice is listed once
        per object linked, and a library or an object with no TU is external."""
        snap = log_snapshot(tmp_path, "gcc a.o a_pic.o b.o vendor.o -lm -o app\n"
                                      "gcc -c a.c -o a.o\ngcc -fPIC -c a.c -o a_pic.o\n"
                                      "gcc -c b.c -o b.o\n")
        [target] = stored_targets(snap)
        a, b = str(tmp_path / "a.c"), str(tmp_path / "b.c")
        assert target["member_tus"] == [a, a, b]
        assert target["external_inputs"] == [str(tmp_path / "vendor.o"), "m"]

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

    def test_msvc_output_directory(self, tmp_path):
        # MSBuild passes /Fo a directory: each source's object goes into it.
        db = tmp_path / "compile_commands.json"
        db.write_text(json.dumps([
            {"directory": "C:/w", "file": "a.c", "arguments": ["cl", "/c", "a.c", "/Foobj\\"]},
            {"directory": "C:/w", "file": "b.c", "arguments": ["cl", "/c", "b.c", "/Foobj\\"]},
            {"directory": "C:/w", "arguments": ["link", "obj\\a.obj", "obj\\b.obj", "/OUT:app.exe"]},
        ]))
        snap = assemble_snapshot(parse_compilation_db(str(db)), "b1", "dev")
        assert [t.output_file for t in snap.tus] == ["C:/w/obj/a.obj", "C:/w/obj/b.obj"]
        [target] = stored_targets(snap)
        assert target["member_tus"] == ["C:/w/a.c", "C:/w/b.c"]
        assert target["external_inputs"] == []

    def test_gnu_output_ending_in_a_separator_is_a_file(self, tmp_path):
        snap = log_snapshot(tmp_path, "gcc -c a.c -o out/\n")
        assert snap.tus[0].output_file == str(tmp_path / "out")
        with pytest.raises(DuplicateOutput):
            log_snapshot(tmp_path, "gcc -c a.c -o out/\ngcc -c b.c -o out/\n")

    def test_external_inputs_flagged(self, tmp_path):
        snap = log_snapshot(tmp_path, "gcc vendor.o -o app\n")
        [target] = stored_targets(snap)
        assert target["external_inputs"] == target["inputs"] == [str(tmp_path / "vendor.o")]
        assert target["member_tus"] == []

    def test_nothing_dropped_silently(self, tmp_path):
        log = tmp_path / "b.log"
        log.write_text("gcc -c a.c\ngcc a.o -o app\nar rcs libx.a a.o\n")
        invs = parse_raw_log(str(log))
        snap = assemble_snapshot(invs, "b1", "dev")
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

    def test_reads_no_file(self, tmp_path):
        """Parsing expands response files; assembling takes the tokens as they are."""
        rsp = tmp_path / "opts.rsp"
        rsp.write_text("-O2 -DUSE_X\n")
        log = tmp_path / "b.log"
        log.write_text("gcc @opts.rsp -c a.c -o a.o\ngcc a.o -o app\n")
        expected = assemble_snapshot(parse_raw_log(str(log)), "b1", "dev", "2026-01-01T00:00:00Z")
        invocations = parse_raw_log(str(log))
        rsp.unlink()
        snap = assemble_snapshot(invocations, "b1", "dev", "2026-01-01T00:00:00Z")
        assert snap.serialize() == expected.serialize()
        assert snap.tus[0].invocation.origins[:3] == (Origin(str(rsp), 0), Origin(str(rsp), 1), None)

    def test_denormalized_effective_revalidates(self, tmp_path):
        from flagtrace.snapshot import BuildSnapshot
        snap = log_snapshot(tmp_path, "gcc -O2 -c a.c -o a.o\ngcc a.o -o app\n")
        again = BuildSnapshot.deserialize(snap.serialize())
        assert again.serialize() == snap.serialize()
