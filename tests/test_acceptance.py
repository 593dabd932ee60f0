"""Acceptance gate: one test per criterion, each printing a pass line
and enforcing its runtime budget."""

import hashlib
import random
import struct
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from flagtrace import audit as audit_mod
from flagtrace import diffengine, elfnote, mklint
from flagtrace.cli import run
from flagtrace.cmdline import Dialect, Family, ToolKind, tokenize
from flagtrace.errors import CorruptSnapshot
from flagtrace.flagmodel import classify_all, resolve
from flagtrace.store import Store

import canonical_oracle
import elf_reader
from conftest import build_minimal_elf
from delta_oracle import apply_deltas
from test_ingest import log_snapshot
from test_mklint import brute_levenshtein

GNU = Dialect(Family.GNU_LIKE, ToolKind.COMPILER)


@contextmanager
def budget(name, seconds):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"{name}: {elapsed:.2f}s exceeds {seconds}s budget"
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.2f}s < {seconds}s)")


def test_criterion_1_makefile_fixture_corpus(redis_makefile, rocksdb_makefile, tmp_path):
    with budget("1 makefile-fixture lint", 1.0):
        assignments, expansions = [], set()
        for path in (redis_makefile, rocksdb_makefile):
            a, e = mklint.scan_makefile(path)
            assignments.extend(a)
            expansions.update(e)
        assert mklint.lint(assignments, expansions) == []

        injected = tmp_path / "Makefile.injected"
        injected.write_text(Path(redis_makefile).read_text() + "CXFLAGS = -O2\n")
        a2, e2 = mklint.scan_makefile(str(injected))
        findings = mklint.lint(a2, e2)
        assert len(findings) == 1
        f = findings[0]
        assert f.name == "CXFLAGS" and f.suggestion == "CXXFLAGS"
        assert f.distance == 1 == brute_levenshtein("CXFLAGS", "CXXFLAGS")


# One seeded-anomaly log and its clean twin, per rule. Every fixture
# carries link evidence so R3/R7 stay conclusive.
CLEAN = (
    "gcc -O2 -fstack-protector -DNDEBUG -c a.c -o a.o\n"
    "gcc -O2 -fstack-protector -DNDEBUG -c b.c -o b.o\n"
    "gcc a.o b.o -o app -lm\n"
)

ANOMALIES = {
    "R1": CLEAN.replace("-DNDEBUG -c a.c", "-DNDEBUG -DDEBUG_TRACING -c a.c"),
    "R2": CLEAN.replace("-O2 -fstack-protector -DNDEBUG -c b.c", "-O0 -fstack-protector -DNDEBUG -c b.c"),
    "R3": CLEAN.replace("-o app -lm", "libfoo-1.2.a libfoo-1.3.a -o app"),
    "R4": CLEAN.replace("-O2 -fstack-protector -DNDEBUG -c a.c", "-O2 -DNDEBUG -c a.c"),
    "R5": CLEAN.replace("-DNDEBUG -c a.c", "-DNDEBUG -fno-exceptions -c a.c"),
    "R7": CLEAN.replace("gcc a.o b.o -o app", "gcc b.o a.o -o app"),
    "R8": CLEAN.replace("-DNDEBUG -c a.c", "-DNDEBUG '$(EXTRA)' -c a.c"),
}


def test_criterion_2_scenario_audit_suite(tmp_path):
    with budget("2 audit-rule suite", 5.0):
        config = audit_mod.AuditConfig()
        for rule, text in ANOMALIES.items():
            base = tmp_path / rule
            base.mkdir()
            clean = log_snapshot(base, CLEAN, f"{rule}-clean", "release")
            seeded = log_snapshot(base, text, f"{rule}-bad", "release")
            previous = clean if rule == "R7" else None
            findings = audit_mod.run_audit(seeded, previous, config)
            assert [f.rule for f in findings] == [rule], (rule, findings)
            twin = audit_mod.run_audit(clean, clean if rule == "R7" else None, config)
            assert twin == [], (rule, twin)


FLAG_POOL = [
    "-O0", "-O1", "-O2", "-O3", "-Os", "-g", "-g0", "-g3",
    "-fexceptions", "-fno-exceptions", "-fstack-protector",
    "-fno-stack-protector", "-std=c++17", "-std=c11", "-march=native",
    "-DFOO", "-DFOO=1", "-DBAR=a", "-UFOO", "-Iinc", "-I/usr/include",
    "-lm", "-latomic", "-Wall", "-Wno-unused", "-Werror", "-fPIC",
    "-pthread", "a.c", "util.o", "libz.a",
]


def test_criterion_3_parsing_properties(tmp_path):
    with budget("3 parsing properties", 30.0):
        rng = random.Random(1234)
        rsp = tmp_path / "args.rsp"
        rsp.write_text("-O1 -DFROM_RSP\n")
        for i in range(1000):
            words = [rng.choice(FLAG_POOL) for _ in range(rng.randint(0, 12))]

            # tokenize round trip (no quote-requiring characters here)
            line = " ".join(words)
            tokens = tokenize(line, GNU)
            assert [t.text for t in tokens] == words
            rendered = " ".join(t.text for t in tokens)
            assert [t.text for t in tokenize(rendered, GNU)] == words

            # quoting: a space-bearing define survives as one token
            if i % 10 == 0:
                quoted = 'gcc -DMSG="a b" ' + line
                toks = [t.text for t in tokenize(quoted, GNU)]
                assert toks[:2] == ["gcc", "-DMSG=a b"]

            # response files expand in place
            if i % 10 == 5:
                from flagtrace.cmdline import expand_response_files
                with_rsp = tokenize("gcc @args.rsp " + line, GNU)
                expanded = expand_response_files(with_rsp, str(tmp_path), GNU)
                assert [t.text for t in expanded] == ["gcc", "-O1", "-DFROM_RSP"] + words

            entries = classify_all(tokens, GNU)
            resolved = resolve(entries)

            # last-wins oracle: linear scan keeping the final member per group
            expected = {}
            for e in entries:
                if e.group:
                    expected[e.group] = e.spelling
            assert {g: e.spelling for g, e in resolved.scalar_groups.items()} == expected

            # idempotence and decomposability
            assert resolve(canonical_oracle.entries(resolved)) == resolved
            cut = rng.randint(0, len(entries)) if entries else 0
            assert resolve(entries) == resolve(entries[:cut]).extend(entries[cut:])


def random_build_log(rng):
    lines = []
    objs = []
    for i in range(rng.randint(1, 4)):
        flags = " ".join(rng.choice(FLAG_POOL[:27]) for _ in range(rng.randint(0, 5)))
        lines.append(f"gcc {flags} -c src{i}.c -o src{i}.o")
        objs.append(f"src{i}.o")
    rng.shuffle(objs)
    lines.append("gcc " + " ".join(objs) + " -o app")
    return "\n".join(lines) + "\n"


def test_criterion_4_diff_properties(tmp_path):
    with budget("4 diff properties", 30.0):
        rng = random.Random(99)
        for i in range(200):
            a = log_snapshot(tmp_path, random_build_log(rng), f"da{i}", "x")
            b = log_snapshot(tmp_path, random_build_log(rng), f"db{i}", "x")
            assert diffengine.diff(a, a).is_empty()
            fwd = diffengine.diff(a, b)
            rev = diffengine.diff(b, a)
            assert sorted(fwd.added_tus) == sorted(rev.removed_tus)
            assert sorted(fwd.removed_tus) == sorted(rev.added_tus)
            for src, deltas in fwd.per_tu_changes.items():
                swapped = sorted((d.scope, str(d.name)) for d in deltas)
                assert swapped == sorted(
                    (d.scope, str(d.name)) for d in rev.per_tu_changes[src])
            tus_a, tus_b = a.by_subject("tu"), b.by_subject("tu")
            for src in set(tus_a) & set(tus_b):
                rebuilt = apply_deltas(
                    tus_a[src].effective, fwd.per_tu_changes.get(src, []))
                assert rebuilt == tus_b[src].effective


def test_criterion_5_store_round_trip(tmp_path):
    with budget("5 store round trip", 10.0):
        store_dir = tmp_path / "store"
        store = Store(str(store_dir))
        first = log_snapshot(tmp_path, CLEAN, "s0", "ci", "2026-01-01T00:00:00Z")
        store.put(first)
        assert store.get("s0").serialize() == first.serialize()

        def store_bytes():
            return {str(p): p.read_bytes()
                    for p in sorted(store_dir.rglob("*")) if p.is_file()}

        for i in range(1, 50):
            before = store_bytes()
            store.put(log_snapshot(tmp_path, CLEAN, f"s{i}", "ci",
                                   f"2026-01-01T00:{i:02d}:00Z"))
            after = store_bytes()
            for path, data in before.items():
                if path.endswith(("index.tsv",)):
                    assert after[path].startswith(data)  # append-only index
                else:
                    assert after[path] == data, path

        victim = next((store_dir / "snapshots").glob("*.fts"))
        blob = bytearray(victim.read_bytes())
        pos = blob.find(b"-O2")
        blob[pos] ^= 0x01
        victim.write_bytes(bytes(blob))
        with pytest.raises(CorruptSnapshot):
            for i in range(50):
                store.get(f"s{i}")


def test_criterion_6_elf_stamping(tmp_path):
    with budget("6 ELF stamping", 10.0):
        elf = build_minimal_elf(tmp_path / "app.o")
        before = elf_reader.read_sections(elf)
        text = "group opt_level -O2\n"
        payload = elfnote.NotePayload(
            "b1", "app", hashlib.sha256(text.encode()).hexdigest(), text)
        elfnote.stamp(elf, payload)
        assert elfnote.read_stamp(elf) == payload

        after = elf_reader.read_sections(elf)
        for name, (sh_type, content) in before.items():
            if name == ".shstrtab":
                assert after[name][1].startswith(content)
            else:
                assert after[name] == (sh_type, content), name

        # independent reader re-parses the stamped file
        notes = elf_reader.read_notes(elf, elfnote.NOTE_SECTION)
        assert notes == [("FLAGTRACE", elfnote.NOTE_TYPE, payload.to_bytes())]

        rng = random.Random(17)
        pad4 = lambda n: (n + 3) & ~3
        for _ in range(100):
            desc = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 2048)))
            note = elfnote._encode_note("FLAGTRACE", elfnote.NOTE_TYPE, desc)
            namesz, descsz, _ = struct.unpack_from("<III", note, 0)
            assert len(note) == 12 + pad4(namesz) + pad4(descsz)


OFFICIAL_LOG = (
    "gcc -O2 -fstack-protector -DNDEBUG -c core.c -o core.o\n"
    "gcc -O2 -fstack-protector -DNDEBUG -c util.c -o util.o\n"
    "gcc core.o util.o -o app -lm\n"
)
# dev differs from official in exactly one hardening flag and one define
DEV_LOG = (
    "gcc -O2 -DNDEBUG -DDEBUG_TRACING -c core.c -o core.o\n"
    "gcc -O2 -fstack-protector -DNDEBUG -c util.c -o util.o\n"
    "gcc core.o util.o -o app -lm\n"
)


def test_criterion_7_end_to_end_workflow(tmp_path, capsys):
    with budget("7 end-to-end workflow", 5.0):
        logs = tmp_path / "logs"
        logs.mkdir()
        store = str(tmp_path / "store")
        builds = [
            ("official-1", "official", OFFICIAL_LOG, "2026-01-01T00:00:00Z"),
            ("dev-1", "dev", DEV_LOG, "2026-01-02T00:00:00Z"),
            ("official-2", "official", OFFICIAL_LOG, "2026-01-03T00:00:00Z"),
            ("official-3", "official",
             OFFICIAL_LOG.replace("-O2", "-O0"), "2026-01-04T00:00:00Z"),
        ]
        for bid, label, text, created in builds:
            log = logs / f"{bid}.log"
            log.write_text(text)
            assert run(["--store", store, "ingest", str(log), "--label", label,
                        "--build-id", bid, "--created", created]) == 0
        capsys.readouterr()

        # diff official vs dev: exactly the hardening delta and the define delta
        report = diffengine.diff(Store(store).get("official-1"), Store(store).get("dev-1"))
        assert report.added_tus == [] and report.removed_tus == []
        (src, deltas), = report.per_tu_changes.items()
        assert src.endswith("core.c")
        assert sorted((d.scope, d.name) for d in deltas) == [
            ("define", "DEBUG_TRACING"), ("group", "stack_protector")]
        assert not report.per_target_changes

        # history over the three official builds: opt_level flips at official-3
        rows = Store(store).history("official", ("tu", "opt_level"))
        assert [b for b, _, _ in rows] == ["official-1", "official-2", "official-3"]
        assert [sorted(set(s.values())) for _, _, s in rows] == [["-O2"], ["-O2"], ["-O0"]]

        # audit exit-code mapping through the CLI
        assert run(["--store", store, "audit", "official-1"]) == 0
        assert run(["--store", store, "audit", "official-2",
                    "--previous", "official-1"]) == 0
        capsys.readouterr()
        # dev log audited under a release policy: missing hardening is an error
        cfg = tmp_path / "audit.conf"
        cfg.write_text("release_labels = dev\n")
        assert run(["--store", store, "--config", str(cfg), "audit", "dev-1"]) == 1
        # link-order permutation against the previous build: warning only
        perm = logs / "perm.log"
        perm.write_text(OFFICIAL_LOG.replace("gcc core.o util.o -o app",
                                             "gcc util.o core.o -o app"))
        assert run(["--store", store, "ingest", str(perm), "--label", "official",
                    "--build-id", "official-4", "--created",
                    "2026-01-05T00:00:00Z"]) == 0
        assert run(["--store", store, "audit", "official-4",
                    "--previous", "official-3"]) == 4
        capsys.readouterr()
