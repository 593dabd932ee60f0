"""Every report command's output and exit code, pinned byte for byte.

A small store is built from compile databases through `cli.run`, and a
fixed list of commands runs against it, once in text and once in JSON.
The transcript of each run (exit codes, stdout and stderr) is compared with tests/data/report-surface.<fmt>.
Inputs are named by paths relative to the working directory, so the
stored snapshots, their content hashes and every report are the same
wherever the test runs.

The commands cover what the other CLI tests do not render: diff lines
for added, removed and changed targets and TUs, drive-letter alias
notes in both directions, a target whose only change is its inputs,
history of a macro name, a read-stamp of an ELF with no note, audit
configs with comments, blank lines and hardening_required, each
ConfigError branch, and R3 and R7 inconclusive findings.
"""

import hashlib
import json
from pathlib import Path

import pytest

from flagtrace.cli import run
from conftest import build_minimal_elf

DATA = Path(__file__).parent / "data"

# build id -> (label, created, [(directory, command), ...])
BUILDS = {
    "rel-1": ("release", "2026-01-01T00:00:00Z", [
        ("/w", "gcc -O2 -fstack-protector -DNDEBUG -Iinc -Isys -c core.c -o core.o"),
        ("/w", "gcc -O2 -DNDEBUG -c util.c -o util.o"),
        ("/w", "gcc -O2 -DNDEBUG -c C:/src/win.c -o win.o"),
        ("/w", "gcc -O2 -DNDEBUG -c gone.c -o gone.o"),
        ("/w", "gcc core.o util.o win.o -o app -lz -lm"),
        ("/w", "gcc gone.o -o old-tool"),
        ("/w1", "gcc a.o -o /out/libx.so"),
    ]),
    "rel-2": ("release", "2026-01-02T00:00:00Z", [
        ("/w", "gcc -O3 -fno-stack-protector -DNDEBUG -DDEBUG -Isys -Iinc -c core.c -o core.o"),
        ("/w", "gcc -O2 -DNDEBUG -fno-exceptions -fweird -DV=$(VERSION) -c util.c -o util.o"),
        ("/w", "gcc -O2 -DNDEBUG -c /src/win.c -o win.o"),
        ("/w", "gcc -O2 -c new.c -o new.o"),
        ("/w", "gcc util.o core.o win.o -o app -lm -lz -lssl-1.1 -lssl-3"),
        ("/w", "gcc new.o -o new-tool"),
        ("/w2", "gcc a.o -o /out/libx.so"),
    ]),
    "dev-1": ("dev", "2026-01-03T00:00:00Z", [
        ("/w", "gcc -O0 -g -c core.c -o core.o"),
    ]),
}

CONFIGS = {
    "ok.conf": (
        "# release policy\n"
        "config_version = 1\n"
        "\n"
        "rules = R1, R3, R4, R8\n"
        "release_labels = release\n"
        "hardening_required = stack_protector, exceptions\n"
        "debug_markers = DEBUG\n"
        "   # indented comment\n"
        "severity.R8 = warning\n"
        "severity.R3 = error\n"
    ),
    "no-equals.conf": "rules R1\n",
    "version.conf": "config_version = 2\n",
    "severity-rule.conf": "severity.R6 = error\n",
    "severity-value.conf": "severity.R1 = fatal\n",
    "rules.conf": "rules = R1, R9\n",
    "key.conf": "colour = red\n",
}

MAKEFILES = {
    "Makefile.typo": "CXFLAGS = -O2\nall:\n\t$(CC) $(CFLAGS) -c a.c\n",
    "Makefile.clean": "CFLAGS = -O2\nall:\n\t$(CC) $(CFLAGS) -c a.c\n",
}

# Run in order against one store: stamp writes the ELF that read-stamp reads.
COMMANDS = [
    ["diff", "rel-1", "rel-2"],
    ["diff", "rel-2", "rel-1"],
    ["diff", "rel-1", "rel-1"],
    ["diff", "rel-1", "ghost"],
    ["audit", "rel-1"],
    ["audit", "rel-2", "--previous", "rel-1"],
    ["audit", "dev-1", "--previous", "rel-1"],
    ["--config", "ok.conf", "audit", "rel-2", "--previous", "rel-1"],
    ["--config", "no-equals.conf", "audit", "rel-1"],
    ["--config", "version.conf", "audit", "rel-1"],
    ["--config", "severity-rule.conf", "audit", "rel-1"],
    ["--config", "severity-value.conf", "audit", "rel-1"],
    ["--config", "rules.conf", "audit", "rel-1"],
    ["--config", "key.conf", "audit", "rel-1"],
    ["history", "release"],
    ["history", "release", "--key", "opt_level"],
    ["history", "release", "--key", "DEBUG"],
    ["history", "release", "--scope", "target", "--key", "output"],
    ["query", "builds"],
    ["query", "builds", "--label", "release"],
    ["query", "effective", "--build", "rel-2", "--subject", "/w/core.c"],
    ["query", "effective", "--build", "rel-2", "--subject", "/w/app"],
    ["query", "effective", "--build", "rel-2", "--subject", "/w/none.c"],
    ["query", "find", "--build", "rel-2", "--group", "opt_level", "--value=-O2"],
    ["query", "find", "--build", "rel-2", "--group", "opt_level", "--value", "3"],
    ["stamp", "full.o", "rel-2", "/w/core.c"],
    ["stamp", "--no-flags-text", "digest.o", "rel-2", "/w/app"],
    ["stamp", "bare.o", "rel-2", "/w/none.c"],
    ["read-stamp", "full.o"],
    ["read-stamp", "--comment", "digest.o"],
    ["read-stamp", "bare.o"],
    ["read-stamp", "--comment", "bare.o"],
    ["lint", "Makefile.typo"],
    ["lint", "Makefile.clean"],
    ["verify"],
    ["verify", "rel-2"],
]


def _write_inputs(root: Path) -> None:
    for build_id, (_, _, commands) in BUILDS.items():
        entries = [{"directory": d, "command": c} for d, c in commands]
        (root / f"{build_id}.json").write_text(json.dumps(entries, indent=1) + "\n")
    for name, text in {**CONFIGS, **MAKEFILES}.items():
        (root / name).write_text(text)
    for name in ("full.o", "digest.o", "bare.o"):
        build_minimal_elf(root / name)


def _transcript(fmt: str, capsys) -> str:
    out = []

    def call(argv):
        code = run(["--store", "store", "--format", fmt] + argv)
        captured = capsys.readouterr()
        out.append(f"=== {' '.join(argv)} (exit {code})\n{captured.out}")
        if captured.err:
            out.append(f"--- stderr\n{captured.err}")

    for build_id, (label, created, _) in BUILDS.items():
        call(["ingest", f"{build_id}.json", "--kind", "compdb", "--label", label,
              "--build-id", build_id, "--created", created])
    for argv in COMMANDS:
        call(argv)
    return "".join(out)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_report_surface_is_unchanged(fmt, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _write_inputs(tmp_path)
    got = _transcript(fmt, capsys)
    assert got == (DATA / f"report-surface.{fmt}").read_text(encoding="utf-8")


def test_index_hash_that_disagrees_with_the_snapshot_exits_3(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _write_inputs(tmp_path)
    assert run(["--store", "store", "ingest", "dev-1.json", "--kind", "compdb",
                "--label", "dev", "--build-id", "dev-1"]) == 0
    index = tmp_path / "store" / "index.tsv"
    fields = index.read_text(encoding="utf-8").rstrip("\n").split("\t")
    stored = fields[3]
    fields[3] = hashlib.sha256(b"another snapshot").hexdigest()
    index.write_text("\t".join(fields) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert run(["--store", "store", "query", "effective", "--build", "dev-1",
                "--subject", "/w/core.c"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: snapshot hash mismatch: expected {fields[3]}, got {stored}\n"
