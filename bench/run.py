#!/usr/bin/env python3
"""flagtrace benchmark: seeded build evidence driven through the real CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --write-golden

Run from anywhere; the benchmark imports flagtrace from ``src/`` next to
this directory and exits with code 2 if it is not there.  It writes only
under ``bench/.work`` (deleted at the end) and ``bench/.out`` (results,
spans and per-seed records), and starts no other process.

Every command goes through ``flagtrace.cli.run(argv)`` in this process
with ``--format json`` and stdout/stderr captured: a closed loop with one
caller on one thread, each command starting after the previous one ends.
Every output is checked against the generator's model (corpus.py); a
mismatch counts as a failed operation and does not stop the run.

Workloads:

ingest-log-5k
    Write path.  Each cycle ingests one of three drifted GNU raw logs of
    5000 TUs (make chatter, continuations, quoted defines, 10% of TUs
    reading flags from response files, some nested, and a link line with
    5000 inputs).  So that every command reports a time here too, each
    cycle then runs each read command once (lint six times) on an 80-TU label that
    set-up stored; ingest is about five sixths of a cycle.  After the
    timed phase every ingested 5k build is read back through
    ``query effective`` on one response-file TU and one plain TU.  The
    store cannot yet read back a build that used response files (get
    re-resolves the unexpanded ``@file`` tokens and raises
    CorruptSnapshot), so those read-backs fail, count in ``failed`` and
    are reported as the known defect.
query-drift
    Read path.  Set-up ingests six builds of 200 TUs with seeded drift
    (opt-level flips, added and removed defines, a reordered link line)
    and seeded R1/R4 anomalies under the release label.  Each cycle runs
    diff, audit --previous, query effective, query find and stamp +
    read-stamp on one consecutive pair, lint six times, then history
    over the label.  200 rather than 1000 TUs a build so that a 30 s run
    holds enough samples of each command for a steady median.  No response files, so every read succeeds at the seed.
    ``ingest_s`` here is the median of the set-up ingests.  After the
    timed phase the golden contract outputs are checked.
ci-small-builds
    Many small writes between reads.  Set-up stores 30 MSVC builds of
    20 TUs (label main).  Each cycle is one CI session on a fresh label:
    30 builds from wrapper spools and compile_commands.json in turn, each
    ingested, and after every third one history over the growing label,
    diff and audit against the build before, query effective and find,
    stamp + read-stamp and lint (six times).

A run is a fixed number of cycles, round(--seconds / cycle_s) with
cycle_s each workload's nominal cycle time (about the wall time of one
cycle on a 2-core x86-64 virtual machine), so that a seed always gives
the same operations and the same ``attempted`` and ``failed`` counts,
however fast the machine is at the moment; the run measures about
--seconds seconds.

End-to-end metrics (--trace 0) are medians over the run's samples:
set-up time over three set-ups, one sample per command otherwise.
``snapshot_bytes_per_tu`` is the store growth per stored TU for a fixed
set of builds, with the corpus directory's path replaced by a fixed
placeholder so that it does not depend on where the checkout lives.

The traced run (--trace 1) times and counts the public functions of each
module (tracer.py) over the last set-up and a fixed number of cycles,
after one untraced warm-up cycle, each traced cycle preceded by the same
cycle untraced; the difference of their wall times is
``trace.overhead_s``.  Self times are totals in
seconds over the traced part; the counts repeat exactly for a seed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import re
import resource
import shutil
import signal
import statistics
import struct
import sys
import time
from collections import defaultdict

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
GOLDEN_DIR = os.path.join(BENCH, "golden")
OUT_DIR = os.path.join(BENCH, ".out")
WORK_DIR = os.path.join(BENCH, ".work")
PLACEHOLDER = "$CORPUS"
SETUP_REPS = 3
GOLDEN_SEED = 20231221
TRACE_CYCLE_S = 10  # one untraced plus one traced cycle per this many --seconds
REF_S = 0.005  # nominal seconds of one reference_work() call; times are scaled to it
TICK_S = 0.1  # while a command runs, reference_work() also runs this often

sys.path.insert(0, BENCH)
import corpus  # noqa: E402

END_TO_END = {
    "setup_s": "s", "ingest_s": "s", "diff_s": "s", "audit_s": "s", "history_s": "s",
    "query_s": "s", "stamp_s": "s", "lint_s": "s", "snapshot_bytes_per_tu": "B",
    "peak_rss_mb": "MB",
}
SELF_TIMED = (
    "cmdline.tokenize", "cmdline.expand_response_files", "flagmodel.classify_all",
    "flagmodel.resolve", "flagmodel.canonical_serialize", "ingest.parse_evidence",
    "ingest.assemble_snapshot", "snapshot.serialize", "snapshot.deserialize", "store.put",
    "store.get", "store.history", "store.list_builds", "diffengine.diff",
    "diffengine.render_report", "audit.run_audit", "audit.render_findings", "elfnote.stamp",
    "elfnote.read_stamp", "elfnote.read_comment", "mklint.scan_makefile", "mklint.lint",
    "cli.run",
)
# Per-layer metric prefix -> the end-to-end metrics and workloads it should move.
MOVES = {
    "cmdline.": "ingest_s on ingest-log-5k; ingest_s on ci-small-builds (MSVC tokenizer)",
    "flagmodel.": "ingest_s on ingest-log-5k; diff_s, audit_s, history_s, query_s on query-drift"
                  " (get re-resolves every record)",
    "flagmodel.opaque_frac": "none: vocabulary coverage, constant under refactors",
    "ingest.": "ingest_s on ingest-log-5k and ci-small-builds",
    "snapshot.serialize": "ingest_s on ingest-log-5k",
    "store.put": "ingest_s on ingest-log-5k and ci-small-builds (lock, index scan, fsync)",
    "snapshot.deserialize": "every read metric on query-drift and ci-small-builds",
    "store.get": "every read metric on query-drift and ci-small-builds",
    "store.history": "history_s on query-drift (per build) and ci-small-builds (per command)",
    "store.list_builds": "history_s on ci-small-builds (index scan)",
    "diffengine.": "diff_s on query-drift",
    "audit.": "audit_s on query-drift",
    "elfnote.": "stamp_s on ci-small-builds",
    "mklint.": "lint_s on ci-small-builds",
    "cli.": "every command metric on ci-small-builds (argparse, store open, JSON emit)",
    "trace.": "none: traced minus untraced wall time of the same cycles",
}


def moves(metric: str) -> str:
    return max((k for k in MOVES if metric.startswith(k)), key=len, default="")


# Traced counts that must repeat exactly for a seed.
DETERMINISTIC = ("cmdline.tokens_per_cmd", "flagmodel.classify_all.calls",
                 "flagmodel.canonical_serialize.calls", "flagmodel.opaque_frac",
                 "ingest.skipped_frac", "store.get.calls", "diffengine.deltas",
                 "audit.findings")


def load_cli():
    """Import flagtrace from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "flagtrace", "__init__.py")):
        sys.stderr.write(f"error: no flagtrace sources under {SRC}\n")
        raise SystemExit(2)
    sys.path.insert(0, SRC)
    import flagtrace
    import flagtrace.cli
    if not os.path.abspath(flagtrace.__file__).startswith(SRC + os.sep):
        sys.stderr.write(f"error: imported flagtrace from {flagtrace.__file__}\n")
        raise SystemExit(2)
    return flagtrace.cli


# --------------------------------------------------------------------------
# Running and checking commands

# Snapshot-like records and makefile lines: the reference work parses and
# re-serializes the one and scans the other, as most flagtrace commands do.
_REF_TEXT = json.dumps([
    {"kind": "tu", "source_file": f"/w/src/m/f{i}.c",
     "tokens": [{"text": f"-DX{j}", "origin": {"kind": "command-line"}} for j in range(12)],
     "effective": f'["group","opt_level","-O{i % 3}"]\n' * 4}
    for i in range(100)])
_REF_MAKE = "\n".join(f"V{i} := $(CFLAGS) ${{OBJ_{i}}} src/{i}.c" for i in range(60))
_REF_EXPANSION = re.compile(r"\$[({]([A-Za-z0-9_.%-]+)[)}]")


def reference_work() -> int:
    """Fixed work whose time tracks the machine's current speed.

    Identical work on a small shared virtual machine varies by tens of
    percent from one moment to the next.  Each command's time is scaled by REF_S over
    the median time of this work just before, during (from a timer
    signal, its time taken out of the command's) and just after the
    command, which cancels most of that; parent and change are scaled
    alike, so a faster program still reads faster.
    """
    n = len(_REF_EXPANSION.findall(_REF_MAKE))
    for rec in json.loads(_REF_TEXT):
        for tok in rec["tokens"]:
            n += len(tok["text"].split("X", 1)[0])
        n += len(json.dumps(rec["tokens"], sort_keys=True))
    return n


def reference_times(count: int) -> list[float]:
    out = []
    for _ in range(count):
        start = time.perf_counter()
        reference_work()
        out.append(time.perf_counter() - start)
    return out


class Runner:
    """Runs CLI commands, records their times and checks their outputs."""

    def __init__(self, cli, corpus_dir: str, store: str):
        self.cli = cli
        self.corpus_dir = corpus_dir
        self.store = store
        self.samples = defaultdict(list)
        self.attempted = 0
        self.failures: list[tuple[str, str, bool]] = []  # (operation, detail, known defect)
        self.tracer = None
        self.commands = 0
        self.tus_stored = 0
        self.calibrating = False  # scale each command's time by reference_work()'s
        self.scales: list[float] = []
        self.ref_seconds = 0.0  # spent in reference_work(), kept out of set-up time
        self.command_seconds = [0.0, 0.0]  # commands' time as measured and as scaled
        self._last_refs = (0.0, [])  # (when taken, times)
        self._ticks: list[float] | None = None  # reference times during a command

    def _tick(self, signum, frame) -> None:
        # Stays installed once set: a SIGALRM already pending when the timer
        # is stopped must not reach the default action, which ends the process.
        if self._ticks is None:
            return
        start = time.perf_counter()
        reference_work()
        self._ticks.append(time.perf_counter() - start)

    def references(self, count: int) -> list[float]:
        times = reference_times(count)
        self.ref_seconds += sum(times)
        self._last_refs = (time.perf_counter(), times)
        return times

    def run(self, *argv: str) -> tuple[int, float, str, str]:
        """Run one command; its time is scaled to REF_S while calibrating."""
        if self.calibrating:
            taken, before = self._last_refs
            if time.perf_counter() - taken > 0.05:
                before = self.references(1)
            self._ticks = []
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        out, err = io.StringIO(), io.StringIO()
        if self.tracer is not None:
            self.tracer.command = self.commands
        self.commands += 1
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.run(["--store", self.store, "--format", "json", *argv])
        elapsed = time.perf_counter() - start
        if self.calibrating:
            signal.setitimer(signal.ITIMER_REAL, 0)
            ticks, self._ticks = self._ticks, None
            elapsed -= sum(ticks)
            self.ref_seconds += sum(ticks)
        self.command_seconds[0] += elapsed
        if self.calibrating:
            after = self.references(1)
            scale = REF_S / statistics.median(before + ticks + after)
            self.scales.append(scale)
            elapsed *= scale
        self.command_seconds[1] += elapsed
        return code, elapsed, out.getvalue(), err.getvalue()

    def sample(self, metric: str | None, seconds: float) -> None:
        if metric is not None:
            self.samples[metric].append(seconds)

    def check(self, what: str, ok: bool, detail: str = "", known: bool = False) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append((what, detail, known))


def _json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return None


def _why(code: int, err: str) -> str:
    return f"exit {code}: {err.strip()[:200]}"


def ingest(r: Runner, label, build, build_id: str, label_name: str,
           metric: str | None = "ingest_s") -> None:
    code, dt, out, err = r.run("ingest", os.path.join(r.corpus_dir, build.path),
                               "--kind", build.kind, "--label", label_name,
                               "--build-id", build_id, "--created", build.created)
    doc = _json(out) or {}
    want = corpus.expected_ingest(build)
    got = {k: doc.get(k) for k in want}
    r.check(f"ingest {build_id}", code == 0 and got == want, f"{_why(code, err)} {got} != {want}")
    r.sample(metric, dt)
    r.tus_stored += len(build.tus)


def diff(r: Runner, label, a, b, id_a: str, id_b: str) -> None:
    code, dt, out, err = r.run("diff", id_a, id_b)
    doc = _json(out) or {}
    want = corpus.expected_diff(label, a, b)
    got = {"added_tus": doc.get("added_tus"), "removed_tus": doc.get("removed_tus"),
           "changed_tus": sorted(doc.get("per_tu_changes", {})),
           "changed_targets": sorted(doc.get("per_target_changes", {}))}
    want_code = 4 if any(want.values()) else 0
    r.check(f"diff {id_a} {id_b}", code == want_code and got == want, _why(code, err))
    r.sample("diff_s", dt)


def audit(r: Runner, label, b, prev, id_b: str, id_prev: str) -> None:
    code, dt, out, err = r.run("audit", id_b, "--previous", id_prev)
    doc = _json(out) or {}
    got = sorted((f["rule"], f["subject"]) for f in doc.get("findings", []))
    want, want_code = corpus.expected_audit(label, b, prev)
    r.check(f"audit {id_b}", code == want_code and got == want,
            f"{_why(code, err)} rules {sorted(set(got) ^ set(want))[:4]}")
    r.sample("audit_s", dt)


def _flagset_fields(text: str) -> tuple[str | None, set]:
    """(winning opt_level value, defined macro names) from a canonical flag set."""
    opt, names = None, set()
    for line in text.splitlines():
        row = json.loads(line)
        if row[:2] == ["group", "opt_level"]:
            opt = row[4]
        elif row[0] == "define":
            names.add(row[1])
    return opt, names


def query_effective(r: Runner, label, build, build_id: str, subject: str,
                    metric: str | None = "query_s", known: bool = False) -> None:
    tu = next(t for t in build.tus if corpus.norm(t.src, label.cwd) == subject)
    want = (corpus.opt_value(tu, label.family), corpus.define_names(tu))
    code, dt, out, err = r.run("query", "effective", "--build", build_id, "--subject", subject)
    doc = _json(out) or {}
    got = _flagset_fields(doc["effective"]) if code == 0 and "effective" in doc else None
    known = known and code == 3 and "snapshot hash mismatch" in err
    r.check(f"query effective {build_id} {subject}", got == want, _why(code, err), known)
    r.sample(metric, dt)


def query_find(r: Runner, label, build, build_id: str, value: str) -> None:
    code, dt, out, err = r.run("query", "find", "--build", build_id, "--group", "opt_level",
                               f"--value={value}")
    doc = _json(out) or {}
    want = sorted(s for s, v in corpus.expected_opts(label, build).items() if v == value)
    r.check(f"query find {build_id} {value}", code == 0 and doc.get("matches") == want,
            _why(code, err))
    r.sample("query_s", dt)


def history(r: Runner, label, rows: list, label_name: str) -> None:
    """rows: (build id, build model) of every build the label holds."""
    code, dt, out, err = r.run("history", label_name, "--key", "opt_level")
    doc = _json(out) or []
    want = [(bid, b.created, corpus.expected_opts(label, b))
            for bid, b in sorted(rows, key=lambda row: (row[1].created, row[0]))]
    got = [(d.get("build_id"), d.get("created"), d.get("summary")) for d in doc]
    r.check(f"history {label_name}", code == 0 and got == want, _why(code, err))
    r.sample("history_s", dt)


def stamp_round_trip(r: Runner, ctx, label, build, build_id: str, subject: str) -> None:
    """stamp then read-stamp --comment on a fresh copy of the generated ELF file."""
    tu = next(t for t in build.tus if corpus.norm(t.src, label.cwd) == subject)
    with open(ctx["elf_path"], "wb") as fh:
        fh.write(ctx["elf"])
    code, dt1, out, err = r.run("stamp", ctx["elf_path"], build_id, subject)
    r.check(f"stamp {build_id} {subject}", code == 0 and (_json(out) or {}).get("subject") == subject,
            _why(code, err))
    code, dt2, out, err = r.run("read-stamp", ctx["elf_path"], "--comment")
    doc = _json(out) or {}
    p = doc.get("payload") or {}
    text = p.get("flags_text") or ""
    ok = (code == 0 and p.get("build_id") == build_id and p.get("subject") == subject
          and p.get("effective_digest") == hashlib.sha256(text.encode()).hexdigest()
          and _flagset_fields(text)[0] == corpus.opt_value(tu, label.family)
          and doc.get("comment") == ctx["comment"])
    r.check(f"read-stamp {build_id} {subject}", ok, _why(code, err))
    r.sample("stamp_s", dt1 + dt2)


def lint(r: Runner, ctx) -> None:
    code, dt, out, err = r.run("lint", ctx["makefile"])
    doc = _json(out) or {}
    got = sorted((f["name"], f["line"], f["distance"]) for f in doc.get("findings", []))
    want = sorted((name, line, 1) for name, line in ctx["typos"])
    r.check("lint", code == (4 if want else 0) and got == want, _why(code, err))
    r.sample("lint_s", dt)


def reads(r: Runner, ctx, label, ids: list, j: int, pick: int) -> None:
    """One of each single-pair read command on builds j and j+1 of a label."""
    a, b = label.builds[j], label.builds[j + 1]
    diff(r, label, a, b, ids[j], ids[j + 1])
    audit(r, label, b, a, ids[j + 1], ids[j])
    subjects = corpus.subjects(label, b)
    subject = subjects[pick % len(subjects)]
    query_effective(r, label, b, ids[j + 1], subject)
    query_find(r, label, b, ids[j + 1], corpus.expected_opts(label, b)[subject])
    stamp_round_trip(r, ctx, label, b, ids[j + 1], subject)
    for _ in range(6):  # lint is short; more samples keep its median steady
        lint(r, ctx)


def common_files(rng: random.Random, root: str) -> dict:
    """The makefile and ELF file every workload lints and stamps."""
    text, typos = corpus.makefile(rng, 900)
    corpus.write(root, "Makefile", text)
    comment = ["GCC: (GNU) 13.2.0", f"flagtrace-bench {rng.randrange(1 << 30)}"]
    return {"makefile": os.path.join(root, "Makefile"), "typos": typos,
            "elf": corpus.elf(rng, comment), "elf_path": os.path.join(root, "app.o"),
            "comment": comment}


def store_size(store: str, corpus_dir: str) -> int:
    """Bytes under the store, counting the corpus path as the placeholder."""
    needle = corpus_dir.encode()
    shrink = len(needle) - len(PLACEHOLDER)
    total = 0
    for dirpath, _, files in os.walk(store):
        for name in files:
            with open(os.path.join(dirpath, name), "rb") as fh:
                data = fh.read()
            total += len(data) - data.count(needle) * shrink
    return total


def store_digest(store: str, corpus_dir: str) -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, files in os.walk(store):
        dirnames.sort()
        for name in sorted(files):
            if name == ".lock":
                continue
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                data = fh.read().replace(corpus_dir.encode(), PLACEHOLDER.encode())
            h.update(os.path.relpath(path, store).encode() + b"\0" + data)
    return h.hexdigest()


# --------------------------------------------------------------------------
# Workloads


class IngestLog5k:
    name = "ingest-log-5k"
    params = {"tus": 5000, "variants": 3, "rsp_frac": 0.1,
              "read_label": {"builds": 3, "tus": 80}}
    cycle_s = 4.3

    def setup(self, r: Runner, rng: random.Random) -> None:
        p = self.params
        self.big = corpus.gnu_label(rng, r.corpus_dir, "log5k", "nightly", p["variants"],
                                    p["tus"], rsp_frac=p["rsp_frac"])
        rl = p["read_label"]
        self.small = corpus.gnu_label(rng, r.corpus_dir, "tools", corpus.RELEASE_LABEL,
                                      rl["builds"], rl["tus"], release_anomalies=True)
        self.ctx = common_files(rng, r.corpus_dir)
        for b in self.small.builds:
            ingest(r, self.small, b, b.build_id, self.small.name, metric=None)
        self.ingested: list[tuple[str, object]] = []

    def cycle(self, r: Runner, i: int) -> None:
        build = self.big.builds[i % len(self.big.builds)]
        build_id = f"nightly-{len(self.ingested)}"
        ingest(r, self.big, build, build_id, self.big.name)
        self.ingested.append((build_id, build))
        ids = [b.build_id for b in self.small.builds]
        reads(r, self.ctx, self.small, ids, i % (len(ids) - 1), i * 7)
        history(r, self.small, list(zip(ids, self.small.builds)), self.small.name)

    def post(self, r: Runner) -> None:
        for build_id, build in self.ingested:
            rsp = next(t for t in build.tus if t.rsp)
            plain = next(t for t in build.tus if not t.rsp)
            for tu in (rsp, plain):
                query_effective(r, self.big, build, build_id, corpus.norm(tu.src, self.big.cwd),
                                metric=None, known=True)


class QueryDrift:
    name = "query-drift"
    params = {"builds": 6, "tus": 200, "release_anomalies": True}
    cycle_s = 2.3

    def setup(self, r: Runner, rng: random.Random) -> None:
        p = self.params
        self.label = corpus.gnu_label(rng, r.corpus_dir, "drift", corpus.RELEASE_LABEL,
                                      p["builds"], p["tus"], release_anomalies=True)
        self.ctx = common_files(rng, r.corpus_dir)
        for b in self.label.builds:
            ingest(r, self.label, b, b.build_id, self.label.name)

    def cycle(self, r: Runner, i: int) -> None:
        ids = [b.build_id for b in self.label.builds]
        reads(r, self.ctx, self.label, ids, i % (len(ids) - 1), i * 7)
        history(r, self.label, list(zip(ids, self.label.builds)), self.label.name)

    def post(self, r: Runner) -> None:
        golden(r, write=False)


class CiSmallBuilds:
    name = "ci-small-builds"
    params = {"builds_per_session": 30, "tus": 20, "reads_every": 3, "prepopulated": 30}
    cycle_s = 5.0

    def setup(self, r: Runner, rng: random.Random) -> None:
        p = self.params
        self.label = corpus.msvc_label(rng, r.corpus_dir, "ci", "ci", p["builds_per_session"],
                                       p["tus"])
        self.ctx = common_files(rng, r.corpus_dir)
        for b in self.label.builds[:p["prepopulated"]]:
            ingest(r, self.label, b, "main-" + b.build_id, "main", metric=None)

    def cycle(self, r: Runner, i: int) -> None:
        p = self.params
        name = f"ci-r{i}"
        ids, rows = [], []
        for j, b in enumerate(self.label.builds):
            ids.append(f"{name}-{j}")
            rows.append((ids[-1], b))
            ingest(r, self.label, b, ids[-1], name)
            if j and (j + 1) % p["reads_every"] == 0:
                history(r, self.label, rows, name)
                reads(r, self.ctx, self.label, ids, j - 1, i + j)

    def post(self, r: Runner) -> None:
        pass


WORKLOADS = {w.name: w for w in (IngestLog5k, QueryDrift, CiSmallBuilds)}


# --------------------------------------------------------------------------
# Golden contract outputs


def golden(r: Runner, write: bool) -> None:
    """Check (or write) flag sets, diff, audit and history JSON for GOLDEN_SEED.

    The corpus directory is replaced by a placeholder before comparing.
    Snapshot bytes and content hashes are not part of the golden set.
    """
    gdir = os.path.join(os.path.dirname(r.corpus_dir), "golden")
    shutil.rmtree(gdir, ignore_errors=True)
    g = Runner(r.cli, gdir, os.path.join(gdir, "store"))
    label = corpus.gnu_label(random.Random(GOLDEN_SEED), gdir, "drift", corpus.RELEASE_LABEL,
                             4, 40, release_anomalies=True)
    for b in label.builds:
        ingest(g, label, b, b.build_id, label.name, metric=None)
    ids = [b.build_id for b in label.builds]
    last = label.builds[-1]
    commands = {f"diff-{j}-{j + 1}.json": ("diff", ids[j], ids[j + 1]) for j in range(3)}
    commands["audit-3.json"] = ("audit", ids[3], "--previous", ids[2])
    commands["history.json"] = ("history", label.name, "--key", "opt_level")
    for k, subject in enumerate(corpus.subjects(label, last)[:6]):
        commands[f"flagset-{k}.json"] = ("query", "effective", "--build", ids[3],
                                         "--subject", subject)
    if write:
        os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name, argv in sorted(commands.items()):
        code, _, out, err = g.run(*argv)
        text = out.replace(label.cwd, PLACEHOLDER)
        path = os.path.join(GOLDEN_DIR, name)
        if write:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            continue
        try:
            with open(path, encoding="utf-8") as fh:
                want = fh.read()
        except FileNotFoundError:
            want = None
        r.check(f"golden {name}", text == want, _why(code, err))
    r.attempted += g.attempted
    r.failures += g.failures
    shutil.rmtree(gdir, ignore_errors=True)


# --------------------------------------------------------------------------
# Environment, records and results


_FS_MAGIC = {0xEF53: "ext2/3/4", 0x01021994: "tmpfs", 0x58465342: "xfs",
             0x9123683E: "btrfs", 0x794C7630: "overlayfs", 0x6969: "nfs",
             0x2FC12FC1: "zfs", 0x65735546: "fuse"}


def filesystem(path: str) -> str:
    """Filesystem type of path, from statfs(2)'s f_type."""
    try:
        import ctypes
        libc = ctypes.CDLL(None, use_errno=True)
        buf = ctypes.create_string_buffer(256)
        if libc.statfs(path.encode(), buf) != 0:
            return "unknown"
    except (OSError, AttributeError):
        return "unknown"
    magic = struct.unpack_from("l", buf.raw)[0] & 0xFFFFFFFF
    return _FS_MAGIC.get(magic, hex(magic))


def quartiles(values: list) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def check_record(r: Runner, key: str, values: dict) -> None:
    """Compare deterministic values with those an earlier run of this seed saved."""
    path = os.path.join(OUT_DIR, f"record-{key}.json")
    try:
        with open(path, encoding="utf-8") as fh:
            before = json.load(fh)
    except (FileNotFoundError, json.JSONDecodeError):
        before = None
    # Counted on every run, first or not, so that attempted repeats too.
    r.check("same seed, same counts", before is None or before == values,
            f"{sorted(k for k in values if (before or {}).get(k) != values[k])}")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(values, fh, sort_keys=True)


def run_benchmark(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    cli = load_cli()
    wl = WORKLOADS[workload]()
    work = os.path.join(WORK_DIR, f"{workload}-{seed}-{os.getpid()}")
    corpus_dir = os.path.join(work, "corpus")
    r = Runner(cli, corpus_dir, os.path.join(work, "store"))
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
    os.makedirs(OUT_DIR, exist_ok=True)
    try:
        setup_times, digests = [], set()
        for rep in range(SETUP_REPS):
            shutil.rmtree(work, ignore_errors=True)
            os.makedirs(corpus_dir)
            r.tus_stored = 0
            last = rep == SETUP_REPS - 1
            if trace and last:
                tracer.install()
                r.tracer = tracer
            # Commands are scaled one by one; the rest (generating the corpus)
            # by the reference times around the whole set-up.
            r.calibrating = not trace
            refs = r.references(3) if not trace else []
            spent, (raw, scaled) = r.ref_seconds, r.command_seconds
            start = time.perf_counter()
            wl.setup(r, random.Random(seed))
            other = (time.perf_counter() - start - (r.ref_seconds - spent)
                     - (r.command_seconds[0] - raw))
            if not trace:
                refs += r.references(3)
                other *= REF_S / statistics.median(refs)
            setup_times.append(other + r.command_seconds[1] - scaled)
            r.calibrating = False
            if trace and last:
                tracer.uninstall()
            digests.add((corpus.tree_digest(corpus_dir), store_digest(r.store, corpus_dir)))
        r.check("set-up repeats byte for byte", len(digests) == 1)

        cycles, overhead = 0, 0.0
        if not trace:
            size, tus = store_size(r.store, corpus_dir), r.tus_stored
            r.calibrating = True
            r.references(3)
            while cycles < max(1, round(seconds / wl.cycle_s)):
                wl.cycle(r, cycles)
                cycles += 1
                if cycles == 1 and r.tus_stored > tus:
                    # Bytes of the first cycle's builds; of the set-up builds otherwise.
                    size = store_size(r.store, corpus_dir) - size
                    tus = r.tus_stored - tus
            r.calibrating = False
            bytes_per_tu = size / tus
        else:
            wl.cycle(r, cycles)  # warm-up, so the first untraced cycle is not penalised
            cycles += 1
            for k in range(max(1, round(seconds / TRACE_CYCLE_S))):
                for traced in (False, True):
                    if traced:
                        tracer.install()
                    start = time.perf_counter()
                    wl.cycle(r, cycles)
                    elapsed = time.perf_counter() - start
                    if traced:
                        tracer.uninstall()
                    overhead += elapsed if traced else -elapsed
                    cycles += 1
        wl.post(r)

        if not trace:
            r.samples["setup_s"] = setup_times
            stats = {m: quartiles(v) for m, v in r.samples.items()}
            stats["snapshot_bytes_per_tu"] = (bytes_per_tu,) * 3
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            stats["peak_rss_mb"] = (rss, rss, rss)
            counts = {"n": {m: len(v) for m, v in r.samples.items()},
                      "scale": quartiles(r.scales)}
            metrics = {m: (stats[m][1], END_TO_END[m]) for m in END_TO_END}
            deterministic = {"snapshot_bytes_per_tu": bytes_per_tu}
        else:
            selfs = tracer.self_times()
            c = tracer.counts
            metrics = {f"{n}.self_s": (selfs[n], "s") for n in SELF_TIMED}
            metrics.update({
                "cmdline.tokens_per_cmd": (c["cmdline.tokens"] / max(1, c["cmdline.tokenize.calls"]), "tokens"),
                "flagmodel.classify_all.calls": (c["flagmodel.classify_all.calls"], "count"),
                "flagmodel.canonical_serialize.calls": (c["flagmodel.canonical_serialize.calls"], "count"),
                "flagmodel.opaque_frac": (c["flagmodel.opaque"] / max(1, c["flagmodel.entries"]), "ratio"),
                "ingest.skipped_frac": (c["ingest.skipped"] / max(1, c["ingest.invocations"]), "ratio"),
                "store.get.calls": (c["store.get.calls"], "count"),
                "diffengine.deltas": (c["diffengine.deltas"], "count"),
                "audit.findings": (c["audit.findings"], "count"),
                "trace.overhead_s": (overhead, "s"),
            })
            stats, counts = {}, {"spans": len(tracer.spans)}
            deterministic = {k: metrics[k][0] for k in DETERMINISTIC}
            tracer.write_spans(os.path.join(OUT_DIR, f"spans-{workload}-{seed}.jsonl"))
        deterministic["corpus_digest"] = next(iter(digests))[0]
        check_record(r, f"{workload}-s{seed}-t{int(trace)}-{seconds}", deterministic)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    known = sum(1 for f in r.failures if f[2])
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "cycles": cycles, "params": wl.params,
        "env": {"python": platform.python_version(), "nproc": os.cpu_count(),
                "store_fs": filesystem(BENCH), "platform": platform.platform()},
        "metrics": metrics, "quartiles": stats, "counts": counts,
        "attempted": r.attempted, "failed": len(r.failures), "known_defect": known,
        "failures": [{"op": w, "detail": d, "known_defect": k} for w, d, k in r.failures[:50]],
    }


def report(res: dict) -> None:
    env = res["env"]
    print(f"flagtrace bench  workload={res['workload']} seed={res['seed']} "
          f"seconds={res['seconds']} trace={res['trace']} cycles={res['cycles']}")
    print(f"env  python={env['python']} nproc={env['nproc']} store_fs={env['store_fs']} "
          f"platform={env['platform']}")
    print(f"corpus  {json.dumps(res['params'], sort_keys=True)}")
    for name, (value, unit) in res["metrics"].items():
        line = f"  {name:40s} {value:14.6f} {unit}"
        if name in res["quartiles"]:
            q1, _, q3 = res["quartiles"][name]
            n = res["counts"].get("n", {}).get(name)
            line += f"   p25 {q1:.6f}  p75 {q3:.6f}" + (f"  n={n}" if n else "")
        elif moves(name):
            line += f"   moves {MOVES[moves(name)]}"
        print(line)
    if "scale" in res["counts"]:
        q1, q2, q3 = res["counts"]["scale"]
        print(f"times scaled to the reference speed by REF_S / reference time: "
              f"median {q2:.4f}, p25 {q1:.4f}, p75 {q3:.4f}")
    frac = res["failed"] / res["attempted"]
    print(f"checks  attempted={res['attempted']} failed={res['failed']} "
          f"ops_failed_frac={frac:.6f} known_defect={res['known_defect']}")
    for f in res["failures"][:10]:
        tag = " [known defect: response-file round trip]" if f["known_defect"] else ""
        print(f"  FAILED {f['op']}: {f['detail']}{tag}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-golden", action="store_true",
                    help="rewrite bench/golden from the current code, then exit")
    args = ap.parse_args(argv)
    if args.write_golden:
        work = os.path.join(WORK_DIR, f"golden-{os.getpid()}")
        try:
            golden(Runner(load_cli(), os.path.join(work, "corpus"), ""), write=True)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    res = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-s{args.seed}-t{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(res, fh, indent=1, sort_keys=True)
    report(res)
    unexpected = res["failed"] - res["known_defect"]
    print(json.dumps({
        "correct": unexpected == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
