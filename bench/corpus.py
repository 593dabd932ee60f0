"""Seeded synthetic build evidence and the results flagtrace must give on it.

Every generator draws only from the ``random.Random`` it is handed and
writes only under the directory it is handed, so one seed gives the same
bytes on every run.  Alongside the files it returns a model of what it
wrote (subjects, winning optimisation levels, defines, link lines), and
the ``expected_*`` functions derive the answers to ingest, query, diff,
audit and history from that model alone.  No expectation is computed by
calling flagtrace.

Paths inside the evidence are relative to the log directory (GNU) or to
a fixed synthetic ``C:\\proj`` directory (MSVC), so the bytes do not
depend on where the corpus is written.
"""

from __future__ import annotations

import hashlib
import json
import os
import posixpath
import random
import struct
from dataclasses import dataclass, field, replace

DEBUG_MARKERS = frozenset({"DEBUG", "_DEBUG", "DEBUG_TRACING"})
RELEASE_LABEL = "release"
MSVC_ROOT = "C:\\proj"

_GNU_OPTS = ("-O0", "-O1", "-O2", "-O3", "-Os")
_MSVC_OPTS = ("/O2", "/Od", "/O1")
_GNU_STD = ("-std=gnu11", "-std=c11", "-std=gnu++17")
_MODULES = ("core", "net", "io", "util", "db", "ui", "crypto", "sched",
            "codec", "alloc", "log", "cfg")


# --------------------------------------------------------------------------
# Model


@dataclass
class Tu:
    src: str  # as written in the evidence, relative to the tool's cwd
    obj: str
    module: str
    opt: list  # optimisation spellings in command order; the last one wins
    defines: list  # macro definitions in command order (NAME or NAME=VALUE)
    hardening: str  # "on" | "off" (enabled, then disabled later) | "absent"
    rsp: str | None = None  # GNU response file the command line names
    rsp_defines: tuple = ()  # macro names the response files define
    alt_spelling: bool = False  # MSVC: '-' instead of '/' spellings


@dataclass
class Target:
    output: str
    inputs: list  # objects and libraries in command order
    shared: bool = False


@dataclass
class Build:
    build_id: str
    created: str
    kind: str  # flagtrace evidence kind: raw-log | compdb | spool
    path: str  # evidence path relative to the corpus root
    tus: list
    targets: list
    skipped: int  # invocations ingest keeps only as "no source or link input" diagnostics


@dataclass
class Label:
    """One label's builds plus what is needed to resolve its paths."""

    name: str
    family: str  # "gnu" | "msvc"
    cwd: str  # directory flagtrace resolves relative paths against
    builds: list = field(default_factory=list)


def norm(path: str, cwd: str) -> str:
    """The subject path a TU or input gets: slashes, joined to cwd, collapsed."""
    p = path.replace("\\", "/")
    if not (p.startswith("/") or (len(p) >= 2 and p[1] == ":")):
        p = cwd.replace("\\", "/").rstrip("/") + "/" + p
    return posixpath.normpath(p)


def _macro(d: str) -> str:
    return d.split("=", 1)[0]


def opt_value(tu: Tu, family: str) -> str:
    """Canonical value of the winning optimisation flag."""
    w = tu.opt[-1]
    return "/" + w[1:] if family == "msvc" else w


def define_names(tu: Tu) -> set:
    return {_macro(d) for d in tu.defines} | set(tu.rsp_defines)


# --------------------------------------------------------------------------
# GNU raw logs


def _sh(tok: str) -> str:
    """Quote one argument for a POSIX shell line; two spellings are used."""
    if " " in tok:
        return '"' + tok.replace("\\", "\\\\").replace('"', '\\"') + '"'
    return tok.replace('"', '\\"')


def gnu_project(rng: random.Random, n_tus: int, rsp_frac: float,
                release_anomalies: bool) -> tuple[list, list]:
    """TUs spread over modules, per-module shared libraries and one app link."""
    mods = list(_MODULES)
    mod_opt = {m: rng.choice(("-O2", "-O2", "-O2", "-O3", "-Os")) for m in mods}
    tus = []
    for i in range(n_tus):
        mod = mods[i % len(mods)]
        stem = f"{mod}_{i:05d}"
        ext = ".cpp" if rng.random() < 0.3 else ".c"
        opt = [mod_opt[mod]]
        if rng.random() < 0.1:
            opt.insert(0, "-O0")  # overridden by the later module level
        defines = ["NDEBUG", f"MOD_{mod.upper()}=1", 'VERSION="1.4.2"']
        if rng.random() < 0.3:
            defines.append(f"FEATURE_{rng.randrange(8)}")
        hardening = "on"
        if release_anomalies:
            r = rng.random()
            if r < 0.01:
                defines.append("DEBUG_TRACING")
            elif r < 0.015:
                defines.remove("NDEBUG")
            elif r < 0.025:
                hardening = "absent"
            elif r < 0.03:
                hardening = "off"
        tu = Tu(f"src/{mod}/{stem}{ext}", f"obj/{mod}/{stem}.o", mod, opt, defines, hardening)
        if rng.random() < rsp_frac:
            nested = mods.index(mod) % 2 == 0
            tu.rsp = f"rsp/{mod}.rsp"
            tu.rsp_defines = (f"USE_{mod.upper()}",) + (("HAVE_CONFIG_H",) if nested else ())
        tus.append(tu)
    targets = []
    for mod in mods[:4]:
        objs = [t.obj for t in tus if t.module == mod]
        targets.append(Target(f"lib/lib{mod}.so", objs + ["-lm"], shared=True))
    targets.append(Target("bin/app", [t.obj for t in tus] + ["-lz", "-lpthread", "-ldl"]))
    return tus, targets


def _gnu_rsp_files(tus) -> dict[str, str]:
    files = {"rsp/common.rsp": "-DHAVE_CONFIG_H\n-fno-strict-aliasing\n"}
    for tu in tus:
        if tu.rsp and tu.rsp not in files:
            lines = [f"-Iinclude/{tu.module}", f"-DUSE_{tu.module.upper()}", "-Wshadow"]
            if "HAVE_CONFIG_H" in tu.rsp_defines:
                lines.append("@common.rsp")  # nested, relative to rsp/
            files[tu.rsp] = "\n".join(lines) + "\n"
    return files


def gnu_tu_tokens(tu: Tu, std: str) -> list[str]:
    toks = ["gcc" if tu.src.endswith(".c") else "g++"]
    toks += tu.opt[:-1]
    toks += ["-g", std, "-march=x86-64-v2", "-fPIC", "-pipe", "-Wall", "-Wextra",
             "-Wno-unused-parameter"]
    if tu.hardening != "absent":
        toks.append("-fstack-protector-strong")
    if tu.hardening == "off":
        toks.append("-fno-stack-protector")
    toks += ["-D" + d for d in tu.defines]
    toks += ["-Iinclude", f"-Isrc/{tu.module}", "-Ithird party/zlib"]
    if tu.rsp:
        toks.append("@" + tu.rsp)
    toks += ["-MMD", "-MF", tu.obj[:-2] + ".d", tu.opt[-1], "-c", tu.src, "-o", tu.obj]
    return toks


def render_gnu_log(rng: random.Random, tus, targets) -> tuple[str, int]:
    """A make/cmake-style log: chatter, continuations, archive and probe lines."""
    out = ["make[1]: Entering directory '/build/proj'", "gcc --version"]
    skipped = 1
    std_of = {}
    for i, tu in enumerate(tus):
        std = std_of.setdefault(tu.module, _GNU_STD[len(std_of) % len(_GNU_STD)])
        if i % 50 == 0:
            out.append(f"[{100 * i // len(tus):3d}%] Building C object {tu.obj}")
        words = [_sh(t) for t in gnu_tu_tokens(tu, std)]
        if rng.random() < 0.2:
            cut = rng.randrange(2, len(words) - 2)
            out.append(" ".join(words[:cut]) + " \\")
            out.append("    " + " ".join(words[cut:]))
        else:
            out.append(" ".join(words))
        if i % 997 == 500:
            out.append("gcc -E -dM - < /dev/null")
            skipped += 1
    for mod in sorted({t.module for t in tus})[:3]:
        objs = [t.obj for t in tus if t.module == mod][:20]
        out.append(f"ar rcs lib/lib{mod}_static.a " + " ".join(objs))
        skipped += 1
    for tg in targets:
        head = "gcc -shared" if tg.shared else "g++ -Llib -Wl,--as-needed"
        words = [head, "-o", tg.output] + tg.inputs
        # Long link lines arrive wrapped with continuations every 40 inputs.
        lines = [" ".join(words[j:j + 40]) for j in range(0, len(words), 40)]
        out.append(" \\\n  ".join(lines))
    out.append("make[1]: Leaving directory '/build/proj'")
    return "\n".join(out) + "\n", skipped


def drift(rng: random.Random, tus, targets, release_anomalies: bool,
          family: str = "gnu") -> tuple[list, list]:
    """Next build: opt flips, added/removed defines, maybe a reordered link line."""
    tus = [replace(t, opt=list(t.opt), defines=list(t.defines)) for t in tus]
    targets = [replace(t, inputs=list(t.inputs)) for t in targets]
    opts = _MSVC_OPTS if family == "msvc" else _GNU_OPTS
    k = max(1, len(tus) * 3 // 100)
    picked = rng.sample(range(len(tus)), min(len(tus), 3 * k))
    for i in picked[:k]:
        t = tus[i]
        t.opt[-1] = rng.choice([o for o in opts if o != t.opt[-1] and o[1:] != t.opt[-1][1:]])
    for i in picked[k:2 * k]:
        t = tus[i]
        extra = [d for d in t.defines if d.startswith("FEATURE_")]
        if extra:
            t.defines.remove(extra[0])
        else:
            t.defines.append(f"FEATURE_{rng.randrange(8)}")
    if release_anomalies:
        for i in picked[2 * k:]:
            t = tus[i]
            if "DEBUG_TRACING" in t.defines:
                t.defines.remove("DEBUG_TRACING")
            elif rng.random() < 0.5:
                t.defines.append("DEBUG_TRACING")
            else:
                t.hardening = "on" if t.hardening != "on" else "absent"
    if rng.random() < 0.6:
        tg = targets[-1]
        objs = [x for x in tg.inputs if not x.startswith("-")]
        j = rng.randrange(len(objs) - 1)
        objs[j], objs[j + 1] = objs[j + 1], objs[j]
        tg.inputs = objs + [x for x in tg.inputs if x.startswith("-")]
    return tus, targets


def write(root: str, rel: str, data: str | bytes) -> None:
    path = os.path.join(root, rel)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(data.encode("utf-8") if isinstance(data, str) else data)


def created(i: int) -> str:
    return f"2026-01-{1 + i // 1440:02d}T{i // 60 % 24:02d}:{i % 60:02d}:00Z"


def gnu_label(rng: random.Random, root: str, subdir: str, name: str, n_builds: int,
              n_tus: int, rsp_frac: float = 0.0, release_anomalies: bool = False) -> Label:
    """n_builds raw logs of one GNU project, each drifted from the one before."""
    label = Label(name, "gnu", os.path.join(root, subdir))
    tus, targets = gnu_project(rng, n_tus, rsp_frac, release_anomalies)
    for rel, body in _gnu_rsp_files(tus).items():
        write(root, f"{subdir}/{rel}", body)
    for b in range(n_builds):
        if b:
            tus, targets = drift(rng, tus, targets, release_anomalies)
        text, skipped = render_gnu_log(rng, tus, targets)
        rel = f"{subdir}/build-{b}.log"
        write(root, rel, text)
        label.builds.append(Build(f"{name}-{b}", created(b), "raw-log", rel,
                                  tus, targets, skipped))
    return label


# --------------------------------------------------------------------------
# MSVC wrapper spools and compilation databases


def _msvc_quote(tok: str) -> str:
    """CommandLineToArgvW quoting for one argument."""
    if tok and not any(c in tok for c in ' \t"'):
        return tok
    out, bs = ['"'], 0
    for c in tok:
        if c == "\\":
            bs += 1
            continue
        if c == '"':
            out.append("\\" * (2 * bs + 1) + '"')
        else:
            out.append("\\" * bs + c)
        bs = 0
    out.append("\\" * (2 * bs) + '"')
    return "".join(out)


def msvc_tu_argv(tu: Tu) -> list[str]:
    s = "-" if tu.alt_spelling else "/"
    argv = ["cl.exe", "/nologo", s + "c", "/EHsc", s + "Zi", "/std:c++17", "/W3"]
    argv += tu.opt
    if tu.hardening == "on":
        argv.append("/GS")
    for j, d in enumerate(tu.defines):
        argv += ["/D", d] if j % 2 else [s + "D" + d]
    argv += ["/I", "C:\\Program Files\\SDK\\Include", f"/Iinclude\\{tu.module}"]
    argv += ["/Fo", tu.obj] if tu.alt_spelling else ["/Fo" + tu.obj]
    argv.append(tu.src)
    return argv


def msvc_link_argv(tg: Target) -> list[str]:
    return ["link.exe", "/nologo", "/OUT:" + tg.output] + tg.inputs


def msvc_project(rng: random.Random, n_tus: int) -> tuple[list, list]:
    tus = []
    for i in range(n_tus):
        mod = _MODULES[i % 4]
        alt = rng.random() < 0.3
        opt = [("-" if alt else "/") + ("O2" if rng.random() < 0.8 else "Od")]
        defines = ["WIN32", "_WINDOWS", 'APPNAME="ci app"' if i % 5 == 0 else "NDEBUG"]
        tus.append(Tu(f"src\\{mod}\\{mod}_{i:03d}.cpp", f"obj\\{mod}_{i:03d}.obj", mod,
                      opt, defines, "on", alt_spelling=alt))
    targets = [Target("bin\\app.exe", [t.obj for t in tus] + ["kernel32.lib", "user32.lib"])]
    return tus, targets


_MSVC_LIB = ["lib.exe", "/nologo", "/OUT:lib\\util.lib", "obj\\util_003.obj"]


def _spool(rng: random.Random, tus, targets) -> dict[str, str]:
    """Wrapper spool files: several writer processes, records ordered by ts."""
    files: dict[str, list] = {}
    for i, tu in enumerate(tus):
        rec = {"v": 1, "argv": msvc_tu_argv(tu), "cwd": MSVC_ROOT,
               "ts": f"2026-01-01T00:00:{i:02d}.000Z", "tool": "cl"}
        files.setdefault(f"cl-{rng.randrange(4)}.jsonl", []).append(json.dumps(rec))
    for tg in targets:
        rec = {"v": 1, "argv": msvc_link_argv(tg), "cwd": MSVC_ROOT,
               "ts": "2026-01-01T00:01:00.000Z", "tool": "link"}
        files.setdefault("link-0.jsonl", []).append(json.dumps(rec))
    # A resource compile and a static library: captured, then skipped by ingest.
    for argv, tool in ((["rc.exe", "/nologo", "/fo", "obj\\app.res", "app.rc"], "rc"),
                       (_MSVC_LIB, "lib")):
        rec = {"v": 1, "argv": argv, "cwd": MSVC_ROOT, "ts": "2026-01-01T00:00:59.000Z",
               "tool": tool}
        files.setdefault("misc-0.jsonl", []).append(json.dumps(rec))
    return {name: "\n".join(lines) + "\n" for name, lines in files.items()}


def _compdb(tus, targets) -> str:
    entries = []
    for i, tu in enumerate(tus):
        argv = msvc_tu_argv(tu)
        e = {"directory": MSVC_ROOT, "file": tu.src}
        if i % 3 == 2:
            e["arguments"] = argv
        else:
            e["command"] = " ".join(_msvc_quote(a) for a in argv)
        entries.append(e)
    for tg in targets:
        entries.append({"directory": MSVC_ROOT, "file": tg.output,
                        "command": " ".join(_msvc_quote(a) for a in msvc_link_argv(tg))})
    entries.append({"directory": MSVC_ROOT, "file": "lib\\util.lib", "arguments": _MSVC_LIB})
    return json.dumps(entries, indent=1) + "\n"


def msvc_label(rng: random.Random, root: str, subdir: str, name: str, n_builds: int,
               n_tus: int) -> Label:
    """A CI label: MSVC builds alternating between wrapper spools and compdbs."""
    label = Label(name, "msvc", MSVC_ROOT)
    tus, targets = msvc_project(rng, n_tus)
    for b in range(n_builds):
        if b:
            tus, targets = drift(rng, tus, targets, False, family="msvc")
        if b % 2 == 0:
            rel = f"{subdir}/spool-{b}"
            for fname, body in _spool(rng, tus, targets).items():
                write(root, f"{rel}/{fname}", body)
            kind, skipped = "spool", 2
        else:
            rel = f"{subdir}/compile_commands-{b}.json"
            write(root, rel, _compdb(tus, targets))
            kind, skipped = "compdb", 1
        label.builds.append(Build(f"{name}-{b}", created(b), kind, rel, tus, targets, skipped))
    return label


# --------------------------------------------------------------------------
# Makefiles and ELF files


def makefile(rng: random.Random, n_vars: int) -> tuple[str, list[tuple[str, int]]]:
    """A makefile whose only never-expanded near-misses are the seeded typos.

    Returns the text and the (name, line) pairs the linter must report.
    """
    vocab = ("CFLAGS", "CXXFLAGS", "CPPFLAGS", "LDFLAGS", "LDLIBS", "ASFLAGS")
    builtin = set(vocab) | {"ARFLAGS", "YFLAGS", "LFLAGS"}
    lines, typos = [], []
    used = []
    for i in range(n_vars):
        r = rng.random()
        if r < 0.04:
            word = rng.choice(vocab)
            j = rng.randrange(1, len(word))
            name = word[:j] + word[j + 1:]  # one deleted letter
            if name in builtin or name in {n for n, _ in typos}:
                continue
            lines.append(f"{name} = -O2 -DTYPO_{i}")
            typos.append((name, len(lines)))
        elif r < 0.3:
            lines.append(f"{rng.choice(vocab)} += -DV{i}")
        else:
            name = f"PROJ_{rng.choice(_MODULES).upper()}_SRCS_{i}"
            lines.append(f"{name} := src/{i}.c \\")
            lines.append(f"    src/{i}_impl.c")
            used.append(name)
        if i % 10 == 0:
            lines.append(f"ifeq ($(PLATFORM),p{i})")
            lines.append(f"  PLATFORM_FLAGS_{i} := -march=native")
            lines.append("endif")
            used.append(f"PLATFORM_FLAGS_{i}")
    lines.append("all: app")
    lines.append("app: " + " ".join(f"$({n})" for n in used[: len(used) // 2]))
    lines.append("\t$(CC) $(CFLAGS) $(CPPFLAGS) -o $@ $^ $(LDFLAGS) "
                 + " ".join(f"$({n})" for n in used[len(used) // 2:]))
    return "\n".join(lines) + "\n", typos


_SHDR = struct.Struct("<IIQQQQIIQQ")


def elf(rng: random.Random, comment: list[str]) -> bytes:
    """A little-endian ELF64 relocatable with .text, .comment and .shstrtab."""
    text = rng.randbytes(4096)
    comment_b = b"".join(s.encode() + b"\x00" for s in comment)
    shstrtab = b"\x00.text\x00.comment\x00.shstrtab\x00"
    off_text = 64
    off_comment = off_text + len(text)
    off_shstr = off_comment + len(comment_b)
    shoff = (off_shstr + len(shstrtab) + 7) & ~7
    ehdr = struct.pack("<16sHHIQQQIHHHHHH", b"\x7fELF\x02\x01\x01" + b"\x00" * 9,
                       1, 0x3E, 1, 0, 0, shoff, 0, 64, 0, 0, 64, 4, 3)
    blob = bytearray(ehdr) + text + comment_b + shstrtab
    blob += b"\x00" * (shoff - len(blob))
    for sh in ((0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
               (1, 1, 0x6, 0, off_text, len(text), 0, 0, 16, 0),
               (7, 1, 0x30, 0, off_comment, len(comment_b), 0, 0, 1, 1),
               (16, 3, 0, 0, off_shstr, len(shstrtab), 0, 0, 1, 0)):
        blob += _SHDR.pack(*sh)
    return bytes(blob)


def tree_digest(root: str) -> str:
    """SHA-256 over every file path and its bytes under root, in sorted order."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


# --------------------------------------------------------------------------
# Expected results


def subjects(label: Label, build: Build) -> list[str]:
    return [norm(t.src, label.cwd) for t in build.tus]


def expected_ingest(build: Build) -> dict:
    return {"tus": len(build.tus), "targets": len(build.targets), "skipped": build.skipped}


def expected_opts(label: Label, build: Build) -> dict[str, str]:
    return {norm(t.src, label.cwd): opt_value(t, label.family) for t in build.tus}


def _tu_signature(tu: Tu) -> tuple:
    return (tuple(tu.opt), tuple(tu.defines), tu.hardening, tu.rsp, tu.alt_spelling)


def expected_diff(label: Label, a: Build, b: Build) -> dict:
    """Which subjects the drift between a and b touched."""
    sa = {norm(t.src, label.cwd): _tu_signature(t) for t in a.tus}
    sb = {norm(t.src, label.cwd): _tu_signature(t) for t in b.tus}
    ta = {norm(t.output, label.cwd): t.inputs for t in a.targets}
    tb = {norm(t.output, label.cwd): t.inputs for t in b.targets}
    return {
        "added_tus": sorted(set(sb) - set(sa)),
        "removed_tus": sorted(set(sa) - set(sb)),
        "changed_tus": sorted(s for s in set(sa) & set(sb) if sa[s] != sb[s]),
        "changed_targets": sorted(o for o in set(ta) & set(tb) if ta[o] != tb[o]),
    }


def expected_audit(label: Label, build: Build, previous: Build | None) -> tuple[list, int]:
    """(rule, subject) pairs the audit must report, sorted, and its exit code."""
    release = label.name == RELEASE_LABEL
    found = []
    by_obj = {norm(t.obj, label.cwd): t for t in build.tus}
    if release:
        any_ndebug = any("NDEBUG" in define_names(t) for t in build.tus)
        for t in build.tus:
            names = define_names(t)
            if names & DEBUG_MARKERS or (any_ndebug and "NDEBUG" not in names):
                found.append(("R1", norm(t.src, label.cwd)))
            if t.hardening != "on":
                found.append(("R4", norm(t.src, label.cwd)))
    for tg in build.targets:
        members = [by_obj[p] for p in (norm(x, label.cwd) for x in tg.inputs) if p in by_obj]
        if len({m.opt[-1] for m in members}) > 1:
            found.append(("R2", norm(tg.output, label.cwd)))
    if previous is not None:
        before = {norm(t.output, label.cwd): t.inputs for t in previous.targets}
        for tg in build.targets:
            old = before.get(norm(tg.output, label.cwd))
            if old is not None and sorted(old) == sorted(tg.inputs) and old != tg.inputs:
                found.append(("R7", norm(tg.output, label.cwd)))
    found.sort()
    rules = {r for r, _ in found}
    code = 1 if "R4" in rules else 4 if rules & {"R1", "R2", "R5", "R7"} else 0
    return found, code
