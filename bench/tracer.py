"""Spans and counts around flagtrace's public functions, for traced runs only.

``Tracer.install()`` replaces each traced function by a wrapper at every
place a caller looks it up: the defining module, every ``flagtrace``
module that imported the name (``flagtrace.ingest.tokenize`` as well as
``flagtrace.cmdline.tokenize``), or the class for methods.
``uninstall()`` puts the originals back.  Nothing in the program is
edited; untraced runs never import this module.

A span is (function, start, end, parent span, command id).  Spans stay
in memory until ``write_spans`` is called at the end of the run.  A
function's self time is the sum over its spans of the duration minus the
part covered by direct child spans.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter

# layer -> public functions whose spans and counts the traced run reports
TRACED = {
    "cmdline": ("tokenize", "expand_response_files"),
    "flagmodel": ("classify_all", "resolve", "canonical_serialize"),
    "ingest": ("parse_evidence", "assemble_snapshot"),
    "snapshot": ("BuildSnapshot.serialize", "BuildSnapshot.deserialize"),
    "store": ("Store.put", "Store.get", "Store.history", "Store.list_builds"),
    "diffengine": ("diff", "render_report"),
    "audit": ("run_audit", "render_findings"),
    "elfnote": ("stamp", "read_stamp", "read_comment"),
    "mklint": ("scan_makefile", "lint"),
    "cli": ("run",),
}


def _observe_tokenize(c: Counter, args, result) -> None:
    c["cmdline.tokens"] += len(result)


def _observe_classify_all(c: Counter, args, result) -> None:
    c["flagmodel.entries"] += len(result)
    c["flagmodel.opaque"] += sum(1 for e in result if e.key == "opaque")


def _observe_assemble(c: Counter, args, result) -> None:
    c["ingest.invocations"] += len(args[0])
    c["ingest.skipped"] += len(result.diagnostics)


def _observe_diff(c: Counter, args, result) -> None:
    c["diffengine.deltas"] += sum(len(v) for v in result.per_tu_changes.values())
    c["diffengine.deltas"] += sum(len(v) for v in result.per_target_changes.values())


def _observe_audit(c: Counter, args, result) -> None:
    c["audit.findings"] += len(result)


_OBSERVERS = {
    "cmdline.tokenize": _observe_tokenize,
    "flagmodel.classify_all": _observe_classify_all,
    "ingest.assemble_snapshot": _observe_assemble,
    "diffengine.diff": _observe_diff,
    "audit.run_audit": _observe_audit,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []  # "<layer>.<function>", indexed by span[0]
        self.spans: list[tuple] = []  # (name index, start, end, parent, command id)
        self.counts = Counter()
        self.command = -1
        self._stack: list[int] = []
        self._patches: list[tuple] = []  # (owner, attribute, original, wrapper)
        self._find_patches()

    def _wrap(self, name: str, fn):
        idx = len(self.names)
        self.names.append(name)
        observe = _OBSERVERS.get(name)
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            me = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(me)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[me] = (idx, start, end, parent, self.command)
            counts[name + ".calls"] += 1
            if observe is not None:
                observe(counts, args, result)
            return result

        return traced

    def _find_patches(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "flagtrace" or n.startswith("flagtrace.")]
        for layer, functions in TRACED.items():
            mod = importlib.import_module(f"flagtrace.{layer}")
            for qual in functions:
                name = f"{layer}.{qual.rsplit('.', 1)[-1]}"
                if "." in qual:
                    cls_name, attr = qual.split(".")
                    cls = getattr(mod, cls_name)
                    raw = cls.__dict__[attr]
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self._wrap(name, raw.__func__))
                    else:
                        wrapped = self._wrap(name, raw)
                    self._patches.append((cls, attr, raw, wrapped))
                    continue
                original = getattr(mod, qual)
                wrapped = self._wrap(name, original)
                for m in modules:
                    for attr, value in vars(m).items():
                        if value is original:
                            self._patches.append((m, attr, original, wrapped))

    def install(self) -> None:
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {n: 0.0 for n in self.names}
        for i, (idx, start, end, _, _) in enumerate(self.spans):
            out[self.names[idx]] += (end - start) - child[i]
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for idx, start, end, parent, command in self.spans:
                fh.write(json.dumps({"name": self.names[idx], "start": start, "end": end,
                                     "parent": parent, "command": command}) + "\n")
