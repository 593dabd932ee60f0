"""Reference encoders, used only by tests.

`canonical_serialize` is the flag-set encoder as first written: one
`json.dumps` call per line. `classify_each` classifies a token stream
with one `classify` call per token and no memo. The runtime versions
must give the same results.
"""

import json

from flagtrace.flagmodel import EffectiveFlagSet, classify


def _line(*parts) -> str:
    return json.dumps(list(parts), ensure_ascii=False, separators=(",", ":"))


def canonical_serialize(fset: EffectiveFlagSet) -> bytes:
    lines = [_line("flagset", 1)]
    for gid in sorted(fset.scalar_groups):
        e = fset.scalar_groups[gid]
        lines.append(_line("group", gid, e.key, e.polarity, e.value, e.spelling))
    for name in sorted(fset.defines):
        e = fset.defines[name]
        lines.append(_line("define", name, e.value, e.spelling))
    for e in fset.include_dirs:
        lines.append(_line("include", e.value, e.spelling))
    for e in fset.link_inputs:
        lines.append(_line("link", "obj" if e.key == "link_obj" else "lib", e.value, e.spelling))
    for e in fset.sources:
        lines.append(_line("source", e.value))
    for e in fset.opaque:
        lines.append(_line("opaque", e.spelling))
    return ("\n".join(lines) + "\n").encode("utf-8")


def classify_each(tokens, dialect):
    entries = []
    i = 0
    while i < len(tokens):
        nxt = tokens[i + 1] if i + 1 < len(tokens) else None
        entry, consumed = classify(tokens[i], dialect, nxt)
        entries.append(entry)
        i += 2 if consumed else 1
    return entries
