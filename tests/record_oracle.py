"""Reference record-line encoder, used only by tests.

`encode_record` is the snapshot record encoder as first written: the
record's dict form, as a load reads it back, given to one `json.dumps`
call with sorted keys. `snapshot._encode_record`, which writes each line
from its parts, must give the same string for every record.
"""

import json

from flagtrace import snapshot


def record_dict(rec, by_output: dict) -> dict:
    """The record as a JSON object: its own fields, a target's member lists, its kind,
    its invocation (a command-line token as its bare text) and its effective text."""
    d = {name: getattr(rec, name) for name in rec.FIELDS}
    if rec.KIND == "target":
        d.update(snapshot._members(rec, by_output))
    inv = rec.invocation
    d.update(kind=rec.KIND, effective=rec.effective_text, invocation={
        "program": inv.program,
        "tokens": [t if o is None else {"text": t, "origin": {"kind": "response-file", **vars(o)}}
                   for t, o in zip(inv.tokens, inv.origins)],
        "cwd": inv.cwd,
        "source": inv.source,
        "dialect": {"family": inv.dialect.family.value, "tool_kind": inv.dialect.tool_kind.value},
    })
    return d


def encode_record(rec, by_output: dict) -> str:
    return json.dumps(record_dict(rec, by_output), sort_keys=True, ensure_ascii=False,
                      separators=(",", ":"))
