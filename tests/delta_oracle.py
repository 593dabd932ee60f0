"""Inverse of flagtrace.diffengine.diff, used only by tests.

The diff properties check that forward deltas take one effective set to
the other and that reversing a diff swaps each delta's two sides.
"""

from flagtrace.diffengine import DEFINE, GROUP, INCLUDE_ORDER, LINK_ORDER, OPAQUE, FlagDelta
from flagtrace.flagmodel import EffectiveFlagSet, FlagEntry


def entry_from_dict(d: dict) -> FlagEntry:
    return FlagEntry(d["key"], d["value"], d["polarity"], d["spelling"], group=d["group"])


def swapped(delta: FlagDelta) -> FlagDelta:
    return FlagDelta(delta.scope, delta.name, delta.after, delta.before)


def apply_deltas(base: EffectiveFlagSet, deltas: list[FlagDelta]) -> EffectiveFlagSet:
    """Apply a forward delta list to a base set; inverse check for diff."""
    out = base.extend([])  # a copy
    for d in deltas:
        if d.scope == GROUP:
            if d.after is None:
                out.scalar_groups.pop(d.name, None)
            else:
                out.scalar_groups[d.name] = entry_from_dict(d.after)
        elif d.scope == DEFINE:
            out.defines.pop(d.name, None)
            if d.after is not None:
                out.defines[d.name] = entry_from_dict(d.after)
        elif d.scope == INCLUDE_ORDER:
            out.include_dirs = [entry_from_dict(x) for x in d.after]
        elif d.scope == LINK_ORDER:
            out.link_inputs = [entry_from_dict(x) for x in d.after]
        elif d.scope == OPAQUE:
            out.opaque = [entry_from_dict(x) for x in d.after]
    return out
