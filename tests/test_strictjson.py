"""`strictjson.loads` against `json.loads`, on text that is one JSON value and on text that is not."""

import json

from hypothesis import example, given, strategies as st

from flagtrace import strictjson
from test_ingest import DEEP_JSON

_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4))
_VALUES = st.recursive(_SCALARS, lambda inner: st.lists(inner, max_size=3)
                       | st.dictionaries(st.text(max_size=3), inner, max_size=3), max_leaves=6)
# Pieces of text: JSON values as json.dumps writes them, NaN and infinities among the
# floats; lone and paired surrogate escapes; and fragments that are no JSON value.
_PIECES = st.one_of(
    _VALUES.map(json.dumps),
    _VALUES.map(lambda v: json.dumps(v, ensure_ascii=False, separators=(",", ":"))),
    st.sampled_from(['"\\ud800"', '["\\udfff", 1]', '{"\\udc00":0}', '"\\ud83d\\ude00"', '"\\\\ud800"',
                     "NaN", "-Infinity", "nul", "1.", "01", "-", '{"a" 1}', "]", '"\\u12"', "\ufeff{}"]),
    st.text(alphabet='[]{}",:0123456789-.eE tnrufalsNI\\', max_size=8),
)
_SPACE = st.text(alphabet=" \t\n\r\x0b\x85\u2028", max_size=2)  # JSON's whitespace and other spaces
# Leading and trailing space, and one piece or two on a line, the second a value or garbage.
TEXTS = st.builds(lambda lead, pieces, gap, trail: lead + gap.join(pieces) + trail,
                  _SPACE, st.lists(_PIECES, min_size=1, max_size=2), st.sampled_from(["", " ", ","]), _SPACE)


def _outcome(loads, text: str):
    """("value", repr of what `loads` gives), else ("error", its message)."""
    try:
        return "value", repr(loads(text))
    except ValueError as exc:
        return "error", str(exc)


def _reference(text: str):
    """`json.loads`, with the two refusals `strictjson.loads` adds: JSON nested past the
    recursion limit, and a string that UTF-8 cannot hold, each a ValueError."""
    try:
        value = json.loads(text)
    except RecursionError as exc:
        raise ValueError(str(exc)) from None
    json.dumps(value, ensure_ascii=False).encode("utf-8")  # UnicodeEncodeError is a ValueError
    return value


@given(TEXTS)
@example(DEEP_JSON)
@example(" [1] ")
@example("[1] [2]")
@example('{"a": NaN}x')
@example('"\\ud800"')
@example("")
def test_loads_agrees_with_json_loads(text):
    """Each text gives the value json.loads gives it, or both raise ValueError; where
    json.loads itself refuses the text, with the same message."""
    got, want = _outcome(strictjson.loads, text), _outcome(_reference, text)
    if want[0] == "value":
        assert got == want
    else:
        assert got[0] == "error"
        try:
            json.loads(text)
        except json.JSONDecodeError as exc:
            assert got[1] == str(exc)
        except RecursionError:
            pass
