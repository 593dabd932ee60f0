"""JSON input whose strings are all valid Unicode text.

`json.loads` turns a \\u escape of a lone UTF-16 surrogate (\\uD800 to
\\uDFFF, not half of a pair) into a str that no UTF-8 text holds, and
writing that str out later fails. `loads` rejects such input where it is
read, so each reader reports it as its own malformed-input error. So is
JSON nested past the recursion limit.
"""

from __future__ import annotations

import json
import re

# What a \u escape of a surrogate looks like. It also matches an escaped
# backslash before "ud800"; the check it lets through is exact.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")
_scan_once = json.JSONDecoder().scan_once  # json.loads's scanner, raising its errors for a value


def loads(text: str):
    """`json.loads(text)`, raising ValueError if a string in it holds a lone surrogate.

    `text` must itself hold none, as text decoded from UTF-8 does. Each text
    is searched once for a surrogate escape; only text with one is re-encoded.
    """
    try:
        try:  # text that ends in a space is json.loads's alone, not scanned twice
            value, end = (None, -1) if text[-1:].isspace() else _scan_once(text, 0)
        except StopIteration:  # no value starts at index 0, as where text starts with a space
            end = -1
        if end != len(text):  # not one value alone: json.loads's rules and errors
            value = json.loads(text)
    except RecursionError as exc:
        raise ValueError(str(exc)) from None
    if _SURROGATE_ESCAPE.search(text):
        try:
            json.dumps(value, ensure_ascii=False).encode("utf-8")
        except UnicodeEncodeError:
            raise ValueError("a \\u escape gives a lone surrogate, which UTF-8 cannot hold") from None
    return value


def is_str_list(value) -> bool:
    """Whether a decoded JSON value is an array of strings."""
    return type(value) is list and {*map(type, value)} <= {str}
