"""Forge a stored build: a snapshot file edited after writing is made to pass its hash check.

A test that damages a record line, and wants the damage to reach the record
decoder instead of stopping at the hash check, forges the build afterwards.
The content hash is recomputed over the `tu` and `target` lines by the
function writing uses, the header is re-encoded as writing writes it (so a
header with a mistyped field is still written), and the old hash is swapped
for the new one in the index line that names the file. A file that does not
decode is left as it is.
"""

import json

from flagtrace.snapshot import _content_hash


def forged(data: bytes) -> tuple[bytes, object, str] | None:
    """The snapshot file `data` with its content hash recomputed and its header re-encoded,
    with the hash its header held and the new one; None when a line does not decode."""
    header, *lines = data.removesuffix(b"\n").split(b"\n")
    try:
        header = json.loads(header)
        old = header["content_hash"]
        records = [line for line in lines if json.loads(line)["kind"] in ("tu", "target")]
    except (ValueError, TypeError, KeyError):
        return None
    header["content_hash"] = new = _content_hash(records)
    header = json.dumps(header, ensure_ascii=False, sort_keys=True, separators=(",", ":"))
    return b"\n".join([header.encode("utf-8", "surrogatepass"), *lines, b""]), old, new


def forge(files: dict[str, bytes], name: str) -> None:
    """Forge the snapshot `files[name]` of a store's files, each keyed by its path in the
    store, and swap its hash in the `index.tsv` line that names it."""
    if (forgery := forged(files[name])) is None:
        return
    files[name], old, new = forgery
    if isinstance(old, str):
        files["index.tsv"] = files["index.tsv"].replace(
            f"\t{old}\t{name}\n".encode("utf-8", "surrogatepass"), f"\t{new}\t{name}\n".encode())
