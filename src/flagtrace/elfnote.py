"""Post-link flag-provenance stamping into ELF note sections.

A `.note.flagtrace` SHT_NOTE section is added to an ELF64 little-endian
object/executable/shared object after linking, so no compiler needs
modifying. Stamping never moves existing bytes and rewrites only the
64-byte ELF header. Past the end of the file it appends, in one write,
the section-name table extended with `.note.flagtrace` (only when the
name is missing from it), the note and a fresh section header table.
One fsync follows, then the header is re-pointed at the new table
(`e_shoff`, `e_shentsize`, `e_shnum`). The fsync is the ordering
barrier: until the header write the old header describes the old file,
so a crash, a kill or a full disk leaves the old stamp or the new one.
POSIX does not promise that a 64-byte write is atomic; this relies on
the header sitting inside one disk sector. A re-stamp that replaces
the note leaves the old note and the old section table as dead bytes,
so the file grows by one note and one table each time. Program headers
(and therefore loadability) are untouched.

Note name: "FLAGTRACE"; note type: 0x464c4754. On-disk encoding is the
standard ELF note record: 4-byte namesz/descsz/type words, name and
desc each zero-padded to 4-byte alignment.
"""

from __future__ import annotations

import fcntl
import json
import os
import struct
from dataclasses import asdict, dataclass, replace
from pathlib import Path

from . import strictjson
from .errors import MalformedNote, NotElf, UnsupportedClass

NOTE_NAME = "FLAGTRACE"
NOTE_TYPE = 0x464C4754
NOTE_SECTION = ".note.flagtrace"
COMMENT_SECTION = ".comment"
PAYLOAD_CAP = 64 * 1024
PAYLOAD_VERSION = 1

SHT_NOTE = 7
SHT_NOBITS = 8
SHN_LORESERVE = 0xFF00

_EHDR = struct.Struct("<16sHHIQQQIHHHHHH")
_SHDR = struct.Struct("<IIQQQQIIQQ")


def _pad4(n: int) -> int:
    return (n + 3) & ~3


@dataclass(frozen=True)
class NotePayload:
    build_id: str
    subject: str  # TU source or link-target output the flags describe
    effective_digest: str  # hex digest of the canonical flag serialization
    flags_text: str | None = None  # the serialization itself, size-capped
    version: int = PAYLOAD_VERSION

    def to_bytes(self) -> bytes:
        doc = asdict(self)
        if self.flags_text is None:
            del doc["flags_text"]
        data = json.dumps(doc, ensure_ascii=False, sort_keys=True,
                          separators=(",", ":")).encode("utf-8")
        if len(data) > PAYLOAD_CAP and self.flags_text is not None:
            # Digest stays; the full text is elided under the size cap.
            return replace(self, flags_text=None).to_bytes()
        return data

    @classmethod
    def from_bytes(cls, data: bytes) -> "NotePayload":
        doc = strictjson.loads(data.decode("utf-8"))
        p = cls(doc["build_id"], doc["subject"], doc["effective_digest"],
                doc.get("flags_text"), doc.get("version", PAYLOAD_VERSION))
        if not (all(type(v) is str for v in (p.build_id, p.subject, p.effective_digest))
                and type(p.flags_text) in (str, type(None)) and type(p.version) is int):
            raise TypeError("a payload field has the wrong JSON type")
        if p.version != PAYLOAD_VERSION:
            raise ValueError(f"unsupported payload version {p.version}")
        return p


@dataclass
class _Elf:
    data: bytes
    ehdr: tuple
    shdrs: list[list]
    shstrtab: bytes

    def section_name(self, shdr) -> str:
        off = shdr[0]
        end = self.shstrtab.find(b"\x00", off)
        return self.shstrtab[off : end if end >= 0 else len(self.shstrtab)].decode(
            "utf-8", "replace"
        )

    def section_content(self, shdr) -> bytes:
        if shdr[1] == SHT_NOBITS:
            return b""
        return self.data[shdr[4] : shdr[4] + shdr[5]]

    def find(self, name: str) -> int:
        for i, sh in enumerate(self.shdrs):
            if i and self.section_name(sh) == name:
                return i
        return -1


def _parse(path: str, data: bytes) -> _Elf:
    if len(data) < 64 or data[:4] != b"\x7fELF":
        raise NotElf(path)
    if data[4] != 2:
        raise UnsupportedClass("only ELF64 is supported")
    if data[5] != 1:
        raise UnsupportedClass("only little-endian ELF is supported")
    ehdr = _EHDR.unpack_from(data, 0)
    (_, _, _, _, _, _, e_shoff, _, _, _, _, e_shentsize, e_shnum, e_shstrndx) = ehdr
    if e_shoff == 0 or e_shnum == 0:
        raise MalformedNote(0, "no section header table")
    if e_shentsize < _SHDR.size or e_shoff + e_shnum * e_shentsize > len(data):
        raise MalformedNote(e_shoff, "section header table exceeds the file")
    shdrs = [list(_SHDR.unpack_from(data, e_shoff + i * e_shentsize)) for i in range(e_shnum)]
    if e_shstrndx >= e_shnum:
        raise MalformedNote(e_shoff, "bad section name table index")
    st = shdrs[e_shstrndx]
    if st[4] + st[5] > len(data):
        raise MalformedNote(st[4], "section name table exceeds the file")
    return _Elf(data, ehdr, shdrs, data[st[4] : st[4] + st[5]])


def _encode_note(name: str, note_type: int, desc: bytes) -> bytes:
    name_b = name.encode("utf-8") + b"\x00"
    out = struct.pack("<III", len(name_b), len(desc), note_type)
    out += name_b + b"\x00" * (_pad4(len(name_b)) - len(name_b))
    out += desc + b"\x00" * (_pad4(len(desc)) - len(desc))
    return out


def read_stamp(elf_path: str) -> NotePayload | None:
    """Parse the flagtrace note if present; absent is not an error."""
    elf = _parse(elf_path, Path(elf_path).read_bytes())
    idx = elf.find(NOTE_SECTION)
    if idx < 0:
        return None
    note, at = elf.section_content(elf.shdrs[idx]), elf.shdrs[idx][4]
    if len(note) < 12:
        raise MalformedNote(at, "note shorter than its header")
    namesz, descsz, note_type = struct.unpack_from("<III", note, 0)
    desc_start = 12 + _pad4(namesz)
    if desc_start + descsz > len(note):
        raise MalformedNote(at, "descsz exceeds section size")
    if note[12 : 12 + namesz].rstrip(b"\x00") != NOTE_NAME.encode() or note_type != NOTE_TYPE:
        raise MalformedNote(at, "unexpected note name or type")
    try:
        return NotePayload.from_bytes(note[desc_start : desc_start + descsz])
    except (ValueError, KeyError, TypeError) as exc:
        raise MalformedNote(at, str(exc)) from None


def read_comment(elf_path: str) -> list[str]:
    """Producer strings from .comment, split on NUL, empties dropped."""
    elf = _parse(elf_path, Path(elf_path).read_bytes())
    idx = elf.find(COMMENT_SECTION)
    if idx < 0:
        return []
    content = elf.section_content(elf.shdrs[idx])
    return [p.decode("utf-8", "replace") for p in content.split(b"\x00") if p]


def stamp(elf_path: str, payload: NotePayload) -> None:
    """Embed (or replace) the flagtrace note as the module docstring describes.

    A file whose note is byte for byte the one this stamp would write is
    left as it is; any other note is replaced. A file with
    no section name table (`e_shstrndx` 0), one that would need
    SHN_LORESERVE or more section headers, and one in which another
    section would take the note's name are refused with MalformedNote
    before any write. An exclusive advisory lock is held while writing.
    """
    note = _encode_note(NOTE_NAME, NOTE_TYPE, payload.to_bytes())
    with open(elf_path, "r+b") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX)
        data = fh.read()
        elf = _parse(elf_path, data)
        e_shoff, e_shstrndx = elf.ehdr[6], elf.ehdr[13]

        shdrs = [list(sh) for sh in elf.shdrs]
        note_idx = elf.find(NOTE_SECTION)
        if note_idx >= 0:
            if elf.section_content(shdrs[note_idx]) == note:
                return
        else:
            note_idx = len(shdrs)
            shdrs.append([])
        if e_shstrndx in (0, note_idx):
            raise MalformedNote(e_shoff, "no section name table for the note's name")
        if len(shdrs) >= SHN_LORESERVE:
            raise MalformedNote(e_shoff, "too many sections to add the note")

        end = len(data)
        tail = bytearray()
        strtab = elf.shstrtab
        name_tag = NOTE_SECTION.encode("utf-8") + b"\x00"
        # Reuse only a name that starts after a NUL, so never name offset 0.
        name_off = strtab.find(b"\x00" + name_tag) + 1
        if not name_off:
            # End an empty or unterminated table with a NUL, then append the name.
            name_off = len(strtab) + (strtab[-1:] != b"\x00")
            strtab = strtab.ljust(name_off, b"\x00") + name_tag
            shdrs[e_shstrndx][4:6] = [end, len(strtab)]
            tail += strtab
        tail += bytes(-(end + len(tail)) % 4)
        shdrs[note_idx] = [name_off, SHT_NOTE, 0, 0, end + len(tail), len(note), 0, 0, 4, 0]
        if _Elf(data, elf.ehdr, shdrs, strtab).find(NOTE_SECTION) != note_idx:
            raise MalformedNote(e_shoff, "another section would take the note's name")
        tail += note + bytes(-(end + len(tail) + len(note)) % 8)

        ehdr = list(elf.ehdr)
        ehdr[6] = end + len(tail)  # e_shoff
        ehdr[11] = _SHDR.size  # e_shentsize: the table is rewritten with 64-byte entries
        ehdr[12] = len(shdrs)  # e_shnum
        tail += b"".join(_SHDR.pack(*sh) for sh in shdrs)

        fh.seek(end)
        fh.write(tail)
        fh.flush()
        os.fsync(fh.fileno())
        fh.seek(0)
        fh.write(_EHDR.pack(*ehdr))
