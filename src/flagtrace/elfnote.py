"""Post-link flag-provenance stamping into ELF note sections.

A `.note.flagtrace` SHT_NOTE section is appended to an ELF64
little-endian object/executable/shared object after linking, so no
compiler needs modifying. Stamping never moves existing bytes: new note
data, an extended section-name table when needed, and a fresh section
header table are appended at the end of the file, and the ELF header is
re-pointed. Program headers (and therefore loadability) are untouched.

Note name: "FLAGTRACE"; note type: 0x464c4754. On-disk encoding is the
standard ELF note record: 4-byte namesz/descsz/type words, name and
desc each zero-padded to 4-byte alignment.
"""

from __future__ import annotations

import fcntl
import json
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
        return p


@dataclass
class _Elf:
    data: bytearray
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
        return bytes(self.data[shdr[4] : shdr[4] + shdr[5]])

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
    shstrtab = bytes(data[st[4] : st[4] + st[5]])
    return _Elf(bytearray(data), ehdr, shdrs, shstrtab)


def _encode_note(name: str, note_type: int, desc: bytes) -> bytes:
    name_b = name.encode("utf-8") + b"\x00"
    out = struct.pack("<III", len(name_b), len(desc), note_type)
    out += name_b + b"\x00" * (_pad4(len(name_b)) - len(name_b))
    out += desc + b"\x00" * (_pad4(len(desc)) - len(desc))
    return out


def _decode_note(section: bytes, base_offset: int) -> tuple[str, int, bytes]:
    if len(section) < 12:
        raise MalformedNote(base_offset, "note shorter than its header")
    namesz, descsz, note_type = struct.unpack_from("<III", section, 0)
    name_end = 12 + namesz
    desc_start = 12 + _pad4(namesz)
    desc_end = desc_start + descsz
    if desc_end > len(section):
        raise MalformedNote(base_offset, "descsz exceeds section size")
    name = section[12:name_end].rstrip(b"\x00").decode("utf-8", "replace")
    return name, note_type, bytes(section[desc_start:desc_end])


def read_stamp(elf_path: str) -> NotePayload | None:
    """Parse the flagtrace note if present; absent is not an error."""
    elf = _parse(elf_path, Path(elf_path).read_bytes())
    idx = elf.find(NOTE_SECTION)
    if idx < 0:
        return None
    shdr = elf.shdrs[idx]
    name, note_type, desc = _decode_note(elf.section_content(shdr), shdr[4])
    if name != NOTE_NAME or note_type != NOTE_TYPE:
        raise MalformedNote(shdr[4], "unexpected note name or type")
    try:
        return NotePayload.from_bytes(desc)
    except (ValueError, KeyError, TypeError) as exc:
        raise MalformedNote(shdr[4], str(exc)) from None


def read_comment(elf_path: str) -> list[str]:
    """Producer strings from .comment, split on NUL, empties dropped."""
    elf = _parse(elf_path, Path(elf_path).read_bytes())
    idx = elf.find(COMMENT_SECTION)
    if idx < 0:
        return []
    content = elf.section_content(elf.shdrs[idx])
    return [p.decode("utf-8", "replace") for p in content.split(b"\x00") if p]


def _content_end(elf: _Elf) -> int:
    ehdr = elf.ehdr
    e_phoff, e_phentsize, e_phnum = ehdr[5], ehdr[9], ehdr[10]
    end = 64
    if e_phnum:
        end = max(end, e_phoff + e_phnum * e_phentsize)
    for i, sh in enumerate(elf.shdrs):
        if i == 0 or sh[1] == SHT_NOBITS:
            continue
        end = max(end, sh[4] + sh[5])
    return end


def stamp(elf_path: str, payload: NotePayload) -> None:
    """Embed (or replace) the flagtrace note; pre-existing bytes stay put.

    Re-stamping with an equal payload is a byte-level no-op. An
    exclusive advisory lock is held on the target file while writing.
    """
    with open(elf_path, "r+b") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX)
        data = fh.read()
        elf = _parse(elf_path, data)

        old_idx = elf.find(NOTE_SECTION)
        if old_idx >= 0:
            shdr = elf.shdrs[old_idx]
            _, _, desc = _decode_note(elf.section_content(shdr), shdr[4])
            if desc == payload.to_bytes():
                return

        note_bytes = _encode_note(NOTE_NAME, NOTE_TYPE, payload.to_bytes())
        out = bytearray(data[: _content_end(elf)])

        name_tag = NOTE_SECTION.encode("utf-8") + b"\x00"
        name_off = elf.shstrtab.find(name_tag)
        # Accept only a match that starts a string (offset 0 or after a NUL).
        while name_off > 0 and elf.shstrtab[name_off - 1] != 0:
            name_off = elf.shstrtab.find(name_tag, name_off + 1)
        shdrs = [list(sh) for sh in elf.shdrs]
        e_shstrndx = elf.ehdr[13]
        if name_off < 0:
            new_strtab = elf.shstrtab + name_tag
            name_off = len(elf.shstrtab)
            strtab_off = len(out)
            out += new_strtab
            shdrs[e_shstrndx][4] = strtab_off
            shdrs[e_shstrndx][5] = len(new_strtab)

        note_off = _pad4(len(out))
        out += b"\x00" * (note_off - len(out)) + note_bytes
        note_shdr = [name_off, SHT_NOTE, 0, 0, note_off, len(note_bytes), 0, 0, 4, 0]
        if old_idx >= 0:
            shdrs[old_idx] = note_shdr
        else:
            shdrs.append(note_shdr)

        shoff = (len(out) + 7) & ~7
        out += b"\x00" * (shoff - len(out))
        for sh in shdrs:
            out += _SHDR.pack(*sh)

        ehdr = list(elf.ehdr)
        ehdr[6] = shoff  # e_shoff
        ehdr[11] = _SHDR.size  # e_shentsize: the table is rewritten with 64-byte entries
        ehdr[12] = len(shdrs)  # e_shnum
        _EHDR.pack_into(out, 0, *ehdr)

        fh.seek(0)
        fh.write(out)
        fh.truncate(len(out))
