import hashlib
import json
import os
import random
import shutil
import struct
import subprocess
from pathlib import Path

import pytest

from flagtrace import elfnote
from flagtrace.elfnote import (
    NOTE_SECTION,
    NOTE_TYPE,
    NotePayload,
    _encode_note,
    read_comment,
    read_stamp,
    stamp,
)
from flagtrace.cli import run
from flagtrace.errors import MalformedNote, NotElf, UnsupportedClass

import elf_reader
from conftest import build_minimal_elf


def payload_for(build_id="b1", subject="app", text="x=1\n"):
    return NotePayload(
        build_id=build_id,
        subject=subject,
        effective_digest=hashlib.sha256(text.encode()).hexdigest(),
        flags_text=text,
    )


class TestStampRoundTrip:
    def test_round_trip(self, minimal_elf):
        p = payload_for()
        stamp(minimal_elf, p)
        assert read_stamp(minimal_elf) == p

    def test_unstamped_reads_empty(self, minimal_elf):
        assert read_stamp(minimal_elf) is None

    def test_not_elf(self, tmp_path):
        f = tmp_path / "not.o"
        f.write_text("plain text\n")
        with pytest.raises(NotElf):
            stamp(str(f), payload_for())
        with pytest.raises(NotElf):
            read_stamp(str(f))

    @pytest.mark.parametrize("ident, reason", [((1, 1), "only ELF64 is supported"),
                                               ((2, 2), "only little-endian ELF is supported")],
                             ids=["elf32", "big-endian"])
    def test_unsupported_class(self, tmp_path, ident, reason):
        f = tmp_path / "odd.o"
        f.write_bytes(b"\x7fELF" + bytes([*ident, 1, 0]) + b"\x00" * 56)
        with pytest.raises(UnsupportedClass, match=reason):
            read_stamp(str(f))

    def test_preexisting_sections_preserved(self, minimal_elf):
        before = elf_reader.read_sections(minimal_elf)
        stamp(minimal_elf, payload_for())
        after = elf_reader.read_sections(minimal_elf)
        for name, (sh_type, content) in before.items():
            if name == ".shstrtab":
                # the name table gains '.note.flagtrace'; old bytes stay a prefix
                assert after[name][1].startswith(content)
            else:
                assert after[name] == (sh_type, content), name

    def test_second_stamp_equal_payload_is_noop(self, minimal_elf):
        p = payload_for()
        stamp(minimal_elf, p)
        first = Path(minimal_elf).read_bytes()
        stamp(minimal_elf, p)
        assert Path(minimal_elf).read_bytes() == first

    def test_restamp_replaces_payload(self, minimal_elf):
        stamp(minimal_elf, payload_for("b1"))
        stamp(minimal_elf, payload_for("b2"))
        got = read_stamp(minimal_elf)
        assert got.build_id == "b2"
        # still exactly one flagtrace note
        notes = elf_reader.read_notes(minimal_elf, NOTE_SECTION)
        assert len(notes) == 1 and notes[0][0] == "FLAGTRACE"

    def test_independent_reader_agrees(self, minimal_elf):
        p = payload_for()
        stamp(minimal_elf, p)
        notes = elf_reader.read_notes(minimal_elf, NOTE_SECTION)
        assert notes == [("FLAGTRACE", NOTE_TYPE, p.to_bytes())]

    def test_truncated_desc_is_malformed(self, tmp_path, minimal_elf):
        stamp(minimal_elf, payload_for())
        data = bytearray(Path(minimal_elf).read_bytes())
        # find the note and inflate descsz past the section end
        pos = data.find(b"FLAGTRACE\x00")
        hdr = pos - 12
        namesz, descsz, ntype = struct.unpack_from("<III", data, hdr)
        struct.pack_into("<III", data, hdr, namesz, descsz + 4096, ntype)
        Path(minimal_elf).write_bytes(bytes(data))
        with pytest.raises(MalformedNote):
            read_stamp(minimal_elf)


    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("old, new", [
        (b'"subject":"ABCDEF"', b'"subject":"\\ud800"'),
        (b'"subject":"ABCDEF"', b'"subject":12345678'),
        (b'"flags_text":"x=1\\n"', b'"flags_text":5      '),
        (b'"version":1', b'"version":7'),
    ], ids=["surrogate-subject", "number-subject", "number-flags", "unknown-version"])
    def test_lying_payload_exit_3(self, minimal_elf, capsys, old, new, fmt):
        stamp(minimal_elf, payload_for(subject="ABCDEF"))
        data = Path(minimal_elf).read_bytes()
        assert len(old) == len(new) and old in data  # the note keeps its sizes
        Path(minimal_elf).write_bytes(data.replace(old, new))
        assert run(["--format", fmt, "read-stamp", minimal_elf]) == 3
        assert "malformed note" in capsys.readouterr().err


class TestNoteEncoding:
    def test_name_padding(self):
        # "FLAGTRACE" + NUL = namesz 10, padded to 12 on disk
        note = _encode_note("FLAGTRACE", NOTE_TYPE, b"d")
        namesz, descsz, ntype = struct.unpack_from("<III", note, 0)
        assert namesz == 10 and descsz == 1 and ntype == NOTE_TYPE
        assert note[12:24] == b"FLAGTRACE\x00\x00\x00"
        assert len(note) == 12 + 12 + 4

    def test_length_equation_random_sizes(self):
        rng = random.Random(5)
        for _ in range(100):
            desc = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 300)))
            note = _encode_note("FLAGTRACE", NOTE_TYPE, desc)
            namesz, descsz, _ = struct.unpack_from("<III", note, 0)
            pad4 = lambda n: (n + 3) & ~3
            assert len(note) == 12 + pad4(namesz) + pad4(descsz)

    def test_size_cap_elides_flags_text(self):
        big = "x" * (70 * 1024)
        p = NotePayload("b", "s", "00" * 32, big)
        data = p.to_bytes()
        assert len(data) <= 64 * 1024
        restored = NotePayload.from_bytes(data)
        assert restored.flags_text is None
        assert restored.effective_digest == "00" * 32


class TestReadComment:
    def test_fixture_comment(self, minimal_elf):
        assert read_comment(minimal_elf) == ["GCC: (fixture) 13.2.0"]

    def test_no_comment_section(self, tmp_path):
        path = build_minimal_elf(tmp_path / "bare.o", comment=b"")
        assert read_comment(path) == []

    def test_two_producer_strings(self, tmp_path):
        path = build_minimal_elf(tmp_path / "two.o", comment=b"A\x00B\x00")
        assert read_comment(path) == ["A", "B"]

    def test_nobits_comment_lists_no_strings(self, tmp_path, capsys):
        """An SHT_NOBITS .comment occupies no file bytes, whatever its offset and size say."""
        path = tmp_path / "nobits.o"
        data = bytearray(Path(build_minimal_elf(path)).read_bytes())
        (shoff,) = struct.unpack_from("<Q", data, 40)
        struct.pack_into("<I", data, shoff + 2 * 64 + 4, elfnote.SHT_NOBITS)  # section 2: .comment
        path.write_bytes(bytes(data))
        assert run(["--format", "json", "read-stamp", str(path), "--comment"]) == 0
        assert json.loads(capsys.readouterr().out) == {"payload": None, "comment": []}

    @pytest.mark.skipif(shutil.which("gcc") is None, reason="gcc not available")
    def test_real_gcc_object(self, tmp_path):
        src = tmp_path / "one.c"
        src.write_text("int answer(void) { return 42; }\n")
        obj = tmp_path / "one.o"
        subprocess.run(["gcc", "-c", str(src), "-o", str(obj)], check=True)
        strings = read_comment(str(obj))
        assert any(s.strip() for s in strings)

    @pytest.mark.skipif(shutil.which("gcc") is None, reason="gcc not available")
    def test_stamp_real_object(self, tmp_path):
        src = tmp_path / "one.c"
        src.write_text("int answer(void) { return 42; }\n")
        obj = tmp_path / "one.o"
        subprocess.run(["gcc", "-c", str(src), "-o", str(obj)], check=True)
        p = payload_for()
        stamp(str(obj), p)
        assert read_stamp(str(obj)) == p
        assert elf_reader.read_notes(str(obj), NOTE_SECTION)[0][0] == "FLAGTRACE"


def _header_only(path):
    """A bare 64-byte ELF64 header that claims 3 section headers at offset 4096."""
    ident = b"\x7fELF" + bytes([2, 1, 1, 0]) + b"\x00" * 8
    path.write_bytes(struct.pack("<16sHHIQQQIHHHHHH", ident, 1, 0x3E, 1, 0, 0,
                                 4096, 0, 64, 0, 0, 64, 3, 2))


def _patch_fixture(offset, fmt, value):
    def patch(path):
        data = bytearray(Path(build_minimal_elf(path)).read_bytes())
        struct.pack_into(fmt, data, offset, value)
        path.write_bytes(bytes(data))
    return patch


def _truncated_table(path):
    data = Path(build_minimal_elf(path)).read_bytes()
    path.write_bytes(data[:-10])


def _shstrtab_offset(path):
    # section 3 of the fixture is .shstrtab; point its sh_offset past the end
    data = bytearray(Path(build_minimal_elf(path)).read_bytes())
    (shoff,) = struct.unpack_from("<Q", data, 40)
    struct.pack_into("<Q", data, shoff + 3 * 64 + 24, 1 << 20)
    path.write_bytes(bytes(data))


LYING_ELFS = [
    pytest.param(_header_only, id="header-only"),
    pytest.param(_truncated_table, id="truncated-table"),
    pytest.param(_patch_fixture(58, "<H", 32), id="short-shentsize"),
    pytest.param(_patch_fixture(60, "<H", 0xFFFF), id="huge-shnum"),
    pytest.param(_shstrtab_offset, id="shstrtab-past-end"),
    pytest.param(_patch_fixture(62, "<H", 4), id="shstrndx-past-table"),
]


def _note_words(edit):
    """A damage that maps the note's (namesz, descsz, type) words through `edit`."""
    def damage(data):
        at = data.rfind(b"FLAGTRACE\x00") - 12
        struct.pack_into("<III", data, at, *edit(*struct.unpack_from("<III", data, at)))
    return damage


def _short_note_section(data):
    """The note section, the last of a freshly stamped file, shrunk to 8 bytes."""
    (shoff,) = struct.unpack_from("<Q", data, 40)
    (shnum,) = struct.unpack_from("<H", data, 60)
    struct.pack_into("<Q", data, shoff + (shnum - 1) * 64 + 32, 8)  # sh_size


# Damage to a stamped file's note that `read-stamp` rejects. `stamp` replaces such a
# note, like any other note that is not byte for byte the one it would write.
UNREADABLE_NOTES = {
    "zeroed-type": _note_words(lambda namesz, descsz, t: (namesz, descsz, 0)),
    "inflated-descsz": _note_words(lambda namesz, descsz, t: (namesz, descsz + 4096, t)),
    "note-shorter-than-header": _short_note_section,
}


def _damaged(damage):
    def make(path):
        stamp(build_minimal_elf(path), payload_for())
        data = bytearray(path.read_bytes())
        damage(data)
        path.write_bytes(bytes(data))
    return make


def _shstrndx_undef(path):
    """8 NUL bytes inserted at offset 61: e_shstrndx is 0, so the name table is the null section."""
    data = Path(build_minimal_elf(path)).read_bytes()
    path.write_bytes(data[:61] + b"\x00" * 8 + data[61:])


def _named(table, names):
    """The fixture with `table` (held in .comment's bytes) as its section name table,
    and sections 1-3 named at the offsets `names`."""
    def make(path):
        data = bytearray(Path(build_minimal_elf(path, comment=table)).read_bytes())
        (shoff,) = struct.unpack_from("<Q", data, 40)
        for i, name in enumerate(names, 1):
            struct.pack_into("<I", data, shoff + i * 64, name)
        # .shstrtab (section 3) takes the sh_offset and sh_size of .comment (section 2)
        data[shoff + 3 * 64 + 24 : shoff + 3 * 64 + 40] = data[shoff + 2 * 64 + 24 : shoff + 2 * 64 + 40]
        path.write_bytes(bytes(data))
    return make


def _section_count(n):
    """The fixture with null section headers added after its table (which ends the file) up to `n`."""
    def make(path):
        data = Path(build_minimal_elf(path)).read_bytes()
        data += bytes(64 * (n - struct.unpack_from("<H", data, 60)[0]))
        path.write_bytes(data[:60] + struct.pack("<H", n) + data[62:])
    return make


# Files `stamp` must refuse before any write, on top of those it cannot parse.
UNSTAMPABLE_ELFS = LYING_ELFS + [
    pytest.param(_shstrndx_undef, id="shstrndx-undef"),
    # the name table is section 3 and would itself be named '.note.flagtrace'
    pytest.param(_named(b"\x00" * 12 + b".note.flagtrace\x00", (0, 0, 12)), id="name-table-is-note"),
    # .text is named at offset 26, where the stamp would append '.note.flagtrace'
    pytest.param(_named(b"\x00.text\x00.comment\x00.shstrtab\x00", (26, 7, 16)), id="name-collision"),
    # adding the note would need SHN_LORESERVE (0xff00) section headers
    pytest.param(_section_count(0xFEFF), id="0xfeff-sections"),
]


class TestLyingElf:
    @pytest.mark.parametrize("make", LYING_ELFS + [
        pytest.param(_damaged(damage), id=name) for name, damage in UNREADABLE_NOTES.items()])
    @pytest.mark.parametrize("comment", [[], ["--comment"]], ids=["plain", "comment"])
    def test_read_stamp_exit_3(self, tmp_path, capsys, make, comment):
        elf = tmp_path / "bad.o"
        make(elf)
        assert run(["read-stamp", str(elf), *comment]) == 3
        assert "malformed note" in capsys.readouterr().err

    @pytest.mark.parametrize("make", UNSTAMPABLE_ELFS)
    def test_stamp_exit_3_and_file_untouched(self, tmp_path, capsys, make):
        log = tmp_path / "b.log"
        log.write_text("gcc -c a.c -o a.o\n")
        store = str(tmp_path / "store")
        assert run(["--store", store, "ingest", str(log), "--label", "dev",
                    "--build-id", "b1"]) == 0
        elf = tmp_path / "bad.o"
        make(elf)
        before = elf.read_bytes()
        assert run(["--store", store, "stamp", str(elf), "b1", str(tmp_path / "a.c")]) == 3
        assert "malformed note" in capsys.readouterr().err
        assert elf.read_bytes() == before

    @pytest.mark.parametrize("damage", [pytest.param(damage, id=name) for name, damage in {
        **UNREADABLE_NOTES,
        # the name's NUL dropped from namesz: read-stamp still reads the note
        "namesz-less-one": _note_words(lambda namesz, descsz, t: (namesz - 1, descsz, t)),
    }.items()])
    def test_stamp_replaces_a_note_it_would_not_write(self, tmp_path, capsys, damage):
        """A note that is not byte for byte the one stamp writes is replaced and reads
        back, with exit 0; the replacement, stamped again, is left as it is."""
        log = tmp_path / "b.log"
        log.write_text("gcc -O2 -c a.c -o a.o\n")
        store = str(tmp_path / "store")
        assert run(["--store", store, "ingest", str(log), "--label", "dev",
                    "--build-id", "b1"]) == 0
        elf = build_minimal_elf(tmp_path / "a.o")
        argv = ["--store", store, "stamp", elf, "b1", str(tmp_path / "a.c")]
        assert run(argv) == 0
        data = bytearray(Path(elf).read_bytes())
        damage(data)
        Path(elf).write_bytes(bytes(data))
        assert run(argv) == 0
        restamped = Path(elf).read_bytes()
        assert len(restamped) > len(data)  # a new note and table were appended
        assert run(["read-stamp", elf]) == 0
        [(name, note_type, desc)] = elf_reader.read_notes(elf, NOTE_SECTION)
        assert (name, note_type) == ("FLAGTRACE", NOTE_TYPE)
        assert NotePayload.from_bytes(desc).subject == str(tmp_path / "a.c")
        assert run(argv) == 0 and Path(elf).read_bytes() == restamped
        capsys.readouterr()

    def test_non_object_payload_is_malformed(self, minimal_elf):
        p = payload_for()
        stamp(minimal_elf, p)
        desc = p.to_bytes()
        data = Path(minimal_elf).read_bytes()
        Path(minimal_elf).write_bytes(data.replace(desc, b"[" + b" " * (len(desc) - 2) + b"]"))
        with pytest.raises(MalformedNote):
            read_stamp(minimal_elf)

    def test_deeply_nested_payload_exit_3(self, minimal_elf, capsys):
        class DeepPayload:
            def to_bytes(self):
                return b"[" * 100_000 + b"]" * 100_000

        stamp(minimal_elf, DeepPayload())
        assert run(["read-stamp", minimal_elf]) == 3
        assert "malformed note" in capsys.readouterr().err


def _relay_shdrs(path, entsize):
    """The fixture with its section header table re-laid at the end in `entsize`-byte entries."""
    data = bytearray(Path(build_minimal_elf(path)).read_bytes())
    shoff, = struct.unpack_from("<Q", data, 40)
    shnum, = struct.unpack_from("<H", data, 60)
    table = data[shoff:shoff + shnum * 64]
    new_shoff = (len(data) + 7) & ~7
    data += b"\x00" * (new_shoff - len(data))
    for i in range(shnum):
        data += table[i * 64:(i + 1) * 64] + b"\x00" * (entsize - 64)
    struct.pack_into("<Q", data, 40, new_shoff)
    struct.pack_into("<H", data, 58, entsize)
    path.write_bytes(bytes(data))
    return str(path)


class TestWideSectionHeaders:
    def test_stamp_rewrites_entry_size(self, tmp_path, capsys):
        elf = _relay_shdrs(tmp_path / "wide.o", 80)
        assert read_comment(elf) == ["GCC: (fixture) 13.2.0"]
        p = payload_for()
        stamp(elf, p)
        assert run(["read-stamp", elf]) == 0
        assert run(["read-stamp", elf, "--comment"]) == 0
        assert read_stamp(elf) == p
        assert read_comment(elf) == ["GCC: (fixture) 13.2.0"]


def _note_name_offset(path):
    """sh_name of the last section header, where a first stamp puts the note."""
    data = Path(path).read_bytes()
    (shoff,) = struct.unpack_from("<Q", data, 40)
    (shnum,) = struct.unpack_from("<H", data, 60)
    return struct.unpack_from("<I", data, shoff + (shnum - 1) * 64)[0]


@pytest.mark.parametrize("make", [
    pytest.param(_named(b"", (0, 0, 0)), id="empty-name-table"),
    pytest.param(_named(b".note.flagtrace\x00.shstrtab\x00", (16, 16, 16)), id="name-at-offset-0"),
])
def test_note_is_never_named_at_offset_0(tmp_path, make):
    elf = tmp_path / "names.o"
    make(elf)
    p = payload_for()
    stamp(str(elf), p)
    assert read_stamp(str(elf)) == p
    assert _note_name_offset(elf) > 0
    assert elf_reader.read_notes(str(elf), NOTE_SECTION) == [("FLAGTRACE", NOTE_TYPE, p.to_bytes())]


def _trailing_bytes(path):
    build_minimal_elf(path)
    with open(path, "ab") as fh:
        fh.write(b"bytes past the section header table\n")


class TestAppendOnly:
    @pytest.mark.parametrize("make", [
        pytest.param(build_minimal_elf, id="fixture"),
        pytest.param(_trailing_bytes, id="trailing-bytes"),
        pytest.param(lambda path: _relay_shdrs(path, 80), id="wide-headers"),
        pytest.param(_section_count(0xFEFE), id="0xfefe-sections"),
    ])
    def test_bytes_past_the_header_never_change(self, tmp_path, make):
        elf = tmp_path / "a.o"
        make(elf)
        for build_id in ("b1", "b2"):  # a first stamp, then a re-stamp
            old = elf.read_bytes()
            stamp(str(elf), payload_for(build_id))
            new = elf.read_bytes()
            assert new[64:len(old)] == old[64:]
            assert read_stamp(str(elf)).build_id == build_id

    @pytest.mark.parametrize("restamp", [False, True], ids=["first", "re-stamp"])
    def test_every_torn_state_reads_old_or_new(self, tmp_path, monkeypatch, restamp):
        elf = build_minimal_elf(tmp_path / "a.o")
        old_payload = payload_for("b1") if restamp else None
        if restamp:
            stamp(elf, old_payload)
        old = Path(elf).read_bytes()
        events = []
        real_open, real_fsync = open, os.fsync

        class Recording:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return self.fh.__exit__(*exc)

            def __getattr__(self, name):
                return getattr(self.fh, name)

            def write(self, b):
                events.append(("write", self.fh.tell(), bytes(b)))
                return self.fh.write(b)

        monkeypatch.setattr(elfnote, "open", lambda *a: Recording(real_open(*a)), raising=False)
        monkeypatch.setattr(os, "fsync", lambda fd: (events.append(("fsync",)), real_fsync(fd)))
        new_payload = payload_for("b2")
        stamp(elf, new_payload)
        monkeypatch.undo()

        # Two regions: past the old end of file, then the ELF header, with the fsync between.
        assert [e[:2] for e in events] == [("write", len(old)), ("fsync",), ("write", 0)]
        appended, header = events[0][2], events[2][2]
        assert len(header) == 64 and Path(elf).read_bytes() == header + (old + appended)[64:]
        # Every byte prefix of the append leaves the old header over the old file. The
        # header write is replayed whole: it relies on sitting inside one disk sector.
        torn = tmp_path / "torn.o"
        for k in range(len(appended) + 1):
            torn.write_bytes(old + appended[:k])
            assert read_stamp(str(torn)) == old_payload
        assert read_stamp(elf) == new_payload
