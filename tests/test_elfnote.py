import hashlib
import random
import shutil
import struct
import subprocess

import pytest

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

    def test_unsupported_class(self, tmp_path):
        f = tmp_path / "elf32.o"
        f.write_bytes(b"\x7fELF" + bytes([1, 1, 1, 0]) + b"\x00" * 56)
        with pytest.raises(UnsupportedClass):
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
        first = open(minimal_elf, "rb").read()
        stamp(minimal_elf, p)
        assert open(minimal_elf, "rb").read() == first

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
        data = bytearray(open(minimal_elf, "rb").read())
        # find the note and inflate descsz past the section end
        pos = data.find(b"FLAGTRACE\x00")
        hdr = pos - 12
        namesz, descsz, ntype = struct.unpack_from("<III", data, hdr)
        struct.pack_into("<III", data, hdr, namesz, descsz + 4096, ntype)
        open(minimal_elf, "wb").write(bytes(data))
        with pytest.raises(MalformedNote):
            read_stamp(minimal_elf)


    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_lone_surrogate_in_payload_exit_3(self, minimal_elf, capsys, fmt):
        stamp(minimal_elf, payload_for(subject="ABCDEF"))
        with open(minimal_elf, "rb") as fh:
            data = fh.read()
        with open(minimal_elf, "wb") as fh:  # the same length: the note keeps its sizes
            fh.write(data.replace(b'"ABCDEF"', b'"\\ud800"'))
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
        data = bytearray(open(build_minimal_elf(path), "rb").read())
        struct.pack_into(fmt, data, offset, value)
        path.write_bytes(bytes(data))
    return patch


def _truncated_table(path):
    data = open(build_minimal_elf(path), "rb").read()
    path.write_bytes(data[:-10])


def _shstrtab_offset(path):
    # section 3 of the fixture is .shstrtab; point its sh_offset past the end
    data = bytearray(open(build_minimal_elf(path), "rb").read())
    (shoff,) = struct.unpack_from("<Q", data, 40)
    struct.pack_into("<Q", data, shoff + 3 * 64 + 24, 1 << 20)
    path.write_bytes(bytes(data))


LYING_ELFS = [
    pytest.param(_header_only, id="header-only"),
    pytest.param(_truncated_table, id="truncated-table"),
    pytest.param(_patch_fixture(58, "<H", 32), id="short-shentsize"),
    pytest.param(_patch_fixture(60, "<H", 0xFFFF), id="huge-shnum"),
    pytest.param(_shstrtab_offset, id="shstrtab-past-end"),
]


class TestLyingElf:
    @pytest.mark.parametrize("make", LYING_ELFS)
    @pytest.mark.parametrize("comment", [[], ["--comment"]], ids=["plain", "comment"])
    def test_read_stamp_exit_3(self, tmp_path, capsys, make, comment):
        elf = tmp_path / "bad.o"
        make(elf)
        assert run(["read-stamp", str(elf), *comment]) == 3
        assert "malformed note" in capsys.readouterr().err

    @pytest.mark.parametrize("make", LYING_ELFS)
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

    def test_non_object_payload_is_malformed(self, minimal_elf):
        p = payload_for()
        stamp(minimal_elf, p)
        desc = p.to_bytes()
        data = open(minimal_elf, "rb").read()
        open(minimal_elf, "wb").write(data.replace(desc, b"[" + b" " * (len(desc) - 2) + b"]"))
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
    data = bytearray(open(build_minimal_elf(path), "rb").read())
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
