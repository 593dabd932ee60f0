import struct
from pathlib import Path

import pytest

# Makefile excerpts used as linter fixtures: a host-conditional library
# append (Redis-style) and nested platform conditionals with filter-out
# (RocksDB-style). Project-local macros like PLATFORM_CXXFLAGS must
# never trip the near-miss linter.
REDIS_MAKEFILE = """\
# Linux ARM32 needs -latomic at linking time
ifneq (,$(findstring armv,$(uname_M)))
        FINAL_LIBS+=-latomic
endif
"""

ROCKSDB_MAKEFILE = """\
ifeq ($(PLATFORM), OS_MACOSX)
ifeq ($(ARCHFLAG), -arch arm64)
ifneq ($(MACHINE), arm64)
  DISABLE_JEMALLOC=1
  PLATFORM_CCFLAGS := $(filter-out -march=native, $(PLATFORM_CCFLAGS))
  PLATFORM_CXXFLAGS := $(filter-out -march=native, $(PLATFORM_CXXFLAGS))
endif
endif
endif
"""


@pytest.fixture
def redis_makefile(tmp_path):
    p = tmp_path / "Makefile.redis"
    p.write_text(REDIS_MAKEFILE)
    return str(p)


@pytest.fixture
def rocksdb_makefile(tmp_path):
    p = tmp_path / "Makefile.rocksdb"
    p.write_text(ROCKSDB_MAKEFILE)
    return str(p)


_SHDR = struct.Struct("<IIQQQQIIQQ")


def build_minimal_elf(path, text=b"\x90" * 32, comment=b"GCC: (fixture) 13.2.0\x00"):
    """Hand-assembled ELF64 LE relocatable with .text/.comment/.shstrtab."""
    shstrtab = b"\x00.text\x00.comment\x00.shstrtab\x00"
    name_text, name_comment, name_shstr = 1, 7, 16

    ehdr_size = 64
    off_text = ehdr_size
    off_comment = off_text + len(text)
    off_shstr = off_comment + len(comment)
    shoff = (off_shstr + len(shstrtab) + 7) & ~7

    shdrs = [
        _SHDR.pack(0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
        _SHDR.pack(name_text, 1, 0x6, 0, off_text, len(text), 0, 0, 1, 0),
        _SHDR.pack(name_comment, 1, 0x30, 0, off_comment, len(comment), 0, 0, 1, 1),
        _SHDR.pack(name_shstr, 3, 0, 0, off_shstr, len(shstrtab), 0, 0, 1, 0),
    ]
    ehdr = struct.pack(
        "<16sHHIQQQIHHHHHH",
        b"\x7fELF" + bytes([2, 1, 1, 0]) + b"\x00" * 8,
        1,  # ET_REL
        0x3E,  # EM_X86_64
        1, 0, 0, shoff, 0, ehdr_size, 0, 0, 64, len(shdrs), 3,
    )
    blob = bytearray(ehdr)
    blob += text + comment + shstrtab
    blob += b"\x00" * (shoff - len(blob))
    for sh in shdrs:
        blob += sh
    Path(path).write_bytes(bytes(blob))
    return str(path)


@pytest.fixture
def minimal_elf(tmp_path):
    return build_minimal_elf(tmp_path / "fixture.o")
