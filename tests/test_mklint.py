import codecs
import json
import os
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from flagtrace.cli import run
from flagtrace.cmdline import logical_lines, read_text
from flagtrace.mklint import (
    _ASSIGN,
    _EXPANSION,
    _INCLUDE,
    _TARGET_ASSIGN,
    BUILTIN_VOCABULARY,
    levenshtein,
    lint,
    scan_makefile,
    split_comment,
    suggest,
)
from test_fuzz_lint_audit import MAKEFILE


def brute_levenshtein(a, b):
    """Recursive reference edit distance; oracle for the DP version."""
    if not a:
        return len(b)
    if not b:
        return len(a)
    cost = a[0] != b[0]
    return min(
        brute_levenshtein(a[1:], b) + 1,
        brute_levenshtein(a, b[1:]) + 1,
        brute_levenshtein(a[1:], b[1:]) + cost,
    )


def dp_levenshtein(a, b):
    """Dynamic-programming edit distance, one table row at a time; oracle for
    the bit-vector version on strings too long for the brute force."""
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def per_line_scan(path, _depth=0):
    """`scan_makefile` as a scan of each logical line for expansions, a recipe line
    whole and any other up to its comment; oracle for the one scan of the whole text."""
    assignments, expansions = [], set()
    for lineno, line in logical_lines(read_text(path)):
        if line.startswith("\t"):
            expansions.update(name for name in _EXPANSION.findall(line) if name)
            continue
        stripped = split_comment(line)[0]
        expansions.update(name for name in _EXPANSION.findall(stripped) if name)
        inc = _INCLUDE.match(stripped)
        if inc and _depth < 1:
            for name in inc.group(1).split():
                sub = os.path.join(os.path.dirname(path) or ".", name)
                if "$" in name or not os.path.isfile(sub):
                    continue
                try:
                    sub_assign, sub_expand = per_line_scan(sub, _depth + 1)
                except OSError:
                    continue
                assignments.extend(sub_assign)
                expansions.update(sub_expand)
            continue
        m = _ASSIGN.match(stripped) or ":" in stripped and _TARGET_ASSIGN.match(stripped)
        if m:
            assignments.append((m.group(1), lineno, path))
    return assignments, expansions


# names from a small alphabet share many letters; the wide alphabet holds
# non-ASCII, astral and NUL characters, each one bit-vector key
NAMES = st.one_of(st.text(alphabet="ABCF_", max_size=150),
                  st.text(alphabet="CXFLAGSé\u00a0\U0001d53b\U0001f600\x00", max_size=150),
                  st.text(max_size=40))


class TestLevenshtein:
    def test_against_brute_force(self):
        cases = [("CXFLAGS", "CXXFLAGS"), ("CXFLAGS", "CFLAGS"), ("", "ABC"),
                 ("LDLIBS", "FINAL_LIBS"), ("kitten", "sitting"), ("ab", "ba")]
        for a, b in cases:
            assert levenshtein(a, b) == brute_levenshtein(a, b)

    @given(st.text(alphabet="ABC", max_size=6), st.text(alphabet="ABC", max_size=6))
    def test_metric_symmetry_and_identity(self, a, b):
        assert levenshtein(a, a) == 0
        assert levenshtein(a, b) == levenshtein(b, a)

    @given(st.text(alphabet="AB", max_size=5), st.text(alphabet="AB", max_size=5),
           st.text(alphabet="AB", max_size=5))
    def test_triangle_inequality(self, a, b, c):
        assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)

    @settings(max_examples=300, deadline=None)
    @given(NAMES, NAMES)
    @example("PROJ_" + "AB" * 70 + "_FLAGS", "PROJ_" + "BA" * 70 + "_FLAG")  # wider than 64 bits
    def test_equals_dynamic_programming(self, a, b):
        assert levenshtein(a, b) == dp_levenshtein(a, b)


class TestScanMakefile:
    def test_redis_excerpt(self, redis_makefile):
        assignments, expansions = scan_makefile(redis_makefile)
        assert [a.name for a in assignments] == ["FINAL_LIBS"]
        assert "uname_M" in expansions

    def test_rocksdb_excerpt(self, rocksdb_makefile):
        assignments, _ = scan_makefile(rocksdb_makefile)
        names = {a.name for a in assignments}
        assert {"DISABLE_JEMALLOC", "PLATFORM_CCFLAGS", "PLATFORM_CXXFLAGS"} <= names

    def test_empty_file(self, tmp_path):
        p = tmp_path / "Makefile"
        p.write_text("")
        assert scan_makefile(str(p)) == ([], set())

    def test_false_conditional_still_scanned(self, tmp_path):
        p = tmp_path / "Makefile"
        p.write_text("ifeq (never,ever)\nCXFLAGS = -O2\nendif\n")
        assignments, _ = scan_makefile(str(p))
        assert [a.name for a in assignments] == ["CXFLAGS"]

    def test_recipe_lines_skipped_for_assignments(self, tmp_path):
        p = tmp_path / "Makefile"
        p.write_text("all:\n\tX=1 ./run $(CFLAGS)\n")
        assignments, expansions = scan_makefile(str(p))
        assert assignments == []
        assert "CFLAGS" in expansions

    def test_include_followed_one_level(self, tmp_path):
        (tmp_path / "common.mk").write_text("CXFLAGS = -g\n")
        p = tmp_path / "Makefile"
        p.write_text("include common.mk\n")
        assignments, _ = scan_makefile(str(p))
        assert [a.name for a in assignments] == ["CXFLAGS"]

    def test_include_naming_no_file_is_skipped(self, tmp_path):
        """Only a regular file is read: not a name with a NUL, a missing file, a directory or a device."""
        (tmp_path / "sub.mk").mkdir()
        p = tmp_path / "Makefile"
        p.write_bytes(b"include a\x00b missing.mk sub.mk /dev/null\nCXFLAGS = -g\n")
        assignments, _ = scan_makefile(str(p))
        assert [a.name for a in assignments] == ["CXFLAGS"]

    def test_include_name_with_expansion_is_not_followed(self, tmp_path, capsys):
        """make expands $(GEN) before it reads the name; lint does not guess, so a
        file literally named $(GEN).mk is never read."""
        (tmp_path / "$(GEN).mk").write_text("CXFLAGS = -g\n")
        p = tmp_path / "Makefile"
        p.write_text("include $(GEN).mk\nall:\n\t$(CXX) $(CXXFLAGS) -c a.cc\n")
        assert run(["--format", "json", "lint", str(p)]) == 0
        assert json.loads(capsys.readouterr().out)["findings"] == []

    def test_substitution_reference_counts_as_expansion(self, tmp_path):
        p = tmp_path / "Makefile"
        p.write_text("all:\n\techo $(CXFLAG:-O2=-O3) $(OBJS:.o=.d)\n")
        assert scan_makefile(str(p))[1] == {"CXFLAG", "OBJS"}

    def test_braced_substitution_reference_counts_as_expansion(self, tmp_path):
        p = tmp_path / "Makefile"
        p.write_text("all:\n\techo ${LDFLAG:-s=} ${SRCS:%.c=%.o}\n")
        assert scan_makefile(str(p))[1] == {"LDFLAG", "SRCS"}

    def test_double_dollar_is_a_literal_dollar(self, tmp_path):
        """make passes `$$` on as one `$`: `$$(CXFLAGS)` is the shell's, and
        `$$$(LDFLAG)` a dollar before an expansion."""
        p = tmp_path / "Makefile"
        p.write_text("all:\n\techo $$(CXFLAGS) $$$(LDFLAG) $$$${CFLAG}\n")
        assert scan_makefile(str(p))[1] == {"LDFLAG"}

    @settings(max_examples=200, deadline=None)
    @given(makefile=MAKEFILE, included=MAKEFILE)
    @example(makefile=b"X = $(CFLAGS\\\n) ${A\rB} $(C\r\n)\n", included=b"")
    @example(makefile=b"X = $$(CFLAGS) $$$(LDFLAGS) $\\\n$(A) $$\\\n(B)\n", included=b"")
    @example(makefile=b"X = $(A) #$(B)\\\n $(C)\n# $(CFLAGS)\n\t$(D) # $(E)\ninclude common.mk # $(F)\n",
             included=b"Y = $(G) # $(A)\n")
    def test_one_scan_equals_scan_per_line(self, tmp_path_factory, makefile, included):
        d = tmp_path_factory.mktemp("scan")
        (d / "Makefile").write_bytes(makefile)
        (d / "common.mk").write_bytes(included)
        # an assignment is a named tuple, so it equals the oracle's (name, line, path)
        assert scan_makefile(str(d / "Makefile")) == per_line_scan(str(d / "Makefile"))

    @pytest.mark.parametrize("line, names", [
        ("app: CXFLAGS = -O2", ["CXFLAGS"]),
        ("a.o b.o: CFLAGS += -g", ["CFLAGS"]),
        ("$(SRCS:.c=.o): CXFLAGS = -g", ["CXFLAGS"]),
        ("${OBJS:%.o=%.d} $(patsubst %,%.o,$(S:.c=)): export LDFLAG ?= -s", ["LDFLAG"]),
        ("x := 1", ["x"]),
        ("y ::= 2", ["y"]),
        ("all: dep", []),
        ("%.o: %.c", []),
        ("$(info a: b = c)", []),
    ], ids=["target", "targets", "substituted-target", "nested-references", "immediate",
            "posix-immediate", "rule", "pattern-rule", "colon-in-a-reference"])
    def test_assignment_plain_or_after_a_rule(self, tmp_path, line, names):
        """A target-specific assignment names its variable after the rule's colon, which
        is never inside a `$(…)` or `${…}` reference."""
        p = tmp_path / "Makefile"
        p.write_text(line + "\n")
        assert [a.name for a in scan_makefile(str(p))[0]] == names

    def test_continuation_keeps_first_line_number(self, tmp_path):
        p = tmp_path / "Makefile"
        p.write_text("# header\nCFLAGS = -O2 \\\n  -g\n")
        assignments, _ = scan_makefile(str(p))
        assert assignments[0].line == 2


_CXFLAGS_LINE_1 = "{p}:1: 'CXFLAGS' looks like a typo for 'CXXFLAGS' (distance 1) and is never expanded\n"


class TestLint:
    def test_cxflags_suggests_cxxflags(self, tmp_path):
        p = tmp_path / "Makefile"
        p.write_text("CXFLAGS = -O2\n")
        assignments, expansions = scan_makefile(str(p))
        findings = lint(assignments, expansions)
        assert len(findings) == 1
        f = findings[0]
        assert (f.name, f.suggestion, f.distance) == ("CXFLAGS", "CXXFLAGS", 1)

    def test_real_world_fixtures_scan_clean(self, redis_makefile, rocksdb_makefile):
        assignments, expansions = [], set()
        for path in (redis_makefile, rocksdb_makefile):
            a, e = scan_makefile(path)
            assignments.extend(a)
            expansions.update(e)
        assert lint(assignments, expansions) == []

    def test_vocabulary_member_never_flagged(self, tmp_path):
        p = tmp_path / "Makefile"
        p.write_text("CXXFLAGS = -O2\n")
        assignments, expansions = scan_makefile(str(p))
        assert lint(assignments, expansions) == []

    def test_substitution_reference_suppresses(self, tmp_path, capsys):
        p = tmp_path / "Makefile"
        p.write_text("CXFLAG = -O2\nLDFLAG := -s\nall:\n\techo $(CXFLAG:-O2=-O3) ${LDFLAG:-s=}\n")
        assert lint(*scan_makefile(str(p))) == []
        assert run(["lint", str(p)]) == 0
        assert capsys.readouterr().out == "no findings\n"

    def test_shell_substitution_does_not_suppress(self, tmp_path):
        p = tmp_path / "Makefile"
        p.write_text("CXFLAGS = -O2\nLDFLAG = -s\nall:\n\techo $$(CXFLAGS) $$$(LDFLAG)\n")
        assert [f.name for f in lint(*scan_makefile(str(p)))] == ["CXFLAGS"]
        assert run(["lint", str(p)]) == 4

    @pytest.mark.parametrize("text, code, out", [
        (b"app: CXFLAGS = -O2\napp: app.o\n\t$(CXX) $(CXXFLAGS) -o $@ $^\n", 4, _CXFLAGS_LINE_1),
        (codecs.BOM_UTF8 + b"CFLAGS = -O2\n", 0, "no findings\n"),
        (codecs.BOM_UTF16_BE + "CXFLAGS = -O2\r\nall:\r\n\techo $(CXXFLAGS)\r\n".encode("utf-16-be"), 4,
         _CXFLAGS_LINE_1),
        (b"CXFLAGS = -O2\nall:\n\techo $(CXFLAGS)\n", 0, "no findings\n"),
        (b"CXFLAGS = -O2\n# $(CXFLAGS) retired\n", 4, _CXFLAGS_LINE_1),
        (b"CXFLAGS = -O2 # was $(CXFLAGS)\n", 4, _CXFLAGS_LINE_1),
        # make reads `[a # -O2]`, `-O2` and `[a \]`: a `#` after an odd run of backslashes
        # or inside a reference is literal
        (b"CXFLAGS = -O2\nY = a \\# $(CXFLAGS)\n", 0, "no findings\n"),
        (b"CXFLAGS = -O2\nX := $(subst #,-,$(CXFLAGS))\n", 0, "no findings\n"),
        (b"CXFLAGS = -O2\nY = a \\\\# $(CXFLAGS)\n", 4, _CXFLAGS_LINE_1),
        # make expands a recipe line before the shell sees its `#`
        (b"CXFLAGS = -O2\nall:\n\t$(CXX) $(CXXFLAGS) a.cc # $(CXFLAGS)\n", 0, "no findings\n"),
    ], ids=["target-specific-near-miss", "byte-order-mark-before-a-known-name", "utf-16-be-near-miss",
            "near-miss-used-by-a-plain-expansion", "expansion-in-a-comment-line",
            "expansion-in-a-trailing-comment", "escaped-hash", "hash-in-a-reference",
            "hash-after-an-escaped-backslash", "expansion-in-a-recipe-comment"])
    def test_first_line(self, tmp_path, capsys, text, code, out):
        p = tmp_path / "Makefile"
        p.write_bytes(text)
        assert run(["lint", str(p)]) == code
        assert capsys.readouterr().out == out.format(p=p)

    def test_distance_beyond_threshold_clean(self):
        # PLATFORM_CXXFLAGS is 9 edits from CXXFLAGS: far beyond threshold 2
        assert levenshtein("PLATFORM_CXXFLAGS", "CXXFLAGS") == 9

    def test_no_distance_zero_findings(self, tmp_path):
        p = tmp_path / "Makefile"
        p.write_text("CFLAGS = -g\nCXFLAGS = -O2\nLDFLAGS = -s\n")
        assignments, expansions = scan_makefile(str(p))
        assert all(f.distance >= 1 for f in lint(assignments, expansions))

    def test_ordering_by_file_then_line(self, tmp_path):
        p = tmp_path / "Makefile"
        p.write_text("LDFLAG = -s\nCXFLAGS = -O2\n")
        findings = lint(*scan_makefile(str(p)))
        assert [f.line for f in findings] == [1, 2]

    def test_suggestion_tiebreak(self):
        # CXFLAGS is distance 1 from both CFLAGS and CXXFLAGS; the longer
        # shared prefix wins the tie
        assert suggest("CXFLAGS", BUILTIN_VOCABULARY) == ("CXXFLAGS", 1)
