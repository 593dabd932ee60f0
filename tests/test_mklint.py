import json
import random

from hypothesis import given, strategies as st

from flagtrace.cli import run
from flagtrace.mklint import (
    BUILTIN_VOCABULARY,
    levenshtein,
    lint,
    scan_makefile,
    suggest,
)


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
        p = tmp_path / "Makefile"
        p.write_bytes(b"include a\x00b missing.mk\nCXFLAGS = -g\n")
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

    def test_continuation_keeps_first_line_number(self, tmp_path):
        p = tmp_path / "Makefile"
        p.write_text("# header\nCFLAGS = -O2 \\\n  -g\n")
        assignments, _ = scan_makefile(str(p))
        assert assignments[0].line == 2


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

    def test_expansion_anywhere_suppresses(self, tmp_path):
        p = tmp_path / "Makefile"
        p.write_text("CXFLAGS = -O2\nall:\n\techo $(CXFLAGS)\n")
        assignments, expansions = scan_makefile(str(p))
        assert lint(assignments, expansions) == []

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
