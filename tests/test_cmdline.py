import os
import subprocess
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import cmdline_oracle

from flagtrace.cmdline import (
    MAX_RESPONSE_DEPTH,
    Dialect,
    Family,
    Origin,
    TokenTable,
    ToolKind,
    command_program,
    detect_dialect,
    expand_response_files,
    normalize_path,
    tokenize,
)
from flagtrace.errors import (
    NestingTooDeep,
    ResponseFileCycle,
    ResponseFileNotFound,
    UnterminatedQuote,
)

GNU = Dialect(Family.GNU_LIKE, ToolKind.COMPILER)
MSVC = Dialect(Family.MSVC, ToolKind.COMPILER)


class TestDetectDialect:
    @pytest.mark.parametrize("program,family,kind", [
        ("cl.exe", Family.MSVC, ToolKind.COMPILER),
        ("CL", Family.MSVC, ToolKind.COMPILER),
        ("link.exe", Family.MSVC, ToolKind.LINKER),
        ("lib.exe", Family.MSVC, ToolKind.ARCHIVER),
        ("g++", Family.GNU_LIKE, ToolKind.COMPILER),
        ("gcc", Family.GNU_LIKE, ToolKind.COMPILER),
        ("/usr/bin/clang++", Family.GNU_LIKE, ToolKind.COMPILER),
        ("ld", Family.GNU_LIKE, ToolKind.LINKER),
        ("ar", Family.GNU_LIKE, ToolKind.ARCHIVER),
        ("my-custom-cc", Family.GNU_LIKE, ToolKind.UNKNOWN),
        ("echo", Family.GNU_LIKE, ToolKind.UNKNOWN),
    ])
    def test_table(self, program, family, kind):
        assert detect_dialect(program) == Dialect(family, kind)

    def test_windows_path_and_extension(self):
        assert detect_dialect(r"C:\tools\CL.EXE") == Dialect(Family.MSVC, ToolKind.COMPILER)


class TestTokenizeGnu:
    def test_plain_split(self):
        assert tokenize("gcc -O2 -c foo.c", GNU) == ["gcc", "-O2", "-c", "foo.c"]

    def test_double_quoted_define_is_one_token(self):
        got = tokenize('gcc -DMSG="a b" -c foo.c', GNU)
        # oracle: what a POSIX shell itself would split this into
        shell = subprocess.run(
            ["sh", "-c", 'printf "%s\\n" gcc -DMSG="a b" -c foo.c'],
            capture_output=True, text=True, check=True,
        ).stdout.splitlines()
        assert got == shell == ["gcc", "-DMSG=a b", "-c", "foo.c"]

    def test_single_quotes_are_literal(self):
        assert tokenize("gcc -DX='$(a)' f.c", GNU) == ["gcc", "-DX=$(a)", "f.c"]

    def test_backslash_escapes_space(self):
        assert tokenize(r"gcc a\ b.c", GNU) == ["gcc", "a b.c"]

    def test_unterminated_quote(self):
        with pytest.raises(UnterminatedQuote):
            tokenize('gcc -DMSG="a b', GNU)
        with pytest.raises(UnterminatedQuote):
            tokenize("gcc 'oops", GNU)

    @given(st.lists(st.text(
        alphabet=st.characters(whitelist_categories=("L", "N"), whitelist_characters="-_./="),
        min_size=1, max_size=10), min_size=0, max_size=8))
    def test_round_trip(self, words):
        line = " ".join(words)
        assert tokenize(line, GNU) == words

    def test_shell_oracle_on_varied_lines(self):
        lines = [
            "gcc -O2 -c foo.c",
            'gcc -I"/inc dir" -o out.o foo.c',
            r"gcc -DVER=\"1.0\" a.c",
            "clang++ -std=c++17 'we ird.cpp'",
        ]
        for line in lines:
            shell = subprocess.run(
                ["sh", "-c", f'printf "%s\\n" {line}'],
                capture_output=True, text=True, check=True,
            ).stdout.splitlines()
            assert tokenize(line, GNU) == shell, line


class TestTokenizeMsvc:
    def test_plain_split(self):
        assert tokenize("cl /GS /O2 foo.cxx", MSVC) == ["cl", "/GS", "/O2", "foo.cxx"]

    def test_quoted_path(self):
        assert tokenize('cl /I"C:\\Program Files\\inc" a.cxx', MSVC) == \
            ["cl", "/IC:\\Program Files\\inc", "a.cxx"]

    def test_backslash_quote_rules(self):
        # 2n backslashes before a quote -> n backslashes, quote toggles
        assert tokenize(r'cl "a\\" b', MSVC) == ["cl", "a\\", "b"]
        # 2n+1 backslashes before a quote -> n backslashes + literal quote
        assert tokenize(r'cl a\"b', MSVC) == ["cl", 'a"b']

    def test_unterminated_quote(self):
        with pytest.raises(UnterminatedQuote):
            tokenize('cl "unclosed', MSVC)

    def test_determinism(self):
        line = 'cl /DMSG="a b" /O2 x.cxx'
        assert tokenize(line, MSVC) == tokenize(line, MSVC)


def oracle_result(line, dialect):
    """The reference tokenizer's non-empty words, or ("open", position) for an open quote."""
    split = cmdline_oracle.tokenize_msvc if dialect.family is Family.MSVC else cmdline_oracle.tokenize_posix
    try:
        return [w for w in split(line) if w]
    except UnterminatedQuote as exc:
        return ("open", exc.position)


def runtime_result(line, dialect):
    try:
        return tokenize(line, dialect)
    except UnterminatedQuote as exc:
        return ("open", exc.position)


# Quoting characters and every separator a shell or str.split() might
# treat as a word break, each weighted well above the rest of Unicode.
QUOTING_TEXT = st.text(alphabet=st.one_of(
    st.sampled_from(list("'\"\\$`")),
    st.sampled_from(list(" \n\r\t\v\xa0")),
    st.sampled_from(list("ab-=/")),
    st.characters(),
), max_size=40)


class TestScannersMatchOracle:
    """The regex scanners split every line as the character-loop reference does."""

    @settings(max_examples=400, deadline=None)
    @given(QUOTING_TEXT)
    def test_posix(self, line):
        assert runtime_result(line, GNU) == oracle_result(line, GNU)

    @settings(max_examples=400, deadline=None)
    @given(QUOTING_TEXT)
    def test_msvc(self, line):
        assert runtime_result(line, MSVC) == oracle_result(line, MSVC)

    # Lines of 200 KB or more: a scanner that backtracks over a quote or a
    # backslash run takes hours on these instead of milliseconds.
    ADVERSARIAL = {
        "open double quote": 'gcc "' + "x y " * 50_000,
        "open single quote": "gcc '" + "x y " * 50_000,
        "backslash run": "cl " + "\\" * 100_000 + " a.c" * 25_000,
        "backslash run and quote": "cl " + "\\" * 100_000 + '"' + " a.c" * 25_000,
        "odd backslash run and quote": "cl " + "\\" * 100_001 + '" a.c' * 25_000,
        "quoted backslash run": 'cl "' + "\\" * 100_000 + " a.c" * 25_000,
        "single-quoted pieces": "gcc " + "'a'" * 100_000,
        "double-quoted pieces": "gcc " + '"a"' * 100_000,
        "escaped quotes in quotes": 'gcc "' + '\\"' * 100_000 + '"',
    }

    @pytest.mark.parametrize("dialect", [GNU, MSVC], ids=["posix", "msvc"])
    @pytest.mark.parametrize("name", sorted(ADVERSARIAL))
    def test_adversarial_line(self, name, dialect):
        line = self.ADVERSARIAL[name]
        assert len(line) >= 200_000
        assert runtime_result(line, dialect) == oracle_result(line, dialect)


class TestTokenTable:
    def test_equal_words_share_one_token(self):
        table = TokenTable()
        first = tokenize("gcc -O2 -c a.c", GNU, table)
        second = tokenize("gcc -O2 -c b.c", GNU, table)
        assert [a is b for a, b in zip(first, second)] == [True, True, True, False]

    def test_tokens_equal_without_a_table(self):
        assert tokenize("gcc -c a.c", GNU, TokenTable()) == tokenize("gcc -c a.c", GNU)

    # A few pieces that lines repeat, joined with nothing between them, so that a
    # piece may open, close, escape or split a word, or make a quoted-empty one.
    PIECES = st.lists(st.one_of(
        st.sampled_from(["''", '""', 'a""', "\\", '\\"', "\\\\", "'a b'", '"x\\"y"', " ", "-O2"]),
        QUOTING_TEXT.map(lambda text: text[:6]),
    ), min_size=1, max_size=8)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_a_shared_table_gives_each_line_its_own_words(self, data):
        """Lines tokenized in turn through one table each give the reference words of
        the line alone, or its open quote's position; a line read again in one family
        gives the same strs, as the table unquotes each raw word of a family once."""
        pieces = data.draw(self.PIECES)
        lines = data.draw(st.lists(st.tuples(
            st.sampled_from([GNU, MSVC]), st.lists(st.sampled_from(pieces), max_size=6).map("".join)),
            min_size=1, max_size=8))
        table, seen = TokenTable(), {}
        for dialect, line in lines:
            try:
                tokens = tokenize(line, dialect, table)
            except UnterminatedQuote as exc:
                assert ("open", exc.position) == oracle_result(line, dialect) == runtime_result(line, dialect)
                continue
            assert tokens == oracle_result(line, dialect)
            earlier = seen.setdefault((dialect.family, line), tokens)
            assert all(a is b for a, b in zip(earlier, tokens))


class TestCommandProgram:
    @pytest.mark.parametrize("line, program", [
        ("gcc -O2 -c a.c", "gcc"),
        ("  \tgcc\t-c a.c", "gcc"),
        ("gcc\xa0-O3 -c b.c", "gcc\xa0-O3"),
        ("gcc\x0b-O2 -c a.c", "gcc\x0b-O2"),
        ('"/opt/my tools/gcc" -c a.c', "/opt/my tools/gcc"),
        ("", ""),
    ])
    def test_first_word_as_the_tokenizer_splits_it(self, line, program):
        assert command_program(line) == program


class TestResponseFiles:
    def test_expansion(self, tmp_path):
        (tmp_path / "rsp").write_text("-O2 -fno-exceptions\n")
        tokens = tokenize("g++ @rsp foo.cpp", GNU)
        out, origins = expand_response_files(tokens, str(tmp_path), GNU)
        assert out == ["g++", "-O2", "-fno-exceptions", "foo.cpp"]
        # response tokens match a direct tokenize of the file body
        assert out[1:3] == tokenize("-O2 -fno-exceptions", GNU)
        rsp = str(tmp_path / "rsp")
        assert origins == [None, Origin(rsp, 0), Origin(rsp, 1), None]

    def test_identity_without_at_tokens(self, tmp_path):
        tokens = tokenize("gcc -c a.c", GNU)
        out, origins = expand_response_files(tokens, str(tmp_path), GNU)
        assert out is tokens and origins == (None,) * 3

    def test_nested(self, tmp_path):
        (tmp_path / "outer").write_text("@inner -g")
        (tmp_path / "inner").write_text("-O2")
        out, origins = expand_response_files(tokenize("gcc @outer a.c", GNU), str(tmp_path), GNU)
        assert out == ["gcc", "-O2", "-g", "a.c"]
        # a nested file's word keeps its own file's origin
        assert origins == [None, Origin(str(tmp_path / "inner"), 0), Origin(str(tmp_path / "outer"), 1), None]

    def test_self_cycle(self, tmp_path):
        (tmp_path / "a").write_text("@a")
        with pytest.raises(ResponseFileCycle):
            expand_response_files(tokenize("gcc @a", GNU), str(tmp_path), GNU)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ResponseFileNotFound):
            expand_response_files(tokenize("gcc @nope", GNU), str(tmp_path), GNU)

    def test_nul_in_path_is_not_found(self, tmp_path):
        with pytest.raises(ResponseFileNotFound):
            expand_response_files(tokenize("gcc @a\x00b", GNU), str(tmp_path), GNU)

    def test_depth_cap(self, tmp_path):
        for i in range(20):
            (tmp_path / f"r{i}").write_text(f"@r{i+1}")
        (tmp_path / "r20").write_text("-O2")
        with pytest.raises(NestingTooDeep):
            expand_response_files(tokenize("gcc @r0", GNU), str(tmp_path), GNU)

    def test_depth_cap_holds_for_an_expansion_a_table_keeps(self, tmp_path):
        """A file expanded once within the cap is expanded again, deeper, past it."""
        for i in range(MAX_RESPONSE_DEPTH + 1):
            (tmp_path / f"r{i}").write_text(f"@r{i + 1}" if i < MAX_RESPONSE_DEPTH else "-O2")
        table = TokenTable()
        shallow, _ = expand_response_files(tokenize("gcc @r1", GNU, table), str(tmp_path), GNU, table)
        assert shallow == ["gcc", "-O2"]
        with pytest.raises(NestingTooDeep):
            expand_response_files(tokenize("gcc @r0", GNU, table), str(tmp_path), GNU, table)

    def test_a_table_expands_each_file_once(self, tmp_path):
        (tmp_path / "rsp").write_text("-O2 -g")
        table = TokenTable()
        a, b = (expand_response_files(tokenize(f"gcc @rsp {src}", GNU, table), str(tmp_path), GNU, table)[0]
                for src in ("a.c", "b.c"))
        assert [x is y for x, y in zip(a, b)] == [True, True, True, False]

    def test_idempotent_on_own_output(self, tmp_path):
        (tmp_path / "rsp").write_text("-O2 -I include")
        out, _ = expand_response_files(tokenize("gcc @rsp a.c", GNU), str(tmp_path), GNU)
        assert expand_response_files(out, str(tmp_path), GNU)[0] == out

    def test_crlf_body(self, tmp_path):
        (tmp_path / "rsp").write_bytes(b"-O1\r\n-g\r\n")
        out, _ = expand_response_files(tokenize("gcc @rsp a.c", GNU), str(tmp_path), GNU)
        assert out == ["gcc", "-O1", "-g", "a.c"]

    # Files a, b and c, where a file may name only a later one, and a chain deep/r0 ->
    # deep/r1 -> ... whose head nests one file deeper than MAX_RESPONSE_DEPTH allows.
    FLAT = ("a", "b", "c")
    WORDS = ("-O2", "-g", "-DX", "a.c", "-o")

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_every_word_keeps_its_origin(self, data):
        """Each expanded word has one origin: None for a word of the command line, else
        `Origin(p, i)` for the i-th word of file p, through nested files and a table that
        keeps each expansion; an expansion past the depth cap raises, kept or not."""
        with tempfile.TemporaryDirectory() as tmp:
            for i, name in enumerate(self.FLAT):
                later = [f"@{n}" for n in self.FLAT[i + 1:]]
                words = data.draw(st.lists(st.sampled_from(self.WORDS + tuple(later)), max_size=5))
                Path(tmp, name).write_text(" ".join(words))
            os.mkdir(os.path.join(tmp, "deep"))
            for i in range(MAX_RESPONSE_DEPTH + 1):
                Path(tmp, "deep", f"r{i}").write_text(f"-g @r{i + 1}" if i < MAX_RESPONSE_DEPTH else "-O2")
            at = [f"@{n}" for n in self.FLAT] + ["@deep/r1", "@deep/r0"]
            lines = data.draw(st.lists(st.lists(st.sampled_from(self.WORDS + tuple(at)), max_size=6),
                                       min_size=1, max_size=4))
            table = TokenTable()
            for words in lines:
                tokens = tokenize(" ".join(["gcc", *words]), GNU, table)
                if "@deep/r0" in words:
                    with pytest.raises(NestingTooDeep):
                        expand_response_files(tokens, tmp, GNU, table)
                    continue
                out, origins = expand_response_files(tokens, tmp, GNU, table)
                assert len(origins) == len(out)
                assert [w for w, o in zip(out, origins) if o is None] == [w for w in tokens if w not in at]
                for word, origin in zip(out, origins):
                    if origin is not None:
                        assert tokenize(Path(origin.path).read_text(), GNU)[origin.index] == word


class TestNormalizePath:
    def test_relative_join(self):
        assert normalize_path("a.o", "/src") == "/src/a.o"

    def test_backslashes(self):
        assert normalize_path("obj\\a.o", "C:\\src") == "C:/src/obj/a.o"

    def test_dot_segments(self):
        assert normalize_path("./x/../a.o", "/src") == "/src/a.o"
