import itertools
import random

import pytest
from hypothesis import example, given, strategies as st

import canonical_oracle
from flagtrace.cmdline import COMMAND_LINE, Dialect, Family, Origin, Token, ToolKind, tokenize
from flagtrace.flagmodel import (
    NEGATIVE,
    POSITIVE,
    EffectiveFlagSet,
    FlagEntry,
    canonical_deserialize,
    canonical_serialize,
    classify,
    classify_all,
    resolve,
)

GNU = Dialect(Family.GNU_LIKE, ToolKind.COMPILER)
MSVC = Dialect(Family.MSVC, ToolKind.COMPILER)


def c1(text, dialect=GNU, nxt=None):
    entry, consumed = classify(Token(text), dialect, Token(nxt) if nxt else None)
    return entry, consumed


class TestClassify:
    def test_no_exceptions(self):
        entry, _ = c1("-fno-exceptions")
        assert entry.key == "exceptions" and entry.polarity == NEGATIVE

    def test_march(self):
        entry, _ = c1("-march=native")
        assert entry.key == "target_arch" and entry.value == "native"

    def test_link_lib(self):
        entry, _ = c1("-latomic")
        assert entry.key == "link_lib" and entry.value == "atomic"

    def test_separated_define(self):
        entry, consumed = c1("-D", nxt="FOO=2")
        assert consumed and entry.key == "macro_define" and entry.value == "FOO=2"

    def test_msvc_dash_prefix_canonicalized(self):
        entry, _ = c1("-GS", MSVC)
        assert entry.key == "stack_protector" and entry.polarity == POSITIVE
        assert entry.spelling == "-GS"

    def test_msvc_separated_define(self):
        entry, consumed = c1("/D", MSVC, nxt="WIN32")
        assert consumed and entry.key == "macro_define" and entry.value == "WIN32"

    def test_unknown_degrades_to_opaque(self):
        entry, _ = c1("-fsome-novel-flag")
        assert entry.key == "opaque" and entry.spelling == "-fsome-novel-flag"

    def test_warning_polarity(self):
        pos, _ = c1("-Wunused")
        neg, _ = c1("-Wno-unused")
        assert pos.group == neg.group == "warning:unused"
        assert pos.polarity == POSITIVE and neg.polarity == NEGATIVE

    def test_linker_passthrough_is_opaque(self):
        entry, _ = c1("-Wl,--as-needed")
        assert entry.key == "opaque"

    def test_source_and_objects(self):
        assert c1("foo.c")[0].key == "source_file"
        assert c1("foo.o")[0].key == "link_obj"
        assert c1("libz.a")[0].key == "link_lib"
        assert c1("libz.so.1.2")[0].key == "link_lib"


class TestResolve:
    def test_later_opt_wins(self):
        r = resolve(classify_all(tokenize("-O2 -O0", GNU), GNU))
        assert r.scalar_groups["opt_level"].spelling == "-O0"

    def test_later_exceptions_wins(self):
        r = resolve(classify_all(tokenize("-fexceptions -fno-exceptions", GNU), GNU))
        assert r.scalar_groups["exceptions"].polarity == NEGATIVE

    def test_empty(self):
        r = resolve([])
        assert r == EffectiveFlagSet()

    def test_undef_after_define_removes(self):
        r = resolve(classify_all(tokenize("-DFOO=1 -UFOO", GNU), GNU))
        assert "FOO" not in r.defines

    def test_define_after_undef_defines(self):
        r = resolve(classify_all(tokenize("-UFOO -DFOO", GNU), GNU))
        assert "FOO" in r.defines

    def test_define_with_and_without_value_distinct(self):
        a = resolve(classify_all(tokenize("-DFOO", GNU), GNU))
        b = resolve(classify_all(tokenize("-DFOO=1", GNU), GNU))
        assert a != b

    def test_last_wins_oracle(self):
        # oracle: linear scan keeping the last occurrence per group
        entries = classify_all(tokenize("-O1 -O3 -g -g0 -O2", GNU), GNU)
        expected = {}
        for e in entries:
            if e.group:
                expected[e.group] = e.spelling
        r = resolve(entries)
        assert {g: e.spelling for g, e in r.scalar_groups.items()} == expected


VOCAB_TOKENS = [
    "-O0", "-O1", "-O2", "-O3", "-Os", "-g", "-g3", "-fexceptions",
    "-fno-exceptions", "-fstack-protector", "-fno-stack-protector",
    "-std=c++17", "-std=c11", "-march=native", "-march=armv7",
    "-DFOO", "-DFOO=1", "-DBAR=2", "-UFOO", "-Iinc", "-I/usr/include",
    "-lm", "-latomic", "-Wall", "-Wno-unused", "-Werror", "-c",
    "a.c", "b.c", "util.o", "libz.a", "-pthread", "-fPIC",
]


def random_entries(rng, n):
    toks = tokenize(" ".join(rng.choice(VOCAB_TOKENS) for _ in range(n)), GNU)
    return classify_all(toks, GNU)


class TestProperties:
    def test_resolve_idempotence(self):
        rng = random.Random(7)
        for _ in range(50):
            r = resolve(random_entries(rng, rng.randint(0, 20)))
            assert resolve(canonical_oracle.entries(r)) == r

    def test_decomposability(self):
        rng = random.Random(11)
        for _ in range(50):
            l1 = random_entries(rng, rng.randint(0, 12))
            l2 = random_entries(rng, rng.randint(0, 12))
            assert resolve(l1 + l2) == resolve(l1).extend(l2)

    @given(st.integers(0, 2**32 - 1))
    def test_appended_group_member_wins(self, seed):
        rng = random.Random(seed)
        entries = random_entries(rng, rng.randint(0, 10))
        tail = classify_all(tokenize(rng.choice(["-O3", "-fno-exceptions", "-g0"]), GNU), GNU)
        r = resolve(entries + tail)
        assert r.scalar_groups[tail[0].group].spelling == tail[0].spelling


class TestCanonicalSerialize:
    def test_empty_is_stable(self):
        assert canonical_serialize(resolve([])) == canonical_serialize(resolve([]))
        assert canonical_serialize(resolve([])) == b'["flagset",1]\n'

    def test_equal_values_equal_bytes(self):
        a = resolve(classify_all(tokenize("-O2 -DX -Ia", GNU), GNU))
        b = resolve(classify_all(tokenize("-O2 -DX -Ia", GNU), GNU))
        assert canonical_serialize(a) == canonical_serialize(b)

    def test_include_order_significant(self):
        a = resolve(classify_all(tokenize("-Ia -Ib", GNU), GNU))
        b = resolve(classify_all(tokenize("-Ib -Ia", GNU), GNU))
        assert canonical_serialize(a) != canonical_serialize(b)

    def test_injective_on_random_sets(self):
        rng = random.Random(3)
        seen = {}
        for _ in range(200):
            r = resolve(random_entries(rng, rng.randint(0, 15)))
            key = canonical_serialize(r)
            if key in seen:
                assert seen[key] == r
            seen[key] = r


# Text that JSON escapes (quote, backslash, C0 controls) or leaves alone
# although some line splitters break on it (U+0085, U+2028, U+2029).
_TRICKY = st.text(st.sampled_from('"\\/\x00\x01\x1f\x7f\u0085\u2028\u2029a é\U0001f600'))
_TEXT = st.one_of(st.text(), _TRICKY)
_VALUE = st.one_of(st.none(), _TEXT)


@st.composite
def flag_entries(draw, keys=_TEXT):
    return FlagEntry(draw(keys), draw(_VALUE), draw(_TEXT), draw(_TEXT))


@st.composite
def flag_sets(draw):
    small = {"max_size": 4}
    return EffectiveFlagSet(
        draw(st.dictionaries(_TEXT, flag_entries(), **small)),
        draw(st.dictionaries(_TEXT, flag_entries(), **small)),
        draw(st.lists(flag_entries(), **small)),
        draw(st.lists(flag_entries(st.sampled_from(["link_obj", "link_lib"])), **small)),
        draw(st.lists(flag_entries(), **small)),
        draw(st.lists(flag_entries(), **small)),
    )


class TestCanonicalSerializeOracle:
    @given(flag_sets())
    @example(EffectiveFlagSet(
        {"g\u2028": FlagEntry("k", None, "p\"", "s\\")},
        {"D\u0085": FlagEntry("macro_define", None, "valued", "-D\x00")},
        [FlagEntry("include_dir", "\x1f", "valued", "\u2029")],
        [FlagEntry("link_obj", None, "valued", "o"), FlagEntry("link_lib", "m", "valued", "-lm")],
        [FlagEntry("source_file", None, "valued", "a.c")],
        [FlagEntry("opaque", None, "valued", "\x7f\U0001f600")],
    ))
    def test_bytes_equal_json_dumps_per_line(self, fset):
        assert canonical_serialize(fset) == canonical_oracle.canonical_serialize(fset)


_OPAQUE = ("opaque", None, "valued", None)
_PREFIX_CASES = {
    Family.GNU_LIKE: [
        ("-Wunused", ("warning", "unused", POSITIVE, "warning:unused")),
        ("-Wno-unused", ("warning", "unused", NEGATIVE, "warning:unused")),  # not -W's "no-unused"
        ("-Wl,-z", _OPAQUE),  # not -W's "l,-z"
        ("-Wno-l,x", ("warning", "l,x", NEGATIVE, "warning:l,x")),
        ("-isystemdir", ("include_dir", "dir", "valued", None)),
        ("-std=", ("lang_std", "", "valued", "lang_std")),  # a suffix may be empty
        # Nothing after an attached row's prefix is opaque; no shorter prefix is tried.
        ("-Wno-", _OPAQUE), ("-W", _OPAQUE), ("-Wl,", _OPAQUE),
        ("-Dx", ("macro_define", "x", "valued", None)),
    ],
    Family.MSVC: [
        ("-std:c++17", ("lang_std", "c++17", "valued", "lang_std")),
        ("/OUT:app.exe", ("output", "app.exe", "valued", "output")),
        ("/OUT:", _OPAQUE), ("-OUT:", _OPAQUE),
    ],
}


class TestLongestPrefix:
    @pytest.mark.parametrize("family", list(Family))
    def test_longest_matching_prefix_decides(self, family):
        """The longest prefix a token starts with picks its row, even when its rest is empty."""
        for text, want in _PREFIX_CASES[family]:
            e, consumed = c1(text, Dialect(family, ToolKind.COMPILER), nxt="x")
            assert ((e.key, e.value, e.polarity, e.group), e.spelling, consumed) == (want, text, False)


GNU_LINK = Dialect(Family.GNU_LIKE, ToolKind.LINKER)
MSVC_LINK = Dialect(Family.MSVC, ToolKind.LINKER)
_SPELLINGS = [
    "-D", "/D", "-DFOO", "/DFOO=1", "FOO", "-U", "-UFOO", "-I", "/I", "-Iinc", "/Iinc", "inc",
    "-isystem", "-isystem/usr/include", "-o", "-oa.o", "a.o", "/Fo", "/Foa.obj", "/Fe",
    "/OUT:app.exe", "/OUT:", "-OUT:x", "-O2", "/O2", "-GS", "/GS-", "-std=c11", "/std:c++17",
    "-std:c++17", "-march=native", "-Wall", "-Wno-unused", "-Wl,-z", "-lm", "-c", "/c",
    "a.c", "b.cpp", "/abs/x.c", "C:\\s\\y.cxx", "util.lib", "libz.a", "-fPIC", "-",
]
_ORIGINS = [COMMAND_LINE, Origin("command-line"),
            Origin("response-file", "a.rsp", 0), Origin("response-file", "b.rsp", 3)]
_commands = st.tuples(
    st.sampled_from([GNU, MSVC, GNU_LINK, MSVC_LINK]),
    st.lists(st.builds(Token, st.sampled_from(_SPELLINGS), st.sampled_from(_ORIGINS)), max_size=8),
)


class TestClassifyAllMemo:
    @given(st.lists(_commands, max_size=8))
    @example([(GNU, [Token("-O2"), Token("-D")]), (GNU, [Token("-D"), Token("FOO"), Token("-c")]),
              (MSVC, [Token("/D")]), (MSVC, [Token("-D"), Token("X")]), (MSVC, [Token("/D")])])
    def test_equals_classify_per_token(self, commands):
        """One memo across a snapshot's commands gives what classify gives.

        FlagEntry equality covers every field, the token's origin included.
        """
        memo = {}
        for dialect, tokens in commands:
            assert classify_all(tokens, dialect, memo) == canonical_oracle.classify_each(tokens, dialect)

    def test_trailing_separated_flag_then_with_argument(self):
        memo = {}
        first = classify_all([Token("-O2"), Token("-D")], GNU, memo)
        later = classify_all([Token("-D"), Token("FOO"), Token("-O2")], GNU, memo)
        assert first[1].key == "opaque"
        assert later[0].key == "macro_define" and later[0].value == "FOO"
        assert later[1] is first[0]


# Command-line tokens: known spellings, and every argument-flag, warning
# and file-extension rule around arbitrary (also tricky) text.
_STEMS = ["", "-D", "/D", "-U", "/U", "-I", "/I", "-W", "-Wno-", "-Wl,", "-l", "-o", "/Fo",
          "/OUT:", "-OUT:", "-isystem", "-f", "/", "-O", "-std=", "-std:", "/abs/"]
_EXTS = ["", ".c", ".C", ".cpp", ".o", ".obj", ".a", ".lib", ".so.1", ".so.C"]
_token_texts = st.one_of(
    st.sampled_from(_SPELLINGS),
    st.builds(lambda stem, text, ext: stem + text + ext,
              st.sampled_from(_STEMS), _TEXT, st.sampled_from(_EXTS)),
)
_command_line_tokens = st.builds(Token, _token_texts)

_PINNED = [
    "-Wno-", "-W", "-Wl,x", "/OUT:", "-std=", "-std:c++17", "-D", "-isystem", "/Fo",
    ".C", "x.so.C", "libz.so.1.2", "/abs/x.c",
]


class TestClassifyOracle:
    @given(st.sampled_from([GNU, MSVC]), st.one_of(st.sampled_from(_PINNED), _token_texts),
           st.sampled_from([COMMAND_LINE, Origin("response-file", "a.rsp", 1)]),
           st.one_of(st.none(), st.builds(Token, _TEXT)))
    def test_equals_the_classifier_with_code_side_tables(self, dialect, text, origin, nxt):
        """Every rule as a row gives what the rules in code gave: entry and consumption."""
        token = Token(text, origin)
        assert classify(token, dialect, nxt) == canonical_oracle.classify(token, dialect, nxt)

    def test_pinned_examples(self):
        for text, dialect, origin, nxt in itertools.product(
                _PINNED, [GNU, MSVC], [COMMAND_LINE, Origin("response-file", "a.rsp", 1)],
                [None, Token("ARG")]):
            token = Token(text, origin)
            assert classify(token, dialect, nxt) == canonical_oracle.classify(token, dialect, nxt)


class TestCanonicalDeserialize:
    @given(st.lists(st.tuples(st.sampled_from([GNU, MSVC, GNU_LINK, MSVC_LINK]),
                              st.lists(_command_line_tokens, max_size=12)), max_size=6))
    @example([(GNU, [Token("-D"), Token("X=\"a b\""), Token("-DX"), Token("-UY"), Token("-D")]),
              (MSVC, [Token("/DA=1"), Token("-D"), Token("B"), Token("/Foo\u2028.obj")]),
              (GNU, [Token("-Wno-"), Token("-W\x00"), Token("-l\\"), Token("\u0085.c")])])
    def test_inverts_canonical_serialize(self, commands):
        """Decoding gives the resolved entries back: every field, origin and dict key.

        One line memo serves every command, as one serves a snapshot.
        """
        lines = {}
        for dialect, tokens in commands:
            fset = resolve(classify_all(tokens, dialect))
            text = canonical_serialize(fset).decode("utf-8")
            back = canonical_deserialize(text, lines)
            assert back.scalar_groups == fset.scalar_groups
            assert back.defines == fset.defines
            assert (back.include_dirs, back.link_inputs, back.sources, back.opaque) == (
                fset.include_dirs, fset.link_inputs, fset.sources, fset.opaque)
            assert all(e.origin is COMMAND_LINE for e in canonical_oracle.entries(back))
            assert canonical_serialize(back).decode("utf-8") == text

    def test_equal_lines_share_one_entry(self):
        lines = {}
        a = canonical_deserialize('["flagset",1]\n["opaque","-fPIC"]\n', lines)
        b = canonical_deserialize('["flagset",1]\n["source","a.c"]\n["opaque","-fPIC"]\n', lines)
        assert a.opaque[0] is b.opaque[0]

    @pytest.mark.parametrize("line", [
        '["define","X","Y=1","-DY=1"]',  # name is not the macro the value defines
        '["group","g","k","p",null]',
        '["include",1,"-I1"]',
        '["link","dll","x","x"]',
        '["source",null]',
        '["opaque",null]',
        '["unknown","x"]',
        '"opaque"',
        '[]',
        '["opaque","a"],["opaque","b"]',
        '["opaque",[["opaque"]]]',
        '["opaque","\\ud800"]',  # a lone surrogate, which no UTF-8 text holds
        '["source","a\\uDFFF.c"]',
    ])
    def test_rejects_a_line_it_cannot_have_written(self, line):
        with pytest.raises(ValueError):
            canonical_deserialize(f'["flagset",1]\n{line}\n', {})

    @pytest.mark.parametrize("text", ["", '["flagset",1]', '["flagset",2]\n', '["opaque","a"]\n',
                                      '["flagset",1]\n\n'])
    def test_rejects_text_it_cannot_have_written(self, text):
        with pytest.raises(ValueError):
            canonical_deserialize(text, {})
