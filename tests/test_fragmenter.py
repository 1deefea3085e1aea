"""Fragmenter tests: comment stripping, line fragments, and the lexer."""

from __future__ import annotations

import re
import sysconfig
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tempred.fragmenter import (
    LexStats,
    fragment_lines,
    lex,
    lex_line,
    strip_comments,
)
from tempred.history import load_history_bundle
from tempred.synth import HistorySpec, generate_history

# ---------------------------------------------------------------------------
# Independent reference: explicit character-by-character state machine,
# structured differently from the production scanner on purpose.
# ---------------------------------------------------------------------------

_CODE, _LINE_COMMENT, _BLOCK_COMMENT, _STRING, _CHAR = range(5)


def reference_strip_comments(src: str) -> str:
    out: list[str] = []
    state = _CODE
    quote = ""
    i, n = 0, len(src)
    while i < n:
        c = src[i]
        if state == _CODE:
            if c == "/" and i + 1 < n and src[i + 1] == "/":
                state = _LINE_COMMENT
                i += 2
            elif c == "/" and i + 1 < n and src[i + 1] == "*":
                out.append(" ")
                state = _BLOCK_COMMENT
                i += 2
            elif c in "\"'":
                out.append(c)
                quote = c
                state = _STRING
                i += 1
            else:
                out.append(c)
                i += 1
        elif state == _LINE_COMMENT:
            if c in "\r\n":
                state = _CODE  # do not consume; the line break is code
            else:
                i += 1
        elif state == _BLOCK_COMMENT:
            if c == "*" and i + 1 < n and src[i + 1] == "/":
                state = _CODE
                i += 2
            else:
                if c in "\r\n":
                    out.append(c)
                i += 1
        else:  # string or char literal; both end at quote or line break
            if c == quote:
                out.append(c)
                state = _CODE
                i += 1
            elif c in "\r\n":
                state = _CODE  # unterminated literal; break stays code
            elif c == "\\" and i + 1 < n and src[i + 1] not in "\r\n":
                out.append(src[i : i + 2])
                i += 2
            else:
                out.append(c)
                i += 1
    return "".join(out)


# ---------------------------------------------------------------------------
# Independent reference lexer: the character-by-character scanner the
# production lexer's single token pattern replaced, kept verbatim with its own
# copies of the operator and symbol tables.
# ---------------------------------------------------------------------------

_LINE_BREAK = re.compile(r"\r\n|\r|\n")

# Longest first, so maximal munch is a plain startswith scan.
MULTI_CHAR_OPERATORS: tuple[str, ...] = (
    ">>>=",
    ">>>", "<<=", ">>=",
    "->", "::", "++", "--", "&&", "||", "==", "!=", "<=", ">=",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<", ">>",
)

SINGLE_CHAR_SYMBOLS = frozenset("(){}[];,.@~?:=<>!+-*/%&|^")

_IDENTIFIER = re.compile(r"[A-Za-z_$][A-Za-z0-9_$]*")
_HEX_NUMBER = re.compile(r"0[xX][0-9a-fA-F]+[lL]?")
_DEC_NUMBER = re.compile(r"(?:[0-9]+\.[0-9]*|\.[0-9]+|[0-9]+)(?:[eE][+-]?[0-9]+)?[fFdDlL]?")
_ASCII_DIGITS = frozenset("0123456789")


def _scan_quoted(source: str, start: int, quote: str) -> int:
    """Return the index just past the literal opened at ``start``.

    Backslash escapes are honoured. Literals never span line breaks: an
    unterminated literal ends (exclusively) at the next line break or at end
    of input.
    """
    n = len(source)
    i = start + 1
    while i < n:
        c = source[i]
        if c == quote:
            return i + 1
        if c == "\n" or c == "\r":
            return i
        if c == "\\" and i + 1 < n and source[i + 1] not in "\r\n":
            i += 2
        else:
            i += 1
    return n


def reference_lex(
    source: str, include_comments: bool = False, stats: LexStats | None = None
) -> list[str]:
    """Lex Java-like text into token strings. Total: unknown input never raises.

    Priority at each position: string literal (quotes included), char literal,
    numeric literal, identifier/keyword (not distinguished), multi-character
    operator by maximal munch, single character. Whitespace is skipped;
    comments are skipped unless ``include_comments`` is set, in which case each
    comment becomes one element (used by the post-normalization diff mode).
    """
    tokens: list[str] = []
    i, n = 0, len(source)
    while i < n:
        c = source[i]
        if c.isspace():
            i += 1
            continue
        if c == "/" and i + 1 < n:
            nxt = source[i + 1]
            if nxt == "/":
                m = _LINE_BREAK.search(source, i)
                end = m.start() if m else n
                if include_comments:
                    tokens.append(source[i:end])
                i = end
                continue
            if nxt == "*":
                stop = source.find("*/", i + 2)
                end = n if stop < 0 else stop + 2
                if include_comments:
                    tokens.append(source[i:end])
                i = end
                continue
        if c == '"' or c == "'":
            end = _scan_quoted(source, i, c)
            token = source[i:end]
            if len(token) < 2 or token[-1] != c:
                # Unterminated literal: drop trailing whitespace so the token
                # lexes the same whether seen in a file or in a trimmed line.
                token = token.rstrip()
            tokens.append(token)
            i = end
            continue
        if c in _ASCII_DIGITS or (
            c == "." and i + 1 < n and source[i + 1] in _ASCII_DIGITS
        ):
            m = _HEX_NUMBER.match(source, i) or _DEC_NUMBER.match(source, i)
            tokens.append(m.group())
            i = m.end()
            continue
        m = _IDENTIFIER.match(source, i)
        if m:
            tokens.append(m.group())
            i = m.end()
            continue
        for op in MULTI_CHAR_OPERATORS:
            if source.startswith(op, i):
                tokens.append(op)
                i += len(op)
                break
        else:
            tokens.append(c)
            if stats is not None and c not in SINGLE_CHAR_SYMBOLS:
                stats.fallback_tokens += 1
            i += 1
    return tokens


java_soup = st.lists(
    st.sampled_from(
        list("ab1 \t\n\r/*") + ["/*", "*/", "//", '"', "'", "\\", ";", "="]
    ),
    max_size=60,
).map("".join)


@pytest.fixture(scope="module")
def synth_versions(tmp_path_factory) -> list[str]:
    """Every distinct file version of one synthetic history."""
    bundle = generate_history(
        HistorySpec(seed=7, commit_count=300, file_count=8, fragment_alphabet_size=400,
                    reuse_probability=0.5, locality_bias=0.5, token_recombination=0.3),
        tmp_path_factory.mktemp("synth") / "bundle",
    )
    texts = [
        text
        for commit in load_history_bundle(bundle)
        for fc in commit.file_changes
        for text in (fc.before, fc.after)
        if text is not None
    ]
    return list(dict.fromkeys(texts))


def test_strip_trailing_line_comment():
    assert strip_comments("int x = 1; // set x") == "int x = 1; "


def test_strip_preserves_string_literals():
    src = 'String s = "// not a comment";'
    assert strip_comments(src) == src


def test_strip_block_comment_becomes_space():
    assert strip_comments("a/*c*/b") == "a b"


def test_strip_block_comment_keeps_newlines():
    assert strip_comments("a/*x\ny*/b") == "a \nb"


def test_strip_unterminated_block_runs_to_end():
    assert strip_comments("a; /* open\nmore") == "a;  \n"


def test_strip_char_literal_protected():
    src = "char c = '/'; int y = 2; // tail"
    assert strip_comments(src) == "char c = '/'; int y = 2; "


@settings(max_examples=5000)
@given(java_soup)
def test_strip_comments_matches_reference_state_machine(src: str):
    assert strip_comments(src) == reference_strip_comments(src)


def test_strip_comments_matches_reference_on_synth_versions(synth_versions):
    assert len(synth_versions) > 100
    for text in synth_versions + [JAVA_SAMPLE]:
        assert strip_comments(text) == reference_strip_comments(text)


# ---------------------------------------------------------------------------
# Line fragments
# ---------------------------------------------------------------------------


def test_fragment_lines_trims_and_drops_blank_and_comment_lines():
    assert fragment_lines("  a;\n\n  // c\n b;\n") == ["a;", "b;"]


def test_fragment_lines_empty_file():
    assert fragment_lines("") == []


def test_fragment_lines_mixed_line_endings():
    assert fragment_lines("a;\r\nb;\rc;\n") == ["a;", "b;", "c;"]


JAVA_SAMPLE = """\
package demo.app;

import java.util.List;

/**
 * A small container.
 */
public class Container {
    private final List<String> items; // storage

    public Container(List<String> items) {
        this.items = items;
    }

    /* Returns the number of items. */
    public int size() {
        return items.size();
    }

    public boolean isEmpty() {
        // empty when no items exist
        return items.isEmpty();
    }

    public String describe() {
        String sep = "; // not a comment";
        StringBuilder sb = new StringBuilder();
        for (int i = 0; i < items.size(); i++) {
            sb.append(items.get(i)).append(sep);
        }
        return sb.toString();
    }
}
"""


def test_fragment_lines_composes_strip_split_trim_filter():
    expected = []
    for raw in re.split(r"\r\n|\r|\n", reference_strip_comments(JAVA_SAMPLE)):
        line = raw.strip()
        if line:
            expected.append(line)
    assert fragment_lines(JAVA_SAMPLE) == expected
    assert "return items.size();" in fragment_lines(JAVA_SAMPLE)


line_break_source = st.lists(
    st.sampled_from(["a;", " b = 1; ", "\t", "  ", "\n", "\r\n", "\r", "\n\n", "\r\r\n",
                     "// c", "/* x\r\ny */", '"s\r"', "\x0b", "\x0c", "\x85", "\u2028"]),
    max_size=30,
).map("".join)


@settings(max_examples=1000)
@given(line_break_source)
@example("a;\n\n  b;\n")  # no carriage return: the split on "\n" alone
@example("a;\r\n\rb;\n\r")
def test_fragment_lines_matches_regex_split_reference(src: str):
    raw = re.split(r"\r\n|\r|\n", strip_comments(src))
    assert fragment_lines(src) == [line.strip() for line in raw if line.strip()]


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------


def test_lexes_loop_header():
    assert lex("for (int i=0;i<n;i++)") == [
        "for", "(", "int", "i", "=", "0", ";", "i", "<", "n", ";", "i", "++", ")",
    ]


def test_lexes_empty_source():
    assert lex("") == []


def test_maximal_munch_compound_assignment():
    assert lex("a >>>= b") == ["a", ">>>=", "b"]


def test_maximal_munch_is_greedy_left_to_right():
    assert lex("i+++j") == ["i", "++", "+", "j"]


def test_fallback_characters_counted():
    stats = LexStats()
    tokens = lex("price = €50;", stats=stats)
    assert tokens == ["price", "=", "€", "50", ";"]
    assert stats.fallback_tokens == 1


def test_comment_tokens_only_in_comment_mode():
    src = "a = 1; // note\n/* b */ c = 2;"
    assert lex(src) == ["a", "=", "1", ";", "c", "=", "2", ";"]
    assert lex(src, include_comments=True) == [
        "a", "=", "1", ";", "// note", "/* b */", "c", "=", "2", ";",
    ]


token_source = st.lists(
    st.sampled_from(
        list("abn01 \t\n") + ['"', "'", "\\", "/*", "*/", "//", "+", "=", ";", ">", "."]
    ),
    max_size=50,
).map("".join)


@settings(max_examples=400)
@given(token_source)
def test_token_fragment_invariants(src: str):
    for token in lex(src):
        assert token, "tokens are non-empty"
        assert "\n" not in token and "\r" not in token
        assert token == token.strip()
        if not (token.startswith('"') or token.startswith("'")):
            assert not any(ch.isspace() for ch in token)


@settings(max_examples=400)
@given(token_source)
def test_line_fragment_invariants(src: str):
    for line in fragment_lines(src):
        assert line
        assert "\n" not in line and "\r" not in line
        assert line == line.strip()


def _is_subsequence_contiguous(needle: list[str], hay: list[str]) -> bool:
    if not needle:
        return True
    for start in range(len(hay) - len(needle) + 1):
        if hay[start : start + len(needle)] == needle:
            return True
    return False


@settings(max_examples=300)
@given(token_source)
def test_line_fragment_tokens_are_contiguous_in_file_tokens(src: str):
    file_tokens = lex(src)
    for line in fragment_lines(src):
        assert _is_subsequence_contiguous(lex(line), file_tokens)


# ---------------------------------------------------------------------------
# Tokens derived from lines: the pipeline's ``pre`` mode lexes each normalized
# line once and concatenates, so this identity, fallback count included, is
# what keeps its token fragments equal to whole-file lexing.
# ---------------------------------------------------------------------------


def _lex_by_lines(src: str) -> tuple[list[str], int]:
    stats = LexStats()
    tokens = [t for line in fragment_lines(src) for t in lex(line, stats=stats)]
    return tokens, stats.fallback_tokens


def _lex_whole(src: str) -> tuple[list[str], int]:
    stats = LexStats()
    return lex(src, stats=stats), stats.fallback_tokens


derivation_source = st.lists(
    st.sampled_from(
        list("ab_$09 \t\n\r\x0b\xa0\u2028;=+-<>.#`@éß€中")
        + ["\r\n", '"', "'", "\\", "/", "*", "/*", "*/", "//", "/*x\ny*/",
           "0x1F", "1.5e-3f", ".5", ">>>=", "->", '"a\\"b"', "'\\''", '"open ', "'open\t"]
    ),
    max_size=60,
).map("".join)


@settings(max_examples=2000)
@given(derivation_source)
def test_tokens_derive_from_normalized_lines(src: str):
    assert _lex_by_lines(src) == _lex_whole(src)


def test_tokens_derive_from_lines_on_synth_versions(synth_versions):
    for text in synth_versions + [JAVA_SAMPLE, "price = €50; # tag `x`\n/* é\n */ y = 'q"]:
        assert _lex_by_lines(text) == _lex_whole(text)


def _lex_both_modes(lexer, src: str) -> list[tuple[list[str], int]]:
    out = []
    for include_comments in (False, True):
        stats = LexStats()
        out.append((lexer(src, include_comments, stats), stats.fallback_tokens))
    return out


@settings(max_examples=5000)
@given(derivation_source)
def test_lex_matches_reference_lexer(src: str):
    assert _lex_both_modes(lex, src) == _lex_both_modes(reference_lex, src)


# Each input end, then each kind of trailing whitespace: at end of input the
# token pattern's leading whitespace gives a character back.
_INPUT_ENDS = ("x", "x >>=", "x €", 'x "open', "x // note", "x /* open")
_TRAILING_SPACE = (" ", "\t", "\x0b", "\u2028")


def test_lex_matches_reference_lexer_on_synth_versions(synth_versions):
    edge = [
        "price\x0b= €50; // é\nx >>>= 0x1FL >>> .5e-3f;\ns = \"open \t\n/* open",
        *(end + space for end in _INPUT_ENDS for space in _TRAILING_SPACE),
    ]
    for text in synth_versions + [JAVA_SAMPLE, *edge]:
        assert _lex_both_modes(lex, text) == _lex_both_modes(reference_lex, text), repr(text)


# Real code the lexer was not written against: Python, with ``#`` comments,
# backslashes, triple quotes and non-ASCII text. Name-sorted, in every
# supported CPython; about 1 MB.
_STDLIB_MODULES = (
    "argparse.py", "ast.py", "calendar.py", "csv.py", "difflib.py",
    "email/_header_value_parser.py", "encodings/cp1252.py", "html/entities.py",
    "inspect.py", "locale.py", "pydoc.py", "shlex.py", "string.py",
    "stringprep.py", "textwrap.py", "tokenize.py", "typing.py",
)


def test_lex_matches_reference_lexer_on_stdlib_modules():
    stdlib = Path(sysconfig.get_paths()["stdlib"])
    for name in _STDLIB_MODULES:
        text = (stdlib / name).read_text(encoding="utf-8")
        assert _lex_both_modes(lex, text) == _lex_both_modes(reference_lex, text), name


# ``lex_line`` skips ``lex``'s whole-text passes, which find nothing to do on
# a normalized line; this checks that claim line by line.
def _assert_lex_line_matches_lex(src: str) -> None:
    for line in fragment_lines(src):
        stats = LexStats()
        tokens, fallback = lex_line(line)
        assert (tuple(tokens), fallback) == (tuple(lex(line, stats=stats)),
                                             stats.fallback_tokens), repr(line[:80])


@settings(max_examples=2000)
@given(derivation_source)
def test_lex_line_matches_lex_on_normalized_lines(src: str):
    _assert_lex_line_matches_lex(src)


# Long-input texts: a 1-MB line of identifiers, an unterminated block comment
# before code, a 1-MB unterminated string, and 1 MB of backslashes inside a
# string, an even and an odd number of them.
_LONG_LINES = (
    "x = " + "ab1 " * (2**18) + ";",
    "int a = 1;\n/* open\n" + "int b = 2;\n" * 1000,
    's = "' + "x" * 2**20,
    's = "' + "\\" * 2**20 + '";',
    's = "' + "\\" * (2**20 + 1) + '";',
)


def test_lex_line_matches_lex_on_synth_versions_stdlib_and_long_lines(synth_versions):
    stdlib = Path(sysconfig.get_paths()["stdlib"])
    modules = [(stdlib / name).read_text(encoding="utf-8") for name in _STDLIB_MODULES]
    for text in [*synth_versions, JAVA_SAMPLE, *modules, *_LONG_LINES]:
        _assert_lex_line_matches_lex(text)


def test_determinism():
    src = JAVA_SAMPLE
    assert lex(src) == lex(src)
    assert fragment_lines(src) == fragment_lines(src)
