"""Turn Java-like source text into normalized fragment sequences.

A fragment is a plain string; whether it is a line or a token is recorded by
whatever container holds it (pools, deltas, the pipeline). Two granularities
are supported: lines (comment-stripped, trimmed, blank lines dropped) and
tokens (lexed with a permissive Java lexer that never fails).

Java's comment and string/char literal syntax is written down once, as three
regex sub-patterns. They are compiled both into the comment stripper's scan
and into the lexer's single token pattern, so the two always agree on where
a comment or a literal begins and ends.

The lexer is one ``findall`` of that pattern, ``\\s*(<alternatives>)``, so
the per-token loop runs in C. What is left of the per-token work is a few
list passes, each run only when the text holds the character that calls
for it: comment tokens are dropped (if ``/`` occurs), literal tokens are
right-stripped (if a quote occurs), and fallback characters are counted
(if a statistics object is given and a character outside the known ones
occurs). At trailing whitespace ``\\s*`` gives its last character back to
the single-character alternative; ``lex`` drops that token. A possessive
``\\s*+`` would avoid it but needs Python 3.11, and 3.10 is supported.
``lex_line`` lexes one normalized line, on which only the fallback count
has anything to do.

Fragment equality is exact, case-sensitive string equality; literals keep
their actual values.
"""

from __future__ import annotations

import re
from enum import Enum


class Granularity(str, Enum):
    LINE = "line"
    TOKEN = "token"


_LINE_BREAK = re.compile(r"\r\n|\r|\n")

# Longest first, so regex alternation picks the maximal munch.
MULTI_CHAR_OPERATORS: tuple[str, ...] = (
    ">>>=",
    ">>>", "<<=", ">>=",
    "->", "::", "++", "--", "&&", "||", "==", "!=", "<=", ">=",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<", ">>",
)

# Recognized single-character symbols; any other character that reaches the
# last alternative of the lexer is emitted as-is but counted as a fallback.
SINGLE_CHAR_SYMBOLS = frozenset("(){}[];,.@~?:=<>!+-*/%&|^")

# The one definition of comment and literal syntax, shared by the stripper
# and the lexer. A line comment runs up to its line break; a block comment
# runs to ``*/`` or, unterminated, to end of input. String and char literals
# honour backslash escapes and, unterminated, stop before a line break.
_LINE_COMMENT = r"//[^\r\n]*"
_BLOCK_COMMENT = r"/\*(?s:.*?)(?:\*/|\Z)"
_LITERAL = r""""(?:[^"\\\r\n]|\\[^\r\n]?)*"?|'(?:[^'\\\r\n]|\\[^\r\n]?)*'?"""

# Literals are matched only so that comment markers inside them are left alone.
_COMMENT_OR_LITERAL = re.compile(rf"{_LINE_COMMENT}|(?P<block>{_BLOCK_COMMENT})|{_LITERAL}")
_NOT_LINE_BREAK = re.compile(r"[^\r\n]+")

# One alternative per token class, in priority order, after optional
# whitespace (``\s`` is exactly ``str.isspace``). ``findall`` returns only
# the group, so a whole text is lexed in C. Comments and literals get their
# last touches from the passes in ``lex``.
_TOKEN = re.compile(
    r"\s*(" + "|".join((
        _LINE_COMMENT,
        _BLOCK_COMMENT,
        _LITERAL,
        r"0[xX][0-9a-fA-F]+[lL]?",
        r"(?:[0-9]+\.[0-9]*|\.[0-9]+|[0-9]+)(?:[eE][+-]?[0-9]+)?[fFdDlL]?",
        r"[A-Za-z_$][A-Za-z0-9_$]*",
        *map(re.escape, MULTI_CHAR_OPERATORS),
        r"(?s:.)",
    )) + ")"
)

# The one-character tokens that are not fallbacks: symbols, one-character
# identifiers and numbers, and a lone quote (an unterminated literal).
_PLAIN_CHARS = SINGLE_CHAR_SYMBOLS | frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_$\"'")
# A character neither plain nor whitespace; a text without one has no fallback.
_FALLBACK_CHAR = re.compile(rf"[^\s{re.escape(''.join(sorted(_PLAIN_CHARS)))}]")
_COMMENT_PREFIXES = ("//", "/*")
_QUOTES = ('"', "'")


class LexStats:
    """Counters surfaced as run diagnostics; the lexer itself never fails."""

    __slots__ = ("fallback_tokens",)

    def __init__(self, fallback_tokens: int = 0) -> None:
        self.fallback_tokens = fallback_tokens


def _strip_match(m: re.Match) -> str:
    text = m.group()
    if text[0] != "/":
        return text
    if m.group("block") is None:
        return ""
    return " " + _NOT_LINE_BREAK.sub("", text)


def strip_comments(source: str) -> str:
    """Remove ``//`` and ``/*...*/`` comments from Java-like text.

    Content inside string and character literals is preserved verbatim.
    A line comment is dropped up to (not including) the line break. A block
    comment is replaced by a single space so adjacent tokens do not glue
    together; line breaks inside it are kept so line counts survive. An
    unterminated block comment runs to end of input.
    """
    if "//" not in source and "/*" not in source:
        return source
    return _COMMENT_OR_LITERAL.sub(_strip_match, source)


def split_raw_lines(source: str) -> list[str]:
    """Split on line breaks (``\\n``, ``\\r\\n``, ``\\r``) with no other processing."""
    return _LINE_BREAK.split(source)


def fragment_lines(source: str) -> list[str]:
    """Normalized line fragments: comments stripped, lines trimmed, blanks dropped."""
    stripped = strip_comments(source)
    raw = _LINE_BREAK.split(stripped) if "\r" in stripped else stripped.split("\n")
    return list(filter(None, map(str.strip, raw)))


def lex(source: str, include_comments: bool = False, stats: LexStats | None = None) -> list[str]:
    """Lex Java-like text into token strings. Total: unknown input never raises.

    Priority at each position: comment, string or char literal (quotes
    included), numeric literal, identifier/keyword (not distinguished),
    multi-character operator by maximal munch, single character. Whitespace
    is skipped; comments are skipped unless ``include_comments`` is set, in
    which case each comment becomes one element (used by the
    post-normalization diff mode).
    """
    tokens = _TOKEN.findall(source)
    if tokens and tokens[-1].isspace():
        # The last whitespace character of the text (see the module docstring).
        del tokens[-1]
    if not include_comments and "/" in source:
        tokens = [t for t in tokens if not t.startswith(_COMMENT_PREFIXES)]
    if '"' in source or "'" in source:
        # An unterminated literal drops trailing whitespace, so the token
        # lexes the same whether seen in a file or in a trimmed line.
        tokens = [t.rstrip() if t.startswith(_QUOTES) else t for t in tokens]
    if stats is not None and _FALLBACK_CHAR.search(source):
        stats.fallback_tokens += sum(1 for t in tokens if len(t) == 1 and t not in _PLAIN_CHARS)
    return tokens


def lex_line(line: str) -> tuple[list[str], int]:
    """The tokens of one ``fragment_lines`` line and their fallback count,
    as ``lex(line, stats=...)`` gives them, from one ``findall``.

    Such a line is trimmed and holds no comment outside a literal, and an
    unterminated literal in it runs to its last, non-space character. So
    ``lex``'s whole-text passes find nothing to do on it: there is no
    trailing whitespace token, no comment token and no literal to strip.
    """
    tokens = _TOKEN.findall(line)
    if _FALLBACK_CHAR.search(line) is None:
        return tokens, 0
    return tokens, sum(1 for t in tokens if len(t) == 1 and t not in _PLAIN_CHARS)


def is_comment_token(token: str) -> bool:
    """True for elements produced by ``lex(..., include_comments=True)`` only."""
    return token.startswith(_COMMENT_PREFIXES)
