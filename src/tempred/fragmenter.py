"""Turn Java-like source text into normalized fragment sequences.

A fragment is a plain string; whether it is a line or a token is recorded by
whatever container holds it (pools, deltas, the pipeline). Two granularities
are supported: lines (comment-stripped, trimmed, blank lines dropped) and
tokens (lexed with a permissive Java lexer that never fails).

Java's comment and string/char literal syntax is written down once, as three
regex sub-patterns. They are compiled both into the comment stripper's scan
and into the lexer's single token pattern, so the two always agree on where
a comment or a literal begins and ends.

Fragment equality is exact, case-sensitive string equality; literals keep
their actual values.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
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

# One alternative per token class, in priority order. ``\s`` is exactly
# ``str.isspace``. Numbers, identifiers and operators are unnamed: their
# text is the token as is.
_TOKEN = re.compile(
    "|".join((
        r"(?P<space>\s+)",
        rf"(?P<comment>{_LINE_COMMENT}|{_BLOCK_COMMENT})",
        rf"(?P<literal>{_LITERAL})",
        r"0[xX][0-9a-fA-F]+[lL]?",
        r"(?:[0-9]+\.[0-9]*|\.[0-9]+|[0-9]+)(?:[eE][+-]?[0-9]+)?[fFdDlL]?",
        r"[A-Za-z_$][A-Za-z0-9_$]*",
        *map(re.escape, MULTI_CHAR_OPERATORS),
        r"(?P<char>(?s:.))",
    ))
)


@dataclass
class LexStats:
    """Counters surfaced as run diagnostics; the lexer itself never fails."""

    fallback_tokens: int = 0


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
    fragments = []
    for raw in _LINE_BREAK.split(strip_comments(source)):
        line = raw.strip()
        if line:
            fragments.append(line)
    return fragments


def lex(source: str, include_comments: bool = False, stats: LexStats | None = None) -> list[str]:
    """Lex Java-like text into token strings. Total: unknown input never raises.

    Priority at each position: comment, string or char literal (quotes
    included), numeric literal, identifier/keyword (not distinguished),
    multi-character operator by maximal munch, single character. Whitespace
    is skipped; comments are skipped unless ``include_comments`` is set, in
    which case each comment becomes one element (used by the
    post-normalization diff mode).
    """
    tokens: list[str] = []
    fallbacks = 0
    for m in _TOKEN.finditer(source):
        kind = m.lastgroup
        if kind == "space" or (kind == "comment" and not include_comments):
            continue
        token = m.group()
        if kind == "literal":
            # An unterminated literal drops trailing whitespace, so the token
            # lexes the same whether seen in a file or in a trimmed line.
            token = token.rstrip()
        elif kind == "char" and token not in SINGLE_CHAR_SYMBOLS:
            fallbacks += 1
        tokens.append(token)
    if stats is not None:
        stats.fallback_tokens += fallbacks
    return tokens


def is_comment_token(token: str) -> bool:
    """True for elements produced by ``lex(..., include_comments=True)`` only."""
    return token.startswith("//") or token.startswith("/*")
