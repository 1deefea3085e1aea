"""Turn Java-like source text into normalized fragment sequences.

A fragment is a plain string; whether it is a line or a token is recorded by
whatever container holds it (pools, deltas, the pipeline). Two granularities
are supported: lines (comment-stripped, trimmed, blank lines dropped) and
tokens (lexed with a permissive Java lexer that never fails).

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

# Longest first, so maximal munch is a plain startswith scan.
MULTI_CHAR_OPERATORS: tuple[str, ...] = (
    ">>>=",
    ">>>", "<<=", ">>=",
    "->", "::", "++", "--", "&&", "||", "==", "!=", "<=", ">=",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<", ">>",
)

# Recognized single-character symbols; anything else that reaches the final
# branch of the lexer is emitted as-is but counted as a fallback.
SINGLE_CHAR_SYMBOLS = frozenset("(){}[];,.@~?:=<>!+-*/%&|^")

_IDENTIFIER = re.compile(r"[A-Za-z_$][A-Za-z0-9_$]*")
_HEX_NUMBER = re.compile(r"0[xX][0-9a-fA-F]+[lL]?")
_DEC_NUMBER = re.compile(r"(?:[0-9]+\.[0-9]*|\.[0-9]+|[0-9]+)(?:[eE][+-]?[0-9]+)?[fFdDlL]?")
_ASCII_DIGITS = frozenset("0123456789")


@dataclass
class LexStats:
    """Counters surfaced as run diagnostics; the lexer itself never fails."""

    fallback_tokens: int = 0


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


# One scan for everything comment stripping must see: a line comment up to
# its line break, a block comment (an unterminated one runs to end of
# input), and string or char literals, which honour backslash escapes and
# stop before a line break when unterminated. Literals are matched only so
# that comment markers inside them are left alone.
_COMMENT_OR_LITERAL = re.compile(
    r"""//[^\r\n]*
      | (?P<block>/\*(?s:.*?)(?:\*/|\Z))
      | "(?:[^"\\\r\n]|\\[^\r\n]?)*"?
      | '(?:[^'\\\r\n]|\\[^\r\n]?)*'?""",
    re.VERBOSE,
)
_NOT_LINE_BREAK = re.compile(r"[^\r\n]+")


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


def is_comment_token(token: str) -> bool:
    """True for elements produced by ``lex(..., include_comments=True)`` only."""
    return token.startswith("//") or token.startswith("/*")
