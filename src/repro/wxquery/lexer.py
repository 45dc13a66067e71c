"""Tokenizer for WXQuery.

WXQuery mixes XML-ish direct element constructors with XQuery FLWR
syntax, so the lexer is *mode-free* but produces composite tokens for
the XML-ish pieces (``<t>``, ``</t>``, ``<t/>``) — Definition 2.1 only
allows bare tags there, which makes a scanner-level treatment exact.

Token kinds
-----------
``OPEN_TAG`` / ``CLOSE_TAG`` / ``EMPTY_TAG``
    ``<t>``, ``</t>``, ``<t/>`` with ``value`` = tag name.
``LBRACE``/``RBRACE``/``LPAREN``/``RPAREN``/``LBRACKET``/``RBRACKET``
    Grouping. Braces switch between constructor content and expressions.
``PIPE``
    The ``|`` delimiter of data window specifications.
``VARIABLE``
    ``$name`` with ``value`` = name (without ``$``).
``NAME``
    Bare names: keywords, tag names, path steps, function names.
``NUMBER``
    Integer or finite decimal literal, ``value`` = original lexeme.
``STRING``
    Double- or single-quoted literal, ``value`` = unquoted content.
``SLASH``, ``COMMA``, ``ASSIGN`` (``:=``), comparison operators
    (``=``, ``!=``, ``<``, ``<=``, ``>``, ``>=`` — note ``<`` only lexes
    as a comparison where it cannot start a tag), ``PLUS``, ``MINUS``.

Scanning
--------
One compiled master pattern (:data:`_MASTER`) matches the whitespace
at the cursor and then the start of a comment or one whole token; its
alternatives are ordered the way a character-by-character scanner
decides (a tag before ``<``, a comment before ``(``).  What a regular expression cannot
say is done by hand: nested ``(: :)`` comments count their depth,
numbers take any character ``str.isdigit`` accepts (non-ASCII digits
included), and every input the pattern rejects gets the scanner's
diagnostic at the scanner's position.  Lines and columns count code
points, a newline starting the next line.
``tests/wxquery_char_lexer.py`` keeps the character scanner this
replaced; ``tests/test_prop_lexer.py`` checks tokens and errors against
it.
"""

from __future__ import annotations

import re
from typing import List, Tuple

from .errors import LexError

KEYWORDS = frozenset(
    {
        "for", "let", "where", "return", "in", "if", "then", "else",
        "and", "count", "diff", "step", "stream", "doc",
        "min", "max", "sum", "avg",
    }
)


class Token:
    """One lexical token with its source position (1-based).

    A plain slotted record: equal to a token with the same four fields
    and hashed on them, nothing else."""

    __slots__ = ("kind", "value", "line", "column")

    def __init__(self, kind: str, value: str, line: int, column: int) -> None:
        self.kind = kind
        self.value = value
        self.line = line
        self.column = column

    def _key(self) -> Tuple[str, str, int, int]:
        return (self.kind, self.value, self.line, self.column)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Token):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.value!r}, {self.line}:{self.column})"


# A name continues over ``.`` only when a name character follows it.
_NAME_TAIL = r"[A-Za-z0-9_\-]*(?:\.(?=[A-Za-z0-9_.\-])[A-Za-z0-9_\-]*)*"
_TAG = r"[A-Za-z0-9_.\-]+"

#: Whitespace, then (optionally) the token or comment it precedes.
_MASTER = re.compile(
    r"([ \t\r\n]*)(?:"  # 1: whitespace, the last group when nothing follows
    + "|".join(
        [
            r"(\(:)",  # 2: a comment opens
            rf"</({_TAG})>",  # 3
            rf"<({_TAG})>",  # 4
            rf"<({_TAG})/>",  # 5
            r"(<=|>=|!=|:=|[<>{}()\[\]|/,=+\-])",  # 6: operators and punctuation
            rf"\$((?:[A-Za-z0-9_\-]|\.(?=[A-Za-z0-9_.\-])){_NAME_TAIL})",  # 7
            r'"([^"\n]*)"',  # 8
            r"'([^'\n]*)'",  # 9
            r"([0-9]|\.[0-9])",  # 10: a number starts
            rf"([A-Za-z_]{_NAME_TAIL})",  # 11
        ]
    )
    + ")?"
)
#: Group number -> token kind (``None``: decided by hand).
_KINDS = (
    None, None, None, "CLOSE_TAG", "OPEN_TAG", "EMPTY_TAG", None,
    "VARIABLE", "STRING", "STRING", None, "NAME",
)
_PUNCTUATION = {
    "<=": "LE", ">=": "GE", "!=": "NE", ":=": "ASSIGN",
    "<": "LT", ">": "GT",
    "{": "LBRACE", "}": "RBRACE",
    "(": "LPAREN", ")": "RPAREN",
    "[": "LBRACKET", "]": "RBRACKET",
    "|": "PIPE", "/": "SLASH", ",": "COMMA",
    "=": "EQ", "+": "PLUS", "-": "MINUS",
}
_COMMENT_MARK = re.compile(r"\(:|:\)")
_ASCII_DIGITS = re.compile(r"[0-9]*")


def tokenize(text: str) -> List[Token]:
    """Tokenize ``text``; the final token always has kind ``EOF``."""
    out: List[Token] = []
    append = out.append
    match = _MASTER.match
    kinds = _KINDS
    punctuation = _PUNCTUATION
    pos, end = 0, len(text)
    line, line_start = 1, 0  # ``line_start``: index of the line's first character
    while True:
        m = match(text, pos)
        assert m is not None and m.lastindex is not None  # group 1 matches anywhere
        start = m.end(1)
        if start != pos:
            newlines = text.count("\n", pos, start)
            if newlines:
                line += newlines
                line_start = text.rindex("\n", pos, start) + 1
            pos = start
        group: int = m.lastindex
        if group == 1 or group == 10:  # the end, a number, or no token at all
            if pos == end:
                break
            stop = _number_end(text, pos, line, line_start)
            append(Token("NUMBER", text[pos:stop], line, pos - line_start + 1))
            pos = stop
        elif group == 2:
            stop = _comment_end(text, m.end(), line, line_start)
            newlines = text.count("\n", pos, stop)
            if newlines:
                line += newlines
                line_start = text.rindex("\n", pos, stop) + 1
            pos = stop
        else:
            value = m.group(group)
            append(Token(kinds[group] or punctuation[value], value, line, pos - line_start + 1))
            pos = m.end()
    append(Token("EOF", "", line, pos - line_start + 1))
    return out


def _error(message: str, text: str, pos: int, line: int, line_start: int) -> LexError:
    """A :class:`LexError` at ``pos``, counting the newlines between
    the current line's start and ``pos``."""
    newlines = text.count("\n", line_start, pos)
    if newlines:
        line += newlines
        line_start = text.rindex("\n", line_start, pos) + 1
    return LexError(message, line, pos - line_start + 1)


def _comment_end(text: str, pos: int, line: int, line_start: int) -> int:
    """End of the comment whose ``(:`` ends at ``pos``; comments nest."""
    depth = 1
    for mark in _COMMENT_MARK.finditer(text, pos):
        depth += 1 if mark.group() == "(:" else -1
        if not depth:
            return mark.end()
    raise _error("unterminated comment '(:'", text, len(text), line, line_start)


def _digits_end(text: str, pos: int) -> int:
    """End of the run of ``str.isdigit`` characters at ``pos``."""
    end = _ASCII_DIGITS.match(text, pos).end()  # type: ignore[union-attr]
    while end < len(text) and text[end].isdigit():  # a non-ASCII digit
        end = _ASCII_DIGITS.match(text, end + 1).end()  # type: ignore[union-attr]
    return end


def _number_end(text: str, pos: int, line: int, line_start: int) -> int:
    """End of the number at ``pos``, or the diagnostic of whatever the
    master pattern could not match there."""
    ch = text[pos]
    if not (ch.isdigit() or (ch == "." and text[pos + 1 : pos + 2].isdigit())):
        raise _unmatched(text, pos, line, line_start)
    end = _digits_end(text, pos)
    if text.startswith(".", end):
        if not text[end + 1 : end + 2].isdigit():
            raise _error(
                "decimal literal must have digits after '.'", text, end, line, line_start
            )
        end = _digits_end(text, end + 1)
    return end


def _unmatched(text: str, pos: int, line: int, line_start: int) -> LexError:
    """The diagnostic for a character no token starts with."""
    ch = text[pos]
    if ch in "!:":
        return _error(f"unexpected {ch!r}", text, pos, line, line_start)
    if ch == "$":
        return _error("expected a variable name after '$'", text, pos + 1, line, line_start)
    if ch in "\"'":  # no closing quote before the line ends
        stop = text.find("\n", pos + 1)
        stop = len(text) if stop == -1 else stop
        return _error("unterminated string literal", text, stop, line, line_start)
    return _error(f"unexpected character {ch!r}", text, pos, line, line_start)
