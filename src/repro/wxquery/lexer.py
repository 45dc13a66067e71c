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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from .errors import LexError

KEYWORDS = frozenset(
    {
        "for", "let", "where", "return", "in", "if", "then", "else",
        "and", "count", "diff", "step", "stream", "doc",
        "min", "max", "sum", "avg",
    }
)

_NAME_START = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_NAME_CONT = _NAME_START | frozenset("0123456789-.")


@dataclass(frozen=True)
class Token:
    """One lexical token with its source position (1-based)."""

    kind: str
    value: str
    line: int
    column: int

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.value!r}, {self.line}:{self.column})"


class Lexer:
    """Single-pass scanner producing a list of :class:`Token`."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0
        self.line = 1
        self.column = 1

    # ------------------------------------------------------------------
    # Character-level helpers
    # ------------------------------------------------------------------
    def _peek(self, offset: int = 0) -> str:
        index = self.pos + offset
        return self.text[index] if index < len(self.text) else ""

    def _advance(self, count: int = 1) -> None:
        for _ in range(count):
            if self.pos < len(self.text):
                if self.text[self.pos] == "\n":
                    self.line += 1
                    self.column = 1
                else:
                    self.column += 1
                self.pos += 1

    def _error(self, message: str) -> LexError:
        return LexError(message, self.line, self.column)

    def _skip_space_and_comments(self) -> None:
        while True:
            ch = self._peek()
            if ch and ch in " \t\r\n":
                self._advance()
            elif ch == "(" and self._peek(1) == ":":
                depth = 1
                self._advance(2)
                while depth:
                    if not self._peek():
                        raise self._error("unterminated comment '(:'")
                    if self._peek() == "(" and self._peek(1) == ":":
                        depth += 1
                        self._advance(2)
                    elif self._peek() == ":" and self._peek(1) == ")":
                        depth -= 1
                        self._advance(2)
                    else:
                        self._advance()
            else:
                return

    # ------------------------------------------------------------------
    # Token-level scanning
    # ------------------------------------------------------------------
    def tokens(self) -> List[Token]:
        """Tokenize the whole input."""
        out: List[Token] = []
        while True:
            self._skip_space_and_comments()
            if not self._peek():
                out.append(Token("EOF", "", self.line, self.column))
                return out
            out.append(self._next_token())

    def _next_token(self) -> Token:
        line, column = self.line, self.column
        ch = self._peek()

        if ch == "<":
            tag_token = self._try_tag(line, column)
            if tag_token is not None:
                return tag_token
            self._advance()
            if self._peek() == "=":
                self._advance()
                return Token("LE", "<=", line, column)
            return Token("LT", "<", line, column)

        if ch == ">":
            self._advance()
            if self._peek() == "=":
                self._advance()
                return Token("GE", ">=", line, column)
            return Token("GT", ">", line, column)

        if ch == "!":
            if self._peek(1) == "=":
                self._advance(2)
                return Token("NE", "!=", line, column)
            raise self._error("unexpected '!'")

        if ch == ":":
            if self._peek(1) == "=":
                self._advance(2)
                return Token("ASSIGN", ":=", line, column)
            raise self._error("unexpected ':'")

        simple = {
            "{": "LBRACE", "}": "RBRACE",
            "(": "LPAREN", ")": "RPAREN",
            "[": "LBRACKET", "]": "RBRACKET",
            "|": "PIPE", "/": "SLASH", ",": "COMMA",
            "=": "EQ", "+": "PLUS", "-": "MINUS",
        }
        if ch in simple:
            self._advance()
            return Token(simple[ch], ch, line, column)

        if ch == "$":
            self._advance()
            name = self._scan_name()
            if not name:
                raise self._error("expected a variable name after '$'")
            return Token("VARIABLE", name, line, column)

        if ch in "\"'":
            return self._scan_string(line, column)

        if ch.isdigit() or (ch == "." and self._peek(1).isdigit()):
            return self._scan_number(line, column)

        if ch in _NAME_START:
            name = self._scan_name()
            return Token("NAME", name, line, column)

        raise self._error(f"unexpected character {ch!r}")

    def _scan_name(self) -> str:
        start = self.pos
        while self._peek() in _NAME_CONT and self._peek():
            # A '.' only continues a name when followed by a name char;
            # this keeps "a.b" one step but stops before "avg(.." typos.
            if self._peek() == "." and self._peek(1) not in _NAME_CONT:
                break
            self._advance()
        return self.text[start : self.pos]

    def _scan_number(self, line: int, column: int) -> Token:
        start = self.pos
        while self._peek().isdigit():
            self._advance()
        if self._peek() == ".":
            if not self._peek(1).isdigit():
                raise self._error("decimal literal must have digits after '.'")
            self._advance()
            while self._peek().isdigit():
                self._advance()
        return Token("NUMBER", self.text[start : self.pos], line, column)

    def _scan_string(self, line: int, column: int) -> Token:
        quote = self._peek()
        self._advance()
        start = self.pos
        while self._peek() and self._peek() != quote:
            if self._peek() == "\n":
                raise self._error("unterminated string literal")
            self._advance()
        if not self._peek():
            raise self._error("unterminated string literal")
        value = self.text[start : self.pos]
        self._advance()  # closing quote
        return Token("STRING", value, line, column)

    def _try_tag(self, line: int, column: int) -> Optional[Token]:
        """Lex ``<t>``, ``</t>`` or ``<t/>`` starting at the cursor.

        Returns ``None`` when the ``<`` is a comparison operator (i.e.
        not followed by a tag shape), leaving the cursor untouched.
        """
        text, pos = self.text, self.pos + 1
        closing = False
        if pos < len(text) and text[pos] == "/":
            closing = True
            pos += 1
        name_start = pos
        while pos < len(text) and text[pos] in _NAME_CONT:
            pos += 1
        if pos == name_start:
            return None
        tag = text[name_start:pos]
        if pos < len(text) and text[pos] == ">":
            kind = "CLOSE_TAG" if closing else "OPEN_TAG"
            self._advance(pos + 1 - self.pos)
            return Token(kind, tag, line, column)
        if not closing and text.startswith("/>", pos):
            self._advance(pos + 2 - self.pos)
            return Token("EMPTY_TAG", tag, line, column)
        return None


def tokenize(text: str) -> List[Token]:
    """Tokenize ``text``; the final token always has kind ``EOF``."""
    return Lexer(text).tokens()
