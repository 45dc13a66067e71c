"""A strict, dependency-free XML fragment parser.

The parser accepts the subset of XML that the stream substrate produces:
element-only content (text *or* children), entity references for the
five predefined entities, comments, and an optional XML declaration.
Attributes are parsed and rejected with a clear error, because the
paper's data model converts attributes to elements up front (Section 2).

The implementation is a single-pass recursive-descent scanner over the
input string; it reports precise line/column positions on error via
:class:`repro.xmlkit.errors.XmlParseError` — the only exception input
can provoke: character references outside XML's ``Char`` production and
nesting past :data:`MAX_DEPTH` are refused like any other malformed
document.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .element import Element
from .errors import XmlParseError

_ENTITIES = {
    "amp": "&",
    "lt": "<",
    "gt": ">",
    "quot": '"',
    "apos": "'",
}

_NAME_FORBIDDEN = set(" \t\r\n<>&/'\"=")

#: Deepest element nesting accepted.  The parser, and everything that
#: walks a tree after it (``freeze``, ``copy``, ``serialize``), recurses
#: once or twice per level, so hostile nesting must stop here, as a
#: parse error, well inside the interpreter's recursion limit.
MAX_DEPTH = 256

_DIGITS = frozenset("0123456789")
_HEX_DIGITS = _DIGITS | frozenset("abcdefABCDEF")


class _Scanner:
    """Cursor over the input text with error reporting helpers."""

    __slots__ = ("text", "pos")

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def error(self, message: str, pos: Optional[int] = None) -> XmlParseError:
        return XmlParseError(message, self.text, self.pos if pos is None else pos)

    def at_end(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def startswith(self, token: str) -> bool:
        return self.text.startswith(token, self.pos)

    def skip_whitespace(self) -> None:
        text = self.text
        pos = self.pos
        while pos < len(text) and text[pos] in " \t\r\n":
            pos += 1
        self.pos = pos

    def skip_prolog(self) -> None:
        """Skip an optional XML declaration and any comments/whitespace."""
        self.skip_whitespace()
        if self.startswith("<?xml"):
            end = self.text.find("?>", self.pos)
            if end < 0:
                raise self.error("unterminated XML declaration")
            self.pos = end + 2
        self.skip_misc()

    def skip_misc(self) -> None:
        """Skip whitespace and comments between markup."""
        while True:
            self.skip_whitespace()
            if self.startswith("<!--"):
                end = self.text.find("-->", self.pos)
                if end < 0:
                    raise self.error("unterminated comment")
                self.pos = end + 3
            else:
                return

    def read_name(self) -> str:
        start = self.pos
        text = self.text
        pos = self.pos
        while pos < len(text) and text[pos] not in _NAME_FORBIDDEN:
            pos += 1
        if pos == start:
            raise self.error("expected a name")
        self.pos = pos
        return text[start:pos]

    def expect(self, token: str) -> None:
        if not self.startswith(token):
            raise self.error(f"expected {token!r}")
        self.pos += len(token)


def _decode_text(raw: str, scanner: _Scanner, base: int) -> str:
    """Resolve entity and character references in text content."""
    if "&" not in raw:
        return raw
    out: List[str] = []
    i = 0
    while i < len(raw):
        ch = raw[i]
        if ch != "&":
            out.append(ch)
            i += 1
            continue
        end = raw.find(";", i)
        if end < 0:
            raise scanner.error("unterminated entity reference", base + i)
        name = raw[i + 1 : end]
        if name.startswith("#"):
            code = _char_code(name[1:])
            if code is None:
                raise scanner.error(
                    f"&{name}; is not a reference to an XML character", base + i
                )
            out.append(chr(code))
        elif name in _ENTITIES:
            out.append(_ENTITIES[name])
        else:
            raise scanner.error(f"unknown entity &{name};", base + i)
        i = end + 1
    return "".join(out)


def _char_code(body: str) -> Optional[int]:
    """The code point ``&#body;`` names, or ``None`` when ``body`` is
    not plain (hexa)decimal digits or the code point is outside XML's
    ``Char`` production (NUL, most control characters, surrogates,
    ``#xFFFE``/``#xFFFF``, anything past ``#x10FFFF``)."""
    hexadecimal = body[:1] in ("x", "X")
    digits = body[1:] if hexadecimal else body
    if not digits or not (_HEX_DIGITS if hexadecimal else _DIGITS).issuperset(digits):
        return None
    digits = digits.lstrip("0")
    if len(digits) > 7:  # past #x10FFFF in either base; int() caps its input
        return None
    code = int(digits or "0", 16 if hexadecimal else 10)
    if (
        code in (0x9, 0xA, 0xD)
        or 0x20 <= code <= 0xD7FF
        or 0xE000 <= code <= 0xFFFD
        or 0x10000 <= code <= 0x10FFFF
    ):
        return code
    return None


def _parse_element(scanner: _Scanner, depth: int = 1) -> Element:
    if depth > MAX_DEPTH:
        raise scanner.error(f"elements nested deeper than {MAX_DEPTH} levels")
    scanner.expect("<")
    tag = scanner.read_name()
    scanner.skip_whitespace()
    if scanner.peek() not in (">", "/"):
        raise scanner.error(
            f"attributes are not supported (element <{tag}>); "
            "convert attributes to child elements"
        )
    if scanner.startswith("/>"):
        scanner.pos += 2
        return Element(tag)
    scanner.expect(">")

    children: List[Element] = []
    text_parts: List[Tuple[int, str]] = []
    while True:
        if scanner.at_end():
            raise scanner.error(f"unexpected end of input inside <{tag}>")
        if scanner.startswith("<!--"):
            end = scanner.text.find("-->", scanner.pos)
            if end < 0:
                raise scanner.error("unterminated comment")
            scanner.pos = end + 3
            continue
        if scanner.startswith("</"):
            scanner.pos += 2
            close = scanner.read_name()
            if close != tag:
                raise scanner.error(f"mismatched close tag </{close}> for <{tag}>")
            scanner.skip_whitespace()
            scanner.expect(">")
            break
        if scanner.peek() == "<":
            children.append(_parse_element(scanner, depth + 1))
            continue
        start = scanner.pos
        next_markup = scanner.text.find("<", scanner.pos)
        if next_markup < 0:
            raise scanner.error(f"unexpected end of input inside <{tag}>")
        text_parts.append((start, scanner.text[start:next_markup]))
        scanner.pos = next_markup

    text = "".join(_decode_text(raw, scanner, base) for base, raw in text_parts)
    if children:
        if text.strip():
            raise scanner.error(
                f"mixed content in <{tag}> is outside the supported data model"
            )
        return Element(tag, children=children)
    if text_parts:
        return Element(tag, text=text)
    return Element(tag)


def parse(text: str) -> Element:
    """Parse a single XML document/fragment into an :class:`Element` tree.

    Raises
    ------
    XmlParseError
        If the input is not well-formed, uses attributes, or contains
        content after the root element.
    """
    scanner = _Scanner(text)
    scanner.skip_prolog()
    if scanner.at_end() or scanner.peek() != "<":
        raise scanner.error("expected a root element")
    root = _parse_element(scanner)
    scanner.skip_misc()
    if not scanner.at_end():
        raise scanner.error("content after the root element")
    return root


def parse_stream(text: str) -> List[Element]:
    """Parse a concatenation of fragments (one per stream item).

    Data streams on the wire are a sequence of serialized items with no
    enclosing root; this helper splits and parses them all.
    """
    scanner = _Scanner(text)
    scanner.skip_prolog()
    items: List[Element] = []
    while not scanner.at_end():
        if scanner.peek() != "<":
            raise scanner.error("expected an element")
        items.append(_parse_element(scanner))
        scanner.skip_misc()
    return items
