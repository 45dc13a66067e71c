"""Unit tests for the strict XML parser."""

import pytest

from repro.xmlkit import Element, XmlParseError, element, parse, parse_stream, serialize
from repro.xmlkit.parser import MAX_DEPTH


class TestWellFormed:
    def test_empty_element(self):
        assert parse("<a/>") == Element("a")

    def test_text_element(self):
        assert parse("<a>hello</a>") == Element("a", text="hello")

    def test_nested(self):
        assert parse("<a><b/><c>1</c></a>") == element(
            "a", Element("b"), Element("c", text="1")
        )

    def test_whitespace_between_children_ignored(self):
        assert parse("<a>\n  <b/>\n  <c/>\n</a>") == element("a", Element("b"), Element("c"))

    def test_open_close_without_content_is_empty(self):
        assert parse("<a></a>") == Element("a")

    def test_xml_declaration_skipped(self):
        assert parse('<?xml version="1.0"?><a/>') == Element("a")

    def test_comments_skipped(self):
        assert parse("<!-- hi --><a><!-- inner --><b/></a>") == element("a", Element("b"))

    def test_entities_decoded(self):
        assert parse("<a>x &lt; y &amp; z &gt; w</a>").text == "x < y & z > w"

    def test_char_references(self):
        assert parse("<a>&#65;&#x42;</a>").text == "AB"

    def test_roundtrip_photons(self, photon_sample):
        for item in photon_sample[:25]:
            assert parse(serialize(item)) == item


class TestMalformed:
    @pytest.mark.parametrize(
        "text",
        [
            "",
            "just text",
            "<a>",
            "<a><b></a>",
            "<a></b>",
            "<a/><b/>",          # content after root
            "<a attr='1'/>",     # attributes unsupported
            "<a>&unknown;</a>",
            "<a>&broken</a>",
            "<a>text<b/></a>",   # mixed content
            "<!-- unterminated <a/>",
            "<?xml version='1.0' <a/>",
        ],
    )
    def test_rejected(self, text):
        with pytest.raises(XmlParseError):
            parse(text)

    def test_error_has_position(self):
        try:
            parse("<a>\n<b></c>\n</a>")
        except XmlParseError as err:
            assert err.line == 2
        else:
            pytest.fail("expected XmlParseError")

    @pytest.mark.parametrize("parser", [parse, parse_stream])
    @pytest.mark.parametrize(
        "text, line, column",
        [
            # Character references int()/chr() used to choke on (a bare
            # ValueError), and NUL, which is no XML character.
            ("<a>\n <b>ok &#xZZ;</b></a>", 2, 8),
            ("<a>&#;</a>", 1, 4),
            ("<a>&#1114112;</a>", 1, 4),
            ("<a>&#-5;</a>", 1, 4),
            ("<a>&#0;</a>", 1, 4),
            ("<a>&#x" + "9" * 5000 + ";</a>", 1, 4),  # past int()'s digit cap
            ("<a>&#xD800;</a>", 1, 4),  # a surrogate
            ("<a>&#1_0;</a>", 1, 4),  # int() would take the underscore
            # Nesting that used to end in RecursionError: refused at the
            # first tag past the bound.
            ("<a>" * 3000 + "</a>" * 3000, 1, 3 * MAX_DEPTH + 1),
        ],
    )
    def test_hostile_input_is_a_parse_error(self, parser, text, line, column):
        with pytest.raises(XmlParseError) as caught:
            parser(text)
        assert (caught.value.line, caught.value.column) == (line, column)

    def test_nesting_up_to_the_bound_and_every_xml_char_class_parse(self):
        deep = parse("<a>" * MAX_DEPTH + "</a>" * MAX_DEPTH)
        assert sum(1 for _ in deep.iter()) == MAX_DEPTH
        text = parse("<a>&#9;&#x20;&#xD7FF;&#xE000;&#xFFFD;&#x10000;&#x10FFFF;&#0065;</a>").text
        assert text == "\t \ud7ff\ue000\ufffd\U00010000\U0010ffffA"


class TestParseStream:
    def test_multiple_items(self):
        items = parse_stream("<a/><b>1</b><c/>")
        assert [i.tag for i in items] == ["a", "b", "c"]

    def test_whitespace_separated(self):
        assert len(parse_stream("<a/>\n\n<b/>\n")) == 2

    def test_empty_input(self):
        assert parse_stream("   ") == []

    def test_bad_item_rejected(self):
        with pytest.raises(XmlParseError):
            parse_stream("<a/>text<b/>")
