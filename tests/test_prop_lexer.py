"""Differential test of the WXQuery lexer (hypothesis).

``repro.wxquery.tokenize`` runs one compiled master pattern; the
character scanner it replaced is kept in ``tests/wxquery_char_lexer.py``.
On any input both must give the same tokens — kind, value, line and
column — or the same :class:`~repro.wxquery.LexError` message, line and
column.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.workload.scenarios import SCENARIOS
from repro.wxquery import LexError, tokenize

from tests import wxquery_char_lexer
from tests.conftest import PAPER_QUERIES


def outcome(lex, text):
    try:
        tokens = lex(text)
    except LexError as error:
        return ("error", str(error), error.line, error.column)
    return ("tokens", [(t.kind, t.value, t.line, t.column) for t in tokens])


def assert_same(text):
    assert outcome(tokenize, text) == outcome(wxquery_char_lexer.tokenize, text), repr(text)


#: Single characters: every token start, the separators, a form feed
#: (not whitespace here), and non-ASCII letters and digits ("²" and
#: "①" are ``str.isdigit`` but not decimal; "٣" and "𝟙" are both).
CHARACTERS = list("<>/=!:$.()\"'{}[]|,+-_ \t\r\nabZ019") + [
    "\x0c", "é", "ñ", "²", "٣", "①", "𝟙", "—",
]
FRAGMENTS = [
    "(:", ":)", "<a>", "</a>", "<a/>", "<1>", "</b/>", "<=", ">=", "!=", ":=",
    "$p", "$.", "$-x", "1.5", "1.", ".5", "a.b", "a..", "for", "photons",
    '"s"', "'t'", '"\n"', "\r\n",
]
texts = st.lists(
    st.one_of(st.sampled_from(CHARACTERS), st.sampled_from(FRAGMENTS)), max_size=60
).map("".join)


@given(texts)
@settings(max_examples=1500, deadline=None)
def test_tokens_and_errors_equal_the_char_scanner(text):
    assert_same(text)


@given(st.text(max_size=80))
@settings(max_examples=500, deadline=None)
def test_arbitrary_text_equals_the_char_scanner(text):
    assert_same(text)


EXAMPLES = [
    "",
    "   \n\n  ",
    "(: a (: nested :) comment :) $x",
    "(: unterminated (: nested :)",
    "a\n(:\n\n:)\n  b",
    "(::)",
    "(:)",
    "<a>$p</a><b/></c> <d/e> </f/> < g> <=3 <",
    "$p/coord/cel/ra >= 120.5 and $p/en < .5",
    "1. x",
    "12.3.4",
    "1²3.٣",
    ".²",
    "'one\ntwo'",
    '"open',
    "$ p",
    "$",
    "$\n",
    "a : b",
    "a ! b",
    "x\n  !",
    "é",
    "avg($w/en).",
    "a.b.c- d-",
    "|count 10| |det_time diff 5|",
]


@pytest.mark.parametrize("text", EXAMPLES)
def test_examples_equal_the_char_scanner(text):
    assert_same(text)


def test_every_scenario_text_equals_the_char_scanner():
    seen = set(PAPER_QUERIES.values())
    for build in SCENARIOS.values():
        seen.update(query.text for query in build().queries)
    for text in sorted(seen):
        assert_same(text)
