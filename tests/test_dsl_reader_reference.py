"""The regex reader against the character reader it replaced.

``reference_read`` is the reader ``dsl._read`` was before it became one
``re.finditer`` pass: it steps through the text one character at a time,
counting lines and columns as it goes, and recurses once per list.  Every
input here must give the same tree from both readers, compared form by form
on text, start, end, line and column, or the same diagnostic.
"""

import random
import sys
from bisect import bisect_left
from dataclasses import dataclass

import pytest

from cakewalk.dsl import (
    Atom, Diagnostic, SList, SourceSpan, _ParseFailure, _read, parse, print_protocol,
)
from cakewalk.library import gen_cut_and_choose, generate
from cakewalk.transform import (
    bc_intermediate_form, bc_to_gcc, cuts_before_choices_bc, cuts_before_choices_ext,
    dag_to_tree, embed_bc_as_ext, extended_to_bc, gcc_to_bc,
)
from cakewalk.ir import GccMode

from helpers import random_bc_tree, random_dag
from test_dsl_corpus import corpus


@dataclass
class RefAtom:
    text: str
    span: SourceSpan


@dataclass
class RefList:
    items: list
    span: SourceSpan


class RefFailure(Exception):
    def __init__(self, span: SourceSpan, message: str):
        self.span = span
        self.message = message
        super().__init__(message)


_DELIMS = set("() \t\r\n;")


def reference_read(text: str):
    pos, line, col = 0, 1, 1
    n = len(text)

    def span(start, start_line, start_col, end=None):
        return SourceSpan(start, end if end is not None else pos, start_line, start_col)

    def error(msg, start=None, start_line=None, start_col=None):
        raise RefFailure(
            span(start if start is not None else pos,
                 start_line if start_line is not None else line,
                 start_col if start_col is not None else col),
            msg,
        )

    def advance(k=1):
        nonlocal pos, line, col
        for _ in range(k):
            if pos < n and text[pos] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            pos += 1

    def skip_blank():
        while pos < n:
            c = text[pos]
            if c == ";":
                while pos < n and text[pos] != "\n":
                    advance()
            elif c.isspace():
                advance()
            else:
                return

    def read_form():
        skip_blank()
        if pos >= n:
            error("unexpected end of input")
        c = text[pos]
        start, start_line, start_col = pos, line, col
        if c == ")":
            error("unmatched closing parenthesis")
        if c == "(":
            advance()
            items = []
            while True:
                skip_blank()
                if pos >= n:
                    raise RefFailure(
                        span(start, start_line, start_col),
                        "unclosed parenthesis",
                    )
                if text[pos] == ")":
                    advance()
                    return RefList(items, span(start, start_line, start_col))
                items.append(read_form())
        begin = pos
        while pos < n and text[pos] not in _DELIMS:
            advance()
        if begin == pos:
            error(f"unexpected character {text[pos]!r}")
        return RefAtom(text[begin:pos], span(begin, start_line, start_col))

    form = read_form()
    skip_blank()
    if pos < n:
        error("trailing input after the protocol form")
    return form


def _forms(form, position):
    """Preorder (kind, text, start, end, line, column) rows of a read tree."""
    rows, stack = [], [form]
    while stack:
        form = stack.pop()
        start, end, line, column = position(form.span)
        if isinstance(form, (Atom, RefAtom)):
            rows.append(("atom", form.text, start, end, line, column))
        else:
            rows.append(("list", len(form.items), start, end, line, column))
            stack.extend(reversed(form.items))
    return rows


def assert_same_read(text: str):
    """``_read`` and ``reference_read`` agree on ``text``; returns the outcome."""
    try:
        want = reference_read(text)
    except RefFailure as failure:
        with pytest.raises(_ParseFailure):
            _read(text)
        assert parse(text) == (None, [Diagnostic(failure.span, failure.message)]), text
        return failure.message
    # Lines and columns of the new tree's offsets, found apart from the
    # program: by bisecting the newline offsets.
    newlines = [k for k, c in enumerate(text) if c == "\n"]

    def position(span):
        start, end = span
        line = bisect_left(newlines, start)
        return start, end, line + 1, start - (newlines[line - 1] if line else -1)

    got = _forms(_read(text), position)
    expected = _forms(want, lambda s: (s.start, s.end, s.line, s.column))
    assert got == expected, (text, next(
        (g, w) for g, w in zip(got + [None], expected + [None]) if g != w))
    return "read"


def convert_outputs() -> list[str]:
    """Printed conversion outputs, like those the convert benchmark parses."""
    cc_bc, cc_gcc, _ = gen_cut_and_choose()
    outputs = [
        extended_to_bc(generate("dubins-spanier", "extbc", 3)[0]),
        extended_to_bc(generate("even-paz", "extbc", 4)[0]),
        gcc_to_bc(cc_gcc, GccMode.RESTRICTED),
        gcc_to_bc(generate("selfridge-conway", "gcc", 0)[0], GccMode.RESTRICTED),
        bc_to_gcc(cc_bc),
        cuts_before_choices_ext(generate("dubins-spanier", "extbc", 3)[0]),
        cuts_before_choices_bc(cc_bc),
        bc_intermediate_form(cc_bc),
    ]
    for seed in range(6):
        tree = random_bc_tree(random.Random(seed), 2, 9)
        outputs += [bc_to_gcc(tree), cuts_before_choices_ext(embed_bc_as_ext(tree)),
                    cuts_before_choices_bc(tree), bc_intermediate_form(tree),
                    dag_to_tree(random_dag(random.Random(seed), 2, 14))]
    return [print_protocol(out[0] if isinstance(out, tuple) else out) for out in outputs]


EDGE_CASES = [
    "", " \n\t ", ";only a comment", ")", ") a", "(", "(a", "(a (b", "((a) (b",
    "(a))", "(a) b", "(a) ;c\n", "(a) ;c\n)", "a", "a b", "a (", "()", "(())",
    "\x0c(a)", "(a\x0cb)", "(\x0ca b\x0c)", "(a\x0c) \x0c", "\x0bx\xa0y",
    "(bc :agents 2 ; comment (with parens)\n  (leaf (1 -> 1)))",
    "(a\r\n b\r\n  (c))\r\n", "(a\r\n (b", "\n\n  (a\n)\n x",
    "(a;b\nc)", "(a ;)\n)", ";\n;\n(\n;\n)",
    "(a\u3000b)", "\u3000(a)", "(a\xa0b)", "(a\x85)", "\u2028a",
]


@pytest.mark.parametrize("text", EDGE_CASES)
def test_edge_cases(text):
    assert_same_read(text)


def test_corpus_inputs():
    outcomes = {assert_same_read(text) for text in corpus()}
    assert outcomes >= {"read", "unclosed parenthesis", "unmatched closing parenthesis",
                        "trailing input after the protocol form"}


def test_convert_outputs():
    texts = convert_outputs()
    assert sum(map(len, texts)) > 100_000
    for text in texts:
        assert assert_same_read(text) == "read"


def test_random_texts():
    # Short texts over the characters the reader treats specially.
    rng = random.Random(7)
    alphabet = "()  ;\n\r\t\x0cab-:>1"
    for _ in range(3000):
        assert_same_read("".join(rng.choice(alphabet) for _ in range(rng.randrange(12))))


def test_deep_nesting_needs_no_recursion():
    depth = 10 ** 5
    assert depth > sys.getrecursionlimit()
    form = _read("(" * depth + "atom" + ")" * depth)
    for level in range(depth):
        assert isinstance(form, SList) and len(form.items) == 1
        assert form.span == (level, 2 * depth + 4 - level)
        form = form.items[0]
    assert isinstance(form, Atom) and form.text == "atom"
    assert form.span == (depth, depth + 4)
