"""Textual protocol language: parser, diagnostics, canonical printer.

The surface syntax is parenthesized and keyword-led::

    (bc :agents 2
      (cut :agent 1 :piece 1
        (choose :agent 2
          (leaf (1 -> 2) (2 -> 1))
          (leaf (1 -> 1) (2 -> 2)))))

Extended trees name their cuts (``:label x``) and refer to them in later
``:left``/``:right`` refs and leaf segments; GCC trees add ``gcc-cut``,
``gcc-choose``, ``if``/``else`` and ``gcc-leaf`` forms; DAGs list labelled
nodes explicitly.  ``parse`` never raises on malformed input: it returns
``(protocol_or_None, diagnostics)`` where every diagnostic carries a source
span.  ``print_protocol`` emits the canonical form, and parsing it back
yields a structurally identical protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import DomainError
from .ir import (
    And, BcChoose, BcCut, BcDag, BcLeaf, BcTree, ChoseAt, Condition,
    CutInAt, CutRef, DagChoose, DagCut, DagLeaf, ELSE, END, Else, ExtBcTree,
    ExtChoose, ExtCut, ExtLeaf, ExtSegment, GccChoose, GccCut, GccIfElse,
    GccLeaf, GccTree, IdGen, Less, Not, Or, ORIGIN, Protocol, at, renumber,
    validate_bc, validate_dag, validate_ext, validate_gcc, GccMode, _children,
)

# ---------------------------------------------------------------------------
# Source positions and diagnostics


@dataclass(frozen=True)
class SourceSpan:
    start: int
    end: int
    line: int
    column: int

    def __str__(self):
        return f"{self.line}:{self.column}"


@dataclass
class Diagnostic:
    span: SourceSpan
    message: str

    def __str__(self):
        return f"{self.span}: {self.message}"


class _ParseFailure(Exception):
    def __init__(self, span: SourceSpan, message: str):
        self.diagnostic = Diagnostic(span, message)
        super().__init__(message)


# ---------------------------------------------------------------------------
# Reader: text -> atoms and lists, all carrying spans


@dataclass
class Atom:
    text: str
    span: SourceSpan


@dataclass
class SList:
    items: list
    span: SourceSpan


_DELIMS = set("() \t\r\n;")


def _read(text: str):
    pos, line, col = 0, 1, 1
    n = len(text)

    def span(start, start_line, start_col, end=None):
        return SourceSpan(start, end if end is not None else pos, start_line, start_col)

    def error(msg, start=None, start_line=None, start_col=None):
        raise _ParseFailure(
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
                    raise _ParseFailure(
                        span(start, start_line, start_col),
                        "unclosed parenthesis",
                    )
                if text[pos] == ")":
                    advance()
                    return SList(items, span(start, start_line, start_col))
                items.append(read_form())
        begin = pos
        while pos < n and text[pos] not in _DELIMS:
            advance()
        if begin == pos:
            error(f"unexpected character {text[pos]!r}")
        return Atom(text[begin:pos], span(begin, start_line, start_col))

    form = read_form()
    skip_blank()
    if pos < n:
        error("trailing input after the protocol form")
    return form


# ---------------------------------------------------------------------------
# Lowering helpers


def _expect_list(form, what: str) -> SList:
    if not isinstance(form, SList):
        raise _ParseFailure(form.span, f"expected {what}, found an atom")
    return form


def _expect_atom(form, what: str) -> Atom:
    if not isinstance(form, Atom):
        raise _ParseFailure(form.span, f"expected {what}, found a list")
    return form


def _head(form: SList, what: str) -> str:
    if not form.items:
        raise _ParseFailure(form.span, f"empty form where {what} was expected")
    return _expect_atom(form.items[0], f"{what} keyword").text


def _int(form, what: str) -> int:
    atom = _expect_atom(form, what)
    try:
        return int(atom.text)
    except ValueError:
        raise _ParseFailure(atom.span, f"{what} must be an integer, got {atom.text!r}")


def _keywords(items, span, allowed: tuple[str, ...]):
    """Consume leading :key value pairs; returns (dict, remaining items)."""
    out = {}
    i = 0
    while i < len(items) and isinstance(items[i], Atom) and items[i].text.startswith(":"):
        key = items[i].text[1:]
        if key not in allowed:
            raise _ParseFailure(items[i].span, f"unknown keyword :{key}")
        if i + 1 >= len(items):
            raise _ParseFailure(items[i].span, f"keyword :{key} is missing a value")
        out[key] = items[i + 1]
        i += 2
    return out, items[i:]


class _Labels:
    def __init__(self):
        self.by_name: dict[str, int] = {}

    def define(self, atom: Atom, nid: int):
        if atom.text in self.by_name:
            raise _ParseFailure(atom.span, f"label {atom.text!r} is already defined")
        self.by_name[atom.text] = nid

    def ref(self, atom: Atom) -> CutRef:
        if atom.text == "origin":
            return ORIGIN
        if atom.text == "end":
            return END
        if atom.text not in self.by_name:
            raise _ParseFailure(atom.span, f"reference to unknown cut {atom.text!r}")
        return at(self.by_name[atom.text])

    def node(self, atom: Atom) -> int:
        if atom.text not in self.by_name:
            raise _ParseFailure(atom.span, f"reference to unknown node {atom.text!r}")
        return self.by_name[atom.text]


# ---------------------------------------------------------------------------
# Per-model lowering


def _lower_bc_node(form, gen: IdGen):
    lst = _expect_list(form, "a bc node")
    head = _head(lst, "node")
    if head == "cut":
        kw, rest = _keywords(lst.items[1:], lst.span, ("agent", "piece"))
        if "agent" not in kw or "piece" not in kw:
            raise _ParseFailure(lst.span, "cut needs :agent and :piece")
        if len(rest) != 1:
            raise _ParseFailure(lst.span, "cut takes exactly one child")
        nid = gen()
        return BcCut(nid, _int(kw["agent"], ":agent"), _int(kw["piece"], ":piece"),
                     _lower_bc_node(rest[0], gen))
    if head == "choose":
        kw, rest = _keywords(lst.items[1:], lst.span, ("agent",))
        if "agent" not in kw:
            raise _ParseFailure(lst.span, "choose needs :agent")
        if not rest:
            raise _ParseFailure(lst.span, "choose needs at least one child")
        nid = gen()
        return BcChoose(nid, _int(kw["agent"], ":agent"),
                        tuple(_lower_bc_node(c, gen) for c in rest))
    if head == "leaf":
        pairs = {}
        for item in lst.items[1:]:
            entry = _expect_list(item, "a (piece -> agent) pair")
            if (len(entry.items) != 3
                    or not isinstance(entry.items[1], Atom)
                    or entry.items[1].text != "->"):
                raise _ParseFailure(entry.span, "expected (piece -> agent)")
            piece = _int(entry.items[0], "piece index")
            agent = _int(entry.items[2], "agent")
            if piece in pairs:
                raise _ParseFailure(entry.span, f"piece {piece} assigned twice")
            pairs[piece] = agent
        if not pairs or sorted(pairs) != list(range(1, len(pairs) + 1)):
            raise _ParseFailure(lst.span, "leaf must assign pieces 1..m exactly once")
        return BcLeaf(gen(), tuple(pairs[k] for k in sorted(pairs)))
    raise _ParseFailure(lst.span, f"unknown bc node kind {head!r}")


def _lower_ext_node(form, gen: IdGen, labels: _Labels):
    lst = _expect_list(form, "an extended node")
    head = _head(lst, "node")
    if head == "cut":
        kw, rest = _keywords(lst.items[1:], lst.span, ("agent", "label", "left", "right"))
        for need in ("agent", "label", "left", "right"):
            if need not in kw:
                raise _ParseFailure(lst.span, f"cut needs :{need}")
        if len(rest) != 1:
            raise _ParseFailure(lst.span, "cut takes exactly one child")
        nid = gen()
        left = labels.ref(_expect_atom(kw["left"], ":left ref"))
        right = labels.ref(_expect_atom(kw["right"], ":right ref"))
        labels.define(_expect_atom(kw["label"], ":label"), nid)
        return ExtCut(nid, _int(kw["agent"], ":agent"), left, right,
                      _lower_ext_node(rest[0], gen, labels))
    if head == "choose":
        kw, rest = _keywords(lst.items[1:], lst.span, ("agent",))
        if "agent" not in kw:
            raise _ParseFailure(lst.span, "choose needs :agent")
        if not rest:
            raise _ParseFailure(lst.span, "choose needs at least one child")
        nid = gen()
        return ExtChoose(nid, _int(kw["agent"], ":agent"),
                         tuple(_lower_ext_node(c, gen, labels) for c in rest))
    if head == "leaf":
        segments = []
        for item in lst.items[1:]:
            entry = _expect_list(item, "a (left right -> agent) segment")
            if (len(entry.items) != 4
                    or not isinstance(entry.items[2], Atom)
                    or entry.items[2].text != "->"):
                raise _ParseFailure(entry.span, "expected (left right -> agent)")
            left = labels.ref(_expect_atom(entry.items[0], "segment left"))
            right = labels.ref(_expect_atom(entry.items[1], "segment right"))
            segments.append(ExtSegment(left, right, _int(entry.items[3], "agent")))
        if not segments:
            raise _ParseFailure(lst.span, "leaf needs at least one segment")
        return ExtLeaf(gen(), tuple(segments))
    raise _ParseFailure(lst.span, f"unknown extended node kind {head!r}")


def _lower_pieces(items, labels: _Labels) -> tuple:
    pieces = []
    rest = []
    for item in items:
        if isinstance(item, SList) and item.items and isinstance(item.items[0], Atom) \
                and item.items[0].text == "piece":
            if len(item.items) != 3:
                raise _ParseFailure(item.span, "expected (piece left right)")
            pieces.append((
                labels.ref(_expect_atom(item.items[1], "piece left")),
                labels.ref(_expect_atom(item.items[2], "piece right")),
            ))
        else:
            rest.append(item)
    return tuple(pieces), rest


def _lower_condition(form, labels: _Labels) -> Condition:
    if isinstance(form, Atom):
        if form.text == "else":
            return ELSE
        raise _ParseFailure(form.span, f"unknown condition {form.text!r}")
    lst = _expect_list(form, "a condition")
    head = _head(lst, "condition")
    args = lst.items[1:]
    if head == "<":
        if len(args) != 2:
            raise _ParseFailure(lst.span, "(< left right) takes two refs")
        return Less(labels.ref(_expect_atom(args[0], "ref")),
                    labels.ref(_expect_atom(args[1], "ref")))
    if head in ("chose-at", "cut-in-at"):
        if len(args) != 2:
            raise _ParseFailure(lst.span, f"({head} node index) takes two arguments")
        nid = labels.node(_expect_atom(args[0], "node label"))
        index = _int(args[1], "piece index")
        return ChoseAt(nid, index) if head == "chose-at" else CutInAt(nid, index)
    if head == "and":
        return And(tuple(_lower_condition(a, labels) for a in args))
    if head == "or":
        return Or(tuple(_lower_condition(a, labels) for a in args))
    if head == "not":
        if len(args) != 1:
            raise _ParseFailure(lst.span, "(not c) takes one condition")
        return Not(_lower_condition(args[0], labels))
    raise _ParseFailure(lst.span, f"unknown condition kind {head!r}")


def _lower_gcc_node(form, gen: IdGen, labels: _Labels):
    lst = _expect_list(form, "a gcc node")
    head = _head(lst, "node")
    if head in ("gcc-cut", "gcc-choose"):
        kw, rest = _keywords(lst.items[1:], lst.span, ("agent", "label"))
        if "agent" not in kw:
            raise _ParseFailure(lst.span, f"{head} needs :agent")
        pieces, rest = _lower_pieces(rest, labels)
        if not pieces:
            raise _ParseFailure(lst.span, f"{head} needs at least one (piece ...)")
        if len(rest) != 1:
            raise _ParseFailure(lst.span, f"{head} takes exactly one child")
        nid = gen()
        if "label" in kw:
            labels.define(_expect_atom(kw["label"], ":label"), nid)
        child = _lower_gcc_node(rest[0], gen, labels)
        agent = _int(kw["agent"], ":agent")
        if head == "gcc-cut":
            return GccCut(nid, agent, pieces, child)
        return GccChoose(nid, agent, pieces, child)
    if head == "if":
        branches = []
        nid = gen()
        for item in lst.items[1:]:
            entry = _expect_list(item, "an (condition node) branch")
            if len(entry.items) != 2:
                raise _ParseFailure(entry.span, "expected (condition node)")
            cond = _lower_condition(entry.items[0], labels)
            branches.append((cond, _lower_gcc_node(entry.items[1], gen, labels)))
        if not branches:
            raise _ParseFailure(lst.span, "if needs at least one branch")
        return GccIfElse(nid, tuple(branches))
    if head == "gcc-leaf":
        return GccLeaf(gen())
    raise _ParseFailure(lst.span, f"unknown gcc node kind {head!r}")


def _lower_dag(lst: SList, agents: int, rest) -> BcDag:
    labels = _Labels()
    gen = IdGen()
    bodies = []
    root_label: Optional[Atom] = None
    for item in rest:
        entry = _expect_list(item, "a (node label form) entry")
        head = _head(entry, "dag entry")
        if head != "node":
            raise _ParseFailure(entry.span, "dag entries look like (node label form)")
        if len(entry.items) != 3:
            raise _ParseFailure(entry.span, "expected (node label form)")
        name = _expect_atom(entry.items[1], "node label")
        labels.define(name, gen())
        if root_label is None:
            root_label = name
        bodies.append((name, entry.items[2]))
    if root_label is None:
        raise _ParseFailure(lst.span, "dag needs at least one node")
    nodes = {}
    for name, body in bodies:
        nid = labels.by_name[name.text]
        blist = _expect_list(body, "a node form")
        head = _head(blist, "node")
        if head == "cut":
            kw, extra = _keywords(blist.items[1:], blist.span,
                                  ("agent", "piece", "child"))
            for need in ("agent", "piece", "child"):
                if need not in kw:
                    raise _ParseFailure(blist.span, f"dag cut needs :{need}")
            if extra:
                raise _ParseFailure(blist.span, "unexpected items in dag cut")
            nodes[nid] = DagCut(nid, _int(kw["agent"], ":agent"),
                                _int(kw["piece"], ":piece"),
                                labels.node(_expect_atom(kw["child"], ":child")))
        elif head == "choose":
            kw, extra = _keywords(blist.items[1:], blist.span, ("agent",))
            if "agent" not in kw:
                raise _ParseFailure(blist.span, "dag choose needs :agent")
            kids = tuple(labels.node(_expect_atom(c, "child label")) for c in extra)
            if not kids:
                raise _ParseFailure(blist.span, "dag choose needs children")
            nodes[nid] = DagChoose(nid, _int(kw["agent"], ":agent"), kids)
        elif head == "leaf":
            leaf = _lower_bc_node(blist, IdGen(nid))
            nodes[nid] = DagLeaf(nid, leaf.assign)
        else:
            raise _ParseFailure(blist.span, f"unknown dag node kind {head!r}")
    return BcDag(agents, labels.by_name[root_label.text], nodes)


def parse(text: str) -> tuple[Optional[Protocol], list[Diagnostic]]:
    """Parse (and then validate) a protocol; diagnostics carry spans."""
    try:
        form = _read(text)
        lst = _expect_list(form, "a protocol form")
        head = _head(lst, "protocol")
        kw, rest = _keywords(lst.items[1:], lst.span, ("agents", "mode"))
        if "agents" not in kw:
            raise _ParseFailure(lst.span, f"{head} needs :agents")
        agents = _int(kw["agents"], ":agents")
        if head == "bc":
            if len(rest) != 1:
                raise _ParseFailure(lst.span, "bc takes exactly one root node")
            protocol: Protocol = BcTree(agents, _lower_bc_node(rest[0], IdGen()))
            report = validate_bc(protocol)
        elif head == "extbc":
            if len(rest) != 1:
                raise _ParseFailure(lst.span, "extbc takes exactly one root node")
            protocol = ExtBcTree(agents,
                                 _lower_ext_node(rest[0], IdGen(), _Labels()))
            report = validate_ext(protocol)
        elif head == "gcc":
            if len(rest) != 1:
                raise _ParseFailure(lst.span, "gcc takes exactly one root node")
            mode = GccMode.EXTENSIVE
            if "mode" in kw and _expect_atom(kw["mode"], ":mode").text == "restricted":
                mode = GccMode.RESTRICTED
            protocol = GccTree(agents,
                               _lower_gcc_node(rest[0], IdGen(), _Labels()))
            report = validate_gcc(protocol, mode)
        elif head == "bcdag":
            protocol = _lower_dag(lst, agents, rest)
            report = validate_dag(protocol)
        else:
            raise _ParseFailure(lst.span, f"unknown protocol kind {head!r}")
    except _ParseFailure as failure:
        return None, [failure.diagnostic]
    diagnostics = [
        Diagnostic(SourceSpan(0, len(text), 1, 1), f"validation: {v}")
        for v in report.errors
    ]
    return (protocol if not diagnostics else None), diagnostics


# ---------------------------------------------------------------------------
# Printer


def _label(nid: int) -> str:
    return f"c{nid}"


def _ref_text(ref: CutRef) -> str:
    if ref.kind == "cut":
        return _label(ref.cut)
    return ref.kind


_COND_WORDS = {Less: "<", ChoseAt: "chose-at", CutInAt: "cut-in-at",
               And: "and", Or: "or", Not: "not"}
_COND_FIELD_TEXT = {
    "left": _ref_text, "right": _ref_text, "node": _label, "index": str,
    "parts": lambda v: " ".join(map(_cond_text, v)), "part": lambda v: _cond_text(v),
}


def _cond_text(cond: Condition) -> str:
    if isinstance(cond, Else):
        return "else"
    if type(cond) not in _COND_WORDS:
        raise DomainError(f"unknown condition {type(cond).__name__}")
    args = (_COND_FIELD_TEXT[name](v) for name, v in cond.__dict__.items())
    return f"({_COND_WORDS[type(cond)]} {' '.join(args)})"


_MODEL_WORDS = {BcTree: "bc", ExtBcTree: "extbc", GccTree: "gcc", BcDag: "bcdag"}
_NODE_WORDS = {
    BcCut: "cut", BcChoose: "choose", BcLeaf: "leaf",
    DagCut: "cut", DagChoose: "choose", DagLeaf: "leaf",
    ExtCut: "cut", ExtChoose: "choose", ExtLeaf: "leaf",
    GccCut: "gcc-cut", GccChoose: "gcc-choose", GccIfElse: "if", GccLeaf: "gcc-leaf",
}
# Nodes that refs and conditions can name carry a label after their agent.
_LABELLED = (ExtCut, GccCut, GccChoose)

# How a field reads in a node's opening line, by field name.  A tree node's
# children follow on their own lines; a DAG node names its children here.
_FIELD_TEXT = {
    "agent": lambda v: f":agent {v}",
    "piece": lambda v: f":piece {v}",
    "left": lambda v: f":left {_ref_text(v)}",
    "right": lambda v: f":right {_ref_text(v)}",
    "pieces": lambda v: " ".join(
        f"(piece {_ref_text(lo)} {_ref_text(hi)})" for lo, hi in v),
    "assign": lambda v: " ".join(f"({k} -> {a})" for k, a in enumerate(v, 1)),
    "segments": lambda v: " ".join(
        f"({_ref_text(s.left)} {_ref_text(s.right)} -> {s.agent})" for s in v),
}
_DAG_TEXT = {
    **_FIELD_TEXT,
    "child": lambda v: f":child {_label(v)}",
    "children": lambda v: " ".join(map(_label, v)),
}


def _opening(node, field_text) -> str:
    """``(keyword`` and the node's fields, without the closing parenthesis."""
    words = ["(" + _NODE_WORDS[type(node)]]
    for name, value in node.__dict__.items():
        if name in field_text:
            words.append(field_text[name](value))
        if name == "agent" and isinstance(node, _LABELLED):
            words.append(f":label {_label(node.nid)}")
    return " ".join(words)


def print_protocol(p: Protocol) -> str:
    """Canonical text form; deterministic, and parse(print(p)) == p.

    Node ids are renumbered to preorder so the emitted labels coincide with
    the ids a reparse assigns, making print-then-parse a fixpoint.
    """
    if type(p) not in _MODEL_WORDS:
        raise DomainError(f"unknown protocol type {type(p).__name__}")
    p, _ = renumber(p)
    out = [f"({_MODEL_WORDS[type(p)]} :agents {p.agents}"]

    def emit(node, depth: int):
        out.append("  " * depth + _opening(node, _FIELD_TEXT))
        if isinstance(node, GccIfElse):
            for cond, child in node.branches:
                out.append("  " * (depth + 1) + f"({_cond_text(cond)}")
                emit(child, depth + 2)
                out[-1] += ")"
        else:
            for child in _children(node):
                emit(child, depth + 1)
        out[-1] += ")"

    if isinstance(p, BcDag):
        for nid in sorted(p.nodes):  # the root is 0 after renumbering
            out.append(f"  (node {_label(nid)} {_opening(p.nodes[nid], _DAG_TEXT)}))")
    else:
        emit(p.root, 1)
    out[-1] += ")"
    return "\n".join(out) + "\n"
