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
yields a structurally identical protocol.  The reader is one ``re.finditer``
pass that nests lists on a stack, not in Python frames; its forms carry
``(start, end)`` offsets, and only a diagnostic gets a line and column.

Every model lowers through one node lowerer, ``_Lowering.node``: a node's
head word is looked up in the printer's ``_NODE_WORDS`` read backwards, and
each field has one reader, shared by every class that has the field.  A DAG
holds the BC node classes; its child fields hold node labels, read as
values, where a tree's hold nested node forms.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache
from typing import Optional

from .errors import DomainError
from .ir import (
    And, BcChoose, BcCut, BcDag, BcLeaf, BcTree, ChoseAt, Condition, CutInAt,
    CutRef, ELSE, END, Else, ExtBcTree, ExtChoose, ExtCut, ExtLeaf, ExtSegment,
    GccChoose, GccCut, GccIfElse, GccLeaf, GccMode, GccTree, IdGen, Less, Not,
    Or, ORIGIN, Protocol, at, renumber, validate, _children,
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
    """A failure at ``span``, a ``(start, end)`` pair of offsets."""

    def __init__(self, span: tuple[int, int], message: str):
        self.span = span
        self.message = message
        super().__init__(message)


# ---------------------------------------------------------------------------
# Reader: text -> atoms and lists, each with its (start, end) offsets


@dataclass(slots=True)
class Atom:
    text: str
    span: tuple[int, int]


@dataclass(slots=True)
class SList:
    items: list
    span: tuple[int, int]


# One match per token: ``(``, ``)``, an atom, or a run of blanks and
# ``;`` comments.  An atom ends only at ``() \t\r\n;``, so other blanks
# (``\x0c``, say) are skipped before an atom but belong to it after its start.
_TOKEN = re.compile(r"(\()|(\))|([^()\s;][^() \t\r\n;]*)|(?:\s+|;[^\n]*)+")


def _read(text: str):
    """The one form of ``text``; lists nest on a stack, not in Python frames."""
    stack = []  # (start offset, enclosing items) of each open list
    items = top = []  # the forms of the innermost open list; of the text
    for m in _TOKEN.finditer(text):
        kind = m.lastindex
        if kind is None:
            continue
        start, end = m.span()
        if top and not stack:
            raise _ParseFailure((start, start), "trailing input after the protocol form")
        if kind == 1:
            stack.append((start, items))
            items = []
        elif kind == 2:
            if not stack:
                raise _ParseFailure((start, start), "unmatched closing parenthesis")
            open_start, enclosing = stack.pop()
            enclosing.append(SList(items, (open_start, end)))
            items = enclosing
        else:
            items.append(Atom(m.group(), (start, end)))
    if stack:
        raise _ParseFailure((stack[-1][0], len(text)), "unclosed parenthesis")
    if not top:
        raise _ParseFailure((len(text), len(text)), "unexpected end of input")
    return top[0]


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


def _keywords(items, allowed: tuple[str, ...]):
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
# Spellings shared by the lowerer and the printer

# Per model word: the protocol class, its node classes, and how diagnostics
# name one of its node forms and node kinds.
_MODELS = {
    "bc": (BcTree, (BcCut, BcChoose, BcLeaf), "a bc node", "bc"),
    "extbc": (ExtBcTree, (ExtCut, ExtChoose, ExtLeaf), "an extended node", "extended"),
    "gcc": (GccTree, (GccCut, GccChoose, GccIfElse, GccLeaf), "a gcc node", "gcc"),
    "bcdag": (BcDag, (BcCut, BcChoose, BcLeaf), "a node form", "dag"),
}
_MODEL_WORDS = {cls: word for word, (cls, *_) in _MODELS.items()}
_NODE_WORDS = {
    BcCut: "cut", BcChoose: "choose", BcLeaf: "leaf",
    ExtCut: "cut", ExtChoose: "choose", ExtLeaf: "leaf",
    GccCut: "gcc-cut", GccChoose: "gcc-choose", GccIfElse: "if", GccLeaf: "gcc-leaf",
}
# Nodes that refs and conditions can name carry a label after their agent.
_LABELLED = (ExtCut, GccCut, GccChoose)


# ---------------------------------------------------------------------------
# Lowering: one table-driven node lowerer for every model
#
# A node form is ``(head :key value ... item ...)``.  ``_Lowering.node``
# checks its keywords, then reads the field its items hold (``_ITEMS``),
# then checks its number of child items, and only then gives it an id and
# reads its other values, in ``_READ_ORDER``.  When an input has several
# faults, that order decides which one is reported.


def _read_assign(items, lst, head, labels):
    pairs = {}
    for item in items:
        entry = _expect_list(item, "a (piece -> agent) pair").items
        if len(entry) != 3 or not isinstance(entry[1], Atom) or entry[1].text != "->":
            raise _ParseFailure(item.span, "expected (piece -> agent)")
        piece = _int(entry[0], "piece index")
        agent = _int(entry[2], "agent")
        if piece in pairs:
            raise _ParseFailure(item.span, f"piece {piece} assigned twice")
        pairs[piece] = agent
    if not pairs or sorted(pairs) != list(range(1, len(pairs) + 1)):
        raise _ParseFailure(lst.span, "leaf must assign pieces 1..m exactly once")
    return tuple(pairs[k] for k in sorted(pairs)), []


def _read_segments(items, lst, head, labels):
    segments = []
    for item in items:
        entry = _expect_list(item, "a (left right -> agent) segment").items
        if len(entry) != 4 or not isinstance(entry[2], Atom) or entry[2].text != "->":
            raise _ParseFailure(item.span, "expected (left right -> agent)")
        segments.append(ExtSegment(labels.ref(_expect_atom(entry[0], "segment left")),
                                   labels.ref(_expect_atom(entry[1], "segment right")),
                                   _int(entry[3], "agent")))
    if not segments:
        raise _ParseFailure(lst.span, "leaf needs at least one segment")
    return tuple(segments), []


def _read_pieces(items, lst, head, labels):
    pieces, rest = [], []
    for item in items:
        if isinstance(item, SList) and item.items and isinstance(item.items[0], Atom) \
                and item.items[0].text == "piece":
            if len(item.items) != 3:
                raise _ParseFailure(item.span, "expected (piece left right)")
            pieces.append((labels.ref(_expect_atom(item.items[1], "piece left")),
                           labels.ref(_expect_atom(item.items[2], "piece right"))))
        else:
            rest.append(item)
    if not pieces:
        raise _ParseFailure(lst.span, f"{head} needs at least one (piece ...)")
    return tuple(pieces), rest


def _read_labels(items, lst, head, labels):
    kids = tuple(labels.node(_expect_atom(item, "child label")) for item in items)
    if not kids:
        raise _ParseFailure(lst.span, f"{head} needs at least one child")
    return kids, []


# Fields read from the items, by field name: each reader returns the value
# and the items it leaves.  A DAG node's children are labels, read here.
_ITEMS = {"assign": _read_assign, "segments": _read_segments, "pieces": _read_pieces,
          "children": _read_labels}
# Fields spelled ``:key value``, by field name; ``:child`` only in a DAG.
_KEYWORDS = {
    "agent": lambda v, labels: _int(v, ":agent"),
    "piece": lambda v, labels: _int(v, ":piece"),
    "left": lambda v, labels: labels.ref(_expect_atom(v, ":left ref")),
    "right": lambda v, labels: labels.ref(_expect_atom(v, ":right ref")),
    "child": lambda v, labels: labels.node(_expect_atom(v, ":child")),
}
# Fields a tree node fills with nested node forms, and the count each needs.
_KIDS = {"child": "takes exactly one child", "children": "needs at least one child",
         "branches": "needs at least one branch"}
# Refs come before the node's own label, so that a cut cannot name itself,
# and children last; but a GCC cut or choose reads its agent after its child.
_READ_ORDER = ("left", "right", "label", "agent", "piece", *_KIDS)
_GCC_NODES = (GccCut, GccChoose)  # they may also leave out their label


@cache
def _plan(cls, dag: bool) -> tuple:
    """(keywords, item field, child field, read order) of a ``cls`` form.

    Keywords are in printed order, the order a missing one is reported.
    The item field is one of ``_ITEMS``, the child field one of ``_KIDS``.
    """
    fields = list(cls.__dataclass_fields__)[1:]
    keys = [name for name in fields if name in _KEYWORDS and (dag or name != "child")]
    if cls in _LABELLED:
        keys.insert(1, "label")
    items = next((name for name in fields
                  if name in _ITEMS and (dag or name != "children")), None)
    kids = next((name for name in fields
                 if name in _KIDS and name not in keys and name != items), None)
    steps = sorted(keys + ([kids] if kids else []), key=_READ_ORDER.index)
    if cls in _GCC_NODES:
        steps.append(steps.pop(steps.index("agent")))
    return tuple(keys), items, kids, tuple(steps)


class _Lowering:
    """Lowers the node forms of one model, numbering nodes in preorder."""

    def __init__(self, model: str):
        _, classes, self.noun, self.kind = _MODELS[model]
        self.forms = {_NODE_WORDS[cls]: (cls, *_plan(cls, model == "bcdag"))
                      for cls in classes}
        self.labels = _Labels()
        self.gen = IdGen()

    def node(self, form, nid: Optional[int] = None):
        """The node of ``form``, with id ``nid`` or the next preorder id.

        Children are lowered here, not through a table, so that a tree
        level costs one Python frame.
        """
        lst = _expect_list(form, self.noun)
        head = _head(lst, "node")
        if head not in self.forms:
            raise _ParseFailure(lst.span, f"unknown {self.kind} node kind {head!r}")
        cls, keys, items, kids, steps = self.forms[head]
        # A form without keywords reads ``:x`` as an item; ``(gcc-leaf)``
        # has no fields and ignores its items.
        kw, rest = _keywords(lst.items[1:], keys) if keys else ({}, lst.items[1:])
        for key in keys:
            if key not in kw and not (key == "label" and cls in _GCC_NODES):
                raise _ParseFailure(lst.span, f"{head} needs :{key}")
        values = {}
        if items:
            values[items], rest = _ITEMS[items](rest, lst, head, self.labels)
        if kids:
            if (len(rest) != 1) if kids == "child" else not rest:
                raise _ParseFailure(lst.span, f"{head} {_KIDS[kids]}")
        elif rest and keys:
            raise _ParseFailure(lst.span, f"unexpected items in {self.kind} {head}")
        if nid is None:
            nid = self.gen()
        for step in steps:
            if step == "label":
                if "label" in kw:
                    self.labels.define(_expect_atom(kw["label"], ":label"), nid)
            elif step in kw:
                values[step] = _KEYWORDS[step](kw[step], self.labels)
            elif step == "child":
                values["child"] = self.node(rest[0])
            elif step == "children":
                values["children"] = tuple(map(self.node, rest))
            else:
                branches = []
                for item in rest:
                    entry = _expect_list(item, "an (condition node) branch")
                    if len(entry.items) != 2:
                        raise _ParseFailure(entry.span, "expected (condition node)")
                    branches.append((_lower_condition(entry.items[0], self.labels),
                                     self.node(entry.items[1])))
                values["branches"] = tuple(branches)
        return cls(nid, **values)


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


def _lower_dag(lst: SList, agents: int, rest, cx: _Lowering) -> BcDag:
    bodies = []
    for item in rest:
        entry = _expect_list(item, "a (node label form) entry")
        head = _head(entry, "dag entry")
        if head != "node":
            raise _ParseFailure(entry.span, "dag entries look like (node label form)")
        if len(entry.items) != 3:
            raise _ParseFailure(entry.span, "expected (node label form)")
        name = _expect_atom(entry.items[1], "node label")
        nid = cx.gen()
        cx.labels.define(name, nid)
        bodies.append((nid, entry.items[2]))
    if not bodies:
        raise _ParseFailure(lst.span, "dag needs at least one node")
    return BcDag(agents, bodies[0][0], {nid: cx.node(body, nid) for nid, body in bodies})


def parse(text: str) -> tuple[Optional[Protocol], list[Diagnostic]]:
    """Parse (and then validate) a protocol; diagnostics carry spans."""
    try:
        form = _read(text)
        lst = _expect_list(form, "a protocol form")
        head = _head(lst, "protocol")
        kw, rest = _keywords(lst.items[1:], ("agents", "mode"))
        if "agents" not in kw:
            raise _ParseFailure(lst.span, f"{head} needs :agents")
        agents = _int(kw["agents"], ":agents")
        if head not in _MODELS:
            raise _ParseFailure(lst.span, f"unknown protocol kind {head!r}")
        cls = _MODELS[head][0]
        cx = _Lowering(head)
        mode = GccMode.EXTENSIVE
        if cls is BcDag:
            protocol: Protocol = _lower_dag(lst, agents, rest, cx)
        else:
            if len(rest) != 1:
                raise _ParseFailure(lst.span, f"{head} takes exactly one root node")
            if (cls is GccTree and "mode" in kw
                    and _expect_atom(kw["mode"], ":mode").text == "restricted"):
                mode = GccMode.RESTRICTED
            protocol = cls(agents, cx.node(rest[0]))
    except _ParseFailure as failure:
        start, end = failure.span  # only "\n" ends a line
        line, column = text.count("\n", 0, start) + 1, start - text.rfind("\n", 0, start)
        return None, [Diagnostic(SourceSpan(start, end, line, column), failure.message)]
    diagnostics = [
        Diagnostic(SourceSpan(0, len(text), 1, 1), f"validation: {v}")
        for v in validate(protocol, mode).errors
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

    if isinstance(p, BcDag):
        for nid in sorted(p.nodes):  # the root is 0 after renumbering
            out.append(f"  (node {_label(nid)} {_opening(p.nodes[nid], _DAG_TEXT)}))")
    else:
        # An explicit stack of (node or opening text, depth); None closes
        # the last line.  Nesting then costs no Python frames.
        stack: list = [(p.root, 1)]
        while stack:
            item, depth = stack.pop()
            if item is None:
                out[-1] += ")"
            elif isinstance(item, str):
                out.append("  " * depth + item)
            else:
                out.append("  " * depth + _opening(item, _FIELD_TEXT))
                stack.append((None, 0))
                if isinstance(item, GccIfElse):
                    for cond, child in reversed(item.branches):
                        stack += [(None, 0), (child, depth + 2),
                                  (f"({_cond_text(cond)}", depth + 1)]
                else:
                    stack += [(child, depth + 1) for child in reversed(_children(item))]
    out[-1] += ")"
    return "\n".join(out) + "\n"
