"""Typed protocol representations and their validators.

Four forms are supported:

* ``BcTree``   -- branch-choice tree: cut / choose / leaf nodes, allocation
  happens only at leaves via a piece-index -> agent map.
* ``BcDag``    -- the same BC nodes with shared children, stored as an
  id -> node map; a node's ``child``/``children`` hold node ids instead of
  nodes, and ``linked_nodes`` links them for play.  Every root-to-node path
  must make the same number of cuts.  ``fold_dag``, ``validate_dag`` and
  ``renumber`` walk the ids in one function, ``_walk_ids``.
* ``ExtBcTree`` -- branch-choice tree where a cut may span several pieces
  (between two possibly non-adjacent earlier cuts) and leaves allocate
  between named cuts.
* ``GccTree``  -- cut / choose / if-else trees where agents pick pieces
  directly and allocation happens at choose nodes.

Validators return a ``ValidationReport`` listing each violated invariant
with the node's path; an empty report means the protocol is valid.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import cache, partial
from enum import Enum
from typing import Iterator, Optional, Union

from .errors import DomainError

# ---------------------------------------------------------------------------
# Cut references (extended BC and GCC forms)


@dataclass(frozen=True)
class CutRef:
    """A boundary: the cake ends, or a cut made at an ancestor node."""

    kind: str  # "origin" | "end" | "cut"
    cut: int = -1

    def __repr__(self):
        if self.kind == "cut":
            return f"at({self.cut})"
        return self.kind


ORIGIN = CutRef("origin")
END = CutRef("end")


def at(nid: int) -> CutRef:
    return CutRef("cut", nid)


Piece = tuple[CutRef, CutRef]

# ---------------------------------------------------------------------------
# Node types


@dataclass(frozen=True)
class BcCut:
    nid: int
    agent: int
    piece: int  # 1-based index into the current left-to-right partition
    child: "BcNode"  # in a BcDag, the child's node id


@dataclass(frozen=True)
class BcChoose:
    nid: int
    agent: int
    children: tuple["BcNode", ...]  # in a BcDag, node ids


@dataclass(frozen=True)
class BcLeaf:
    nid: int
    assign: tuple[int, ...]  # piece k -> agent assign[k-1]


BcNode = Union[BcCut, BcChoose, BcLeaf]


@dataclass(frozen=True)
class BcTree:
    agents: int
    root: BcNode


# A DAG node is a BC node whose ``child``/``children`` are node ids; the
# ``Dag*`` names stay for callers outside the package (perfbench/inputs.py).
DagCut, DagChoose, DagLeaf = BcCut, BcChoose, BcLeaf


@dataclass(frozen=True)
class BcDag:
    agents: int
    root: int
    nodes: dict[int, BcNode] = field(compare=False)

    def __post_init__(self):
        for nid, node in self.nodes.items():
            if node.nid != nid:
                raise DomainError(f"node map key {nid} disagrees with node id {node.nid}")


@dataclass(frozen=True)
class ExtCut:
    nid: int
    agent: int
    left: CutRef
    right: CutRef
    child: "ExtNode"


@dataclass(frozen=True)
class ExtChoose:
    nid: int
    agent: int
    children: tuple["ExtNode", ...]


@dataclass(frozen=True)
class ExtSegment:
    left: CutRef
    right: CutRef
    agent: int


@dataclass(frozen=True)
class ExtLeaf:
    nid: int
    segments: tuple[ExtSegment, ...]


ExtNode = Union[ExtCut, ExtChoose, ExtLeaf]


@dataclass(frozen=True)
class ExtBcTree:
    agents: int
    root: ExtNode


# Conditions for GCC if-else nodes -------------------------------------------


@dataclass(frozen=True)
class Less:
    left: CutRef
    right: CutRef


# ChoseAt and CutInAt read the same ``picks`` entry at run time, yet stay two
# classes: JSON and .cake spell them differently, and validate_gcc checks that
# each names an ancestor of its own kind (a choose or a cut node).


@dataclass(frozen=True)
class ChoseAt:
    node: int
    index: int


@dataclass(frozen=True)
class CutInAt:
    node: int
    index: int


@dataclass(frozen=True)
class Else:
    pass


@dataclass(frozen=True)
class And:
    parts: tuple["Condition", ...]


@dataclass(frozen=True)
class Or:
    parts: tuple["Condition", ...]


@dataclass(frozen=True)
class Not:
    part: "Condition"


Condition = Union[Less, ChoseAt, CutInAt, Else, And, Or, Not]

ELSE = Else()

Verdict = Union[bool, None]  # None: not decided (Kleene's unknown)


def fold_condition(cond: Condition, atom) -> Verdict:
    """Three-valued (Kleene) reading of ``cond``, short-circuiting.

    ``atom`` reads a ``Less``, ``ChoseAt`` or ``CutInAt`` as True, False or
    None; ``Else``, ``And``, ``Or`` and ``Not`` are folded here.
    """
    if isinstance(cond, (Less, ChoseAt, CutInAt)):
        return atom(cond)
    if isinstance(cond, Else):
        return True
    if isinstance(cond, (And, Or)):
        stop = isinstance(cond, Or)  # the value that decides the connective
        result: Verdict = not stop
        for part in cond.parts:
            v = fold_condition(part, atom)
            if v is stop:
                return stop
            if v is None:
                result = None
        return result
    if isinstance(cond, Not):
        v = fold_condition(cond.part, atom)
        return None if v is None else not v
    raise DomainError(f"unknown condition {type(cond).__name__}")


def condition_atoms(cond: Condition) -> Iterator:
    """The ``Less``, ``ChoseAt`` and ``CutInAt`` atoms of ``cond``, in order."""
    if isinstance(cond, (And, Or)):
        for part in cond.parts:
            yield from condition_atoms(part)
    elif isinstance(cond, Not):
        yield from condition_atoms(cond.part)
    elif not isinstance(cond, Else):
        yield cond


@dataclass(frozen=True)
class GccCut:
    nid: int
    agent: int
    pieces: tuple[Piece, ...]
    child: "GccNode"


@dataclass(frozen=True)
class GccChoose:
    nid: int
    agent: int
    pieces: tuple[Piece, ...]
    child: "GccNode"


@dataclass(frozen=True)
class GccIfElse:
    nid: int
    branches: tuple[tuple[Condition, "GccNode"], ...]


@dataclass(frozen=True)
class GccLeaf:
    nid: int


GccNode = Union[GccCut, GccChoose, GccIfElse, GccLeaf]


class GccMode(Enum):
    RESTRICTED = "restricted"
    EXTENSIVE = "extensive"


@dataclass(frozen=True)
class GccTree:
    agents: int
    root: GccNode


Protocol = Union[BcTree, BcDag, ExtBcTree, GccTree]

# ---------------------------------------------------------------------------
# Generic traversal


def children_of(node) -> tuple:
    """Child nodes, in order; for the nodes of a ``BcDag``, child ids."""
    return _children(node)


_ONE_CHILD = frozenset({BcCut, ExtCut, GccCut, GccChoose})
_CHILD_TUPLE = frozenset({BcChoose, ExtChoose})


# Per-node walks call ``_children`` directly: tools that wrap the public
# functions, such as the benchmark's span tracer, then see a walk as one call.
# It looks the node's class up rather than ask ``isinstance`` of each class.
def _children(node) -> tuple:
    cls = type(node)
    if cls in _ONE_CHILD:
        return (node.child,)
    if cls in _CHILD_TUPLE:
        return node.children
    if cls is GccIfElse:
        return tuple(child for _, child in node.branches)
    return ()


def iter_nodes(p: Protocol) -> Iterator:
    """Preorder over all nodes (for a DAG, each stored node once)."""
    if isinstance(p, BcDag):
        yield from p.nodes.values()
        return
    stack = [p.root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(_children(node)))


_MISSING, _CYCLE = "missing", "cycle"


def _walk_ids(d: BcDag, visit=None) -> tuple[dict, list, dict]:
    """The one walk over a DAG's ids: depth first from ``d.root``, first
    child first, on one explicit stack (Tarjan, 1972).  Returns ``cuts``,
    the cuts on the first path to each reached id, by id in preorder;
    ``faults``, ``(parent id, id, _MISSING, _CYCLE or the cut count)`` for
    each edge met to a missing id, back to an open id, or with another cut
    count than the first path to its end; and ``done``, ``visit(node, its
    children's results)`` by id at each node's close.  With ``visit``, a
    missing id or a cycle raises ``DomainError``."""
    nodes, cuts, faults, done = d.nodes, {}, [], {}
    # (id, cuts on its path, parent id) opens an id; (id, None, node) closes it.
    stack: list = [(d.root, 0, None)]
    pop, push = stack.pop, stack.append
    while stack:
        nid, count, parent = pop()
        if count is None:  # closing: ``parent`` is the node, its children done
            done[nid] = visit(parent, [done[kid] for kid in _children(parent)]) if visit else None
        elif nid in cuts:
            if nid not in done:
                if visit:
                    raise DomainError(f"DAG node {nid} lies on a cycle")
                faults.append((parent, nid, _CYCLE))
            elif cuts[nid] != count:
                faults.append((parent, nid, count))
        else:
            node = nodes.get(nid)
            if node is None:
                if visit:
                    raise DomainError(f"DAG edge to missing node {nid}")
                faults.append((parent, nid, _MISSING))
                continue
            cuts[nid] = count
            push((nid, None, node))
            kids = _children(node)
            if kids:
                count += type(node) is BcCut
                for kid in reversed(kids):
                    push((kid, count, nid))
    return cuts, faults, done


def fold_dag(d: BcDag, visit) -> dict:
    """``visit(node, its children's results)`` for each node id reachable from
    the root of ``d``, children first and each shared node once; the results
    by node id.  The first edge met to a missing id, or to an id whose
    subtree is open (a cycle), raises ``DomainError``."""
    return _walk_ids(d, visit)[2]


def linked_nodes(d: BcDag) -> dict:
    """Each node reachable in ``d`` rebuilt once with its children in place of
    their ids, by node id: a shared child is one object under every parent."""
    return fold_dag(d, lambda node, kids: _map_node(node, kids=kids))


def _map_ref(ref: CutRef, ids) -> CutRef:
    if ref.kind != "cut":
        return ref
    nid = ids(ref.cut)
    return ref if nid == ref.cut else at(nid)


# How ``_map_fields`` rebuilds a field, by field name; other fields are kept.
# With ``ids`` None only the child fields are rebuilt.
_REBUILD_KIDS = {
    "child": lambda v, ids, kids: next(kids),
    "children": lambda v, ids, kids: tuple(kids),
    "branches": lambda v, ids, kids: tuple(
        (cond if ids is None else _map_node(cond, ids), next(kids)) for cond, _ in v),
}
_REBUILD = {
    **_REBUILD_KIDS,
    "nid": lambda v, ids, kids: ids(v),
    "node": lambda v, ids, kids: ids(v),
    "left": lambda v, ids, kids: _map_ref(v, ids),
    "right": lambda v, ids, kids: _map_ref(v, ids),
    "pieces": lambda v, ids, kids: tuple(
        (_map_ref(lo, ids), _map_ref(hi, ids)) for lo, hi in v),
    "segments": lambda v, ids, kids: tuple(_map_node(seg, ids) for seg in v),
    "parts": lambda v, ids, kids: tuple(_map_node(part, ids) for part in v),
    "part": lambda v, ids, kids: _map_node(v, ids),
}


@cache
def _rebuilt_fields(cls, with_ids: bool) -> tuple:
    """(name, rebuild) for each field of ``cls`` that ``_map_fields`` rebuilds."""
    table = _REBUILD if with_ids else _REBUILD_KIDS
    return tuple((name, table[name]) for name in cls.__dataclass_fields__ if name in table)


def _map_fields(node, ids=None, kids=()) -> dict:
    """The fields of ``node`` with every node id it holds passed through
    ``ids`` (kept when ``ids`` is None) and its children (child ids, for a
    DAG node) taken from ``kids``.

    Node ids are its own, the cuts its refs name, the nodes its conditions
    read and its DAG edges.  Conditions and leaf segments map the same way.
    Fields are rebuilt in declaration order, so a lazy ``kids`` is drawn only
    after the node's own ids are mapped.
    """
    kids = iter(kids)
    fields = node.__dict__.copy()
    for name, rebuild in _rebuilt_fields(type(node), ids is not None):
        fields[name] = rebuild(fields[name], ids, kids)
    return fields


def _map_node(node, ids=None, kids=()):
    """``node`` rebuilt from ``_map_fields(node, ids, kids)``.

    As ``copy.copy`` does, the copy takes the fields as they are, without
    calling ``__init__`` (node classes do no checks there), which spares a
    frozen dataclass's per-field ``object.__setattr__``.
    """
    new = object.__new__(type(node))
    object.__setattr__(new, "__dict__", _map_fields(node, ids, kids))
    return new


def replace_child(node, index: int, new_child):
    """Functional child replacement for tree nodes (kept for callers outside
    the package; ``perfbench/test_perfbench.py`` uses it)."""
    kids = list(children_of(node))
    if not kids:
        raise DomainError(f"{type(node).__name__} has no children")
    kids[index] = new_child
    return _map_node(node, kids=kids)


class IdGen:
    """Sequential node-id source for building protocols."""

    def __init__(self, start: int = 0):
        self._next = start

    def __call__(self) -> int:
        nid = self._next
        self._next += 1
        return nid


# ---------------------------------------------------------------------------
# Validation reports


@dataclass
class Violation:
    path: str
    nid: int
    message: str

    def __str__(self):
        return f"[{self.path} #{self.nid}] {self.message}"


@dataclass
class ValidationReport:
    errors: list[Violation] = field(default_factory=list)
    warnings: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors

    def error(self, path, nid, message):
        self.errors.append(Violation(path, nid, message))

    def warn(self, path, nid, message):
        self.warnings.append(Violation(path, nid, message))

    def __str__(self):
        if self.ok and not self.warnings:
            return "valid"
        lines = [f"error: {v}" for v in self.errors]
        lines += [f"warning: {v}" for v in self.warnings]
        return "\n".join(lines)


def _check_agent(report, path, nid, agent, n):
    if not 1 <= agent <= n:
        report.error(path, nid, f"agent {agent} out of range 1..{n}")


def _check_span(report, path, nid, piece: Piece, span: tuple[int, int], cuts: set[int],
                order: PartialOrder, prefix: str = "") -> bool:
    """Whether the refs ``piece`` (slots ``span``) make a span at a node
    below ``cuts``: each names an ancestor cut or an end of the cake, and
    left <= right is derivable.  Reports each way it is not."""
    ok = True
    for ref in piece:
        if ref.kind == "cut" and ref.cut not in cuts:
            report.error(path, nid, f"ref {ref} is not an ancestor cut")
            ok = False
    if ok and not order.le(*span):
        report.error(path, nid, f"{prefix}order of {piece[0]} and {piece[1]} is not derivable")
        ok = False
    return ok


def _walk(report: ValidationReport, root, ctx, visit) -> ValidationReport:
    """Visit a tree's nodes in preorder on an explicit stack; returns ``report``.

    ``visit(node, path, ctx)`` makes one node's checks and returns one
    context per child (none to stop there).  The walk reports duplicate node
    ids and names child i of the node at ``path`` ``path/i``.
    """
    seen: set[int] = set()
    stack = [(root, "root", ctx)]
    pop, push, add = stack.pop, stack.append, seen.add
    while stack:
        node, path, ctx = pop()
        nid = node.nid
        if nid in seen:
            report.error(path, nid, "duplicate node id")
        add(nid)
        ctxs = visit(node, path, ctx)
        if ctxs:
            kids = _children(node)
            i = len(ctxs)
            while i:
                i -= 1
                push((kids[i], f"{path}/{i}", ctxs[i]))
    return report


# ---------------------------------------------------------------------------
# BC tree and DAG validation


def _check_bc_node(report, n: int, node, path, cuts_above: int) -> tuple:
    """The checks of one BC node, in a tree or a DAG, with ``cuts_above``
    cuts on every path from the root to it; returns its children's counts.

    Each agent is range-tested here and ``_check_agent`` called only to
    report, which keeps a large tree's walk to about one call per node.
    """
    if isinstance(node, BcCut):
        if not 1 <= node.agent <= n:
            _check_agent(report, path, node.nid, node.agent, n)
        if not 1 <= node.piece <= cuts_above + 1:
            report.error(
                path, node.nid,
                f"cut into piece {node.piece} but only {cuts_above + 1} pieces exist",
            )
        return (cuts_above + 1,)
    if isinstance(node, BcChoose):
        if not 1 <= node.agent <= n:
            _check_agent(report, path, node.nid, node.agent, n)
        if not node.children:
            report.error(path, node.nid, "choose node with no children")
        return (cuts_above,) * len(node.children)
    if isinstance(node, BcLeaf):
        if len(node.assign) != cuts_above + 1:
            report.error(
                path, node.nid,
                f"leaf assigns {len(node.assign)} pieces, expected {cuts_above + 1}",
            )
        for a in node.assign:
            if not 1 <= a <= n:
                _check_agent(report, path, node.nid, a, n)
    else:
        report.error(path, node.nid, f"unknown node type {type(node).__name__}")
    return ()


def validate_bc(t: BcTree) -> ValidationReport:
    report = ValidationReport()
    return _walk(report, t.root, 0, partial(_check_bc_node, report, t.agents))


def validate_dag(d: BcDag) -> ValidationReport:
    """The report from one ``_walk_ids`` pass, in stages that each run only
    when the ones before found nothing: missing and unreachable ids, the
    first cycle, paths that disagree on their cut count, and node checks."""
    report = ValidationReport()
    if d.root not in d.nodes:
        report.error("root", d.root, "root id missing from node map")
        return report
    cuts, faults, _ = _walk_ids(d)
    for nid, kid, fault in faults:
        if fault is _MISSING:
            report.error(f"node {nid}", nid, f"edge to missing node {kid}")
    for nid in d.nodes:
        if nid not in cuts:
            report.error(f"node {nid}", nid, "unreachable from root")
    if not report.ok:
        return report
    for nid, kid, fault in faults:
        if fault is _CYCLE:
            report.error(f"node {nid}", nid, f"cycle through node {kid}")
            return report
    for _, kid, count in faults:  # with no cycle, only cut counts remain
        report.error(f"node {kid}", kid, f"paths disagree on cut count ({cuts[kid]} vs {count})")
    if not report.ok:
        return report

    for nid, node in d.nodes.items():
        _check_bc_node(report, d.agents, node, f"node {nid}", cuts[nid])
    return report


# ---------------------------------------------------------------------------
# Static cut ordering (extended BC and GCC)


class _Slots(dict):
    """One walk's numbering of cut refs by small ints, a cut id -> slot map.

    The origin is 0, the end is 1, and a cut gets the next slot when the
    walk first names or reaches it (``slots[nid]``), so two refs share a
    slot exactly when they name the same boundary.  ``slots(ref)`` reads a
    ref by its kind and cut id, without hashing it.
    """

    def __missing__(self, nid: int) -> int:
        slot = self[nid] = len(self) + 2
        return slot

    def __call__(self, ref: CutRef) -> int:
        kind = ref.kind
        if kind == "cut":
            return self[ref.cut]
        return 0 if kind == "origin" else 1


class PartialOrder:
    """Sound, conservative order over the cut refs visible at one node.

    Refs are numbered by one walk's ``_Slots``.  ``up`` maps each slot the
    order names, in the order first named, to a bit row: bit j of ``up[i]``
    says that ref i <= ref j.  ``le``, ``eq``, ``add_le`` and ``bound_cut``
    take slots.  A walk copies the order for a child that learns more and
    changes no order it has handed on.
    """

    __slots__ = ("slots", "up")

    def __init__(self, slots: _Slots, up: Optional[dict[int, int]] = None):
        self.slots = slots
        self.up = {0: 0b10, 1: 0} if up is None else up

    def copy(self) -> PartialOrder:
        return PartialOrder(self.slots, self.up.copy())

    def le(self, i: int, j: int) -> bool:
        """Whether slot i <= slot j is derivable; each ref is <= itself."""
        return i == j or self.up.get(i, 0) >> j & 1 == 1

    def eq(self, i: int, j: int) -> bool:
        """Whether slots i and j coincide in every execution."""
        get = self.up.get
        return i == j or get(i, 0) >> j & get(j, 0) >> i & 1 == 1

    def add_le(self, i: int, j: int):
        up = self.up
        if i not in up:
            up[i] = 0
        if j not in up:
            up[j] = 0
        if up[i] >> j & 1:
            return
        # Transitive closure, incremental: x <= i <= j <= y.
        after, bit = up[j] | 1 << j, 1 << i
        for k, row in up.items():
            if k == i or row & bit:
                up[k] = row | after

    def bound_cut(self, z: int, lo: int, hi: int):
        """Cut ``z`` lies between ``lo`` and ``hi`` and within the cake."""
        if z not in self.up:
            self.up[z] = 0
        self.add_le(lo, z)
        self.add_le(0, z)
        self.add_le(z, hi)
        self.add_le(z, 1)


# ---------------------------------------------------------------------------
# Extended BC validation


def validate_ext(t: ExtBcTree) -> ValidationReport:
    report = ValidationReport()
    slots = _Slots()

    # A node's context: the ids of the cuts above it and their order.
    def visit(node, path, ctx):
        cuts, order = ctx
        nid = node.nid
        if isinstance(node, ExtCut):
            _check_agent(report, path, nid, node.agent, t.agents)
            lo, hi = slots(node.left), slots(node.right)
            _check_span(report, path, nid, (node.left, node.right), (lo, hi), cuts, order)
            sub = order.copy()
            sub.bound_cut(slots[nid], lo, hi)
            return ((cuts | {nid}, sub),)
        if isinstance(node, ExtChoose):
            _check_agent(report, path, nid, node.agent, t.agents)
            if not node.children:
                report.error(path, nid, "choose node with no children")
            return (ctx,) * len(node.children)
        if isinstance(node, ExtLeaf):
            segs = node.segments
            if not segs:
                report.error(path, nid, "leaf with no segments")
                return ()
            spans = [(slots(seg.left), slots(seg.right)) for seg in segs]
            if spans[0][0] != 0:
                report.error(path, nid, "first segment must start at the origin")
            if spans[-1][1] != 1:
                report.error(path, nid, "last segment must end at the cake's end")
            for k in range(len(segs) - 1):
                if spans[k][1] != spans[k + 1][0]:
                    report.error(path, nid,
                                 f"segments {k} and {k + 1} do not share an endpoint")
            for k, seg in enumerate(segs):
                _check_agent(report, path, nid, seg.agent, t.agents)
                _check_span(report, path, nid, (seg.left, seg.right), spans[k], cuts, order,
                            f"segment {k}: ")
        else:
            report.error(path, nid, f"unknown node type {type(node).__name__}")
        return ()

    return _walk(report, t.root, (set(), PartialOrder(slots)), visit)


# ---------------------------------------------------------------------------
# GCC validation


def _refine_with_condition(order: PartialOrder, cond: Condition, ancestors):
    """Add the order facts a taken branch's condition implies (sound only
    for conjunctive positive atoms; disjunctions and negations teach nothing
    safely and are skipped)."""
    if isinstance(cond, And):
        for part in cond.parts:
            _refine_with_condition(order, part, ancestors)
    elif isinstance(cond, Less):
        order.add_le(order.slots(cond.left), order.slots(cond.right))
    elif isinstance(cond, CutInAt):
        kind, spans = ancestors.get(cond.node, (None, ()))
        if kind == "cut" and 0 <= cond.index < len(spans):
            lo, hi = spans[cond.index]
            z = order.slots[cond.node]
            order.add_le(lo, z)
            order.add_le(z, hi)


def _eval_condition_static(cond: Condition, picks: dict[int, int], order: PartialOrder):
    """Three-valued evaluation against a symbolic pick assignment."""

    def atom(a) -> Verdict:
        if isinstance(a, Less):
            if order.le(order.slots(a.right), order.slots(a.left)):
                return False
            return None  # LE permits equality, so strictness stays unknown
        if a.node not in picks:
            return None
        return picks[a.node] == a.index

    return fold_condition(cond, atom)


_SYMBOLIC_STATE_CAP = 4096


def validate_gcc(t: GccTree, mode: GccMode = GccMode.RESTRICTED) -> ValidationReport:
    report = ValidationReport()
    slots = _Slots()
    restricted = mode is GccMode.RESTRICTED

    # A piece travels as its refs, for reports, and their slots (a span);
    # the checks read only the spans.
    def check_pieces(path, node, spans, cuts, order):
        pieces = node.pieces
        if not pieces:
            report.error(path, node.nid, "empty piece set")
            return
        usable = [(piece, span) for piece, span in zip(pieces, spans)
                  if _check_span(report, path, node.nid, piece, span, cuts, order)]
        le = order.le
        for i, (piece, (lo, hi)) in enumerate(usable):
            for other, (other_lo, other_hi) in usable[i + 1:]:
                if not (le(hi, other_lo) or le(other_hi, lo)):
                    report.error(path, node.nid, f"pieces {piece} and {other} may overlap")
        if restricted and usable:
            earlier = [(slots[cut_nid], cut_nid) for cut_nid in cuts]
            for piece, (lo, hi) in usable:
                for z, cut_nid in earlier:
                    if z != lo and z != hi and not (le(z, lo) or le(hi, z)):
                        report.error(path, node.nid, f"piece {piece} may contain earlier"
                                     f" cut {at(cut_nid)} (restricted mode)")

    def check_unallocated(path, node, spans, states, order, offered: str):
        """Report the first offered piece that may overlap an earlier allocation."""
        le = order.le
        for _, allocated in states:
            for piece, (lo, hi) in zip(node.pieces, spans):
                for other_lo, other_hi in allocated:
                    if not (le(hi, other_lo) or le(other_hi, lo)):
                        report.error(path, node.nid,
                                     f"{offered} piece {piece} that may already be allocated")
                        return

    # A node's context: the ids of the cuts above it, its cut and choose
    # ancestors by id with the spans they offer, the order of its cuts, and
    # its symbolic states (picks, allocated spans).  Chooses fork states;
    # ``complete`` records whether the fork set was ever truncated, since
    # refining from a truncated set would be unsound.
    def visit(node, path, ctx):
        cuts, ancestors, order, states, complete = ctx
        nid = node.nid
        if isinstance(node, GccCut):
            _check_agent(report, path, nid, node.agent, t.agents)
            spans = [(slots(lo), slots(hi)) for lo, hi in node.pieces]
            check_pieces(path, node, spans, cuts, order)
            check_unallocated(path, node, spans, states, order, "cut offered")
            sub = order.copy()
            z = slots[nid]
            sub.add_le(0, z)
            sub.add_le(z, 1)
            if len(spans) == 1:
                lo, hi = spans[0]
                sub.add_le(lo, z)
                sub.add_le(z, hi)
            else:
                # Sound common bounds across all offered pieces.
                le = order.le
                for ref in list(sub.up):
                    if all(le(ref, lo) for lo, _ in spans):
                        sub.add_le(ref, z)
                    if all(le(hi, ref) for _, hi in spans):
                        sub.add_le(z, ref)
            new_states = states
            if len(spans) > 1 and len(states) * len(spans) <= _SYMBOLIC_STATE_CAP:
                new_states = [
                    ({**picks, nid: j}, allocated)
                    for picks, allocated in states
                    for j in range(len(spans))
                ]
            return ((cuts | {nid}, {**ancestors, nid: ("cut", spans)}, sub, new_states,
                     complete),)
        if isinstance(node, GccChoose):
            _check_agent(report, path, nid, node.agent, t.agents)
            spans = [(slots(lo), slots(hi)) for lo, hi in node.pieces]
            check_pieces(path, node, spans, cuts, order)
            check_unallocated(path, node, spans, states, order, "choose offers")
            new_states = []
            truncated = False
            for picks, allocated in states:
                for j, span in enumerate(spans):
                    new_states.append(({**picks, nid: j}, allocated + (span,)))
                    if len(new_states) > _SYMBOLIC_STATE_CAP:
                        break
                if len(new_states) > _SYMBOLIC_STATE_CAP:
                    report.warn(path, nid, "symbolic state cap hit; later"
                                " re-allocation checks are partial")
                    new_states = new_states[:_SYMBOLIC_STATE_CAP]
                    truncated = True
                    break
            return ((cuts, {**ancestors, nid: ("choose", spans)}, order, new_states,
                     complete and not truncated),)
        if isinstance(node, GccIfElse):
            if not node.branches:
                report.error(path, nid, "if-else with no branches")
                return ()
            if not isinstance(node.branches[-1][0], Else):
                report.error(path, nid, "last branch must be a catch-all else")
            for k, (cond, _) in enumerate(node.branches[:-1]):
                if isinstance(cond, Else):
                    report.warn(path, nid, f"else in branch {k} shadows later branches")
            for cond, _ in node.branches:
                atoms = list(condition_atoms(cond))
                for a in atoms:
                    if isinstance(a, (ChoseAt, CutInAt)):
                        kind = "choose" if isinstance(a, ChoseAt) else "cut"
                        info = ancestors.get(a.node)
                        if info is None or info[0] != kind:
                            report.error(path, nid, "condition references non-ancestor"
                                         f" {kind} node {a.node}")
                for a in atoms:
                    if isinstance(a, Less):
                        for ref in (a.left, a.right):
                            if ref.kind == "cut" and ref.cut not in cuts:
                                report.error(path, nid,
                                             f"condition ref {ref} is not an ancestor cut")
            # A state may take each branch whose condition may hold, up to
            # the first that surely does.
            states_of = [[] for _ in node.branches]
            for state in states:
                for (cond, _), branch_states in zip(node.branches, states_of):
                    verdict = _eval_condition_static(cond, state[0], order)
                    if verdict is not False:
                        branch_states.append(state)
                    if verdict is True:
                        break
            kids = []
            for (cond, _), branch_states in zip(node.branches, states_of):
                if not branch_states:
                    # Dead branch for every symbolic state: still check its
                    # structure, with a pristine state.
                    branch_states = [({}, ())]
                refined = order.copy()
                _refine_with_condition(refined, cond, ancestors)
                if complete:
                    # Every surviving state may agree on where an ancestor
                    # cut landed (e.g. in a final else branch); that pins the
                    # cut's bounds just as a positive condition would.
                    for anc_nid, (kind, spans) in ancestors.items():
                        if kind != "cut" or len(spans) < 2:
                            continue
                        picks_seen = {picks.get(anc_nid) for picks, _ in branch_states}
                        if len(picks_seen) == 1:
                            j = picks_seen.pop()
                            if j is not None:
                                lo, hi = spans[j]
                                z = slots[anc_nid]
                                refined.add_le(lo, z)
                                refined.add_le(z, hi)
                kids.append((cuts, ancestors, refined, branch_states, complete))
            return kids
        if isinstance(node, GccLeaf):
            for picks, allocated in states:
                if not _covers_whole_cake(allocated, order):
                    report.warn(path, nid, "leaf may be reached with unallocated cake remaining")
                    break
        else:
            report.error(path, nid, f"unknown node type {type(node).__name__}")
        return ()

    return _walk(report, t.root, (set(), {}, PartialOrder(slots), [({}, ())], True), visit)


def _covers_whole_cake(allocated: tuple[tuple[int, int], ...], order: PartialOrder) -> bool:
    """Greedy chain check: the allocated spans provably tile origin..end."""
    remaining = list(allocated)
    cursor = 0
    eq = order.eq
    while True:
        if eq(cursor, 1):
            return True
        for i, (lo, hi) in enumerate(remaining):
            if eq(lo, cursor):
                cursor = hi
                remaining.pop(i)
                break
        else:
            return False


# ---------------------------------------------------------------------------
# Statistics


@dataclass(frozen=True)
class ProtocolStats:
    nodes: int
    cuts: int
    chooses: int
    leaves: int
    depth: int
    max_branching: int

    def to_json(self):
        return asdict(self)


def stats(p: Protocol) -> ProtocolStats:
    """Exact node counts; depth counts nodes along the longest path."""
    cuts = chooses = leaves = nodes = 0
    branching = 0
    for node in iter_nodes(p):
        nodes += 1
        if isinstance(node, (BcCut, ExtCut, GccCut)):
            cuts += 1
        elif isinstance(node, (BcChoose, ExtChoose, GccChoose)):
            chooses += 1
        elif isinstance(node, (BcLeaf, ExtLeaf, GccLeaf)):
            leaves += 1
        branching = max(branching, len(children_of(node)))

    return ProtocolStats(nodes, cuts, chooses, leaves, _height(p), branching)


def _height(p: Protocol) -> int:
    """Nodes on the longest path down from the root, walked with a stack;
    a shared DAG child is measured once."""
    if isinstance(p, BcDag):
        return fold_dag(p, lambda node, kids: 1 + max(kids, default=0))[p.root]
    height, stack = 0, [(p.root, 1)]
    while stack:
        node, depth = stack.pop()
        height = max(height, depth)
        stack.extend((child, depth + 1) for child in _children(node))
    return height


# ---------------------------------------------------------------------------
# Deterministic renumbering (preorder ids) and structural equality


def renumber(p: Protocol) -> tuple[Protocol, dict[int, int]]:
    """Rewrite node ids to preorder positions; returns (protocol, old->new).

    Raises ``DomainError`` when a ref, condition or DAG edge names a node id
    that the protocol does not hold.  A subtree object that occurs twice is
    numbered once per occurrence.  The walk keeps an explicit stack instead
    of Python frames.  A DAG keeps each node that ``_walk_ids`` reaches, in
    its preorder; its first edge to a missing id raises, and a cycle stays.
    """
    mapping: dict[int, int] = {}
    ids = mapping.__getitem__
    try:
        if isinstance(p, BcDag):
            reached, faults, _ = _walk_ids(p)
            for _, kid, fault in faults:
                if fault is _MISSING:
                    raise KeyError(kid)
            mapping.update(zip(reached, range(len(reached))))
            nodes = {new: _map_node(node, ids, map(ids, _children(node)))
                     for new, node in enumerate(map(p.nodes.__getitem__, reached))}
            return BcDag(p.agents, ids(p.root), nodes), mapping

        # Each new node is made empty by its parent, which needs it as a
        # child, and filled when the walk reaches it: its id is then its
        # preorder position, and its refs and conditions name ancestors,
        # which have theirs.
        count = 0
        root = object.__new__(type(p.root))
        todo, made = [p.root], [root]  # nodes to visit, and the nodes they become
        while todo:
            node, new = todo.pop(), made.pop()
            mapping[node.nid] = count
            count += 1
            kids = shells = _children(node)
            if kids:
                shells = tuple(map(object.__new__, map(type, kids)))
                todo += kids[::-1]
                made += shells[::-1]
            object.__setattr__(new, "__dict__", _map_fields(node, ids, shells))
        return type(p)(p.agents, root), mapping
    except KeyError as exc:
        raise DomainError(f"node {exc.args[0]} is named but not in the protocol") from None


def structurally_equal(p1: Protocol, p2: Protocol) -> bool:
    """True when the protocols are isomorphic, ignoring raw node-id values.

    Two DAGs are when ``renumber``, whose preorder ids are canonical, makes
    the same nodes of both.  Two trees are walked in one preorder that pairs
    the node ids of ``p1`` with those of ``p2``, one to one: each node of
    ``p1``, its ids mapped through the pairing and its children swapped for
    its partner's, must have its partner's fields.  What makes ``renumber``
    refuse, such as a ref naming a node not yet paired, makes them unequal.
    """
    if type(p1) is not type(p2) or p1.agents != p2.agents:
        return False
    if isinstance(p1, BcDag):
        try:
            return renumber(p1)[0].nodes == renumber(p2)[0].nodes
        except DomainError:
            return False
    pairs: dict[int, int] = {}
    paired: set[int] = set()
    ids = pairs.__getitem__
    stack = [(p1.root, p2.root)]
    try:
        while stack:
            a, b = stack.pop()
            kids_a, kids_b = _children(a), _children(b)
            if type(a) is not type(b) or len(kids_a) != len(kids_b):
                return False
            if a.nid in pairs or b.nid in paired:
                if pairs.get(a.nid) != b.nid:
                    return False
            else:
                pairs[a.nid] = b.nid
                paired.add(b.nid)
            if _map_fields(a, ids, kids_b) != b.__dict__:
                return False
            if kids_a:
                stack.extend(zip(kids_a[::-1], kids_b[::-1]))
        return True
    except KeyError:
        return False


def validate(p: Protocol, mode: GccMode = GccMode.RESTRICTED) -> ValidationReport:
    """The report of the validator for ``p``'s form; ``mode`` applies to GCC."""
    if isinstance(p, GccTree):
        return validate_gcc(p, mode)
    if isinstance(p, BcDag):
        return validate_dag(p)
    return validate_ext(p) if isinstance(p, ExtBcTree) else validate_bc(p)
