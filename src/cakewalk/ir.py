"""Typed protocol representations and their validators.

Four forms are supported:

* ``BcTree``   -- branch-choice tree: cut / choose / leaf nodes, allocation
  happens only at leaves via a piece-index -> agent map.
* ``BcDag``    -- the same BC nodes with shared children, stored as an
  id -> node map; a node's ``child``/``children`` hold node ids instead of
  nodes.  Every root-to-node path must make the same number of cuts.
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
from functools import cache
from enum import Enum
from typing import Iterable, Iterator, Union

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


# Per-node walks call ``_children`` directly: tools that wrap the public
# functions, such as the benchmark's span tracer, then see a walk as one call.
def _children(node) -> tuple:
    if isinstance(node, (BcCut, ExtCut, GccCut, GccChoose)):
        return (node.child,)
    if isinstance(node, (BcChoose, ExtChoose)):
        return node.children
    if isinstance(node, GccIfElse):
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


# ---------------------------------------------------------------------------
# BC tree and DAG validation


def _check_bc_node(report, path, node, cuts_above: int, n: int):
    """The checks of one BC node, in a tree or a DAG, with ``cuts_above``
    cuts on every path from the root to it."""
    if isinstance(node, BcCut):
        _check_agent(report, path, node.nid, node.agent, n)
        if not 1 <= node.piece <= cuts_above + 1:
            report.error(
                path, node.nid,
                f"cut into piece {node.piece} but only {cuts_above + 1} pieces exist",
            )
    elif isinstance(node, BcChoose):
        _check_agent(report, path, node.nid, node.agent, n)
        if not node.children:
            report.error(path, node.nid, "choose node with no children")
    elif isinstance(node, BcLeaf):
        if len(node.assign) != cuts_above + 1:
            report.error(
                path, node.nid,
                f"leaf assigns {len(node.assign)} pieces, expected {cuts_above + 1}",
            )
        for a in node.assign:
            _check_agent(report, path, node.nid, a, n)
    else:
        report.error(path, node.nid, f"unknown node type {type(node).__name__}")


def validate_bc(t: BcTree) -> ValidationReport:
    report = ValidationReport()
    seen: set[int] = set()

    def walk(node, path, cuts_above):
        if node.nid in seen:
            report.error(path, node.nid, "duplicate node id")
        seen.add(node.nid)
        _check_bc_node(report, path, node, cuts_above, t.agents)
        if isinstance(node, BcCut):
            walk(node.child, path + "/0", cuts_above + 1)
        elif isinstance(node, BcChoose):
            for i, child in enumerate(node.children):
                walk(child, f"{path}/{i}", cuts_above)

    walk(t.root, "root", 0)
    return report


def validate_dag(d: BcDag) -> ValidationReport:
    report = ValidationReport()
    if d.root not in d.nodes:
        report.error("root", d.root, "root id missing from node map")
        return report

    # Reachability and edge sanity.
    reached: set[int] = set()
    stack = [d.root]
    while stack:
        nid = stack.pop()
        if nid in reached:
            continue
        reached.add(nid)
        node = d.nodes[nid]
        for kid in children_of(node):
            if kid not in d.nodes:
                report.error(f"node {nid}", nid, f"edge to missing node {kid}")
            else:
                stack.append(kid)
    for nid in d.nodes:
        if nid not in reached:
            report.error(f"node {nid}", nid, "unreachable from root")
    if not report.ok:
        return report

    # Acyclicity via DFS colouring.
    WHITE, GREY, BLACK = 0, 1, 2
    colour = {nid: WHITE for nid in d.nodes}

    def dfs(nid) -> bool:
        colour[nid] = GREY
        for kid in children_of(d.nodes[nid]):
            if colour[kid] == GREY:
                report.error(f"node {nid}", nid, f"cycle through node {kid}")
                return False
            if colour[kid] == WHITE and not dfs(kid):
                return False
        colour[nid] = BLACK
        return True

    if not dfs(d.root):
        return report

    # Every root->node path must make the same number of cuts.
    depth: dict[int, int] = {d.root: 0}
    queue = [d.root]
    while queue:
        nid = queue.pop(0)
        node = d.nodes[nid]
        step = 1 if isinstance(node, BcCut) else 0
        for kid in children_of(node):
            want = depth[nid] + step
            if kid in depth:
                if depth[kid] != want:
                    report.error(
                        f"node {kid}", kid,
                        f"paths disagree on cut count ({depth[kid]} vs {want})",
                    )
            else:
                depth[kid] = want
                queue.append(kid)
    if not report.ok:
        return report

    for nid, node in d.nodes.items():
        _check_bc_node(report, f"node {nid}", node, depth[nid], d.agents)
    return report


# ---------------------------------------------------------------------------
# Static cut ordering (extended BC and GCC)


class Order(Enum):
    LE = "le"          # left <= right in every execution
    GE = "ge"          # right <= left in every execution
    EQ = "eq"          # both: the two refs coincide in every execution
    UNKNOWN = "unknown"


@dataclass
class PartialOrder:
    """Sound, conservative order over the cut refs visible at one node."""

    refs: tuple[CutRef, ...]
    le: set[tuple[CutRef, CutRef]]

    def compare(self, a: CutRef, b: CutRef) -> Order:
        fwd = a == b or (a, b) in self.le
        bwd = a == b or (b, a) in self.le
        if fwd and bwd:
            return Order.EQ
        if fwd:
            return Order.LE
        if bwd:
            return Order.GE
        return Order.UNKNOWN

    def le_or_eq(self, a: CutRef, b: CutRef) -> bool:
        return self.compare(a, b) in (Order.LE, Order.EQ)


class _OrderBuilder:
    """Incrementally closed <= relation over cut refs."""

    def __init__(self):
        self.refs: list[CutRef] = [ORIGIN, END]
        self.le: set[tuple[CutRef, CutRef]] = {(ORIGIN, END)}

    def snapshot(self) -> PartialOrder:
        return PartialOrder(tuple(self.refs), set(self.le))

    def add_ref(self, ref: CutRef):
        if ref not in self.refs:
            self.refs.append(ref)

    def add_le(self, a: CutRef, b: CutRef):
        self.add_ref(a)
        self.add_ref(b)
        if (a, b) in self.le:
            return
        self.le.add((a, b))
        # Transitive closure, incremental: x <= a <= b <= y.
        before = [x for x in self.refs if x == a or (x, a) in self.le]
        after = [y for y in self.refs if y == b or (b, y) in self.le]
        for x in before:
            for y in after:
                if x != y:
                    self.le.add((x, y))

    def bounded_cut(self, ref: CutRef, lows: Iterable[CutRef], highs: Iterable[CutRef]):
        """New cut known to satisfy low <= ref <= high for each bound."""
        self.add_ref(ref)
        for low in lows:
            self.add_le(low, ref)
        for high in highs:
            self.add_le(ref, high)


def _ext_path_to(t: ExtBcTree, target_nid: int):
    """Root-to-node path (inclusive) in preorder's first match, or None."""
    stack = [(t.root,)]
    while stack:
        path = stack.pop()
        if path[-1].nid == target_nid:
            return list(path)
        stack.extend(path + (kid,) for kid in reversed(children_of(path[-1])))
    return None


def static_cut_order(t: ExtBcTree, at_nid: int) -> PartialOrder:
    """Order of the cuts visible at node ``at_nid``.

    Derived only from the tree structure: each ancestor cut lies between its
    two bounding refs, closed transitively.  Whenever LE is reported, every
    execution satisfies it; UNKNOWN may still be ordered at run time.
    """
    path = _ext_path_to(t, at_nid)
    if path is None:
        raise DomainError(f"node {at_nid} not found")
    builder = _OrderBuilder()
    for node in path[:-1]:
        if isinstance(node, ExtCut):
            builder.bounded_cut(at(node.nid), [node.left], [node.right])
            builder.add_le(ORIGIN, at(node.nid))
            builder.add_le(at(node.nid), END)
    return builder.snapshot()


# ---------------------------------------------------------------------------
# Extended BC validation


def validate_ext(t: ExtBcTree) -> ValidationReport:
    report = ValidationReport()
    seen: set[int] = set()

    def known(ref: CutRef, cuts_above: set[int]) -> bool:
        return ref.kind != "cut" or ref.cut in cuts_above

    def walk(node, path, cuts_above: set[int], builder: _OrderBuilder):
        if node.nid in seen:
            report.error(path, node.nid, "duplicate node id")
        seen.add(node.nid)
        order = builder.snapshot()
        if isinstance(node, ExtCut):
            _check_agent(report, path, node.nid, node.agent, t.agents)
            for ref in (node.left, node.right):
                if not known(ref, cuts_above):
                    report.error(path, node.nid, f"ref {ref} is not an ancestor cut")
            if known(node.left, cuts_above) and known(node.right, cuts_above):
                if not order.le_or_eq(node.left, node.right):
                    report.error(
                        path, node.nid,
                        f"order of {node.left} and {node.right} is not derivable",
                    )
            sub = _OrderBuilder()
            sub.refs = list(builder.refs)
            sub.le = set(builder.le)
            sub.bounded_cut(at(node.nid), [node.left, ORIGIN], [node.right, END])
            walk(node.child, path + "/0", cuts_above | {node.nid}, sub)
        elif isinstance(node, ExtChoose):
            _check_agent(report, path, node.nid, node.agent, t.agents)
            if not node.children:
                report.error(path, node.nid, "choose node with no children")
            for i, child in enumerate(node.children):
                walk(child, f"{path}/{i}", cuts_above, builder)
        elif isinstance(node, ExtLeaf):
            segs = node.segments
            if not segs:
                report.error(path, node.nid, "leaf with no segments")
                return
            if segs[0].left != ORIGIN:
                report.error(path, node.nid, "first segment must start at the origin")
            if segs[-1].right != END:
                report.error(path, node.nid, "last segment must end at the cake's end")
            for k in range(len(segs) - 1):
                if segs[k].right != segs[k + 1].left:
                    report.error(
                        path, node.nid,
                        f"segments {k} and {k + 1} do not share an endpoint",
                    )
            for k, seg in enumerate(segs):
                _check_agent(report, path, node.nid, seg.agent, t.agents)
                for ref in (seg.left, seg.right):
                    if not known(ref, cuts_above):
                        report.error(path, node.nid, f"ref {ref} is not an ancestor cut")
                if known(seg.left, cuts_above) and known(seg.right, cuts_above):
                    if not order.le_or_eq(seg.left, seg.right):
                        report.error(
                            path, node.nid,
                            f"segment {k}: order of {seg.left} and {seg.right}"
                            " is not derivable",
                        )
        else:
            report.error(path, node.nid, f"unknown node type {type(node).__name__}")

    walk(t.root, "root", set(), _OrderBuilder())
    return report


# ---------------------------------------------------------------------------
# GCC validation


def _refine_with_condition(builder: "_OrderBuilder", cond: Condition, ancestors):
    """Add the order facts a taken branch's condition implies (sound only
    for conjunctive positive atoms; disjunctions and negations teach nothing
    safely and are skipped)."""
    if isinstance(cond, And):
        for part in cond.parts:
            _refine_with_condition(builder, part, ancestors)
    elif isinstance(cond, Less):
        builder.add_le(cond.left, cond.right)
    elif isinstance(cond, CutInAt):
        info = ancestors.get(cond.node)
        if info is not None and info[0] == "cut":
            node = info[1]
            if 0 <= cond.index < len(node.pieces):
                lo, hi = node.pieces[cond.index]
                builder.add_le(lo, at(cond.node))
                builder.add_le(at(cond.node), hi)


def _eval_condition_static(cond: Condition, picks: dict[int, int], order: PartialOrder):
    """Three-valued evaluation against a symbolic pick assignment."""

    def atom(a) -> Verdict:
        if isinstance(a, Less):
            if order.compare(a.left, a.right) in (Order.EQ, Order.GE):
                return False
            return None  # LE permits equality, so strictness stays unknown
        if a.node not in picks:
            return None
        return picks[a.node] == a.index

    return fold_condition(cond, atom)


_SYMBOLIC_STATE_CAP = 4096


def validate_gcc(t: GccTree, mode: GccMode = GccMode.RESTRICTED) -> ValidationReport:
    report = ValidationReport()
    seen: set[int] = set()

    def piece_ok(path, nid, piece: Piece, cuts_above, order) -> bool:
        ok = True
        for ref in piece:
            if ref.kind == "cut" and ref.cut not in cuts_above:
                report.error(path, nid, f"ref {ref} is not an ancestor cut")
                ok = False
        if ok and not order.le_or_eq(piece[0], piece[1]):
            report.error(
                path, nid, f"order of {piece[0]} and {piece[1]} is not derivable"
            )
            ok = False
        return ok

    def provably_disjoint(a: Piece, b: Piece, order) -> bool:
        return order.le_or_eq(a[1], b[0]) or order.le_or_eq(b[1], a[0])

    def check_pieces(path, node, cuts_above, order):
        pieces = node.pieces
        if not pieces:
            report.error(path, node.nid, "empty piece set")
            return
        usable = [p for p in pieces if piece_ok(path, node.nid, p, cuts_above, order)]
        for i in range(len(usable)):
            for j in range(i + 1, len(usable)):
                if not provably_disjoint(usable[i], usable[j], order):
                    report.error(
                        path, node.nid,
                        f"pieces {usable[i]} and {usable[j]} may overlap",
                    )
        if mode is GccMode.RESTRICTED:
            for piece in usable:
                for cut_nid in cuts_above:
                    z = at(cut_nid)
                    if z == piece[0] or z == piece[1]:
                        continue
                    inside_impossible = order.le_or_eq(z, piece[0]) or order.le_or_eq(
                        piece[1], z
                    )
                    if not inside_impossible:
                        report.error(
                            path, node.nid,
                            f"piece {piece} may contain earlier cut {z}"
                            " (restricted mode)",
                        )

    def check_unallocated(path, node, states, order, offered: str):
        """Report the first offered piece that may overlap an earlier allocation."""
        for _, allocated in states:
            for piece in node.pieces:
                if any(not provably_disjoint(piece, other, order) for other in allocated):
                    report.error(path, node.nid,
                                 f"{offered} piece {piece} that may already be allocated")
                    return

    # Symbolic states: (picks, allocated piece list).  Chooses fork states;
    # ``complete`` records whether the fork set was ever truncated, since
    # refining from a truncated set would be unsound.
    def walk(node, path, cuts_above: set[int], ancestors: dict[int, tuple],
             builder: _OrderBuilder, states: list[tuple[dict, tuple]],
             complete: bool = True):
        if node.nid in seen:
            report.error(path, node.nid, "duplicate node id")
        seen.add(node.nid)
        order = builder.snapshot()
        if isinstance(node, GccCut):
            _check_agent(report, path, node.nid, node.agent, t.agents)
            check_pieces(path, node, cuts_above, order)
            check_unallocated(path, node, states, order, "cut offered")
            sub = _OrderBuilder()
            sub.refs = list(builder.refs)
            sub.le = set(builder.le)
            z = at(node.nid)
            sub.add_le(ORIGIN, z)
            sub.add_le(z, END)
            if len(node.pieces) == 1:
                sub.add_le(node.pieces[0][0], z)
                sub.add_le(z, node.pieces[0][1])
            else:
                # Sound common bounds across all offered pieces.
                for ref in list(sub.refs):
                    if all(order.le_or_eq(ref, p[0]) for p in node.pieces):
                        sub.add_le(ref, z)
                    if all(order.le_or_eq(p[1], ref) for p in node.pieces):
                        sub.add_le(z, ref)
            new_states = states
            if len(node.pieces) > 1 and len(states) * len(node.pieces) <= _SYMBOLIC_STATE_CAP:
                new_states = [
                    ({**picks, node.nid: j}, allocated)
                    for picks, allocated in states
                    for j in range(len(node.pieces))
                ]
            walk(node.child, path + "/0", cuts_above | {node.nid},
                 {**ancestors, node.nid: ("cut", node)}, sub, new_states,
                 complete)
        elif isinstance(node, GccChoose):
            _check_agent(report, path, node.nid, node.agent, t.agents)
            check_pieces(path, node, cuts_above, order)
            check_unallocated(path, node, states, order, "choose offers")
            new_states = []
            truncated = False
            for picks, allocated in states:
                for j, piece in enumerate(node.pieces):
                    new_states.append(({**picks, node.nid: j}, allocated + (piece,)))
                    if len(new_states) > _SYMBOLIC_STATE_CAP:
                        break
                if len(new_states) > _SYMBOLIC_STATE_CAP:
                    report.warn(path, node.nid, "symbolic state cap hit; later"
                                " re-allocation checks are partial")
                    new_states = new_states[:_SYMBOLIC_STATE_CAP]
                    truncated = True
                    break
            walk(node.child, path + "/0", cuts_above,
                 {**ancestors, node.nid: ("choose", node)}, builder,
                 new_states, complete and not truncated)
        elif isinstance(node, GccIfElse):
            if not node.branches:
                report.error(path, node.nid, "if-else with no branches")
                return
            if not isinstance(node.branches[-1][0], Else):
                report.error(path, node.nid, "last branch must be a catch-all else")
            for k, (cond, _) in enumerate(node.branches[:-1]):
                if isinstance(cond, Else):
                    report.warn(path, node.nid, f"else in branch {k} shadows later branches")
            for cond, _ in node.branches:
                atoms = list(condition_atoms(cond))
                for a in atoms:
                    if isinstance(a, (ChoseAt, CutInAt)):
                        kind = "choose" if isinstance(a, ChoseAt) else "cut"
                        info = ancestors.get(a.node)
                        if info is None or info[0] != kind:
                            report.error(
                                path, node.nid,
                                f"condition references non-ancestor {kind} node {a.node}",
                            )
                for a in atoms:
                    if isinstance(a, Less):
                        for ref in (a.left, a.right):
                            if ref.kind == "cut" and ref.cut not in cuts_above:
                                report.error(path, node.nid,
                                             f"condition ref {ref} is not an ancestor cut")
            for k, (cond, child) in enumerate(node.branches):
                branch_states = []
                for picks, allocated in states:
                    verdict = _eval_condition_static(cond, picks, order)
                    prior_taken = any(
                        _eval_condition_static(prev, picks, order) is True
                        for prev, _ in node.branches[:k]
                    )
                    if verdict is not False and not prior_taken:
                        branch_states.append((picks, allocated))
                if not branch_states:
                    # Dead branch for every symbolic state: still check its
                    # structure, with a pristine state.
                    branch_states = [({}, ())]
                refined = _OrderBuilder()
                refined.refs = list(builder.refs)
                refined.le = set(builder.le)
                _refine_with_condition(refined, cond, ancestors)
                if complete and branch_states is not states:
                    # Every surviving state may agree on where an ancestor
                    # cut landed (e.g. in a final else branch); that pins the
                    # cut's bounds just as a positive condition would.
                    for anc_nid, info in ancestors.items():
                        if info[0] != "cut" or len(info[1].pieces) < 2:
                            continue
                        picks_seen = {picks.get(anc_nid) for picks, _ in branch_states}
                        if len(picks_seen) == 1:
                            j = picks_seen.pop()
                            if j is not None:
                                lo, hi = info[1].pieces[j]
                                refined.add_le(lo, at(anc_nid))
                                refined.add_le(at(anc_nid), hi)
                walk(child, f"{path}/{k}", cuts_above, ancestors, refined,
                     branch_states, complete)
        elif isinstance(node, GccLeaf):
            for picks, allocated in states:
                if not _covers_whole_cake(allocated, order):
                    report.warn(
                        path, node.nid,
                        "leaf may be reached with unallocated cake remaining",
                    )
                    break
        else:
            report.error(path, node.nid, f"unknown node type {type(node).__name__}")

    walk(t.root, "root", set(), {}, _OrderBuilder(), [({}, ())])
    return report


def _covers_whole_cake(allocated: tuple[Piece, ...], order: PartialOrder) -> bool:
    """Greedy chain check: allocated pieces provably tile origin..end."""
    remaining = list(allocated)
    cursor = ORIGIN
    while True:
        if cursor == END or order.compare(cursor, END) == Order.EQ:
            return True
        for i, (lo, hi) in enumerate(remaining):
            if lo == cursor or order.compare(lo, cursor) == Order.EQ:
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

    dag = isinstance(p, BcDag)

    def height(key) -> int:
        """Nodes on the longest path down from a node (in a DAG, a node id)."""
        return 1 + max(map(height, children_of(p.nodes[key] if dag else key)), default=0)

    if dag:
        height = cache(height)  # each shared child is measured once
    return ProtocolStats(nodes, cuts, chooses, leaves, height(p.root), branching)


# ---------------------------------------------------------------------------
# Deterministic renumbering (preorder ids) and structural equality


def renumber(p: Protocol) -> tuple[Protocol, dict[int, int]]:
    """Rewrite node ids to preorder positions; returns (protocol, old->new).

    Raises ``DomainError`` when a ref, condition or DAG edge names a node id
    that the protocol does not hold.  A subtree object that occurs twice is
    numbered once per occurrence.  The walk keeps an explicit stack instead
    of Python frames.
    """
    mapping: dict[int, int] = {}
    ids = mapping.__getitem__
    try:
        if isinstance(p, BcDag):
            order = []  # each stored node once, in preorder
            stack = [p.root]
            while stack:
                nid = stack.pop()
                if nid not in mapping:
                    mapping[nid] = len(order)
                    order.append(p.nodes[nid])
                    stack.extend(reversed(_children(order[-1])))
            nodes = {ids(node.nid): _map_node(node, ids, map(ids, _children(node)))
                     for node in order}
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

    One preorder walk pairs the node ids of ``p1`` with those of ``p2``, one
    to one.  Each node of ``p1``, its ids mapped through the pairing and its
    children swapped for its partner's, must have its partner's fields.  A
    shared DAG child is compared when first reached; later, only its pairing.
    A ref or condition naming a node not yet paired makes them unequal, as it
    makes ``renumber`` refuse.
    """
    if type(p1) is not type(p2) or p1.agents != p2.agents:
        return False
    dag = isinstance(p1, BcDag)
    pairs: dict[int, int] = {}
    paired: set[int] = set()
    ids = pairs.__getitem__
    stack = [(p1.root, p2.root)]
    try:
        while stack:
            a, b = stack.pop()
            if dag:
                if a in pairs or b in paired:
                    if pairs.get(a) != b:
                        return False
                    continue
                a, b = p1.nodes[a], p2.nodes[b]
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
