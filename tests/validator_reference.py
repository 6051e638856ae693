"""The static cut order and the extended and GCC validators as they were
when the order was keyed by ``CutRef``, kept as the reference the current
ones are compared against (``tests/test_order_reference.py``).

``PartialOrder`` numbers each order's refs in a ``CutRef``-keyed dict and
keeps one int bit row per ref; the validators compare and hash ``CutRef``s
in their inner loops.  That code is kept as it was; the ``Order`` enum and
``_ext_path_to``, which it once imported from ``cakewalk.ir``, are defined
here now.

``slot_cut_order`` builds the program's own order at a node, an
``ir.PartialOrder`` over one walk's ``ir._Slots`` bound by ``bound_cut``,
and ``SlotOrder`` reads any such order by ``CutRef``, so the tests compare
it with the reference ref by ref.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, Optional

from cakewalk import ir
from cakewalk.ir import (
    And, ChoseAt, Condition, CutInAt, CutRef, END, Else, ExtBcTree, ExtChoose,
    ExtCut, ExtLeaf, GccChoose, GccCut, GccIfElse, GccLeaf, GccMode, GccTree, Less,
    ORIGIN, Piece, ValidationReport, Verdict, at, children_of, condition_atoms,
    fold_condition, _check_agent, _walk,
)
from cakewalk.errors import DomainError


def _check_span(report, path, nid, lo: CutRef, hi: CutRef, cuts: set[int],
                order: PartialOrder, prefix: str = "") -> bool:
    """Whether lo..hi is a span at a node below ``cuts``: each ref names an
    ancestor cut or an end of the cake, and lo <= hi is derivable.  Reports
    each way it is not."""
    ok = True
    for ref in (lo, hi):
        if ref.kind == "cut" and ref.cut not in cuts:
            report.error(path, nid, f"ref {ref} is not an ancestor cut")
            ok = False
    if ok and not order.le_or_eq(lo, hi):
        report.error(path, nid, f"{prefix}order of {lo} and {hi} is not derivable")
        ok = False
    return ok


class Order(Enum):
    LE = "le"          # left <= right in every execution
    GE = "ge"          # right <= left in every execution
    EQ = "eq"          # both: the two refs coincide in every execution
    UNKNOWN = "unknown"


# (i <= j, j <= i) -> how refs i and j compare.
_ORDERS = {(1, 1): Order.EQ, (1, 0): Order.LE, (0, 1): Order.GE, (0, 0): Order.UNKNOWN}


class PartialOrder:
    """Sound, conservative order over the cut refs visible at one node.

    ``index`` numbers the refs in the order they were first named, and bit j
    of ``up[i]`` says that ref i <= ref j.
    """

    __slots__ = ("index", "up")

    def __init__(self, index: dict[CutRef, int], up: list[int]):
        self.index = index
        self.up = up

    @property
    def refs(self) -> tuple[CutRef, ...]:
        return tuple(self.index)

    def compare(self, a: CutRef, b: CutRef) -> Order:
        if a == b:
            return Order.EQ
        i, j = self.index.get(a), self.index.get(b)
        if i is None or j is None:
            return Order.UNKNOWN
        return _ORDERS[self.up[i] >> j & 1, self.up[j] >> i & 1]

    def le_or_eq(self, a: CutRef, b: CutRef) -> bool:
        return self.compare(a, b) in (Order.LE, Order.EQ)


class _OrderBuilder(PartialOrder):
    """Incrementally closed <= relation over cut refs; a copy of ``parent``."""

    __slots__ = ()

    def __init__(self, parent: Optional[PartialOrder] = None):
        if parent is None:
            super().__init__({ORIGIN: 0, END: 1}, [0b10, 0])
        else:
            super().__init__(dict(parent.index), list(parent.up))

    def snapshot(self) -> PartialOrder:
        """The order so far, sharing this builder's rows: change it no more."""
        return PartialOrder(self.index, self.up)

    def add_ref(self, ref: CutRef) -> int:
        i = self.index.get(ref)
        if i is None:
            i = self.index[ref] = len(self.up)
            self.up.append(0)
        return i

    def add_le(self, a: CutRef, b: CutRef):
        i, j = self.add_ref(a), self.add_ref(b)
        if self.up[i] >> j & 1:
            return
        # Transitive closure, incremental: x <= a <= b <= y.
        after, bit = self.up[j] | 1 << j, 1 << i
        for k, row in enumerate(self.up):
            if k == i or row & bit:
                self.up[k] = row | after

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


class SlotOrder:
    """An ``ir.PartialOrder`` read by ``CutRef``: the refs it names, in the
    order first named, compared through its own slot ``le``."""

    def __init__(self, order: ir.PartialOrder):
        self.order = order

    @property
    def refs(self) -> tuple[CutRef, ...]:
        named = {slot: at(nid) for nid, slot in self.order.slots.items()}
        named[0], named[1] = ORIGIN, END
        return tuple(named[i] for i in self.order.up)

    def _slot(self, ref: CutRef) -> Optional[int]:
        kind = ref.kind
        i = self.order.slots.get(ref.cut) if kind == "cut" else int(kind != "origin")
        return i if i in self.order.up else None

    def compare(self, a: CutRef, b: CutRef) -> Order:
        if a == b:
            return Order.EQ
        i, j = self._slot(a), self._slot(b)
        if i is None or j is None:
            return Order.UNKNOWN
        return _ORDERS[self.order.le(i, j), self.order.le(j, i)]

    def le_or_eq(self, a: CutRef, b: CutRef) -> bool:
        return self.compare(a, b) in (Order.LE, Order.EQ)


def slot_cut_order(t: ExtBcTree, at_nid: int) -> SlotOrder:
    """The program's order of the cuts visible at node ``at_nid``: one
    ``ir._Slots`` numbering, and ``bound_cut`` for each ancestor cut."""
    path = _ext_path_to(t, at_nid)
    if path is None:
        raise DomainError(f"node {at_nid} not found")
    slots = ir._Slots()
    order = ir.PartialOrder(slots)
    for node in path[:-1]:
        if isinstance(node, ExtCut):
            order.bound_cut(slots[node.nid], slots(node.left), slots(node.right))
    return SlotOrder(order)


# ---------------------------------------------------------------------------
# Extended BC validation


def validate_ext(t: ExtBcTree) -> ValidationReport:
    report = ValidationReport()

    # A node's context: the ids of the cuts above it and their order.
    def visit(node, path, ctx):
        cuts, builder = ctx
        nid = node.nid
        if isinstance(node, ExtCut):
            _check_agent(report, path, nid, node.agent, t.agents)
            _check_span(report, path, nid, node.left, node.right, cuts, builder.snapshot())
            sub = _OrderBuilder(builder)
            sub.bounded_cut(at(nid), [node.left, ORIGIN], [node.right, END])
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
            if segs[0].left != ORIGIN:
                report.error(path, nid, "first segment must start at the origin")
            if segs[-1].right != END:
                report.error(path, nid, "last segment must end at the cake's end")
            for k in range(len(segs) - 1):
                if segs[k].right != segs[k + 1].left:
                    report.error(path, nid,
                                 f"segments {k} and {k + 1} do not share an endpoint")
            order = builder.snapshot()
            for k, seg in enumerate(segs):
                _check_agent(report, path, nid, seg.agent, t.agents)
                _check_span(report, path, nid, seg.left, seg.right, cuts, order,
                            f"segment {k}: ")
        else:
            report.error(path, nid, f"unknown node type {type(node).__name__}")
        return ()

    return _walk(report, t.root, (set(), _OrderBuilder()), visit)


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

    def provably_disjoint(a: Piece, b: Piece, order) -> bool:
        return order.le_or_eq(a[1], b[0]) or order.le_or_eq(b[1], a[0])

    def check_pieces(path, node, cuts, order):
        pieces = node.pieces
        if not pieces:
            report.error(path, node.nid, "empty piece set")
            return
        usable = [p for p in pieces
                  if _check_span(report, path, node.nid, p[0], p[1], cuts, order)]
        for i in range(len(usable)):
            for j in range(i + 1, len(usable)):
                if not provably_disjoint(usable[i], usable[j], order):
                    report.error(path, node.nid, f"pieces {usable[i]} and {usable[j]} may overlap")
        if mode is GccMode.RESTRICTED:
            for piece in usable:
                for cut_nid in cuts:
                    z = at(cut_nid)
                    if z == piece[0] or z == piece[1]:
                        continue
                    if not (order.le_or_eq(z, piece[0]) or order.le_or_eq(piece[1], z)):
                        report.error(path, node.nid, f"piece {piece} may contain earlier"
                                     f" cut {z} (restricted mode)")

    def check_unallocated(path, node, states, order, offered: str):
        """Report the first offered piece that may overlap an earlier allocation."""
        for _, allocated in states:
            for piece in node.pieces:
                if any(not provably_disjoint(piece, other, order) for other in allocated):
                    report.error(path, node.nid,
                                 f"{offered} piece {piece} that may already be allocated")
                    return

    # A node's context: the ids of the cuts above it, its ancestors by id,
    # the order of its cuts, and its symbolic states (picks, allocated piece
    # list).  Chooses fork states; ``complete`` records whether the fork set
    # was ever truncated, since refining from a truncated set would be unsound.
    def visit(node, path, ctx):
        cuts, ancestors, builder, states, complete = ctx
        nid = node.nid
        order = builder.snapshot()
        if isinstance(node, GccCut):
            _check_agent(report, path, nid, node.agent, t.agents)
            check_pieces(path, node, cuts, order)
            check_unallocated(path, node, states, order, "cut offered")
            sub = _OrderBuilder(builder)
            z = at(nid)
            sub.add_le(ORIGIN, z)
            sub.add_le(z, END)
            if len(node.pieces) == 1:
                sub.add_le(node.pieces[0][0], z)
                sub.add_le(z, node.pieces[0][1])
            else:
                # Sound common bounds across all offered pieces.
                for ref in list(sub.index):
                    if all(order.le_or_eq(ref, p[0]) for p in node.pieces):
                        sub.add_le(ref, z)
                    if all(order.le_or_eq(p[1], ref) for p in node.pieces):
                        sub.add_le(z, ref)
            new_states = states
            if len(node.pieces) > 1 and len(states) * len(node.pieces) <= _SYMBOLIC_STATE_CAP:
                new_states = [
                    ({**picks, nid: j}, allocated)
                    for picks, allocated in states
                    for j in range(len(node.pieces))
                ]
            return ((cuts | {nid}, {**ancestors, nid: ("cut", node)}, sub, new_states,
                     complete),)
        if isinstance(node, GccChoose):
            _check_agent(report, path, nid, node.agent, t.agents)
            check_pieces(path, node, cuts, order)
            check_unallocated(path, node, states, order, "choose offers")
            new_states = []
            truncated = False
            for picks, allocated in states:
                for j, piece in enumerate(node.pieces):
                    new_states.append(({**picks, nid: j}, allocated + (piece,)))
                    if len(new_states) > _SYMBOLIC_STATE_CAP:
                        break
                if len(new_states) > _SYMBOLIC_STATE_CAP:
                    report.warn(path, nid, "symbolic state cap hit; later"
                                " re-allocation checks are partial")
                    new_states = new_states[:_SYMBOLIC_STATE_CAP]
                    truncated = True
                    break
            return ((cuts, {**ancestors, nid: ("choose", node)}, builder, new_states,
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
            kids = []
            for k, (cond, _) in enumerate(node.branches):
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
                refined = _OrderBuilder(builder)
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

    return _walk(report, t.root, (set(), {}, _OrderBuilder(), [({}, ())], True), visit)


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


