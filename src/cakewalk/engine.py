"""Deterministic interpreter for every protocol form.

Every protocol is walked by one loop, ``walk``: it applies if-else steps
itself, stops at the leaf and asks a ``decide`` callback for the event at
each other node.  ``run`` decides by querying one strategy per agent for cut
positions and branch/piece choices, and returns a ``Trace`` plus the final
exact ``Allocation``; ``replay`` and ``transform.retarget_trace`` decide by
following a recorded trace (``follow``).

The rules of the game are written once, as private functions over any
ordered positions from an ``origin`` to an ``end``: ref resolution, the
BC/extended cut interval, the pieces a GCC cut or choose offers, the pieces
between sorted cuts, the if-else branch through one condition evaluator
(``_holds``, folded by ``ir.fold_condition``), and each agent's pieces at a
leaf, each with the ``ExecutionError`` it raises.  The interpreter plays
them on ``Fraction``s from 0 to 1 through the public small steps
(``step_*``, ``ExecState``); the guarantee oracle plays them on grid
indices, and ``transform.gcc_to_bc`` reads conditions on the places of a
forced cut order.

The cut positions in left-to-right order live on ``ExecState.order``:
``step_cut`` inserts each new position by bisection, so the partition a
decision or a BC leaf reads is one pass over that tuple, never a sort of
every cut made so far.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

from .errors import DomainError, ExecutionError, TraceMismatchError
from .ir import (
    BcChoose, BcCut, BcDag, BcLeaf, Condition, CutRef, ExtChoose, ExtCut,
    ExtLeaf, GccChoose, GccCut, GccIfElse, GccLeaf, Less, Protocol, fold_condition,
)
from .valuation import Allocation, Interval, ONE, Valuation, ZERO, format_frac, frac

# ---------------------------------------------------------------------------
# Trace events


@dataclass(frozen=True)
class CutMade:
    node: int
    agent: int
    position: Fraction
    piece: Optional[int] = None  # index within the offered piece set (GCC only)


@dataclass(frozen=True)
class BranchChosen:
    node: int
    agent: int
    index: int


@dataclass(frozen=True)
class PieceChosen:
    node: int
    agent: int
    index: int


Event = Union[CutMade, BranchChosen, PieceChosen]


@dataclass(frozen=True)
class Trace:
    events: tuple[Event, ...]
    cuts: tuple[Fraction, ...]  # cut positions in creation order

    def to_json(self) -> dict:
        out = []
        for ev in self.events:
            if isinstance(ev, CutMade):
                item = {"type": "cut", "node": ev.node, "agent": ev.agent,
                        "position": format_frac(ev.position)}
                if ev.piece is not None:
                    item["piece"] = ev.piece
            elif isinstance(ev, BranchChosen):
                item = {"type": "branch", "node": ev.node, "agent": ev.agent,
                        "index": ev.index}
            else:
                item = {"type": "piece", "node": ev.node, "agent": ev.agent,
                        "index": ev.index}
            out.append(item)
        return {"events": out, "cuts": [format_frac(x) for x in self.cuts]}

    @staticmethod
    def from_json(obj: dict) -> "Trace":
        if not isinstance(obj, dict):
            raise DomainError(f"a trace must be a JSON object, not {type(obj).__name__}")
        items, cuts = obj.get("events", []), obj.get("cuts", [])
        for name, value in (("events", items), ("cuts", cuts)):
            if not isinstance(value, list):
                raise DomainError(f"trace {name!r} must be a list, not {type(value).__name__}")
        events: list[Event] = []
        for i, item in enumerate(items):
            if not isinstance(item, dict):
                raise DomainError(f"trace event {i} must be a JSON object")
            kind = item.get("type")
            try:
                if kind == "cut":
                    events.append(CutMade(item["node"], item["agent"],
                                          frac(item["position"]), item.get("piece")))
                elif kind == "branch":
                    events.append(BranchChosen(item["node"], item["agent"], item["index"]))
                elif kind == "piece":
                    events.append(PieceChosen(item["node"], item["agent"], item["index"]))
                else:
                    raise DomainError(f"unknown trace event type {kind!r}")
            except KeyError as exc:
                raise DomainError(f"trace event {i} ({kind}) has no {exc.args[0]!r}") from None
            except (ValueError, ZeroDivisionError):
                raise DomainError(f"trace event {i} ({kind}) has position"
                                  f" {item['position']!r}, not a rational") from None
            for name in ("node", "agent", "index", "piece"):
                # a cut has no index, a choice no piece, and a cut's piece may
                # be absent; a bool is refused too, as JSON true is no index
                value = getattr(events[-1], name, 0)
                if type(value) is not int and not (name == "piece" and value is None):
                    raise DomainError(f"trace event {i} ({kind}) has {name}"
                                      f" {value!r}, not an integer")
        positions = []
        for j, x in enumerate(cuts):
            try:
                positions.append(frac(x))
            except (ValueError, ZeroDivisionError):
                raise DomainError(f"trace cuts entry {j} is {x!r}, not a rational") from None
        return Trace(tuple(events), tuple(positions))


# ---------------------------------------------------------------------------
# Strategies


@dataclass(frozen=True)
class DecisionContext:
    """Everything a strategy may look at when asked for one decision.

    ``kind`` is "cut" (return a position), "branch" (return a child index),
    "gcc-cut" (return ``(piece_index, position)``) or "gcc-choose" (return a
    piece index).  Strategies must be pure and deterministic.
    """

    node: object
    agent: int
    kind: str
    valuation: Valuation
    events: tuple[Event, ...]
    pieces: tuple[Interval, ...] = ()
    branches: int = 0
    partition: tuple[Interval, ...] = ()  # read off ``ExecState.order`` in ``run``
    cut_positions: dict[int, Fraction] = field(default_factory=dict)


Strategy = Callable[[DecisionContext], object]

# ---------------------------------------------------------------------------
# The rules of the game, over any ordered positions
#
# Positions come from an ordered domain running from ``origin`` to ``end``:
# ``Fraction``s from 0 to 1 here, grid indices from 0 to the last in the
# guarantee oracle (the grid is strictly increasing, so indices order as the
# positions do).  ``cuts`` are (cut node id, position) pairs in creation
# order, ``order`` their positions sorted, ``picks`` (node id, piece index)
# pairs and ``allocated`` (agent, (lo, hi)) pairs.  These functions stay
# private so that the oracle's calls to them are not traced as engine calls.


def _insert(order: tuple, z) -> tuple:
    """``order`` with ``z`` inserted in sorted place."""
    k = bisect_right(order, z)
    return order[:k] + (z,) + order[k:]


def _pieces(order: Sequence, origin, end) -> tuple:
    """Left-to-right pieces between sorted cut positions."""
    bounds = (origin, *order, end)
    return tuple(zip(bounds, bounds[1:]))


def _at(ref: CutRef, positions: dict, origin, end):
    kind = ref.kind
    if kind == "origin":
        return origin
    if kind == "end":
        return end
    try:
        return positions[ref.cut]
    except KeyError:
        raise ExecutionError(f"ref to cut {ref.cut} that was never made")


def _span(left: CutRef, right: CutRef, positions: dict, origin, end,
          what: str, nid: int) -> tuple:
    """The positions of two refs; if the left one lies right of the right
    one, ``what`` (a cut interval or a segment) is inverted at node ``nid``."""
    lo, hi = _at(left, positions, origin, end), _at(right, positions, origin, end)
    if lo > hi:
        raise ExecutionError(f"{what} inverted at run time", node=nid)
    return lo, hi


def _cut_interval(node, cuts, order, origin, end) -> tuple:
    """The interval a BC, DAG or extended cut must fall in."""
    if isinstance(node, BcCut):
        parts = _pieces(order, origin, end)
        if not 0 < node.piece <= len(parts):
            raise ExecutionError(f"cut piece {node.piece} out of range 1..{len(parts)}",
                                 node=node.nid, agent=node.agent)
        return parts[node.piece - 1]
    if isinstance(node, ExtCut):
        return _span(node.left, node.right, dict(cuts), origin, end,
                     "cut interval", node.nid)
    raise DomainError("current node is not a cut")


def _spans(node, cuts, origin, end) -> list:
    """The pieces a GCC cut or choose offers; an inverted one raises at a cut
    (at a choose, the leaf's partition check catches it)."""
    positions = dict(cuts)
    at_cut = isinstance(node, GccCut)
    spans = []
    for left, right in node.pieces:
        lo, hi = _at(left, positions, origin, end), _at(right, positions, origin, end)
        if at_cut and lo > hi:
            raise ExecutionError("piece inverted at run time", node=node.nid)
        spans.append((lo, hi))
    return spans


def _holds(cond: Condition, positions: dict, picks: dict, origin, end) -> bool:
    """Run-time condition semantics: ``Less`` compares positions strictly;
    ``ChoseAt`` and ``CutInAt`` read the piece index picked at their node."""

    def atom(a) -> bool:
        if isinstance(a, Less):
            return (_at(a.left, positions, origin, end)
                    < _at(a.right, positions, origin, end))
        if a.node not in picks:
            raise ExecutionError(f"condition references undecided node {a.node}")
        return picks[a.node] == a.index

    return fold_condition(cond, atom)


def _branch(node: GccIfElse, cuts, picks, origin, end):
    """The child of the first if-else branch whose condition holds."""
    positions, chosen = dict(cuts), dict(picks)
    for cond, child in node.branches:
        if _holds(cond, positions, chosen, origin, end):
            return child
    raise ExecutionError("no if-else branch matched", node=node.nid)


def _leaf_pieces(node, agents: int, cuts, order, allocated, origin, end) -> list[list]:
    """Each agent's pieces at a leaf, a GCC leaf's sorted.  A BC leaf's come
    from the sorted cuts, so they always partition the cake; the caller
    checks that an extended or GCC leaf's do."""
    if isinstance(node, BcLeaf):
        parts = _pieces(order, origin, end)
        if len(parts) != len(node.assign):
            raise ExecutionError(
                f"leaf expects {len(node.assign)} pieces, partition has {len(parts)}",
                node=node.nid,
            )
        held = zip(node.assign, parts)
    elif isinstance(node, ExtLeaf):
        positions = dict(cuts)
        # lazy, so that each segment is checked whole before the next
        held = ((seg.agent, _span(seg.left, seg.right, positions, origin, end,
                                  "segment", node.nid))
                for seg in node.segments)
    elif isinstance(node, GccLeaf):
        held = allocated
    else:
        raise DomainError("current node is not a leaf")
    pieces: list[list] = [[] for _ in range(agents)]
    for agent, piece in held:
        if not 0 < agent <= agents:  # validation rejects this; code-built trees may not
            raise ExecutionError(f"leaf gives a piece to agent {agent},"
                                 f" outside 1..{agents}", node=node.nid)
        pieces[agent - 1].append(piece)
    if isinstance(node, GccLeaf):
        for row in pieces:
            row.sort()
    return pieces


# ---------------------------------------------------------------------------
# Execution state and small steps


@dataclass(frozen=True)
class ExecState:
    node: object  # current node object; for a DAG, the node id
    cuts: tuple[tuple[int, Fraction], ...] = ()  # (cut node id, position), creation order
    picks: tuple[tuple[int, int], ...] = ()      # (node id, piece index), GCC only
    allocated: tuple[tuple[int, Interval], ...] = ()  # (agent, interval), GCC only
    # The positions of ``cuts``, sorted: always tuple(sorted(pos for _, pos in cuts)).
    order: tuple[Fraction, ...] = ()


def _node_of(p: Protocol, state: ExecState):
    return p.nodes[state.node] if isinstance(p, BcDag) else state.node


def partition_of(cuts: Sequence[tuple[int, Fraction]]) -> tuple[Interval, ...]:
    """Left-to-right pieces of (cut node id, position) pairs.  Coincident cuts
    bound an empty piece whichever comes first, so only positions are sorted."""
    return _pieces(sorted(pos for _, pos in cuts), ZERO, ONE)


def resolve_ref(ref: CutRef, positions: dict[int, Fraction]) -> Fraction:
    return _at(ref, positions, ZERO, ONE)


def cut_positions_of(state: ExecState) -> dict[int, Fraction]:
    return dict(state.cuts)


_KINDS = {BcCut: "cut", ExtCut: "cut", GccCut: "cut", BcChoose: "choose",
          ExtChoose: "choose", GccChoose: "gcc-choose", GccIfElse: "ifelse"}


def current_kind(p: Protocol, state: ExecState) -> str:
    return _KINDS.get(type(_node_of(p, state)), "leaf")


def cut_intervals(p: Protocol, state: ExecState) -> tuple[Interval, ...]:
    """Candidate intervals for the cut at the current node."""
    node = _node_of(p, state)
    if isinstance(node, GccCut):
        return tuple(_spans(node, state.cuts, ZERO, ONE))
    return (_cut_interval(node, state.cuts, state.order, ZERO, ONE),)


def choose_pieces(p: Protocol, state: ExecState) -> tuple[Interval, ...]:
    node = _node_of(p, state)
    assert isinstance(node, GccChoose)
    return tuple(_spans(node, state.cuts, ZERO, ONE))


def step_cut(p: Protocol, state: ExecState, piece_index: int, z: Fraction) -> ExecState:
    node = _node_of(p, state)
    intervals = cut_intervals(p, state)
    if not 0 <= piece_index < len(intervals):
        raise ExecutionError(f"piece index {piece_index} out of range",
                             node=node.nid, agent=node.agent)
    lo, hi = intervals[piece_index]
    if not lo <= z <= hi:
        raise ExecutionError(
            f"cut at {z} outside mandated interval [{lo}, {hi}]",
            node=node.nid, agent=node.agent,
        )
    cuts = state.cuts + ((node.nid, z),)
    picks = state.picks
    if isinstance(node, GccCut):
        picks = picks + ((node.nid, piece_index),)
    return ExecState(node.child, cuts, picks, state.allocated, _insert(state.order, z))


def step_choose(p: Protocol, state: ExecState, index: int) -> ExecState:
    node = _node_of(p, state)
    if isinstance(node, (BcChoose, ExtChoose)):
        if not 0 <= index < len(node.children):
            raise ExecutionError(f"branch index {index} out of range",
                                 node=node.nid, agent=node.agent)
        return ExecState(node.children[index], state.cuts, state.picks, state.allocated,
                         state.order)
    if isinstance(node, GccChoose):
        pieces = choose_pieces(p, state)
        if not 0 <= index < len(pieces):
            raise ExecutionError(f"piece index {index} out of range",
                                 node=node.nid, agent=node.agent)
        allocated = state.allocated + ((node.agent, pieces[index]),)
        picks = state.picks + ((node.nid, index),)
        return ExecState(node.child, state.cuts, picks, allocated, state.order)
    raise DomainError("current node is not a choose")


def step_ifelse(p: Protocol, state: ExecState) -> ExecState:
    node = _node_of(p, state)
    assert isinstance(node, GccIfElse)
    return ExecState(_branch(node, state.cuts, state.picks, ZERO, ONE),
                     state.cuts, state.picks, state.allocated, state.order)


def leaf_allocation(p: Protocol, state: ExecState) -> Allocation:
    node = _node_of(p, state)
    pieces = _leaf_pieces(node, p.agents, state.cuts, state.order, state.allocated,
                          ZERO, ONE)
    try:
        return Allocation(tuple(tuple(row) for row in pieces))
    except DomainError as exc:
        raise ExecutionError(f"allocation invalid at leaf: {exc}", node=node.nid)


def initial_state(p: Protocol) -> ExecState:
    return ExecState(p.root)


# ---------------------------------------------------------------------------
# Full runs


def walk(p: Protocol, decide: Callable[[ExecState, object, str, list], Event]
         ) -> tuple[list[Event], ExecState]:
    """Drive ``p`` from its root to a leaf; returns the events and the leaf state.

    If-else nodes are stepped here.  At every other node
    ``decide(state, node, kind, events)`` returns the event to apply there:
    a ``CutMade`` at a cut, a ``BranchChosen`` or ``PieceChosen`` at a choose.
    """
    state = initial_state(p)
    events: list[Event] = []
    while True:
        kind = current_kind(p, state)
        if kind == "leaf":
            return events, state
        if kind == "ifelse":
            state = step_ifelse(p, state)
            continue
        ev = decide(state, _node_of(p, state), kind, events)
        if kind == "cut":
            state = step_cut(p, state, ev.piece or 0, ev.position)
        else:
            state = step_choose(p, state, ev.index)
        events.append(ev)


def _cut_list(state: ExecState) -> tuple[Fraction, ...]:
    return tuple(pos for _, pos in state.cuts)


def run(p: Protocol, strategies: Sequence[Strategy],
        vals: Sequence[Valuation]) -> tuple[Trace, Allocation]:
    """Execute ``p``; each decision is delegated to the acting agent's strategy."""
    if len(strategies) != p.agents or len(vals) != p.agents:
        raise DomainError(
            f"protocol has {p.agents} agents; got {len(strategies)} strategies"
            f" and {len(vals)} valuations"
        )

    def ask(state, node, kind, events, **extra):
        return strategies[node.agent - 1](DecisionContext(
            node=node,
            agent=node.agent,
            kind=kind,
            valuation=vals[node.agent - 1],
            events=tuple(events),
            partition=_pieces(state.order, ZERO, ONE),
            cut_positions=cut_positions_of(state),
            **extra,
        ))

    def decide(state, node, kind, events) -> Event:
        if kind == "cut":
            intervals = cut_intervals(p, state)
            if isinstance(node, GccCut):
                answer = ask(state, node, "gcc-cut", events, pieces=intervals)
                try:
                    piece_index, z = answer
                    if not isinstance(piece_index, int):
                        raise TypeError
                except (TypeError, ValueError):
                    raise ExecutionError(
                        f"gcc-cut strategy must return (piece_index, position), got {answer!r}",
                        node=node.nid, agent=node.agent,
                    )
                return CutMade(node.nid, node.agent, frac(z), piece_index)
            z = frac(ask(state, node, "cut", events, pieces=intervals))
            return CutMade(node.nid, node.agent, z)
        if kind == "choose":
            index = ask(state, node, "branch", events, branches=len(node.children))
            if not isinstance(index, int):
                raise ExecutionError(f"branch strategy must return an int, got {index!r}",
                                     node=node.nid, agent=node.agent)
            return BranchChosen(node.nid, node.agent, index)
        pieces = choose_pieces(p, state)
        if len(pieces) == 1:
            index = 0  # no actual choice; do not query the strategy
        else:
            index = ask(state, node, "gcc-choose", events, pieces=pieces)
            if not isinstance(index, int):
                raise ExecutionError(
                    f"piece strategy must return an int, got {index!r}",
                    node=node.nid, agent=node.agent,
                )
        return PieceChosen(node.nid, node.agent, index)

    events, state = walk(p, decide)
    return Trace(tuple(events), _cut_list(state)), leaf_allocation(p, state)


def allocation_values(alloc: Allocation, vals: Sequence[Valuation]):
    """Matrix entry (i, j) = V_i(X_j); every row sums to exactly 1."""
    if len(vals) != alloc.agents:
        raise DomainError(
            f"allocation has {alloc.agents} agents but {len(vals)} valuations given"
        )
    return tuple(
        tuple(v.value_of(alloc.pieces[j]) for j in range(alloc.agents)) for v in vals
    )


_EVENT_AT = {"cut": (CutMade, "cut"), "choose": (BranchChosen, "branch"),
             "gcc-choose": (PieceChosen, "piece")}


def follow(p: Protocol, events: Sequence[Event],
           source_id: Callable[[int], Optional[int]]) -> tuple[Trace, ExecState]:
    """Walk ``p`` along recorded events, one per decision node.

    ``source_id`` maps a node id of ``p`` to the node id the matching event
    must carry.  Returns the trace of the walk, in ``p``'s node ids, and the
    leaf state; events left over after the leaf are not consumed.
    """
    queue = iter(events)

    def decide(state, node, kind, _events) -> Event:
        ev = next(queue, None)
        if ev is None:
            raise TraceMismatchError(f"trace ended before node {node.nid}")
        if ev.node != source_id(node.nid) or ev.agent != node.agent:
            raise TraceMismatchError(
                f"event {ev} does not match node {node.nid} (agent {node.agent})"
            )
        event_type, name = _EVENT_AT[kind]
        if not isinstance(ev, event_type):
            raise TraceMismatchError(f"expected a {name} event at node {node.nid}")
        return ev if ev.node == node.nid else replace(ev, node=node.nid)

    done, state = walk(p, decide)
    return Trace(tuple(done), _cut_list(state)), state


def replay(p: Protocol, trace: Trace) -> Allocation:
    """Re-derive the allocation from a recorded trace, verifying every event."""
    done, state = follow(p, trace.events, lambda nid: nid)
    if len(done.events) < len(trace.events):
        raise TraceMismatchError(
            f"{len(trace.events) - len(done.events)} trailing trace events")
    if trace.cuts and trace.cuts != done.cuts:
        raise TraceMismatchError("recorded cut list disagrees with replay")
    return leaf_allocation(p, state)
