"""Deterministic interpreter for every protocol form.

Every protocol is walked by one loop, ``walk``: it applies if-else steps
itself, stops at the leaf and asks a ``decide`` callback for the event at
each other node.  ``run`` decides by querying one strategy per agent for cut
positions and branch/piece choices, and returns a ``Trace`` plus the final
exact ``Allocation``; ``replay`` and ``transform.retarget_trace`` decide by
following a recorded trace (``follow``).  Conditions are read through
``ir.fold_condition``.  The guarantee oracle plays the same rules on grid
indices instead of stepping ``ExecState``s; the small-step helpers here
(``step_*``, ``ExecState``) are the reference its tests compare it with.
"""

from __future__ import annotations

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
        events: list[Event] = []
        for item in obj.get("events", []):
            kind = item.get("type")
            if kind == "cut":
                events.append(CutMade(item["node"], item["agent"],
                                      frac(item["position"]), item.get("piece")))
            elif kind == "branch":
                events.append(BranchChosen(item["node"], item["agent"], item["index"]))
            elif kind == "piece":
                events.append(PieceChosen(item["node"], item["agent"], item["index"]))
            else:
                raise DomainError(f"unknown trace event type {kind!r}")
        return Trace(tuple(events), tuple(frac(x) for x in obj.get("cuts", [])))


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
    partition: tuple[Interval, ...] = ()
    cut_positions: dict[int, Fraction] = field(default_factory=dict)


Strategy = Callable[[DecisionContext], object]

# ---------------------------------------------------------------------------
# Execution state and small steps (shared with the oracle)


@dataclass(frozen=True)
class ExecState:
    node: object  # current node object; for a DAG, the node id
    cuts: tuple[tuple[int, Fraction], ...] = ()  # (cut node id, position), creation order
    picks: tuple[tuple[int, int], ...] = ()      # (node id, piece index), GCC only
    allocated: tuple[tuple[int, Interval], ...] = ()  # (agent, interval), GCC only


def _node_of(p: Protocol, state: ExecState):
    return p.nodes[state.node] if isinstance(p, BcDag) else state.node


def partition_of(cuts: Sequence[tuple[int, Fraction]]) -> tuple[Interval, ...]:
    """Left-to-right pieces; coincident cuts keep creation order (earlier left)."""
    ordered = sorted(range(len(cuts)), key=lambda i: (cuts[i][1], i))
    bounds = [ZERO] + [cuts[i][1] for i in ordered] + [ONE]
    return tuple((bounds[k], bounds[k + 1]) for k in range(len(bounds) - 1))


def resolve_ref(ref: CutRef, positions: dict[int, Fraction]) -> Fraction:
    if ref.kind == "origin":
        return ZERO
    if ref.kind == "end":
        return ONE
    try:
        return positions[ref.cut]
    except KeyError:
        raise ExecutionError(f"ref to cut {ref.cut} that was never made")


def cut_positions_of(state: ExecState) -> dict[int, Fraction]:
    return {nid: pos for nid, pos in state.cuts}


_KINDS = {BcCut: "cut", ExtCut: "cut", GccCut: "cut", BcChoose: "choose",
          ExtChoose: "choose", GccChoose: "gcc-choose", GccIfElse: "ifelse"}


def current_kind(p: Protocol, state: ExecState) -> str:
    return _KINDS.get(type(_node_of(p, state)), "leaf")


def cut_intervals(p: Protocol, state: ExecState) -> tuple[Interval, ...]:
    """Candidate intervals for the cut at the current node."""
    node = _node_of(p, state)
    if isinstance(node, BcCut):
        parts = partition_of(state.cuts)
        if not 0 < node.piece <= len(parts):
            raise ExecutionError(f"cut piece {node.piece} out of range 1..{len(parts)}",
                                 node=node.nid, agent=node.agent)
        return (parts[node.piece - 1],)
    positions = cut_positions_of(state)
    if isinstance(node, ExtCut):
        lo = resolve_ref(node.left, positions)
        hi = resolve_ref(node.right, positions)
        if lo > hi:
            raise ExecutionError("cut interval inverted at run time", node=node.nid)
        return ((lo, hi),)
    if isinstance(node, GccCut):
        out = []
        for ref_lo, ref_hi in node.pieces:
            lo, hi = resolve_ref(ref_lo, positions), resolve_ref(ref_hi, positions)
            if lo > hi:
                raise ExecutionError("piece inverted at run time", node=node.nid)
            out.append((lo, hi))
        return tuple(out)
    raise DomainError("current node is not a cut")


def choose_pieces(p: Protocol, state: ExecState) -> tuple[Interval, ...]:
    node = _node_of(p, state)
    assert isinstance(node, GccChoose)
    positions = cut_positions_of(state)
    return tuple(
        (resolve_ref(lo, positions), resolve_ref(hi, positions))
        for lo, hi in node.pieces
    )


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
    child = node.child
    return ExecState(child, cuts, picks, state.allocated)


def step_choose(p: Protocol, state: ExecState, index: int) -> ExecState:
    node = _node_of(p, state)
    if isinstance(node, (BcChoose, ExtChoose)):
        if not 0 <= index < len(node.children):
            raise ExecutionError(f"branch index {index} out of range",
                                 node=node.nid, agent=node.agent)
        return ExecState(node.children[index], state.cuts, state.picks, state.allocated)
    if isinstance(node, GccChoose):
        pieces = choose_pieces(p, state)
        if not 0 <= index < len(pieces):
            raise ExecutionError(f"piece index {index} out of range",
                                 node=node.nid, agent=node.agent)
        allocated = state.allocated + ((node.agent, pieces[index]),)
        picks = state.picks + ((node.nid, index),)
        return ExecState(node.child, state.cuts, picks, allocated)
    raise DomainError("current node is not a choose")


def eval_condition(cond: Condition, state: ExecState) -> bool:
    """Run-time condition semantics; Less is strict position comparison."""

    def atom(a) -> bool:
        if isinstance(a, Less):
            positions = cut_positions_of(state)
            return resolve_ref(a.left, positions) < resolve_ref(a.right, positions)
        picks = dict(state.picks)
        if a.node not in picks:
            raise ExecutionError(f"condition references undecided node {a.node}")
        return picks[a.node] == a.index

    return fold_condition(cond, atom)


def step_ifelse(p: Protocol, state: ExecState) -> ExecState:
    node = _node_of(p, state)
    assert isinstance(node, GccIfElse)
    for cond, child in node.branches:
        if eval_condition(cond, state):
            return ExecState(child, state.cuts, state.picks, state.allocated)
    raise ExecutionError("no if-else branch matched", node=node.nid)


def _leaf_agent_error(agent: int, agents: int, leaf: int) -> ExecutionError:
    """The error for a leaf that gives a piece to an agent outside 1..agents
    (validation rejects such leaves; protocols built in code may hold them)."""
    return ExecutionError(f"leaf gives a piece to agent {agent}, outside 1..{agents}",
                          node=leaf)


def leaf_allocation(p: Protocol, state: ExecState) -> Allocation:
    node = _node_of(p, state)
    n = p.agents
    pieces: list[list[Interval]] = [[] for _ in range(n)]
    if isinstance(node, BcLeaf):
        parts = partition_of(state.cuts)
        if len(parts) != len(node.assign):
            raise ExecutionError(
                f"leaf expects {len(node.assign)} pieces, partition has {len(parts)}",
                node=node.nid,
            )
        for part, agent in zip(parts, node.assign):
            if not 0 < agent <= n:
                raise _leaf_agent_error(agent, n, node.nid)
            pieces[agent - 1].append(part)
    elif isinstance(node, ExtLeaf):
        positions = cut_positions_of(state)
        for seg in node.segments:
            lo = resolve_ref(seg.left, positions)
            hi = resolve_ref(seg.right, positions)
            if lo > hi:
                raise ExecutionError("segment inverted at run time", node=node.nid)
            if not 0 < seg.agent <= n:
                raise _leaf_agent_error(seg.agent, n, node.nid)
            pieces[seg.agent - 1].append((lo, hi))
    elif isinstance(node, GccLeaf):
        for agent, interval in state.allocated:
            if not 0 < agent <= n:
                raise _leaf_agent_error(agent, n, node.nid)
            pieces[agent - 1].append(interval)
        for row in pieces:
            row.sort()
    else:
        raise DomainError("current node is not a leaf")
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
            partition=partition_of(state.cuts),
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
