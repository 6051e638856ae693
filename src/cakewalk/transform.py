"""Conversions and normalizations between the protocol forms.

Every conversion preserves the allocation each strategy profile produces
(and hence the envy bounds agents can guarantee).  Where the action
correspondence is direct, a ``StrategyTransporter`` is returned so a
strategy written for the source protocol can drive the converted one; the
cross-model conversions (GCC <-> BC) are checked through the guarantee
oracle instead.

Every conversion that builds nodes builds them through one ``_Output``: it
hands out output ids in build order, records the source node each one
copies (the ``NodeMap`` and the transporters' way back) and refuses the node
that would take the output past ``size_budget``.  A budget of N admits an
output of N nodes and refuses one of N + 1.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Optional, Sequence

from .engine import (
    BranchChosen, CutMade, DecisionContext, Strategy, _at, _holds, follow, partition_of,
    resolve_ref,
)
from .errors import (
    BudgetExceededError, DomainError, InvalidProtocolError, TraceMismatchError,
)
from .ir import (
    BcChoose, BcCut, BcDag, BcLeaf, BcNode, BcTree, ChoseAt, Condition,
    CutRef, ELSE, END, ExtBcTree, ExtChoose, ExtCut,
    ExtLeaf, ExtNode, ExtSegment, GccChoose, GccCut, GccIfElse, GccLeaf,
    GccMode, GccTree, ORIGIN, at, children_of, fold_dag,
    iter_nodes, linked_nodes, renumber, stats, validate_bc, validate_dag, validate_ext,
    validate_gcc, _children, _map_node,
)

DEFAULT_SIZE_BUDGET = 1_000_000


@dataclass
class NodeMap:
    """Relation from source node ids to the ids of their converted copies.

    Nodes a conversion deletes outright (statically resolved if-else nodes,
    choice-free singleton chooses) have no entry.
    """

    forward: dict[int, frozenset[int]]

    def targets(self, nid: int) -> frozenset[int]:
        return self.forward.get(nid, frozenset())


@dataclass
class StrategyTransporter:
    """Maps a full strategy profile for the source protocol onto the target:
    each source strategy ``src`` plays a target decision through
    ``answer(src, ctx)``, which asks ``src`` in a context derived from ``ctx``."""

    description: str
    answer: Callable[[Strategy, DecisionContext], object]

    def __call__(self, strategies: Sequence[Strategy]) -> list[Strategy]:
        return [partial(self.answer, src) for src in strategies]


def _source_context(ctx: DecisionContext, back: Sequence[int], node,
                    skip=frozenset()) -> DecisionContext:
    """``ctx`` asked at the source ``node``: the events, less those at the
    target nodes in ``skip``, and the cut positions carry the source ids
    ``back`` gives; the partition carries over, since each target cut copies
    a source cut."""
    events = tuple(replace(ev, node=back[ev.node])
                   for ev in ctx.events if ev.node not in skip)
    positions = {back[n]: pos for n, pos in ctx.cut_positions.items()}
    return replace(ctx, node=node, events=events, cut_positions=positions)


def _require_valid(report):
    if not report.ok:
        raise InvalidProtocolError(report)


class _Output:
    """The nodes a conversion builds: ids in build order from 0, each with
    the source node it copies, and no more than ``size_budget`` of them."""

    def __init__(self, size_budget: int, what: str = "conversion"):
        self.size_budget = size_budget
        self.what = what
        self.source: list[Optional[int]] = []  # by output id

    def __call__(self, src=None) -> int:
        """A new output node copying ``src``: its id."""
        nid = len(self.source)
        if nid >= self.size_budget:
            self.refuse()
        self.source.append(src)
        return nid

    def refuse(self):
        raise BudgetExceededError(f"{self.what} exceeded the size budget"
                                  f" of {self.size_budget} nodes")

    def node_map(self, renum: Optional[dict[int, int]] = None) -> NodeMap:
        """Each source id with its copies' ids, renumbered by ``renum`` if given."""
        fwd: dict[int, set[int]] = defaultdict(set)
        for nid, src in enumerate(self.source):
            fwd[src].add(nid if renum is None else renum[nid])
        return NodeMap({src: frozenset(ids) for src, ids in fwd.items()})


# ---------------------------------------------------------------------------
# DAG -> tree


def dag_to_tree(
    d: BcDag, size_budget: int = DEFAULT_SIZE_BUDGET
) -> tuple[BcTree, NodeMap, StrategyTransporter]:
    """Expand shared subtrees into one copy per parent, numbered in preorder;
    the exact size is counted first, so a budget refuses before building."""
    _require_valid(validate_dag(d))
    out = _Output(size_budget, "expansion")
    if conversion_cost("dag_to_tree", d) > size_budget:
        out.refuse()
    linked = linked_nodes(d)
    view = BcTree(d.agents, linked[d.root])  # each shared node under every parent
    tree, _ = renumber(view)
    back = out.source = [node.nid for node in iter_nodes(view)]

    def answer(src: Strategy, ctx: DecisionContext):
        return src(_source_context(ctx, back, linked[back[ctx.node.nid]]))

    return tree, out.node_map(), StrategyTransporter(
        "dag-to-tree: nodes map to their copies", answer)


def retarget_trace(p_target, trace, target_to_source: dict[int, int]):
    """Rewrite a source trace into target node ids by walking the target.

    ``target_to_source`` maps every target decision node to its source node;
    the walk pairs each target decision with the next source event for that
    node.  Used to audit conversions via ``replay``.
    """
    try:
        return follow(p_target, trace.events, target_to_source.get)[0]
    except TraceMismatchError as exc:
        raise DomainError(f"source trace does not fit the target: {exc}") from exc


# ---------------------------------------------------------------------------
# Extended BC -> BC


# A forced cut order is held as its places: each cut's place, by cut id.
# The origin is at place 0 and the end at ``len(places) + 1``, so
# ``_at(ref, places, 0, len(places) + 1)`` is where a ref lies.


def _split_cut(out: _Output, src: int, agent: int, candidates, places: dict[int, int],
               child: Callable[[int, dict[int, int]], BcNode]) -> BcNode:
    """A cut ``src`` landing in a definite gap of the forced cut order.

    One ``BcCut`` per (piece, gap) candidate, under a ``BcChoose`` of
    ``agent`` when there are several; ``child(piece, places)`` converts
    what follows each, in the order with ``src`` in its gap.  The nodes come
    from ``out`` as copies of ``src``: the choose's first.
    """
    cnid = out(src) if len(candidates) > 1 else None
    kids = []
    for j, k in candidates:
        nid = out(src)
        inner = {cut: place + (place > k) for cut, place in places.items()}
        inner[src] = k + 1
        kids.append(BcCut(nid, agent, k + 1, child(j, inner)))
    return kids[0] if cnid is None else BcChoose(cnid, agent, tuple(kids))


def _forced_leaf(nid: int, src: int, spans, places: dict[int, int]) -> BcLeaf:
    """Leaf ``nid`` whose ``assign`` gives each (left, right, agent) span's
    pieces of the forced cut order ``places`` to its agent."""
    end = len(places) + 1
    assign: list[Optional[int]] = [None] * end
    for left, right, agent in spans:
        for k in range(_at(left, places, 0, end), _at(right, places, 0, end)):
            if assign[k] is not None:
                raise DomainError(f"leaf {src} allocates piece {k + 1} twice")
            assign[k] = agent
    if None in assign:
        raise DomainError(f"leaf {src} leaves pieces unallocated")
    return BcLeaf(nid, tuple(assign))  # type: ignore[arg-type]


def extended_to_bc(
    t: ExtBcTree, size_budget: int = DEFAULT_SIZE_BUDGET
) -> tuple[BcTree, NodeMap, StrategyTransporter]:
    """Split each spanning cut into a choose over the pieces it may land in.

    Conversion runs top-down, so every emitted cut lands in a definite piece
    and the left-to-right order of all cuts is forced along each output
    branch; leaf segments are then re-expressed over that total order.  The
    blowup is factorial in the worst case, so the size budget aborts cleanly
    instead of filling memory.
    """
    _require_valid(validate_ext(t))
    out = _Output(size_budget)
    introduced: set[int] = set()  # choose nodes standing in for spanning cuts
    ext_nodes = {node.nid: node for node in iter_nodes(t)}

    def convert(node: ExtNode, places: dict[int, int]) -> BcNode:
        if isinstance(node, ExtCut):
            end = len(places) + 1
            lo = _at(node.left, places, 0, end)
            hi = _at(node.right, places, 0, end)
            if lo == hi:
                raise DomainError(
                    f"cut {node.nid} is pinned between identical refs; not convertible"
                )
            assert lo < hi, "validated order must agree with the forced order"
            split = _split_cut(out, node.nid, node.agent,
                               [(0, k) for k in range(lo, hi)], places,
                               lambda _, inner: convert(node.child, inner))
            if isinstance(split, BcChoose):
                introduced.add(split.nid)
            return split
        if isinstance(node, ExtChoose):
            return BcChoose(out(node.nid), node.agent,
                            tuple(convert(c, places) for c in node.children))
        assert isinstance(node, ExtLeaf)
        return _forced_leaf(out(node.nid), node.nid,
                            ((seg.left, seg.right, seg.agent) for seg in node.segments),
                            places)

    tree = BcTree(t.agents, convert(t.root, {}))
    back = out.source

    def answer(src: Strategy, ctx: DecisionContext):
        # A copied choose has the same children, so its index carries over;
        # a copied cut, or a choose among the pieces a cut may land in, asks
        # the source cut for its position.
        nid = ctx.node.nid
        source = ext_nodes[back[nid]]
        src_ctx = _source_context(ctx, back, source, introduced)
        if isinstance(source, ExtCut):
            positions = src_ctx.cut_positions
            span = (resolve_ref(source.left, positions),
                    resolve_ref(source.right, positions))
            src_ctx = replace(src_ctx, kind="cut", pieces=(span,), branches=0)
        decision = src(src_ctx)
        if nid not in introduced:
            return decision
        for k, child in enumerate(ctx.node.children):
            a, b = ctx.partition[child.piece - 1]
            if a <= decision <= b:
                return k
        raise DomainError(
            f"source strategy cut at {decision}, outside every candidate piece"
        )

    return tree, out.node_map(), StrategyTransporter(
        "extended-to-bc: spanning cuts become piece choices", answer)


# ---------------------------------------------------------------------------
# Cuts-before-choices (extended form)


def _cuts_first(root, insert):
    """``root`` rebuilt with every cut on one chain above all chooses.

    The root's leading cuts open the chain.  Each choose, in preorder, lifts
    its cut children onto the chain in child order (a lifted cut's child
    takes its place, so that place is looked at again), then normalizes its
    branches in order.  Each lift calls ``insert(branch, cut)`` on every
    other branch of that choose and of every choose above it, innermost
    first: the branches the cut now runs before.  This is the order in which
    hoisting the first cut child of the first choose in preorder, again and
    again from the root, would move the cuts.
    """
    chain = []
    while isinstance(root, (BcCut, ExtCut)):
        chain.append(root)
        root = root.child
    frames: list[list] = []  # per open choose: [branches, branch being worked on]

    def lift(cut) -> None:
        chain.append(cut)
        for frame in reversed(frames):
            kids, here = frame
            for j in range(len(kids)):
                if j != here:
                    kids[j] = insert(kids[j], cut)

    def normalize(node):
        if not isinstance(node, (BcChoose, ExtChoose)):
            return node
        kids = list(node.children)
        frame = [kids, 0]
        frames.append(frame)
        for i in range(len(kids)):
            frame[1] = i
            while isinstance(kids[i], (BcCut, ExtCut)):
                cut = kids[i]
                kids[i] = cut.child
                lift(cut)
        for i in range(len(kids)):
            frame[1] = i
            kids[i] = normalize(kids[i])
        frames.pop()
        return _map_node(node, kids=kids)

    root = normalize(root)
    for cut in reversed(chain):
        root = _map_node(cut, kids=[root])
    return root


def cuts_before_choices_ext(
    t: ExtBcTree,
) -> tuple[ExtBcTree, NodeMap, StrategyTransporter]:
    """Hoist cuts above chooses until no choose has a cut descendant.

    Each hoist moves one cut above the chooses over it; the other branches
    simply ignore the extra cut, which the extended form allows.  Node count
    and node ids are preserved.
    """
    _require_valid(validate_ext(t))
    root = _cuts_first(t.root, lambda node, cut: node)
    out = ExtBcTree(t.agents, root)

    # Static ancestor chains in the source: (node, agent, branch index toward
    # target, or None at a cut).
    source_nodes = {node.nid: node for node in iter_nodes(t)}
    chains: dict[int, tuple[tuple[int, int, Optional[int]], ...]] = {}

    def record(node: ExtNode, chain: tuple[tuple[int, int, Optional[int]], ...]):
        chains[node.nid] = chain
        cut = isinstance(node, ExtCut)
        for i, child in enumerate(children_of(node)):
            record(child, chain + ((node.nid, node.agent, None if cut else i),))

    record(t.root, ())

    def answer(src: Strategy, ctx: DecisionContext):
        nid = ctx.node.nid
        source = source_nodes[nid]
        made = ctx.cut_positions  # same node ids as the source
        events = []
        positions = {}
        for anc_nid, agent, branch in chains[nid]:
            if branch is None:
                pos = positions[anc_nid] = made[anc_nid]  # cuts only move up, so it ran
                events.append(CutMade(anc_nid, agent, pos))
            else:
                events.append(BranchChosen(anc_nid, agent, branch))
        return src(replace(ctx, node=source, events=tuple(events),
                           partition=partition_of(positions.items()),
                           cut_positions=positions))

    identity = NodeMap({node.nid: frozenset({node.nid}) for node in iter_nodes(t)})
    return out, identity, StrategyTransporter(
        "cuts-before-choices: same nodes, cut decisions asked earlier", answer)


# ---------------------------------------------------------------------------
# BC tree embedded as an extended tree


def embed_bc_as_ext(t: BcTree) -> ExtBcTree:
    """View a plain BC tree as an extended one (cuts between adjacent refs)."""
    _require_valid(validate_bc(t))

    def conv(node: BcNode, bounds: tuple[CutRef, ...]) -> ExtNode:
        if isinstance(node, BcCut):
            left, right = bounds[node.piece - 1], bounds[node.piece]
            new_bounds = (
                bounds[: node.piece] + (at(node.nid),) + bounds[node.piece :]
            )
            return ExtCut(node.nid, node.agent, left, right,
                          conv(node.child, new_bounds))
        if isinstance(node, BcChoose):
            return ExtChoose(node.nid, node.agent,
                             tuple(conv(c, bounds) for c in node.children))
        assert isinstance(node, BcLeaf)
        segments = tuple(
            ExtSegment(bounds[k], bounds[k + 1], node.assign[k])
            for k in range(len(node.assign))
        )
        return ExtLeaf(node.nid, segments)

    return ExtBcTree(t.agents, conv(t.root, (ORIGIN, END)))


# ---------------------------------------------------------------------------
# BC intermediate form


def bc_intermediate_form(
    t: BcTree, size_budget: int = DEFAULT_SIZE_BUDGET
) -> tuple[BcTree, NodeMap]:
    """Every choose either has no cut descendant or only same-agent cut children.

    Obtained by hoisting cuts in the extended view, then splitting the
    spanning cuts back into piece choices; the second step carries the
    factorial worst case, hence the size budget.
    """
    ext = embed_bc_as_ext(t)
    normal = ExtBcTree(t.agents, _cuts_first(ext.root, lambda node, cut: node))
    tree, nmap, _ = extended_to_bc(normal, size_budget=size_budget)
    return tree, nmap


def _has_cut(node) -> bool:
    """True when the subtree under ``node`` (inclusive) holds a BC or extended cut."""
    if isinstance(node, (BcCut, ExtCut)):
        return True
    return any(_has_cut(c) for c in children_of(node))


def intermediate_form_ok(t: BcTree) -> bool:
    """Structural check for the two-case condition above."""

    def consecutive_pieces(children) -> bool:
        pieces = sorted(c.piece for c in children)
        return all(pieces[i] + 1 == pieces[i + 1] for i in range(len(pieces) - 1))

    def walk(node: BcNode) -> bool:
        if isinstance(node, BcChoose):
            cut_below = any(_has_cut(c) for c in node.children)
            if cut_below:
                if not all(isinstance(c, BcCut) for c in node.children):
                    return False
                if not all(c.agent == node.agent for c in node.children):
                    return False
                if not consecutive_pieces(node.children):
                    return False
        return all(walk(c) for c in children_of(node))

    return walk(t.root)


# ---------------------------------------------------------------------------
# Cuts-before-choices (plain BC)


def cuts_before_choices_bc(
    t: BcTree, size_budget: int = DEFAULT_SIZE_BUDGET
) -> tuple[BcTree, NodeMap]:
    """Hoist every cut above every choose in a plain BC tree.

    Moving a cut above its choose parent adds a pre-existing cut to the
    other branches, so in each of them the piece indexing shifts and any
    cut into the split piece becomes a two-way choice between its halves;
    leaves re-expand the split piece.  Output ids are preorder-renumbered.

    The input is numbered into the output first.  A split keeps the cut's
    nodes in its left half and builds the right half as new copies, so the
    output's node count is always the number of ids handed out.
    """
    _require_valid(validate_bc(t))
    out = _Output(size_budget, "normalization")

    def number(node: BcNode) -> BcNode:
        nid = out(node.nid)
        return _map_node(node, lambda _: nid, map(number, _children(node)))

    def copy(nid: int) -> int:
        return out(out.source[nid])

    def insert_cut(node: BcNode, s: int, ids=lambda nid: nid) -> BcNode:
        """Account for an extra earlier cut that split piece s into s, s+1;
        ``ids`` gives each rebuilt node its id."""
        if isinstance(node, BcLeaf):
            return BcLeaf(ids(node.nid), node.assign[:s] + node.assign[s - 1 :])
        if isinstance(node, BcChoose):
            return BcChoose(ids(node.nid), node.agent,
                            tuple(insert_cut(c, s, ids) for c in node.children))
        assert isinstance(node, BcCut)
        if node.piece < s:
            return BcCut(ids(node.nid), node.agent, node.piece,
                         insert_cut(node.child, s + 1, ids))
        if node.piece > s:
            return BcCut(ids(node.nid), node.agent, node.piece + 1,
                         insert_cut(node.child, s, ids))
        # The cut targeted the split piece: offer its two halves.
        choose_id = copy(node.nid)
        left = BcCut(ids(node.nid), node.agent, s, insert_cut(node.child, s + 1, ids))
        right = BcCut(copy(node.nid), node.agent, s + 1, insert_cut(node.child, s, copy))
        return BcChoose(choose_id, node.agent, (left, right))

    root = _cuts_first(number(t.root), lambda node, cut: insert_cut(node, cut.piece))
    tree, renum = renumber(BcTree(t.agents, root))
    return tree, out.node_map(renum)


def cuts_first(t) -> bool:
    """True when no choose node has a cut descendant: every cut then lies on
    the root's leading chain of cuts."""
    node = t.root
    while isinstance(node, (BcCut, ExtCut)):
        node = node.child
    stack = [node]
    while stack:
        node = stack.pop()
        if isinstance(node, (BcCut, ExtCut)):
            return False
        stack.extend(_children(node))
    return True


# ---------------------------------------------------------------------------
# GCC -> BC


def gcc_to_bc(
    g: GccTree, mode: GccMode = GccMode.RESTRICTED,
    size_budget: int = DEFAULT_SIZE_BUDGET,
) -> tuple[BcTree, NodeMap]:
    """Simulate a GCC protocol with branch choices.

    Piece selections become chooses over the candidate pieces (one cut child
    per sub-piece when a piece spans earlier cuts, which also covers the
    extensive reading); choose allocations are pushed down to the leaves;
    if-else nodes are resolved against the branch's forced history and
    deleted.
    """
    _require_valid(validate_gcc(g, mode))
    out = _Output(size_budget)

    def convert(node, places: dict[int, int], picks: dict[int, int],
                spans: tuple[tuple[CutRef, CutRef, int], ...]) -> BcNode:
        if isinstance(node, GccCut):
            end = len(places) + 1
            candidates: list[tuple[int, int]] = []  # (piece index in S, gap index)
            for j, (lo_ref, hi_ref) in enumerate(node.pieces):
                lo, hi = _at(lo_ref, places, 0, end), _at(hi_ref, places, 0, end)
                for k in range(lo, hi):
                    candidates.append((j, k))
            if not candidates:
                raise DomainError(
                    f"cut node {node.nid} offers only degenerate pieces"
                )
            return _split_cut(out, node.nid, node.agent, candidates, places,
                              lambda j, inner: convert(node.child, inner,
                                                       {**picks, node.nid: j}, spans))
        if isinstance(node, GccChoose):
            if len(node.pieces) == 1:
                piece = node.pieces[0]
                return convert(node.child, places, {**picks, node.nid: 0},
                               spans + ((piece[0], piece[1], node.agent),))
            cnid = out(node.nid)
            kids = []
            for j, piece in enumerate(node.pieces):
                kids.append(
                    convert(node.child, places, {**picks, node.nid: j},
                            spans + ((piece[0], piece[1], node.agent),))
                )
            return BcChoose(cnid, node.agent, tuple(kids))
        if isinstance(node, GccIfElse):
            # The branch's cut order and picks are all forced: a cut's
            # position is its place in that order.
            for cond, child in node.branches:
                if _holds(cond, places, picks, 0, len(places) + 1):
                    return convert(child, places, picks, spans)
            raise DomainError(f"no if-else branch held at node {node.nid}")
        assert isinstance(node, GccLeaf)
        return _forced_leaf(out(node.nid), node.nid, spans, places)

    tree = BcTree(g.agents, convert(g.root, {}, {}, ()))
    return tree, out.node_map()


# ---------------------------------------------------------------------------
# BC -> GCC


def bc_to_gcc(t: BcTree, size_budget: int = DEFAULT_SIZE_BUDGET) -> GccTree:
    """Simulate branch choices with value-zero piece selections.

    A preamble lets every agent shave off a piece they value at zero; each
    agent's reserved slice of it is split into one sub-piece per choose node
    they control, and picking among a choose's branches is enacted by
    subdividing that sub-piece and choosing one part, with an if-else
    dispatching on the part chosen.  Mop-up chooses hand every agent the
    rest of their reserved slice, so the whole cake is always allocated.
    The output validates in extensive mode.
    """
    n = t.agents
    normal = ExtBcTree(n, _cuts_first(embed_bc_as_ext(t).root, lambda node, cut: node))
    out = _Output(size_budget)

    # Chooses controlled by each agent, in preorder.
    chooses_of: dict[int, list[ExtChoose]] = {i: [] for i in range(1, n + 1)}
    slot_of: dict[int, tuple[int, int]] = {}
    for node in iter_nodes(normal):
        if isinstance(node, ExtChoose):
            slot_of[node.nid] = (node.agent, len(chooses_of[node.agent]))
            chooses_of[node.agent].append(node)

    # Preamble plan, in the order its cuts run and take their ids:
    #   a_1..a_n   -- nested cuts shaving off a piece everyone can value at 0
    #   b_1..b_n-1 -- splitting [0, a_n] into one reserved slice per agent
    #   c_{i,*}    -- splitting agent i's slice into one sub-piece per choose
    plan: list[tuple[int, int, tuple[CutRef, CutRef]]] = []  # (id, agent, piece)

    def plan_cut(agent: int, piece: tuple[CutRef, CutRef]) -> CutRef:
        nid = out()
        plan.append((nid, agent, piece))
        return at(nid)

    zero_edge: CutRef = END
    for i in range(1, n + 1):
        zero_edge = plan_cut(i, (ORIGIN, zero_edge))

    b_refs: list[CutRef] = []
    prev_ref = zero_edge
    for i in range(1, n):
        prev_ref = plan_cut(i, (ORIGIN, prev_ref))
        b_refs.append(prev_ref)

    # Reserved slice per agent: [b_i, b_{i-1}] with b_0 = a_n and b_n = origin.
    def reserved(i: int) -> tuple[CutRef, CutRef]:
        left = ORIGIN if i == n else b_refs[i - 1]
        right = zero_edge if i == 1 else b_refs[i - 2]
        return left, right

    sub_piece: dict[tuple[int, int], tuple[CutRef, CutRef]] = {}
    for i in range(1, n + 1):
        m = len(chooses_of[i])
        left, right = reserved(i)
        if m == 0:
            sub_piece[(i, -1)] = (left, right)  # mop-up only
            continue
        chain = [right]
        for _ in range(m - 1):
            chain.append(plan_cut(i, (left, chain[-1])))
        chain.append(left)
        for j in range(m):
            sub_piece[(i, j)] = (chain[j + 1], chain[j])

    ext_to_gcc: dict[int, int] = {}

    def remap(ref: CutRef) -> CutRef:
        if ref.kind == "origin":
            return zero_edge
        if ref.kind == "cut":
            return at(ext_to_gcc[ref.cut])
        return ref

    # --- main conversion ----------------------------------------------------
    def conv_main(node: ExtNode, consumed: frozenset[tuple[int, int]]) -> GccNode:
        if isinstance(node, ExtCut):
            nid = out()
            ext_to_gcc[node.nid] = nid
            piece = (remap(node.left), remap(node.right))
            return GccCut(nid, node.agent, (piece,), conv_main(node.child, consumed))
        if isinstance(node, ExtChoose):
            agent, j = slot_of[node.nid]
            k = len(node.children)
            left, right = sub_piece[(agent, j)]
            consumed = consumed | {(agent, j)}
            if k == 1:
                # Single branch: nothing to decide; the sub-piece is mopped up.
                inner = conv_main(node.children[0], consumed)
                return GccChoose(out(), agent, ((left, right),), inner)
            chain = [right]
            cut_nodes: list[tuple[int, tuple[CutRef, CutRef]]] = []
            for _ in range(k - 1):
                nid = out()
                cut_nodes.append((nid, (left, chain[-1])))
                chain.append(at(nid))
            chain.append(left)
            pieces = tuple((chain[c + 1], chain[c]) for c in range(k))
            choose_id = out()
            branches = []
            for c, child in enumerate(node.children):
                body: GccNode = conv_main(child, consumed)
                for cc in range(k - 1, -1, -1):
                    if cc == c:
                        continue
                    body = GccChoose(out(), agent, (pieces[cc],), body)
                cond: Condition = ChoseAt(choose_id, c) if c < k - 1 else ELSE
                branches.append((cond, body))
            tail: GccNode = GccIfElse(out(), tuple(branches))
            tail = GccChoose(choose_id, agent, pieces, tail)
            for nid, piece in reversed(cut_nodes):
                tail = GccCut(nid, agent, (piece,), tail)
            return tail
        assert isinstance(node, ExtLeaf)
        tail = GccLeaf(out())
        # Mop up unconsumed reserved sub-pieces, highest agent first.
        for (i, j), piece in reversed(sub_piece.items()):
            if (i, j) not in consumed:
                tail = GccChoose(out(), i, (piece,), tail)
        for seg in reversed(node.segments):
            piece = (remap(seg.left), remap(seg.right))
            tail = GccChoose(out(), seg.agent, (piece,), tail)
        return tail

    body = conv_main(normal.root, frozenset())
    for nid, agent, piece in reversed(plan):
        body = GccCut(nid, agent, (piece,), body)
    tree, _ = renumber(GccTree(n, body))
    return tree


# ---------------------------------------------------------------------------
# Size bounds


def conversion_cost(op: str, p) -> int:
    """Upper bound on the output node count of a conversion.

    Exact for cuts-before-choices (extended) and dag-to-tree; a worst-case
    recurrence for the splitting conversions; a construction count for
    bc-to-gcc.  The plain-BC normalization has no asserted bound.
    """
    if op == "cuts_before_choices_ext":
        return stats(p).nodes
    if op == "dag_to_tree":
        if not isinstance(p, BcDag):
            raise DomainError("dag_to_tree costs apply to DAGs")
        # The expansion copies a node once per path from the root to it,
        # so a subtree's copies are its root's plus each child's.  Exact.
        return fold_dag(p, lambda node, kids: 1 + sum(kids))[p.root]
    if op in ("extended_to_bc", "gcc_to_bc"):

        def bound(node, cuts: int) -> int:
            if isinstance(node, (ExtCut, GccCut)):
                inner = 1 + bound(node.child, cuts + 1)
                return inner if cuts == 0 else 1 + (cuts + 1) * inner
            if isinstance(node, ExtChoose):
                return 1 + sum(bound(c, cuts) for c in node.children)
            if isinstance(node, GccChoose):
                k = len(node.pieces)
                inner = bound(node.child, cuts)
                return inner if k == 1 else 1 + k * inner
            if isinstance(node, GccIfElse):
                return max(bound(c, cuts) for _, c in node.branches)
            return 1

        return bound(p.root, 0)
    if op == "bc_to_gcc":
        if not isinstance(p, BcTree):
            raise DomainError("bc_to_gcc costs apply to BC trees")
        s = stats(p)
        n = p.agents
        width = max(s.max_branching, 1)
        # Preamble + subdivisions + per-choose simulation + per-leaf mop-ups.
        return (
            (2 * n - 1)
            + s.chooses
            + s.cuts
            + s.chooses * (3 * width + 2)
            + s.leaves * (s.nodes + s.chooses + n + 1)
            + 1
        )
    raise DomainError(f"no asserted size bound for operation {op!r}")
