"""Conversions and normalizations between the protocol forms.

Every conversion preserves the allocation each strategy profile produces
(and hence the envy bounds agents can guarantee).  Where the action
correspondence is direct, a ``StrategyTransporter`` is returned so a
strategy written for the source protocol can drive the converted one; the
cross-model conversions (GCC <-> BC) are checked through the guarantee
oracle instead.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

from .engine import (
    BranchChosen, CutMade, DecisionContext, Strategy, follow, partition_of,
    resolve_ref,
)
from .errors import (
    BudgetExceededError, DomainError, InvalidProtocolError, TraceMismatchError,
)
from .ir import (
    BcChoose, BcCut, BcDag, BcLeaf, BcNode, BcTree, ChoseAt, Condition,
    CutRef, ELSE, END, ExtBcTree, ExtChoose, ExtCut,
    ExtLeaf, ExtNode, ExtSegment, GccChoose, GccCut, GccIfElse, GccLeaf,
    GccMode, GccTree, IdGen, Less, ORIGIN, at, children_of, fold_condition,
    iter_nodes, renumber, stats, validate_bc, validate_dag, validate_ext,
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
    """Maps a full strategy profile for the source protocol onto the target."""

    description: str
    _wrap: Callable[[Sequence[Strategy]], list[Strategy]]

    def __call__(self, strategies: Sequence[Strategy]) -> list[Strategy]:
        return self._wrap(strategies)


def _transporter(description: str,
                 answer: Callable[[Strategy, DecisionContext], object]
                 ) -> StrategyTransporter:
    """Each source strategy ``src`` plays the target through ``answer(src, ctx)``."""

    def wrap(strategies: Sequence[Strategy]) -> list[Strategy]:
        return [lambda ctx, src=src: answer(src, ctx) for src in strategies]

    return StrategyTransporter(description, wrap)


def _require_valid(report, what: str):
    if not report.ok:
        raise InvalidProtocolError(report)


def _freeze(fwd: dict[int, set[int]]) -> NodeMap:
    return NodeMap({k: frozenset(v) for k, v in fwd.items()})


def _budgeted_ids(size_budget: int, what: str = "conversion") -> Callable[[], int]:
    """Sequential node ids from 0 that raise once an id passes the budget."""
    gen = IdGen()

    def fresh() -> int:
        nid = gen()
        if nid > size_budget:
            raise BudgetExceededError(
                f"{what} exceeded the size budget of {size_budget} nodes"
            )
        return nid

    return fresh


# ---------------------------------------------------------------------------
# DAG -> tree


def dag_to_tree(
    d: BcDag, size_budget: int = DEFAULT_SIZE_BUDGET
) -> tuple[BcTree, NodeMap, StrategyTransporter]:
    """Expand shared subtrees into one copy per parent."""
    _require_valid(validate_dag(d), "dag")
    gen = _budgeted_ids(size_budget, "expansion")
    fwd: dict[int, set[int]] = defaultdict(set)
    back: dict[int, int] = {}

    def expand(nid: int) -> BcNode:
        node = d.nodes[nid]
        new = gen()
        fwd[nid].add(new)
        back[new] = nid
        return _map_node(node, lambda _: new, list(map(expand, _children(node))))

    tree = BcTree(d.agents, expand(d.root))

    def answer(src: Strategy, ctx: DecisionContext):
        events = tuple(replace(ev, node=back[ev.node]) for ev in ctx.events)
        positions = {back[n]: pos for n, pos in ctx.cut_positions.items()}
        src_ctx = replace(
            ctx, node=d.nodes[back[ctx.node.nid]], events=events,
            cut_positions=positions,
        )
        return src(src_ctx)

    transporter = _transporter("dag-to-tree: nodes map to their copies", answer)
    return tree, _freeze(fwd), transporter


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
    _require_valid(validate_ext(t), "extended tree")
    gen = _budgeted_ids(size_budget)
    fwd: dict[int, set[int]] = defaultdict(set)
    back: dict[int, int] = {}
    introduced: set[int] = set()  # choose nodes standing in for spanning cuts
    ext_nodes = {node.nid: node for node in iter_nodes(t)}

    def copy_of(src: int) -> int:
        nid = gen()
        fwd[src].add(nid)
        back[nid] = src
        return nid

    def convert(node: ExtNode, bounds: tuple[CutRef, ...]) -> BcNode:
        if isinstance(node, ExtCut):
            if node.left == node.right:
                raise DomainError(
                    f"cut {node.nid} is pinned between identical refs; not convertible"
                )
            lo = bounds.index(node.left)
            hi = bounds.index(node.right)
            assert lo < hi, "validated order must agree with the forced order"

            def cut_branch(k: int) -> BcCut:
                nid = copy_of(node.nid)
                new_bounds = bounds[: k + 1] + (at(node.nid),) + bounds[k + 1 :]
                return BcCut(nid, node.agent, k + 1, convert(node.child, new_bounds))

            if hi - lo == 1:
                return cut_branch(lo)
            cnid = copy_of(node.nid)
            introduced.add(cnid)
            kids = tuple(cut_branch(k) for k in range(lo, hi))
            return BcChoose(cnid, node.agent, kids)
        if isinstance(node, ExtChoose):
            return BcChoose(copy_of(node.nid), node.agent,
                            tuple(convert(c, bounds) for c in node.children))
        assert isinstance(node, ExtLeaf)
        nid = copy_of(node.nid)
        assign: list[Optional[int]] = [None] * (len(bounds) - 1)
        for seg in node.segments:
            lo = bounds.index(seg.left)
            hi = bounds.index(seg.right)
            for k in range(lo, hi):
                if assign[k] is not None:
                    raise DomainError(f"leaf {node.nid} allocates piece {k + 1} twice")
                assign[k] = seg.agent
        if any(a is None for a in assign):
            raise DomainError(f"leaf {node.nid} leaves pieces unallocated")
        return BcLeaf(nid, tuple(assign))  # type: ignore[arg-type]

    tree = BcTree(t.agents, convert(t.root, (ORIGIN, END)))

    def translate(ctx: DecisionContext):
        events = []
        for ev in ctx.events:
            if ev.node in introduced:
                continue
            events.append(replace(ev, node=back[ev.node]))
        events = tuple(events)
        positions = {back[n]: pos for n, pos in ctx.cut_positions.items()}
        cut_order = [(ev.node, ev.position) for ev in events
                     if isinstance(ev, CutMade)]
        return events, positions, tuple(partition_of(cut_order))

    def source_cut_position(src, ctx, ext_cut: ExtCut):
        events, positions, partition = translate(ctx)
        lo = resolve_ref(ext_cut.left, positions)
        hi = resolve_ref(ext_cut.right, positions)
        src_ctx = DecisionContext(
            node=ext_cut, agent=ext_cut.agent, kind="cut",
            valuation=ctx.valuation, events=events, pieces=((lo, hi),),
            partition=partition, cut_positions=positions,
        )
        return src(src_ctx)

    def answer(src: Strategy, ctx: DecisionContext):
        nid = ctx.node.nid
        source = ext_nodes[back[nid]]
        if nid in introduced:
            z = source_cut_position(src, ctx, source)
            for k, child in enumerate(ctx.node.children):
                a, b = ctx.partition[child.piece - 1]
                if a <= z <= b:
                    return k
            raise DomainError(
                f"source strategy cut at {z}, outside every candidate piece"
            )
        if isinstance(source, ExtCut):
            return source_cut_position(src, ctx, source)
        # A copied choose: same children, same index.
        events, positions, partition = translate(ctx)
        src_ctx = DecisionContext(
            node=source, agent=source.agent, kind="branch",
            valuation=ctx.valuation, events=events,
            branches=len(source.children), partition=partition,
            cut_positions=positions,
        )
        return src(src_ctx)

    transporter = _transporter(
        "extended-to-bc: spanning cuts become piece choices", answer
    )
    return tree, _freeze(fwd), transporter


# ---------------------------------------------------------------------------
# Cuts-before-choices (extended form)


def _hoist_first(node, lower):
    """Hoist the first cut child of a choose, in preorder; returns (tree, moved).

    ``lower(choose, i)`` builds the subtree that replaces ``choose`` once its
    cut child ``i`` moves above it.
    """
    if isinstance(node, (BcChoose, ExtChoose)):
        for i, child in enumerate(node.children):
            if isinstance(child, (BcCut, ExtCut)):
                return lower(node, i), True
    for i, child in enumerate(_children(node)):
        new_child, moved = _hoist_first(child, lower)
        if moved:
            kids = list(_children(node))
            kids[i] = new_child
            return _map_node(node, kids=kids), True
    return node, False


def cuts_before_choices_ext(
    t: ExtBcTree,
) -> tuple[ExtBcTree, NodeMap, StrategyTransporter]:
    """Hoist cuts above chooses until no choose has a cut descendant.

    Each hoist moves one cut child above its choose parent; the other
    branches simply ignore the extra cut, which the extended form allows.
    Node count and node ids are preserved.
    """
    _require_valid(validate_ext(t), "extended tree")

    def lower(choose: ExtChoose, i: int) -> ExtCut:
        cut = choose.children[i]
        kids = choose.children[:i] + (cut.child,) + choose.children[i + 1:]
        return _map_node(cut, kids=[_map_node(choose, kids=kids)])

    root = t.root
    guard = stats(t).nodes ** 2 + 1
    for _ in range(guard):
        root, moved = _hoist_first(root, lower)
        if not moved:
            break
    else:  # pragma: no cover
        raise BudgetExceededError("hoisting did not settle within the step budget")
    out = ExtBcTree(t.agents, root)

    # Static ancestor chains in the source: (node, branch index toward target).
    source_nodes = {node.nid: node for node in iter_nodes(t)}
    chains: dict[int, tuple[tuple[int, int], ...]] = {}

    def record(node: ExtNode, chain: tuple[tuple[int, int], ...]):
        chains[node.nid] = chain
        for i, child in enumerate(children_of(node)):
            record(child, chain + ((node.nid, i),))

    record(t.root, ())

    def answer(src: Strategy, ctx: DecisionContext):
        nid = ctx.node.nid
        source = source_nodes[nid]
        made = {ev.node: ev for ev in ctx.events if isinstance(ev, CutMade)}
        events = []
        cut_order = []
        for anc_nid, branch in chains[nid]:
            anc = source_nodes[anc_nid]
            if isinstance(anc, ExtCut):
                ev = made[anc_nid]  # cuts only ever move up, so it ran
                events.append(ev)
                cut_order.append((anc_nid, ev.position))
            else:
                events.append(BranchChosen(anc_nid, anc.agent, branch))
        positions = {n: pos for n, pos in cut_order}
        src_ctx = DecisionContext(
            node=source, agent=source.agent, kind=ctx.kind,
            valuation=ctx.valuation, events=tuple(events),
            pieces=ctx.pieces, branches=ctx.branches,
            partition=partition_of(cut_order), cut_positions=positions,
        )
        return src(src_ctx)

    identity = _freeze({node.nid: {node.nid} for node in iter_nodes(t)})
    transporter = _transporter(
        "cuts-before-choices: same nodes, cut decisions asked earlier", answer
    )
    return out, identity, transporter


# ---------------------------------------------------------------------------
# BC tree embedded as an extended tree


def embed_bc_as_ext(t: BcTree) -> ExtBcTree:
    """View a plain BC tree as an extended one (cuts between adjacent refs)."""
    _require_valid(validate_bc(t), "bc tree")

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
    normal, _, _ = cuts_before_choices_ext(ext)
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
    """
    _require_valid(validate_bc(t), "bc tree")
    gen = IdGen(max((n.nid for n in iter_nodes(t)), default=0) + 1)
    origin: dict[int, int] = {n.nid: n.nid for n in iter_nodes(t)}
    count = stats(t).nodes

    def bump(extra: int):
        nonlocal count
        count += extra
        if count > size_budget:
            raise BudgetExceededError(
                f"normalization exceeded the size budget of {size_budget} nodes"
            )

    def insert_cut(node: BcNode, s: int) -> BcNode:
        """Account for an extra earlier cut that split piece s into s, s+1."""
        if isinstance(node, BcLeaf):
            return BcLeaf(node.nid, node.assign[:s] + node.assign[s - 1 :])
        if isinstance(node, BcChoose):
            return BcChoose(node.nid, node.agent,
                            tuple(insert_cut(c, s) for c in node.children))
        assert isinstance(node, BcCut)
        if node.piece < s:
            return BcCut(node.nid, node.agent, node.piece,
                         insert_cut(node.child, s + 1))
        if node.piece > s:
            return BcCut(node.nid, node.agent, node.piece + 1,
                         insert_cut(node.child, s))
        # The cut targeted the split piece: offer its two halves.
        left_id, right_id, choose_id = gen(), gen(), gen()
        src = origin[node.nid]
        origin[left_id] = origin[right_id] = origin[choose_id] = src
        bump(2)
        left = BcCut(left_id, node.agent, s, insert_cut(node.child, s + 1))
        right = BcCut(right_id, node.agent, s + 1, insert_cut(node.child, s))
        return BcChoose(choose_id, node.agent, (left, right))

    def lower(choose: BcChoose, i: int) -> BcCut:
        cut = choose.children[i]
        kids = tuple(cut.child if j == i else insert_cut(other, cut.piece)
                     for j, other in enumerate(choose.children))
        return _map_node(cut, kids=[_map_node(choose, kids=kids)])

    root, moved = t.root, True
    while moved:
        root, moved = _hoist_first(root, lower)
    out, renum = renumber(BcTree(t.agents, root))
    fwd: dict[int, set[int]] = defaultdict(set)
    for old, new in renum.items():
        fwd[origin[old]].add(new)
    return out, _freeze(fwd)


def cuts_first(t) -> bool:
    """True when no choose node has a cut descendant."""

    def walk(node) -> bool:
        if isinstance(node, (BcChoose, ExtChoose)) and any(
            _has_cut(c) for c in node.children
        ):
            return False
        return all(walk(c) for c in children_of(node))

    return walk(t.root)


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
    _require_valid(validate_gcc(g, mode), "gcc tree")
    gen = _budgeted_ids(size_budget)
    fwd: dict[int, set[int]] = defaultdict(set)

    def fresh(src: int) -> int:
        nid = gen()
        fwd[src].add(nid)
        return nid

    def eval_static(cond: Condition, bounds, picks) -> bool:
        """Conditions on a branch whose cut order and picks are all forced."""

        def atom(a) -> bool:
            if isinstance(a, Less):
                return bounds.index(a.left) < bounds.index(a.right)
            return picks[a.node] == a.index

        return fold_condition(cond, atom)

    def convert(node, bounds: tuple[CutRef, ...], picks: dict[int, int],
                spans: tuple[tuple[CutRef, CutRef, int], ...]) -> BcNode:
        if isinstance(node, GccCut):
            candidates: list[tuple[int, int]] = []  # (piece index in S, gap index)
            for j, (lo_ref, hi_ref) in enumerate(node.pieces):
                lo, hi = bounds.index(lo_ref), bounds.index(hi_ref)
                for k in range(lo, hi):
                    candidates.append((j, k))
            if not candidates:
                raise DomainError(
                    f"cut node {node.nid} offers only degenerate pieces"
                )

            def cut_branch(j: int, k: int) -> BcCut:
                nid = fresh(node.nid)
                new_bounds = bounds[: k + 1] + (at(node.nid),) + bounds[k + 1 :]
                child = convert(node.child, new_bounds, {**picks, node.nid: j}, spans)
                return BcCut(nid, node.agent, k + 1, child)

            if len(candidates) == 1:
                return cut_branch(*candidates[0])
            cnid = fresh(node.nid)
            kids = tuple(cut_branch(j, k) for j, k in candidates)
            return BcChoose(cnid, node.agent, kids)
        if isinstance(node, GccChoose):
            if len(node.pieces) == 1:
                piece = node.pieces[0]
                return convert(node.child, bounds, {**picks, node.nid: 0},
                               spans + ((piece[0], piece[1], node.agent),))
            cnid = fresh(node.nid)
            kids = []
            for j, piece in enumerate(node.pieces):
                kids.append(
                    convert(node.child, bounds, {**picks, node.nid: j},
                            spans + ((piece[0], piece[1], node.agent),))
                )
            return BcChoose(cnid, node.agent, tuple(kids))
        if isinstance(node, GccIfElse):
            for cond, child in node.branches:
                if eval_static(cond, bounds, picks):
                    return convert(child, bounds, picks, spans)
            raise DomainError(f"no if-else branch held at node {node.nid}")
        assert isinstance(node, GccLeaf)
        nid = fresh(node.nid)
        assign: list[Optional[int]] = [None] * (len(bounds) - 1)
        for lo_ref, hi_ref, agent in spans:
            lo, hi = bounds.index(lo_ref), bounds.index(hi_ref)
            for k in range(lo, hi):
                if assign[k] is not None:
                    raise DomainError(
                        f"piece {k + 1} allocated twice on the path to leaf {node.nid}"
                    )
                assign[k] = agent
        if any(a is None for a in assign):
            raise DomainError(
                f"leaf {node.nid} reached with unallocated pieces; the protocol"
                " must allocate the whole cake"
            )
        return BcLeaf(nid, tuple(assign))  # type: ignore[arg-type]

    tree = BcTree(g.agents, convert(g.root, (ORIGIN, END), {}, ()))
    return tree, _freeze(fwd)


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
    ext = embed_bc_as_ext(t)
    normal, _, _ = cuts_before_choices_ext(ext)
    fresh = _budgeted_ids(size_budget)

    # Chooses controlled by each agent, in preorder.
    chooses_of: dict[int, list[ExtChoose]] = {i: [] for i in range(1, n + 1)}
    slot_of: dict[int, tuple[int, int]] = {}
    for node in iter_nodes(normal):
        if isinstance(node, ExtChoose):
            slot_of[node.nid] = (node.agent, len(chooses_of[node.agent]))
            chooses_of[node.agent].append(node)

    ext_to_gcc: dict[int, int] = {}

    def remap(ref: CutRef, zero_edge: CutRef) -> CutRef:
        if ref.kind == "origin":
            return zero_edge
        if ref.kind == "cut":
            return at(ext_to_gcc[ref.cut])
        return ref

    # Preamble plan, assembled symbolically (negative placeholder ids) and
    # materialized front-to-back once the whole plan is known:
    #   a_1..a_n   -- nested cuts shaving off a piece everyone can value at 0
    #   b_1..b_n-1 -- splitting [0, a_n] into one reserved slice per agent
    #   c_{i,*}    -- splitting agent i's slice into one sub-piece per choose
    sym_gen = iter(range(-1, -(10 ** 9), -1))
    plan: list[tuple[int, int, tuple[CutRef, CutRef]]] = []  # (sym, agent, piece)

    a_syms: list[int] = []
    prev_ref: CutRef = END
    for i in range(1, n + 1):
        sym = next(sym_gen)
        plan.append((sym, i, (ORIGIN, prev_ref)))
        a_syms.append(sym)
        prev_ref = at(sym)
    zero_sym = a_syms[-1]

    b_syms: list[int] = []
    prev_ref = at(zero_sym)
    for i in range(1, n):
        sym = next(sym_gen)
        plan.append((sym, i, (ORIGIN, prev_ref)))
        b_syms.append(sym)
        prev_ref = at(sym)

    # Reserved slice per agent: [b_i, b_{i-1}] with b_0 = a_n and b_n = origin.
    def reserved(i: int) -> tuple[CutRef, CutRef]:
        left = ORIGIN if i == n else at(b_syms[i - 1])
        right = at(zero_sym) if i == 1 else at(b_syms[i - 2])
        return left, right

    sub_piece: dict[tuple[int, int], tuple[CutRef, CutRef]] = {}
    for i in range(1, n + 1):
        m = len(chooses_of[i])
        left, right = reserved(i)
        if m == 0:
            sub_piece[(i, -1)] = (left, right)  # mop-up only
            continue
        chain = [right]
        prev_right = right
        for _ in range(m - 1):
            sym = next(sym_gen)
            plan.append((sym, i, (left, prev_right)))
            prev_right = at(sym)
            chain.append(prev_right)
        chain.append(left)
        for j in range(m):
            sub_piece[(i, j)] = (chain[j + 1], chain[j])

    sym_to_gcc: dict[int, int] = {}

    def real(ref: CutRef) -> CutRef:
        if ref.kind == "cut" and ref.cut in sym_to_gcc:
            return at(sym_to_gcc[ref.cut])
        return ref

    def zero_edge_ref() -> CutRef:
        return at(sym_to_gcc[zero_sym])

    # --- main conversion ----------------------------------------------------
    def conv_main(node: ExtNode, consumed: frozenset[tuple[int, int]]) -> GccNode:
        if isinstance(node, ExtCut):
            nid = fresh()
            ext_to_gcc[node.nid] = nid
            piece = (remap(node.left, zero_edge_ref()), remap(node.right, zero_edge_ref()))
            return GccCut(nid, node.agent, (piece,), conv_main(node.child, consumed))
        if isinstance(node, ExtChoose):
            agent, j = slot_of[node.nid]
            k = len(node.children)
            left, right = (real(r) for r in sub_piece[(agent, j)])
            consumed = consumed | {(agent, j)}
            if k == 1:
                # Single branch: nothing to decide; the sub-piece is mopped up.
                inner = conv_main(node.children[0], consumed)
                return GccChoose(fresh(), agent, ((left, right),), inner)
            division: list[CutRef] = []
            cut_nodes: list[tuple[int, tuple[CutRef, CutRef]]] = []
            prev_right = right
            for _ in range(k - 1):
                nid = fresh()
                cut_nodes.append((nid, (left, prev_right)))
                division.append(at(nid))
                prev_right = at(nid)
            chain = [right] + division + [left]
            pieces = tuple((chain[c + 1], chain[c]) for c in range(k))
            choose_id = fresh()
            branches = []
            for c, child in enumerate(node.children):
                body: GccNode = conv_main(child, consumed)
                for cc in range(k - 1, -1, -1):
                    if cc == c:
                        continue
                    body = GccChoose(fresh(), agent, (pieces[cc],), body)
                cond: Condition = ChoseAt(choose_id, c) if c < k - 1 else ELSE
                branches.append((cond, body))
            tail: GccNode = GccIfElse(fresh(), tuple(branches))
            tail = GccChoose(choose_id, agent, pieces, tail)
            for nid, piece in reversed(cut_nodes):
                tail = GccCut(nid, agent, (piece,), tail)
            return tail
        assert isinstance(node, ExtLeaf)
        tail = GccLeaf(fresh())
        # Mop up unconsumed reserved sub-pieces, highest agent first.
        pending = []
        for i in range(1, n + 1):
            m = len(chooses_of[i])
            if m == 0:
                pending.append((i, sub_piece[(i, -1)]))
            else:
                for j in range(m):
                    if (i, j) not in consumed:
                        pending.append((i, sub_piece[(i, j)]))
        for i, (lo, hi) in reversed(pending):
            tail = GccChoose(fresh(), i, ((real(lo), real(hi)),), tail)
        for seg in reversed(node.segments):
            piece = (remap(seg.left, zero_edge_ref()), remap(seg.right, zero_edge_ref()))
            tail = GccChoose(fresh(), seg.agent, (piece,), tail)
        return tail

    # Assemble: preamble cuts (assign real ids in plan order), then the body.
    def build_plan(idx: int) -> GccNode:
        if idx == len(plan):
            return conv_main(normal.root, frozenset())
        sym, agent, (lo, hi) = plan[idx]
        nid = fresh()
        sym_to_gcc[sym] = nid
        piece = (real(lo), real(hi))
        return GccCut(nid, agent, (piece,), build_plan(idx + 1))

    tree = GccTree(n, build_plan(0))
    tree, _ = renumber(tree)
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
        # The expansion makes one copy per root->node path; count paths by
        # Kahn-style topological propagation.  Exact, so bound == actual.
        indeg: dict[int, int] = {nid: 0 for nid in p.nodes}
        for node in p.nodes.values():
            for kid in children_of(node):
                indeg[kid] += 1
        paths: dict[int, int] = {nid: 0 for nid in p.nodes}
        paths[p.root] = 1
        queue = [nid for nid, deg in indeg.items() if deg == 0]
        while queue:
            nid = queue.pop()
            for kid in children_of(p.nodes[nid]):
                paths[kid] += paths[nid]
                indeg[kid] -= 1
                if indeg[kid] == 0:
                    queue.append(kid)
        return sum(paths.values())
    if op == "extended_to_bc":

        def bound(node, cuts: int) -> int:
            if isinstance(node, ExtCut):
                k = cuts + 1
                inner = 1 + bound(node.child, cuts + 1)
                return inner if k == 1 else 1 + k * inner
            if isinstance(node, ExtChoose):
                return 1 + sum(bound(c, cuts) for c in node.children)
            return 1

        return bound(p.root, 0)
    if op == "gcc_to_bc":

        def gbound(node, cuts: int) -> int:
            if isinstance(node, GccCut):
                k = cuts + 1
                inner = 1 + gbound(node.child, cuts + 1)
                return inner if k == 1 else 1 + k * inner
            if isinstance(node, GccChoose):
                k = len(node.pieces)
                inner = gbound(node.child, cuts)
                return inner if k == 1 else 1 + k * inner
            if isinstance(node, GccIfElse):
                return max(gbound(c, cuts) for _, c in node.branches)
            return 1

        return gbound(p.root, 0)
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
