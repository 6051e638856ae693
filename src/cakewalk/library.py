"""Generators for classic protocols, with their intended-strategy bundles.

Each generator returns protocol(s) plus a ``StrategyBundle`` encoding the
honest play from the protocol's original statement (equal-thirds cuts,
trim-to-second-largest, preferred-piece picks, ...), built from exact mark
queries so the classical fairness guarantees hold with exact equality.

The play at each decision node is one of five roles, each one act in
every protocol form (a GCC cut answers ``(piece, position)``):

- ``("pick-max", listed)``: the most valuable of the listed partition
  pieces (numbered from 1), or of the offered pieces when ``listed`` is
  ``None``; the first on a tie.
- ``("mark", t[, left, right])``: value fraction ``t`` of the region
  between two refs (by default the offered piece), clamped into the
  offered piece.
- ``("trim", listed)``: the most valuable listed or offered piece, trimmed
  to the value of the second (a BC cut is offered the piece it trims).
- ``("share-side", k, left, leftmost)``: left (0) when the mark of 1/k of
  ``[left, 1]`` lies strictly left of the leftmost cut, else right (1).
- ``("gap-for-mark", t, left, right, gaps)``: the first gap holding the
  mark of ``t`` of ``[left, right]``, else the last.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .engine import DecisionContext, Strategy, resolve_ref
from .errors import DomainError
from .ir import (
    And, BcChoose, BcCut, BcLeaf, BcTree, ChoseAt, Condition, CutInAt,
    CutRef, ELSE, END, ExtBcTree, ExtChoose, ExtCut, ExtLeaf, ExtSegment,
    GccChoose, GccCut, GccIfElse, GccLeaf, GccNode, GccTree, IdGen, Less,
    Not, Or, ORIGIN, at, renumber, structurally_equal,
)
from .valuation import ONE, ZERO

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)


# ---------------------------------------------------------------------------
# Strategy bundles


@dataclass
class StrategyBundle:
    """Named per-agent strategies bound to the protocols a generator built."""

    name: str
    # id(protocol) -> (protocol, strategies); the protocol is kept so that
    # its id cannot be reused by another object while the entry exists
    _profiles: dict[int, tuple[object, list[Strategy]]] = field(default_factory=dict)

    def register(self, protocol, strategies: Sequence[Strategy]):
        self._profiles[id(protocol)] = (protocol, list(strategies))

    def strategies_for(self, protocol) -> list[Strategy]:
        bound, strategies = self._profiles.get(id(protocol), (None, None))
        if bound is not protocol:
            raise DomainError("bundle is not bound to this protocol")
        return strategies


def _values(listed, ctx: DecisionContext) -> list[Fraction]:
    """The values of the listed partition pieces, or of the offered ones."""
    v = ctx.valuation
    if listed is None:
        return [v.value(lo, hi) for lo, hi in ctx.pieces]
    return [v.value(*ctx.partition[p - 1]) for p in listed]


def _renumber_refs(items: tuple, mapping: dict[int, int]) -> tuple:
    """``items`` with every cut ref inside it, at any depth, renumbered."""
    out = []
    for x in items:
        if isinstance(x, CutRef):
            x = at(mapping[x.cut]) if x.kind == "cut" else x
        elif isinstance(x, tuple):
            x = _renumber_refs(x, mapping)
        out.append(x)
    return tuple(out)


def _bind(bundle: "StrategyBundle", protocol, roles: dict[int, tuple], agents: int):
    """Renumber to preorder ids and register one strategy for every agent:
    it plays the role recorded at each node, whose cut refs are renumbered
    too."""
    fixed, mapping = renumber(protocol)
    roles = {mapping[nid]: _renumber_refs(role, mapping) for nid, role in roles.items()}

    def play(ctx: DecisionContext):
        try:
            role = roles[ctx.node.nid]
        except KeyError:
            raise DomainError(f"no intended play recorded for node {ctx.node.nid}")
        return _play_role(role, ctx)

    bundle.register(fixed, [play] * agents)
    return fixed


def _play_role(role: tuple, ctx: DecisionContext):
    v = ctx.valuation
    kind = role[0]

    if kind == "pick-max":  # max and index both take the first on a tie
        values = _values(role[1], ctx)
        return values.index(max(values))

    if kind == "mark":
        j, (lo, hi) = 0, ctx.pieces[0]
        if len(role) == 2:
            z = v.mark(lo, hi, role[1])
        else:
            _, t, left, right = role
            positions = ctx.cut_positions
            z = v.mark(resolve_ref(left, positions), resolve_ref(right, positions), t)
            z = min(max(z, lo), hi)

    elif kind == "trim":
        listed = role[1]
        values = _values(listed, ctx)
        j = values.index(max(values)) if listed is None else 0
        lo, hi = ctx.pieces[j]
        second, total = sorted(values, reverse=True)[1], v.value(lo, hi)
        z = v.mark(lo, hi, min(second / total, ONE) if total else ZERO)

    elif kind == "share-side":
        _, k, left, leftmost = role
        positions = ctx.cut_positions
        target = v.mark(resolve_ref(left, positions), ONE, Fraction(1, k))
        return 0 if target < resolve_ref(leftmost, positions) else 1

    elif kind == "gap-for-mark":
        _, t, left, right, gaps = role
        positions = ctx.cut_positions
        target = v.mark(resolve_ref(left, positions), resolve_ref(right, positions), t)
        for g, (glo, ghi) in enumerate(gaps):
            if resolve_ref(glo, positions) <= target <= resolve_ref(ghi, positions):
                return g
        return len(gaps) - 1

    else:
        raise DomainError(f"unknown role {kind!r}")
    return (j, z) if ctx.kind == "gcc-cut" else z


# ---------------------------------------------------------------------------
# Cut and choose


def gen_cut_and_choose() -> tuple[BcTree, GccTree, StrategyBundle]:
    """Agent 1 halves the cake; agent 2 takes their preferred side."""
    gen = IdGen()
    roles: dict[int, tuple] = {}

    cut_id, choose_id = gen(), gen()
    keep_left = BcLeaf(gen(), (2, 1))
    keep_right = BcLeaf(gen(), (1, 2))
    bc = BcTree(2, BcCut(cut_id, 1, 1,
                         BcChoose(choose_id, 2, (keep_left, keep_right))))
    roles[cut_id] = ("mark", HALF)
    roles[choose_id] = ("pick-max", (1, 2))

    ggen = IdGen()
    groles: dict[int, tuple] = {}
    gcut, gchoose = ggen(), ggen()
    z = at(gcut)
    left_branch = GccChoose(ggen(), 1, ((z, END),), GccLeaf(ggen()))
    right_branch = GccChoose(ggen(), 1, ((ORIGIN, z),), GccLeaf(ggen()))
    gcc = GccTree(2, GccCut(gcut, 1, ((ORIGIN, END),),
                            GccChoose(gchoose, 2, ((ORIGIN, z), (z, END)),
                                      GccIfElse(ggen(), (
                                          (ChoseAt(gchoose, 0), left_branch),
                                          (ELSE, right_branch),
                                      )))))
    groles[gcut] = ("mark", HALF)
    groles[gchoose] = ("pick-max", None)

    bundle = StrategyBundle("halve-and-pick")
    bc = _bind(bundle, bc, roles, 2)
    gcc = _bind(bundle, gcc, groles, 2)
    return bc, gcc, bundle


# ---------------------------------------------------------------------------
# Selfridge-Conway, branch-choice form


def gen_selfridge_conway_bc() -> tuple[BcTree, StrategyBundle]:
    """The three-agent envy-free protocol as a 150-node branch-choice tree.

    Agent 1 cuts twice (equal thirds under honest play); agent 2 picks which
    piece to trim and trims it; agent 3 picks a main piece; whoever of 2 and
    3 did not take the trimmed piece divides the trimmings, and agents pick
    them in the order: trimmed-piece taker, agent 1, divider.  The branches
    a prose statement would wave off as symmetric are instantiated for every
    piece permutation, which is what brings the node count to exactly 150.
    """
    gen = IdGen()
    roles: dict[int, tuple] = {}

    def trimming_picks(first_picker: int, divider: int, t: int,
                       big_assign: dict[int, int]) -> BcChoose:
        # After five cuts the partition has six pieces; the trimmings are
        # pieces t+1, t+2, t+3.
        trims = (t + 1, t + 2, t + 3)
        first_id = gen()
        roles[first_id] = ("pick-max", trims)
        branches = []
        for g in range(3):
            rest = tuple(p for k, p in enumerate(trims) if k != g)
            second_id = gen()
            roles[second_id] = ("pick-max", rest)
            leaves = []
            for h in range(2):
                assign = dict(big_assign)
                assign[trims[g]] = first_picker
                assign[rest[h]] = 1
                assign[rest[1 - h]] = divider
                leaves.append(BcLeaf(gen(), tuple(assign[k] for k in range(1, 7))))
            branches.append(BcChoose(second_id, 1, tuple(leaves)))
        return BcChoose(first_id, first_picker, tuple(branches))

    def divider_cuts(divider: int, t: int, after: BcChoose) -> BcCut:
        # Split the trimmings (piece t+1) into exact thirds under honest play.
        first_id, second_id = gen(), gen()
        roles[first_id] = ("mark", THIRD)
        roles[second_id] = ("mark", HALF)
        return BcCut(first_id, divider, t + 1,
                     BcCut(second_id, divider, t + 2, after))

    def trim_branch(t: int) -> BcCut:
        # Agent 2 trims piece t; pieces after the trim: trimmed piece A1 = t,
        # trimmings = t+1, remaining big pieces shift past the split.
        trim_id = gen()
        roles[trim_id] = ("trim", (1, 2, 3))
        others4 = [j if j < t else j + 1 for j in (1, 2, 3) if j != t]  # 4-piece frame
        others6 = [j if j < t else j + 3 for j in (1, 2, 3) if j != t]  # 6-piece frame
        pick_id = gen()
        roles[pick_id] = ("pick-max", (t, others4[0], others4[1]))

        # Branch 0: agent 3 takes the trimmed piece; agent 2 divides.
        bc_choice = gen()
        roles[bc_choice] = ("pick-max", tuple(others6))
        bc_branches = []
        for b in range(2):
            big = {t: 3, others6[b]: 2, others6[1 - b]: 1}
            bc_branches.append(trimming_picks(3, 2, t, big))
        took_a1 = divider_cuts(2, t, BcChoose(bc_choice, 2, tuple(bc_branches)))

        # Branches 1, 2: agent 3 takes another big piece; agent 2 is handed
        # the trimmed piece and agent 3 divides.
        other_branches = []
        for b in range(2):
            big = {t: 2, others6[b]: 3, others6[1 - b]: 1}
            other_branches.append(divider_cuts(3, t, trimming_picks(2, 3, t, big)))

        picker = BcChoose(pick_id, 3, (took_a1,) + tuple(other_branches))
        return BcCut(trim_id, 2, t, picker)

    first_cut, second_cut, trim_choice = gen(), gen(), gen()
    roles[first_cut] = ("mark", THIRD)
    roles[second_cut] = ("mark", HALF)
    roles[trim_choice] = ("pick-max", (1, 2, 3))
    tree = BcTree(
        3,
        BcCut(first_cut, 1, 1,
              BcCut(second_cut, 1, 2,
                    BcChoose(trim_choice, 2,
                             (trim_branch(1), trim_branch(2), trim_branch(3))))),
    )
    bundle = StrategyBundle("selfridge-conway")
    tree = _bind(bundle, tree, roles, 3)
    return tree, bundle


# ---------------------------------------------------------------------------
# Selfridge-Conway, GCC form


def gen_selfridge_conway_gcc() -> tuple[GccTree, StrategyBundle]:
    """The same protocol with direct piece selection and explicit dispatch.

    Textbook statements of this protocol relabel pieces and appeal to
    symmetry; here every such case is an explicit if-else branch on which
    piece was cut into or chosen, so the tree is directly executable.
    """
    gen = IdGen()
    roles: dict[int, tuple] = {}

    c1, c2, trim = gen(), gen(), gen()
    roles[c1] = ("mark", THIRD)
    roles[c2] = ("mark", HALF)
    roles[trim] = ("trim", None)
    x0, x1, y = at(c1), at(c2), at(trim)
    bigs = ((ORIGIN, x0), (x0, x1), (x1, END))

    def trimming_phase(divider: int, first_picker: int, a2: tuple[CutRef, CutRef]) -> GccNode:
        d1, d2 = gen(), gen()
        roles[d1] = ("mark", THIRD)
        roles[d2] = ("mark", HALF)
        trims = ((a2[0], at(d1)), (at(d1), at(d2)), (at(d2), a2[1]))
        first_id = gen()
        roles[first_id] = ("pick-max", None)
        branches = []
        for g in range(3):
            rest = [trims[k] for k in range(3) if k != g]
            second_id = gen()
            roles[second_id] = ("pick-max", None)
            sub = []
            for h in range(2):
                last = GccChoose(gen(), divider, (rest[1 - h],), GccLeaf(gen()))
                sub.append(last)
            inner = GccIfElse(gen(), (
                (ChoseAt(second_id, 0), sub[0]),
                (ELSE, sub[1]),
            ))
            branches.append(GccChoose(second_id, 1, tuple(rest), inner))
        dispatch = GccIfElse(gen(), (
            (ChoseAt(first_id, 0), branches[0]),
            (ChoseAt(first_id, 1), branches[1]),
            (ELSE, branches[2]),
        ))
        picker = GccChoose(first_id, first_picker, trims, dispatch)
        return GccCut(d1, divider, (a2,),
                      GccCut(d2, divider, ((at(d1), a2[1]),), picker))

    def label_branch(t: int) -> GccNode:
        lo, hi = bigs[t]
        a1 = (lo, y)
        a2 = (y, hi)
        others = [bigs[k] for k in range(3) if k != t]
        main_id = gen()
        roles[main_id] = ("pick-max", None)

        # Agent 3 took the trimmed piece: agent 2 picks a whole piece,
        # agent 1 gets the last, and agent 2 divides the trimmings.
        bc_id = gen()
        roles[bc_id] = ("pick-max", None)
        taken_sub = []
        for b in range(2):
            rest = GccChoose(gen(), 1, (others[1 - b],), trimming_phase(2, 3, a2))
            taken_sub.append(rest)
        took_a1 = GccChoose(bc_id, 2, tuple(others), GccIfElse(gen(), (
            (ChoseAt(bc_id, 0), taken_sub[0]),
            (ELSE, taken_sub[1]),
        )))

        # Agent 3 took piece b of the others: agent 2 is handed the trimmed
        # piece, agent 1 gets the rest, and agent 3 divides.
        other_sub = []
        for b in range(2):
            rest = GccChoose(gen(), 2, (a1,),
                             GccChoose(gen(), 1, (others[1 - b],),
                                       trimming_phase(3, 2, a2)))
            other_sub.append(rest)

        dispatch = GccIfElse(gen(), (
            (ChoseAt(main_id, 0), took_a1),
            (ChoseAt(main_id, 1), other_sub[0]),
            (ELSE, other_sub[1]),
        ))
        return GccChoose(main_id, 3, (a1,) + tuple(others), dispatch)

    label = GccIfElse(gen(), (
        (CutInAt(trim, 0), label_branch(0)),
        (CutInAt(trim, 1), label_branch(1)),
        (ELSE, label_branch(2)),
    ))
    tree = GccTree(3, GccCut(c1, 1, ((ORIGIN, END),),
                             GccCut(c2, 1, ((x0, END),),
                                    GccCut(trim, 2, bigs, label))))
    bundle = StrategyBundle("selfridge-conway")
    tree = _bind(bundle, tree, roles, 3)
    return tree, bundle


# ---------------------------------------------------------------------------
# Dubins-Spanier


def gen_dubins_spanier(n: int, model: str) -> tuple:
    """Leftmost-cut protocol: the agent who cut leftmost exits with the piece.

    ``model`` is "gcc" (cuts plus an n-way leftmost dispatch per round) or
    "extbc" (each agent after the first chooses to cut left or right of the
    current leftmost cut).  Honest play marks 1/k of the remaining value
    where k agents remain, which secures everyone at least 1/n exactly.
    """
    if n < 2:
        raise DomainError("need at least two agents")
    if model not in ("gcc", "extbc"):
        raise DomainError(f"unknown model {model!r}")
    gen = IdGen()
    roles: dict[int, tuple] = {}
    bundle = StrategyBundle("proportional-marks")

    if model == "gcc":

        def round_gcc(remaining: tuple[int, ...], left: CutRef) -> GccNode:
            if len(remaining) == 1:
                return GccChoose(gen(), remaining[0], ((left, END),), GccLeaf(gen()))
            k = len(remaining)
            cut_ids = {agent: gen() for agent in remaining}
            for agent in remaining:
                roles[cut_ids[agent]] = ("mark", Fraction(1, k), left, END)
            real_branches = []
            for idx, agent in enumerate(remaining):
                later = remaining[idx + 1 :]
                if idx < k - 1:
                    cond = And(tuple(
                        Not(Less(at(cut_ids[l]), at(cut_ids[agent]))) for l in later
                    ))
                else:
                    cond = ELSE
                wins = GccChoose(gen(), agent, ((left, at(cut_ids[agent])),),
                                 round_gcc(tuple(a for a in remaining if a != agent),
                                           at(cut_ids[agent])))
                real_branches.append((cond, wins))
            node: GccNode = GccIfElse(gen(), tuple(real_branches))
            for agent in reversed(remaining):
                node = GccCut(cut_ids[agent], agent, ((left, END),), node)
            return node

        tree = GccTree(n, round_gcc(tuple(range(1, n + 1)), ORIGIN))
        tree = _bind(bundle, tree, roles, n)
        return tree, bundle

    def round_ext(remaining: tuple[int, ...], left: CutRef,
                  segments: tuple[ExtSegment, ...]) -> "ExtNode":
        if len(remaining) == 1:
            return ExtLeaf(gen(), segments + (ExtSegment(left, END, remaining[0]),))
        k = len(remaining)
        first = remaining[0]
        share = ("mark", Fraction(1, k), left, END)
        first_id = gen()
        roles[first_id] = share

        def after(idx: int, leftmost: CutRef, owner: int) -> "ExtNode":
            if idx == k:
                rest = tuple(a for a in remaining if a != owner)
                return round_ext(rest, leftmost,
                                 segments + (ExtSegment(left, leftmost, owner),))
            agent = remaining[idx]
            choice_id = gen()
            roles[choice_id] = ("share-side", k, left, leftmost)
            go_left_id, go_right_id = gen(), gen()
            roles[go_left_id] = roles[go_right_id] = share
            go_left = ExtCut(go_left_id, agent, left, leftmost,
                             after(idx + 1, at(go_left_id), agent))
            go_right = ExtCut(go_right_id, agent, leftmost, END,
                              after(idx + 1, leftmost, owner))
            return ExtChoose(choice_id, agent, (go_left, go_right))

        return ExtCut(first_id, first, left, END, after(1, at(first_id), first))

    tree = ExtBcTree(n, round_ext(tuple(range(1, n + 1)), ORIGIN, ()))
    tree = _bind(bundle, tree, roles, n)
    return tree, bundle


# ---------------------------------------------------------------------------
# Even-Paz


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and n & (n - 1) == 0


def gen_even_paz(n: int, model: str) -> tuple:
    """Halving protocol: everyone marks half the region's value, the median
    cut splits the region, and each half recurses on the agents whose cuts
    landed in it (the median cutter joins the first half).

    ``n`` must be a power of two.  The gcc form dispatches first on who made
    the median cut, then on which agents share the first half; the extbc
    form orders the cuts incrementally through branch choices.
    """
    if n < 2 or not _is_power_of_two(n):
        raise DomainError("agent count must be a power of two, at least 2")
    if model not in ("gcc", "extbc"):
        raise DomainError(f"unknown model {model!r}")
    gen = IdGen()
    roles: dict[int, tuple] = {}
    bundle = StrategyBundle("halving-marks")

    if model == "gcc":

        def before(cuts: dict[int, int], t: int, i: int) -> Condition:
            # Cut of agent t precedes cut of agent i (ties: lower index first).
            if t < i:
                return Not(Less(at(cuts[i]), at(cuts[t])))
            return Less(at(cuts[t]), at(cuts[i]))

        def rec(agents: tuple[int, ...], left: CutRef, right: CutRef,
                then) -> GccNode:
            if len(agents) == 1:
                return GccChoose(gen(), agents[0], ((left, right),), then())
            k = len(agents)
            m = k // 2
            cuts = {agent: gen() for agent in agents}
            for agent in agents:
                roles[cuts[agent]] = ("mark", HALF, left, right)

            def halves(i: int, left_set: tuple[int, ...]) -> GccNode:
                rest = tuple(a for a in agents if a not in left_set)
                mid = at(cuts[i])
                return rec(left_set, left, mid,
                           lambda: rec(rest, mid, right, then))

            def partner_sets(i: int):
                others = [a for a in agents if a != i]
                return [tuple(sorted(c + (i,))) for c in combinations(others, m - 1)]

            median_branches = []
            for idx, i in enumerate(agents):
                sets = partner_sets(i)
                if len(sets) == 1:
                    body: GccNode = halves(i, sets[0])
                else:
                    sub = []
                    for s_idx, left_set in enumerate(sets):
                        if s_idx < len(sets) - 1:
                            cond = And(tuple(
                                before(cuts, t, i) for t in left_set if t != i
                            ) + tuple(
                                before(cuts, i, s) for s in agents
                                if s != i and s not in left_set
                            ))
                        else:
                            cond = ELSE
                        sub.append((cond, halves(i, left_set)))
                    body = GccIfElse(gen(), tuple(sub))
                if idx < len(agents) - 1:
                    # Exactly m-1 of the others cut before agent i.
                    others = [a for a in agents if a != i]
                    disjuncts = []
                    for c in combinations(others, m - 1):
                        inside = tuple(before(cuts, t, i) for t in c)
                        outside = tuple(
                            before(cuts, i, s) for s in others if s not in c
                        )
                        disjuncts.append(And(inside + outside))
                    cond = Or(tuple(disjuncts))
                else:
                    cond = ELSE
                median_branches.append((cond, body))
            node: GccNode = GccIfElse(gen(), tuple(median_branches))
            for agent in reversed(agents):
                node = GccCut(cuts[agent], agent, ((left, right),), node)
            return node

        tree = GccTree(n, rec(tuple(range(1, n + 1)), ORIGIN, END,
                              lambda: GccLeaf(gen())))
        tree = _bind(bundle, tree, roles, n)
        return tree, bundle

    # Extended branch-choice form.
    def rec_ext(agents: tuple[int, ...], left: CutRef, right: CutRef,
                segments: tuple[ExtSegment, ...], then) -> "ExtNode":
        if len(agents) == 1:
            return then(segments + (ExtSegment(left, right, agents[0]),))
        k = len(agents)
        m = k // 2
        first = agents[0]
        first_id = gen()
        roles[first_id] = ("mark", HALF, left, right)

        def place(idx: int, order: tuple[tuple[int, CutRef], ...]) -> "ExtNode":
            # order: (agent, cut ref) pairs, leftmost first, for this branch.
            if idx == k:
                median_agent, median_ref = order[m - 1]
                left_set = tuple(sorted(a for a, _ in order[:m]))
                right_set = tuple(sorted(a for a, _ in order[m:]))
                return rec_ext(
                    left_set, left, median_ref, segments,
                    lambda segs: rec_ext(right_set, median_ref, right, segs, then),
                )
            agent = agents[idx]
            bounds = (left,) + tuple(ref for _, ref in order) + (right,)
            gaps = tuple((bounds[g], bounds[g + 1]) for g in range(len(bounds) - 1))
            choice_id = gen()
            roles[choice_id] = ("gap-for-mark", HALF, left, right, gaps)
            children = []
            for g, (glo, ghi) in enumerate(gaps):
                cut_id = gen()
                roles[cut_id] = ("mark", HALF, left, right)
                new_order = order[:g] + ((agent, at(cut_id)),) + order[g:]
                children.append(ExtCut(cut_id, agent, glo, ghi,
                                       place(idx + 1, new_order)))
            return ExtChoose(choice_id, agent, tuple(children))

        return ExtCut(first_id, first, left, right,
                      place(1, ((first, at(first_id)),)))

    tree = ExtBcTree(n, rec_ext(tuple(range(1, n + 1)), ORIGIN, END, (),
                                lambda segs: ExtLeaf(gen(), segs)))
    tree = _bind(bundle, tree, roles, n)
    return tree, bundle


# ---------------------------------------------------------------------------
# Name-based access (CLI and file-loaded protocols)

# The forms each generator builds, and the agent count of those that build
# one size only.
_FORMS = {"cut-and-choose": ("bc", "gcc"), "selfridge-conway": ("bc", "gcc"),
          "dubins-spanier": ("gcc", "extbc"), "even-paz": ("gcc", "extbc")}
_FIXED_AGENTS = {"cut-and-choose": 2, "selfridge-conway": 3}
GENERATOR_NAMES = tuple(_FORMS)


def generate(name: str, model: str = "bc", n: int = 0):
    """Build a named protocol; returns (protocol, bundle).  ``n`` 0 asks
    for the generator's default agent count."""
    forms = _FORMS.get(name)
    if forms is None:
        raise DomainError(f"unknown generator {name!r}")
    if model not in forms:
        raise DomainError(f"{name} exists in {' and '.join(forms)} forms")
    fixed = _FIXED_AGENTS.get(name)
    if n and fixed and n != fixed:
        raise DomainError(f"{name} is a {fixed}-agent protocol, not {n} agents")
    if name == "cut-and-choose":
        bc, gcc, bundle = gen_cut_and_choose()
        return (bc if model == "bc" else gcc), bundle
    if name == "selfridge-conway":
        return gen_selfridge_conway_bc() if model == "bc" else gen_selfridge_conway_gcc()
    if name == "dubins-spanier":
        return gen_dubins_spanier(n or 3, model)
    return gen_even_paz(n or 4, model)


def named_strategies(name: str, model: str, n: int, protocol) -> list[Strategy]:
    """Bundle strategies for a protocol loaded from a file.

    The protocol must be the (preorder-renumbered) output of the named
    generator; structural equality then guarantees identical node ids, so
    the reference bundle applies directly.
    """
    reference, bundle = generate(name, model, n)
    canonical, _ = renumber(protocol)
    if not structurally_equal(canonical, reference):
        raise DomainError(
            f"protocol does not match the output of {name} (model {model})"
        )
    return bundle.strategies_for(reference)
