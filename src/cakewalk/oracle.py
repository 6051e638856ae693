"""Adversarial guarantee analysis on a finite grid of cut positions.

``can_guarantee`` and the ``guarantee_*`` functions answer: what can one
agent secure for themselves no matter how everyone else plays, when every
cut is restricted to a shared finite grid?  Decisions of the queried agent
are existential, all other decisions (modelled as one adversary) are
universal, and leaves are scored exactly.  Results are exact for the
grid-restricted game; they are meaningful for the continuous game only
when the grid contains the positions the intended strategies need, so
callers should pin grids explicitly.

The game is played on grid indices.  Every position the search visits is a
grid point: a cut is placed at a grid point of its interval, and every
interval end is 0, 1 or an earlier cut.  So the oracle holds each cut as
the index of its grid point, offers a cut every index from its interval's
left end to its right end, and compares positions by comparing indices (the
grid is strictly increasing).  Each agent's value of [0, x] at every grid
point x is an integer numerator over one common denominator per oracle, so
a piece's value is a difference of two table entries.  Queries return
``Fraction`` results built from these integers; they equal the values exact
rational arithmetic would give.

The game follows the interpreter's rules (``engine``) move for move and
raises the same ``ExecutionError`` where a protocol goes wrong at run time:
a BC cut in a piece that does not exist, an inverted cut interval or piece,
a ref to a cut never made, a condition on an undecided pick, an if-else with
no matching branch, and a leaf whose piece count or allocation is invalid or
that gives a piece to an agent outside 1..n.
It skips the checks that cannot fail here.  The interpreter checks each move
a strategy returns (a cut inside its interval, a branch or piece index in
range); the oracle only generates legal moves.  A BC or DAG leaf's pieces
come from the sorted cuts, so they always partition the cake and only their
count and agents are checked.  Extended and GCC leaves are still checked to
partition the cake (``valuation.check_allocation`` on indices), with
positions printed in the error.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import lcm
from time import perf_counter
from typing import Sequence

from .engine import _leaf_agent_error
# step_cut is not called here; perfbench/test_perfbench.py
# (test_install_and_uninstall_restore_the_program) reads it through this
# module to check that the tracer patches and restores aliases.
from .engine import step_cut  # noqa: F401
from .errors import BudgetExceededError, DomainError, ExecutionError
from .ir import (
    BcChoose, BcCut, BcDag, BcLeaf, ExtChoose, ExtCut, ExtLeaf, GccChoose,
    GccCut, GccIfElse, GccLeaf, Less, Protocol, fold_condition,
)
from .valuation import ONE, Valuation, ZERO, check_allocation, format_frac

DEFAULT_BUDGET = 5_000_000

_LEAVES = (BcLeaf, ExtLeaf, GccLeaf)
_BRANCHES = (BcChoose, ExtChoose)


@dataclass(frozen=True)
class Grid:
    """Ascending candidate cut positions; always contains 0 and 1."""

    points: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.points or self.points[0] != ZERO or self.points[-1] != ONE:
            raise DomainError("grid must run from 0 to 1")
        if any(a >= b for a, b in zip(self.points, self.points[1:])):
            raise DomainError("grid points must be strictly increasing")

    def within(self, lo: Fraction, hi: Fraction) -> tuple[Fraction, ...]:
        pts = tuple(x for x in self.points if lo <= x <= hi)
        return pts if pts else (lo,)  # degenerate window: the forced endpoint

    def to_json(self):
        return [format_frac(x) for x in self.points]


def build_grid(vals: Sequence[Valuation], denominator_cap: int) -> Grid:
    """{0, 1}, all breakpoints, and one refinement round of p/q marks."""
    if denominator_cap < 2:
        raise DomainError("denominator cap must be >= 2")
    base: set[Fraction] = {ZERO, ONE}
    for v in vals:
        base.update(v.breakpoints)
    anchors = sorted(base)
    points = set(base)
    for v in vals:
        for a, b in zip(anchors, anchors[1:]):
            for q in range(2, denominator_cap + 1):
                for p in range(1, q):
                    points.add(v.mark(a, b, Fraction(p, q)))
    return Grid(tuple(sorted(points)))


@dataclass(frozen=True)
class BoundsQuery:
    """Simultaneous envy bounds agent ``agent`` tries to guarantee."""

    agent: int
    bounds: tuple[tuple[int, Fraction], ...]  # (other agent, limit), sorted

    @staticmethod
    def make(agent: int, bounds: dict[int, Fraction]) -> "BoundsQuery":
        if agent in bounds:
            raise DomainError("an agent does not bound envy toward themselves")
        for j, m in bounds.items():
            if not ZERO <= m <= ONE:
                raise DomainError(f"bound for agent {j} must lie in [0, 1]")
        return BoundsQuery(agent, tuple(sorted(bounds.items())))


def _envy(cross, i: int, j: int) -> int:
    """envy(i, j) = max(V_i(X_j) - V_i(X_i), 0) from a leaf's cross-values."""
    return max(cross[i - 1][j - 1] - cross[i - 1][i - 1], 0)


def _same(node):
    return node


class GuaranteeOracle:
    """Backward induction over one protocol, one grid, one valuation profile.

    A game state is the current node, the cuts made so far as (cut node id,
    grid index) pairs in creation order, the GCC picks as (node id, piece
    index) pairs, and the GCC allocations so far as (agent, lo, hi) triples
    of an agent and two grid indices.  Each agent's value of [0, x] at every
    grid point x is held as an integer numerator over ``denominator``, the
    least common denominator of all those values; leaf cross-values, envies
    and the scores the search compares are integers over it.  Only the
    results the queries return are ``Fraction``s.

    Leaf cross-value matrices are cached across queries, keyed on (node id,
    cuts, picks).  On a DAG, subgame results are memoized on the same key,
    which fully determines the pending allocation; a tree reaches each such
    key once per query, so there the memo would never hit and stays empty.
    """

    def __init__(self, p: Protocol, vals: Sequence[Valuation], grid: Grid,
                 budget: int = DEFAULT_BUDGET):
        if len(vals) != p.agents:
            raise DomainError(
                f"protocol has {p.agents} agents, got {len(vals)} valuations"
            )
        self.protocol = p
        self.vals = list(vals)
        self.grid = grid
        self.budget = budget
        self.evals = 0
        self._leaf_cache: dict = {}
        self._memo: dict = {}
        self._query = ""
        self._started = 0.0
        prefix = [[v.value(ZERO, x) for x in grid.points] for v in self.vals]
        self.denominator = lcm(*(f.denominator for row in prefix for f in row))
        self._prefix = [
            tuple(f.numerator * (self.denominator // f.denominator) for f in row)
            for row in prefix
        ]
        self._last = len(grid.points) - 1  # the grid index of position 1
        self._node_of = p.nodes.__getitem__ if isinstance(p, BcDag) else _same

    # -- plumbing -----------------------------------------------------------

    def _over_budget(self):
        raise BudgetExceededError(
            f"oracle budget of {self.budget} node evaluations exceeded in"
            f" {self._query}: {self.evals} evaluations made,"
            f" {perf_counter() - self._started:.3f} s elapsed;"
            " result inconclusive"
        )

    def _check_agents(self, *agents: int):
        n = self.protocol.agents
        for a in agents:
            if a not in range(1, n + 1):
                raise DomainError(f"agent {a} out of range 1..{n}")

    def _fraction(self, score: int) -> Fraction:
        return Fraction(score, self.denominator)

    # -- the game on grid indices ---------------------------------------------

    def _at(self, ref, positions: dict[int, int]) -> int:
        """The grid index of a cut ref; ``positions`` maps cut ids to indices."""
        if ref.kind == "origin":
            return 0
        if ref.kind == "end":
            return self._last
        try:
            return positions[ref.cut]
        except KeyError:
            raise ExecutionError(f"ref to cut {ref.cut} that was never made")

    def _spans(self, pieces, cuts, inverted_at=None) -> list[tuple[int, int]]:
        """GCC pieces as (lo, hi) index pairs.  With ``inverted_at``, the id
        of a cut node, an inverted piece raises as it does at that cut."""
        positions = dict(cuts)
        spans = []
        for left, right in pieces:
            lo, hi = self._at(left, positions), self._at(right, positions)
            if inverted_at is not None and lo > hi:
                raise ExecutionError("piece inverted at run time", node=inverted_at)
            spans.append((lo, hi))
        return spans

    def _bounds(self, cuts) -> list[int]:
        """Piece ends of the BC partition: 0, the sorted cuts, the last index."""
        return [0, *sorted(z for _, z in cuts), self._last]

    def _cut_interval(self, node, cuts) -> tuple[int, int]:
        """The interval a BC, DAG or extended cut must fall in."""
        if isinstance(node, BcCut):
            bounds = self._bounds(cuts)
            if not 0 < node.piece < len(bounds):
                raise ExecutionError(
                    f"cut piece {node.piece} out of range 1..{len(bounds) - 1}",
                    node=node.nid, agent=node.agent,
                )
            return bounds[node.piece - 1], bounds[node.piece]
        if isinstance(node, ExtCut):
            positions = dict(cuts)
            lo, hi = self._at(node.left, positions), self._at(node.right, positions)
            if lo > hi:
                raise ExecutionError("cut interval inverted at run time", node=node.nid)
            return lo, hi
        raise DomainError("current node is not a cut or a choose")

    def _moves(self, node, cuts, picks, allocated) -> list[tuple]:
        """Successor states of a cut or choose node, in the interpreter's
        order: a cut tries each of its pieces, and in each every grid index
        from the piece's left end to its right end."""
        if isinstance(node, _BRANCHES):
            node_of = self._node_of
            return [(node_of(kid), cuts, picks, allocated) for kid in node.children]
        nid = node.nid
        if isinstance(node, GccChoose):
            return [(node.child, cuts, picks + ((nid, k),),
                     allocated + ((node.agent, lo, hi),))
                    for k, (lo, hi) in enumerate(self._spans(node.pieces, cuts))]
        if isinstance(node, GccCut):
            return [(node.child, cuts + ((nid, z),), picks + ((nid, k),), allocated)
                    for k, (lo, hi) in enumerate(self._spans(node.pieces, cuts, nid))
                    for z in range(lo, hi + 1)]
        lo, hi = self._cut_interval(node, cuts)
        child = self._node_of(node.child)
        return [(child, cuts + ((nid, z),), picks, allocated)
                for z in range(lo, hi + 1)]

    def _branch(self, node: GccIfElse, cuts, picks):
        """The child of the first if-else branch whose condition holds."""
        positions, chosen = dict(cuts), dict(picks)

        def atom(a) -> bool:
            if isinstance(a, Less):  # indices order as the positions do
                return self._at(a.left, positions) < self._at(a.right, positions)
            if a.node not in chosen:
                raise ExecutionError(f"condition references undecided node {a.node}")
            return chosen[a.node] == a.index

        for cond, child in node.branches:
            if fold_condition(cond, atom):
                return child
        raise ExecutionError("no if-else branch matched", node=node.nid)

    def _leaf_pieces(self, node, cuts, allocated) -> list[list[tuple[int, int]]]:
        """Each agent's intervals at a leaf, as (lo, hi) index pairs."""
        n = self.protocol.agents
        pieces: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        if isinstance(node, BcLeaf):
            bounds = self._bounds(cuts)
            if len(bounds) - 1 != len(node.assign):
                raise ExecutionError(
                    f"leaf expects {len(node.assign)} pieces,"
                    f" partition has {len(bounds) - 1}",
                    node=node.nid,
                )
            for k, agent in enumerate(node.assign):
                if not 0 < agent <= n:
                    raise _leaf_agent_error(agent, n, node.nid)
                pieces[agent - 1].append((bounds[k], bounds[k + 1]))
            return pieces  # consecutive pieces of sorted cuts: a partition
        if isinstance(node, ExtLeaf):
            positions = dict(cuts)
            for seg in node.segments:
                lo, hi = self._at(seg.left, positions), self._at(seg.right, positions)
                if lo > hi:
                    raise ExecutionError("segment inverted at run time", node=node.nid)
                if not 0 < seg.agent <= n:
                    raise _leaf_agent_error(seg.agent, n, node.nid)
                pieces[seg.agent - 1].append((lo, hi))
        else:
            for agent, lo, hi in allocated:
                if not 0 < agent <= n:
                    raise _leaf_agent_error(agent, n, node.nid)
                pieces[agent - 1].append((lo, hi))
            for row in pieces:
                row.sort()
        try:
            check_allocation(pieces, self._last, self.grid.points.__getitem__)
        except DomainError as exc:
            raise ExecutionError(f"allocation invalid at leaf: {exc}", node=node.nid)
        return pieces

    def _leaf_cross(self, node, cuts, picks, allocated):
        """Matrix (i, j) = V_i(X_j) * denominator, from the prefix table."""
        key = (node.nid, cuts, picks)
        hit = self._leaf_cache.get(key)
        if hit is None:
            pieces = self._leaf_pieces(node, cuts, allocated)
            hit = tuple(
                tuple([sum([row[b] - row[a] for a, b in piece]) for piece in pieces])
                for row in self._prefix
            )
            self._leaf_cache[key] = hit
        return hit

    def _solve(self, query: str, score, agent: int, agent_maximizes: bool,
               extremes=None):
        """Max/min over the game from the root; ``score`` maps a leaf's
        cross-value matrix to its score.

        ``query`` names the query in budget errors and keys its memo entries.
        Yes/no queries pass ``extremes=(False, True)``: a side that reaches
        its own extreme skips its remaining moves, as ``any``/``all`` would.
        Values and envies pass none and look at every move, so their cost
        depends on the protocol and the grid, not on the valuations: an
        early stop at 0 or 1 pays off only for some valuation profiles.
        """
        lowest, highest = extremes or (None, None)
        memo = self._memo if isinstance(self.protocol, BcDag) else None
        self._query, self._started = query, perf_counter()

        def rec(node, cuts, picks, allocated):
            self.evals += 1
            if self.evals > self.budget:
                self._over_budget()
            if isinstance(node, _LEAVES):
                return score(self._leaf_cross(node, cuts, picks, allocated))
            if isinstance(node, GccIfElse):
                return rec(self._branch(node, cuts, picks), cuts, picks, allocated)
            if memo is not None:
                key = (query, (node.nid, cuts, picks))
                hit = memo.get(key)
                if hit is not None:
                    return hit
            nexts = self._moves(node, cuts, picks, allocated)
            if (node.agent == agent) == agent_maximizes:
                better, result, stop = max, lowest, highest
            else:
                better, result, stop = min, highest, lowest
            for nxt in nexts:
                outcome = rec(*nxt)
                result = outcome if result is None else better(result, outcome)
                if result == stop:
                    break
            if memo is not None:
                memo[key] = result
            return result

        return rec(self._node_of(self.protocol.root), (), (), ())

    # -- the four guarantee queries ------------------------------------------

    def can_guarantee(self, query: BoundsQuery) -> bool:
        """Can ``query.agent`` force envy(i, j) <= M_j for every listed j?"""
        i = query.agent
        self._check_agents(i, *(j for j, _ in query.bounds))
        den = self.denominator
        # envy / den <= m  <=>  envy * m.denominator <= m.numerator * den
        limits = [(j, m.denominator, m.numerator * den) for j, m in query.bounds]

        def leaf_ok(cross) -> bool:
            return all(_envy(cross, i, j) * d <= lim for j, d, lim in limits)

        pretty = ", ".join(f"{j}: {format_frac(m)}" for j, m in query.bounds)
        return self._solve(f"can_guarantee({i}, {{{pretty}}})", leaf_ok, i,
                           agent_maximizes=True, extremes=(False, True))

    def guarantee_value(self, agent: int) -> Fraction:
        """max over the agent's grid strategies of the worst-case V_i(X_i)."""
        self._check_agents(agent)
        return self._fraction(self._solve(
            f"guarantee_value({agent})",
            lambda cross: cross[agent - 1][agent - 1], agent,
            agent_maximizes=True))

    def guarantee_pair_envy(self, agent: int, other: int) -> Fraction:
        """min over the agent's strategies of the worst-case envy(agent, other)."""
        self._check_agents(agent, other)
        if agent == other:
            raise DomainError("envy toward oneself is identically zero")
        return self._fraction(self._solve(
            f"guarantee_pair_envy({agent}, {other})",
            lambda cross: _envy(cross, agent, other), agent,
            agent_maximizes=False))

    def guarantee_total_envy(self, agent: int) -> Fraction:
        """min over the agent's strategies of the worst-case total envy."""
        self._check_agents(agent)
        others = [j for j in range(1, self.protocol.agents + 1) if j != agent]
        return self._fraction(self._solve(
            f"guarantee_total_envy({agent})",
            lambda cross: sum(_envy(cross, agent, j) for j in others), agent,
            agent_maximizes=False))


# Convenience wrappers for one-shot queries; repeated queries against the
# same protocol should share a GuaranteeOracle for its caches.


def can_guarantee(p: Protocol, query: BoundsQuery, grid: Grid,
                  vals: Sequence[Valuation], budget: int = DEFAULT_BUDGET) -> bool:
    return GuaranteeOracle(p, vals, grid, budget).can_guarantee(query)


def guarantee_value(p: Protocol, agent: int, grid: Grid,
                    vals: Sequence[Valuation],
                    budget: int = DEFAULT_BUDGET) -> Fraction:
    return GuaranteeOracle(p, vals, grid, budget).guarantee_value(agent)


def guarantee_pair_envy(p: Protocol, agent: int, other: int, grid: Grid,
                        vals: Sequence[Valuation],
                        budget: int = DEFAULT_BUDGET) -> Fraction:
    return GuaranteeOracle(p, vals, grid, budget).guarantee_pair_envy(agent, other)


def guarantee_total_envy(p: Protocol, agent: int, grid: Grid,
                         vals: Sequence[Valuation],
                         budget: int = DEFAULT_BUDGET) -> Fraction:
    return GuaranteeOracle(p, vals, grid, budget).guarantee_total_envy(agent)


# ---------------------------------------------------------------------------
# Equivalence checking


class Notion:
    VALUE = "value"
    TOTAL = "total"
    PAIRWISE = "pairwise"
    STRONG = "strong"
    ALL = (VALUE, TOTAL, PAIRWISE, STRONG)


_LATTICE = (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1))


def strong_query_vectors(n: int, agent: int, samples: int,
                         seed: int = 0) -> list[dict[int, Fraction]]:
    """The default bound-vector sample: a small lattice plus random vectors.

    Each vector appears once, at its first occurrence.
    """
    others = [j for j in range(1, n + 1) if j != agent]
    combos = list(product(_LATTICE, repeat=len(others)))
    rng = random.Random(f"{seed}/{agent}")
    for _ in range(samples):
        combos.append(tuple(Fraction(rng.randint(0, 8), 8) for _ in others))
    return [dict(zip(others, combo)) for combo in dict.fromkeys(combos)]


@dataclass
class Disagreement:
    notion: str
    agent: int
    detail: str

    def to_json(self):
        return {"notion": self.notion, "agent": self.agent, "detail": self.detail}


@dataclass
class EquivReport:
    notion: str
    equivalent: bool
    disagreements: list[Disagreement]
    grid: Grid
    measurements: dict = field(default_factory=dict)

    def to_json(self):
        return {
            "notion": self.notion,
            "equivalent": self.equivalent,
            "disagreements": [d.to_json() for d in self.disagreements],
            "grid": self.grid.to_json(),
            "measurements": {k: str(v) for k, v in self.measurements.items()},
        }


def check_equiv(p1: Protocol, p2: Protocol, notion: str, grid: Grid,
                vals: Sequence[Valuation], bound_samples: int = 32,
                budget: int = DEFAULT_BUDGET, seed: int = 0) -> EquivReport:
    """Compare the guarantees two protocols give on a shared grid."""
    if p1.agents != p2.agents:
        raise DomainError("protocols disagree on the number of agents")
    if notion not in Notion.ALL:
        raise DomainError(f"unknown equivalence notion {notion!r}")
    n = p1.agents
    o1 = GuaranteeOracle(p1, vals, grid, budget)
    o2 = GuaranteeOracle(p2, vals, grid, budget)
    disagreements: list[Disagreement] = []
    measurements: dict = {}

    if notion == Notion.VALUE:
        for i in range(1, n + 1):
            a, b = o1.guarantee_value(i), o2.guarantee_value(i)
            measurements[f"value[{i}]"] = (a, b)
            if a != b:
                disagreements.append(
                    Disagreement(notion, i, f"guaranteed value {a} vs {b}")
                )
    elif notion == Notion.TOTAL:
        for i in range(1, n + 1):
            a, b = o1.guarantee_total_envy(i), o2.guarantee_total_envy(i)
            measurements[f"total[{i}]"] = (a, b)
            if a != b:
                disagreements.append(
                    Disagreement(notion, i, f"total envy bound {a} vs {b}")
                )
    elif notion == Notion.PAIRWISE:
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == j:
                    continue
                a = o1.guarantee_pair_envy(i, j)
                b = o2.guarantee_pair_envy(i, j)
                measurements[f"pair[{i},{j}]"] = (a, b)
                if a != b:
                    disagreements.append(
                        Disagreement(notion, i, f"envy({i},{j}) bound {a} vs {b}")
                    )
    else:  # STRONG
        for i in range(1, n + 1):
            for vector in strong_query_vectors(n, i, bound_samples, seed):
                query = BoundsQuery.make(i, vector)
                a, b = o1.can_guarantee(query), o2.can_guarantee(query)
                if a != b:
                    pretty = {j: str(m) for j, m in vector.items()}
                    disagreements.append(
                        Disagreement(
                            notion, i,
                            f"bounds {pretty}: {'yes' if a else 'no'} vs"
                            f" {'yes' if b else 'no'}",
                        )
                    )
    return EquivReport(notion, not disagreements, disagreements, grid, measurements)
