"""Adversarial guarantee analysis on a finite grid of cut positions.

``can_guarantee`` and the ``guarantee_*`` functions answer: what can one
agent secure for themselves no matter how everyone else plays, when every
cut is restricted to a shared finite grid?  Decisions of the queried agent
are existential, all other decisions (modelled as one adversary) are
universal, and leaves are scored exactly.  ``check_equiv`` compares two
protocols by these queries, with all of a notion's value and envy queries
in one walk per protocol.  Results are exact for the grid-restricted game;
they are meaningful for the continuous game only when the grid contains the
positions the intended strategies need, so callers should pin grids
explicitly.

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

The game is the interpreter's: each move and leaf goes through the rules
``engine`` writes once for any ordered positions, here with origin 0 and
end the last grid index, so the oracle raises the interpreter's
``ExecutionError`` wherever a protocol goes wrong at run time.  It skips
only the checks that cannot fail here: it generates legal moves alone, and
a BC or DAG leaf's pieces come from the sorted cuts, so only extended and
GCC leaves are checked to partition the cake (``valuation.check_allocation``
on indices, with positions printed in the error).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import lcm
from operator import itemgetter
from time import perf_counter
from typing import Sequence

from .engine import _branch, _cut_interval, _insert, _leaf_pieces, _spans
# step_cut is not called here; perfbench/test_perfbench.py
# (test_install_and_uninstall_restore_the_program) reads it through this
# module to check that the tracer patches and restores aliases.
from .engine import step_cut  # noqa: F401
from .errors import BudgetExceededError, DomainError, ExecutionError
from .ir import (
    BcChoose, BcCut, BcDag, BcLeaf, ExtChoose, ExtLeaf, GccChoose, GccCut, GccIfElse,
    GccLeaf, Protocol,
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


def _cell(n: int, i: int, j: int) -> int:
    """The key of V_i(X_j) among a leaf's cross-values."""
    return (i - 1) * n + j - 1


def _value_query(n: int, agent: int) -> tuple:
    """Maximize V_agent(X_agent); see ``GuaranteeOracle._solve``."""
    own = _cell(n, agent, agent)
    return (agent, True, (own,), itemgetter(own))


def _envy_query(n: int, agent: int, others: Sequence[int]) -> tuple:
    """Minimize the agent's total envy toward ``others``; see ``_value_query``."""
    own, cells = _cell(n, agent, agent), [_cell(n, agent, j) for j in others]
    return (agent, False, (own, *cells),
            lambda cross: sum([max(cross[k] - cross[own], 0) for k in cells]))


def _same(node):
    return node


class GuaranteeOracle:
    """Backward induction over one protocol, one grid, one valuation profile.

    A game state is the current node, the cuts made so far as (cut node id,
    grid index) pairs in creation order, the GCC picks as (node id, piece
    index) pairs, the GCC allocations so far as (agent, (lo, hi)) pairs of
    an agent and two grid indices, and, in a BC or DAG game, the cuts' grid
    indices sorted, each cut inserted as ``engine.step_cut`` inserts it.
    Each agent's value of [0, x] at every grid point x is held as an integer
    numerator over ``denominator``, the least common denominator of all
    those values; leaf cross-values, envies and the scores the search
    compares are integers over it.  Only the results the queries return are
    ``Fraction``s.

    One walk answers a batch of queries and scores each leaf once, so no
    leaf is cached.  On a DAG, subgame results are memoized on (walk, node
    id, cuts, picks), which fully determines the pending allocation; a tree
    reaches each such key once per walk, so there the memo would never hit
    and stays empty.  ``budget`` bounds the evaluations of all its walks.
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
        self._memo: dict = {}
        # Always empty: no leaf is cached.  perfbench/tracer.py swaps it for a
        # counting dict and reports its size.
        self._leaf_cache: dict = {}
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

    def _moves(self, node, cuts, picks, allocated, order) -> list[tuple]:
        """Successor states of a cut or choose node, in the interpreter's
        order: a cut tries each of its pieces, and in each every grid index
        from the piece's left end to its right end."""
        if isinstance(node, _BRANCHES):
            node_of = self._node_of
            return [(node_of(kid), cuts, picks, allocated, order) for kid in node.children]
        nid, last = node.nid, self._last
        if isinstance(node, GccChoose):
            return [(node.child, cuts, picks + ((nid, k),),
                     allocated + ((node.agent, span),), order)
                    for k, span in enumerate(_spans(node, cuts, 0, last))]
        # Only the BC and DAG rules read the sorted order, so only their cuts
        # are inserted into it.
        if isinstance(node, GccCut):
            return [(node.child, cuts + ((nid, z),), picks + ((nid, k),), allocated,
                     order)
                    for k, (lo, hi) in enumerate(_spans(node, cuts, 0, last))
                    for z in range(lo, hi + 1)]
        lo, hi = _cut_interval(node, cuts, order, 0, last)
        child, sorts = self._node_of(node.child), isinstance(node, BcCut)
        return [(child, cuts + ((nid, z),), picks, allocated,
                 _insert(order, z) if sorts else order)
                for z in range(lo, hi + 1)]

    def _solve(self, label: str, queries: Sequence[tuple], yes_no=False) -> tuple:
        """Max/min over the game from the root for a batch of queries, in one
        walk; one result per query.  ``label`` names the walk in budget errors
        and keys its memo entries.  A query ``(agent, agent_maximizes, cells,
        score)`` takes the max at the agent's nodes if ``agent_maximizes``,
        else the min, and the other elsewhere.  A leaf computes each
        cross-value some query's ``cells`` name once (keyed by ``_cell``), and
        ``score`` maps them to the query's integer or bool.  A batch of one
        yes/no query passes ``yes_no``: a side that reaches its own extreme
        skips its remaining moves.  Values and envies look at every move, so
        their cost depends on the protocol and the grid, not on the
        valuations: an early stop at 0 or 1 pays off only for some profiles.
        """
        n, last = self.protocol.agents, self._last
        plan = [(k, self._prefix[k // n], k % n)
                for k in sorted({k for _, _, cells, _ in queries for k in cells})]
        scores = [score for _, _, _, score in queries]
        # each query's max or min per acting agent, 0 for one no query is about
        sides = {a: tuple(max if (a == agent) == up else min
                          for agent, up, _, _ in queries) for a in range(n + 1)}
        memo = self._memo if isinstance(self.protocol, BcDag) else None
        self._query, self._started = label, perf_counter()

        def rec(node, cuts, picks, allocated, order):
            self.evals += 1
            if self.evals > self.budget:
                self._over_budget()
            if isinstance(node, _LEAVES):
                pieces = _leaf_pieces(node, n, cuts, order, allocated, 0, last)
                if not isinstance(node, BcLeaf):
                    try:
                        check_allocation(pieces, last, self.grid.points.__getitem__)
                    except DomainError as exc:
                        raise ExecutionError(f"allocation invalid at leaf: {exc}",
                                             node=node.nid)
                cross = {k: sum([row[b] - row[a] for a, b in pieces[j]])
                         for k, row, j in plan}
                return tuple([score(cross) for score in scores])
            if isinstance(node, GccIfElse):
                return rec(_branch(node, cuts, picks, 0, last),
                           cuts, picks, allocated, order)
            if memo is not None:
                key = (label, node.nid, cuts, picks)
                hit = memo.get(key)
                if hit is not None:
                    return hit
            nexts = self._moves(node, cuts, picks, allocated, order)
            ops = sides.get(node.agent, sides[0])
            if yes_no:  # a side stops at its own extreme: max at True, min at False
                stop = ops[0] is max
                result = (not stop,)
                for nxt in nexts:
                    if rec(*nxt)[0] is stop:
                        result = (stop,)
                        break
            else:
                outcomes = [rec(*nxt) for nxt in nexts]
                result = tuple([op(column) for op, column in zip(ops, zip(*outcomes))])
            if memo is not None:
                memo[key] = result
            return result

        return rec(self._node_of(self.protocol.root), (), (), (), ())

    # -- the four guarantee queries, each a walk of its own --------------------

    def can_guarantee(self, query: BoundsQuery) -> bool:
        """Can ``query.agent`` force envy(i, j) <= M_j for every listed j?"""
        i, n = query.agent, self.protocol.agents
        self._check_agents(i, *(j for j, _ in query.bounds))
        den, own = self.denominator, _cell(n, i, i)
        # envy / den <= m  <=>  envy * m.denominator <= m.numerator * den
        limits = [(_cell(n, i, j), m.denominator, m.numerator * den)
                  for j, m in query.bounds]

        def leaf_ok(cross) -> bool:
            return all(max(cross[k] - cross[own], 0) * d <= lim for k, d, lim in limits)

        pretty = ", ".join(f"{j}: {format_frac(m)}" for j, m in query.bounds)
        cells = (own, *(k for k, _, _ in limits))
        return self._solve(f"can_guarantee({i}, {{{pretty}}})",
                           [(i, True, cells, leaf_ok)], yes_no=True)[0]

    def guarantee_value(self, agent: int) -> Fraction:
        """max over the agent's grid strategies of the worst-case V_i(X_i)."""
        self._check_agents(agent)
        query = _value_query(self.protocol.agents, agent)
        return self._fraction(self._solve(f"guarantee_value({agent})", [query])[0])

    def guarantee_pair_envy(self, agent: int, other: int) -> Fraction:
        """min over the agent's strategies of the worst-case envy(agent, other)."""
        self._check_agents(agent, other)
        if agent == other:
            raise DomainError("envy toward oneself is identically zero")
        query = _envy_query(self.protocol.agents, agent, (other,))
        return self._fraction(self._solve(f"guarantee_pair_envy({agent}, {other})",
                                          [query])[0])

    def guarantee_total_envy(self, agent: int) -> Fraction:
        """min over the agent's strategies of the worst-case total envy."""
        self._check_agents(agent)
        others = [j for j in range(1, self.protocol.agents + 1) if j != agent]
        query = _envy_query(self.protocol.agents, agent, others)
        return self._fraction(self._solve(f"guarantee_total_envy({agent})", [query])[0])


# Convenience wrappers for one-shot queries, each a walk of its own.


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
    """Compare the guarantees two protocols give on a shared grid: value, total
    and pairwise in one walk per protocol, strong by one ``can_guarantee`` per
    bound vector.  The budget is per protocol, and its error names both."""
    if p1.agents != p2.agents:
        raise DomainError("protocols disagree on the number of agents")
    if notion not in Notion.ALL:
        raise DomainError(f"unknown equivalence notion {notion!r}")
    n = p1.agents
    agents = range(1, n + 1)
    # per query: agent, measurement key, what a disagreement reports, query
    if notion == Notion.VALUE:
        asks = [(i, f"value[{i}]", "guaranteed value", _value_query(n, i))
                for i in agents]
    elif notion == Notion.TOTAL:
        asks = [(i, f"total[{i}]", "total envy bound",
                 _envy_query(n, i, [j for j in agents if j != i])) for i in agents]
    elif notion == Notion.PAIRWISE:
        asks = [(i, f"pair[{i},{j}]", f"envy({i},{j}) bound", _envy_query(n, i, (j,)))
                for i in agents for j in agents if i != j]
    else:
        asks = [(i, None, f"bounds { {j: str(m) for j, m in v.items()} }:",
                 BoundsQuery.make(i, v)) for i in agents
                for v in strong_query_vectors(n, i, bound_samples, seed)]

    def walk(o: GuaranteeOracle) -> list:
        if notion == Notion.STRONG:
            return ["yes" if o.can_guarantee(q) else "no" for *_, q in asks]
        label = "the walk for " + ", ".join(key for _, key, _, _ in asks)
        return [o._fraction(s) for s in o._solve(label, [q for *_, q in asks])]

    results = []
    for k, p in enumerate((p1, p2), 1):
        try:
            results.append(walk(GuaranteeOracle(p, vals, grid, budget)))
        except BudgetExceededError as exc:
            raise BudgetExceededError(
                f"check_equiv {notion}, protocol {k}: {exc}") from None
    disagreements: list[Disagreement] = []
    measurements: dict = {}
    for (i, key, what, _), a, b in zip(asks, *results):
        if key is not None:
            measurements[key] = (a, b)
        if a != b:
            disagreements.append(Disagreement(notion, i, f"{what} {a} vs {b}"))
    return EquivReport(notion, not disagreements, disagreements, grid, measurements)
