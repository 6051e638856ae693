"""Adversarial guarantee analysis on a finite grid of cut positions.

``GuaranteeOracle``'s ``can_guarantee`` and ``guarantee_*`` queries answer:
what can one agent secure for themselves no matter how everyone else plays,
when every cut is restricted to a shared finite grid?  Decisions of the
queried agent are existential, all other decisions (modelled as one
adversary) are universal, and leaves are scored exactly.  ``check_equiv``
compares two protocols by these queries, with all of a notion's value and
envy queries in one walk per protocol.  Results are exact for the
grid-restricted game; they are meaningful for the continuous game only when
the grid contains the positions the intended strategies need, so callers
should pin grids explicitly.

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

One walk meets the same state twice only where two paths meet: at a DAG
node that more than one edge enters, or, in a GCC or extended tree, where a
cut is dead (made above, read by nothing below).  So every form memoizes
subgames at those decision nodes alone, on the part of the state their
subgame still reads, and each walk starts with an empty memo; the rest of
the game is played as without it.  A BC tree has no such node.  A DAG is
walked as its linked nodes (``ir.linked_nodes``), so a memo key's node is
an object on every form.

The game is the interpreter's: each move, if-else branch and extended or
GCC leaf goes through the rules ``engine`` writes once for any ordered
positions, here with origin 0 and end the last grid index, so the oracle
raises the interpreter's ``ExecutionError`` wherever a protocol goes wrong
at run time.  A BC or DAG leaf's pieces are the parts between the sorted
cuts, so a leaf that fits them is scored from each agent's part values,
computed once per sorted order, with its parts grouped per agent once per
oracle (``_leaf_groups``); one that does not goes through the engine's
rule and its error.  The oracle skips only the checks that cannot fail
here: it generates legal moves alone, and only extended and GCC leaves are
checked to partition the cake (``valuation.check_allocation`` on indices,
with positions printed in the error).
"""

from __future__ import annotations

import random
from collections import Counter
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
    BcChoose, BcCut, BcDag, BcLeaf, BcTree, ExtChoose, ExtCut, ExtLeaf, GccChoose,
    GccCut, GccIfElse, GccLeaf, Less, Protocol, _children, condition_atoms, linked_nodes,
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

    def envy(cross) -> int:
        mine, total = cross[own], 0
        for k in cells:
            if cross[k] > mine:
                total += cross[k] - mine
        return total

    return (agent, False, (own, *cells), envy)


# -- which cuts a tree subgame still reads -------------------------------------
#
# A subgame's value depends on the node, the positions of the cuts its
# subtree still reads, the picks its conditions read and, on GCC, the pieces
# allocated so far.  A cut made above that nothing below reads is dead there,
# and projecting dead cuts out of the key lets two states that differ only in
# them share one memo entry, as a transposition table does (Zobrist, "A new
# hashing method with application for game playing", 1970).


def _own_reads(node) -> tuple[list, list]:
    """The cut ids and pick ids ``node`` itself reads: GCC piece refs,
    extended cut bounds and leaf segments, and if-else condition atoms."""
    if isinstance(node, GccIfElse):
        atoms = [a for cond, _ in node.branches for a in condition_atoms(cond)]
        refs = [r for a in atoms if isinstance(a, Less) for r in (a.left, a.right)]
        picks = [a.node for a in atoms if not isinstance(a, Less)]
    elif isinstance(node, (GccCut, GccChoose)):
        refs, picks = [r for piece in node.pieces for r in piece], []
    elif isinstance(node, ExtCut):
        refs, picks = [node.left, node.right], []
    elif isinstance(node, ExtLeaf):
        refs, picks = [r for seg in node.segments for r in (seg.left, seg.right)], []
    else:
        return [], []
    return [r.cut for r in refs if r.kind == "cut"], picks


def _count(counts: dict, keys, step: int) -> None:
    """Add ``step`` to each key's count; a key whose count is 0 goes."""
    for key in keys:
        c = counts.get(key, 0) + step
        if c:
            counts[key] = c
        else:
            del counts[key]


def _merge(kids: list, own: tuple, reads, made: dict, pinned: dict) -> set:
    """The ids made above a node and read below it, not pinned: its
    children's (the largest set taken over, the others added to it), less
    ``own``, the id the node makes if any, plus those the node reads."""
    base = max(kids, key=len, default=None)
    base = set() if base is None else base
    for s in kids:
        if s is not base:
            base |= s
    base.difference_update(own)
    base.update([r for r in reads if r in made and r not in pinned])
    return base


def _live_walk(root, keep) -> tuple[list, dict]:
    """One explicit-stack pass over a GCC or extended tree.

    A cut or pick made above a node is live there when the node's subtree
    reads it.  A GCC leaf reads the allocation, so every cut a choose names
    and every choose's pick count as read by every leaf below that choose:
    they are pinned live for the choose's subtree.  Each node's set of live,
    unpinned ids made above it is built from its children's, so a chain
    shares one set and no node keeps a copy.

    Returns a row per decision node in preorder: ``(id(node), row of the
    nearest decision ancestor or -1, the number of cuts made above it that
    are dead there)``; and, for the nodes whose ``id`` is in ``keep``, their
    live cut ids and live pick ids made above them.
    """
    cuts_made: dict = {}  # id -> count, over the nodes above the current one
    cuts_pinned: dict = {}
    picks_made: dict = {}
    picks_pinned: dict = {}
    rows: list = []
    live: dict = {}
    done: list = []  # (live cuts, live picks) of finished subtrees
    stack = [(root, -1, -1, None)]
    while stack:
        node, up, row, facts = stack.pop()
        if facts is None:  # entering: below here the node's own facts hold
            cut_reads, pick_reads = _own_reads(node)
            nid = (node.nid,)
            cut = nid if isinstance(node, (GccCut, ExtCut)) else ()
            pick = nid if isinstance(node, (GccCut, GccChoose)) else ()
            pins = ([c for c in cut_reads if c in cuts_made], nid) \
                if isinstance(node, GccChoose) else ((), ())
            facts = (cut, pick, pins, cut_reads, pick_reads)
            if isinstance(node, (GccCut, GccChoose, ExtCut, ExtChoose)):
                row = len(rows)
                rows.append(None)
            stack.append((node, up, row, facts))
            down = up if row < 0 else row
            stack.extend([(kid, down, -1, None) for kid in reversed(_children(node))])
            step = 1
        else:
            step = -1
        cut, pick, pins, cut_reads, pick_reads = facts
        _count(cuts_made, cut, step)
        _count(picks_made, pick, step)
        _count(cuts_pinned, pins[0], step)
        _count(picks_pinned, pins[1], step)
        if step == 1:
            continue
        split = len(done) - len(_children(node))
        below = done[split:]
        del done[split:]
        cut_set = _merge([c for c, _ in below], cut, cut_reads, cuts_made, cuts_pinned)
        pick_set = _merge([p for _, p in below], pick, pick_reads, picks_made,
                          picks_pinned)
        ident = id(node)
        if row >= 0:
            rows[row] = (ident, up, len(cuts_made) - len(cuts_pinned) - len(cut_set))
        if ident in keep:
            # A node object placed twice keys what either place reads.
            old = live.get(ident, (frozenset(), frozenset()))
            live[ident] = (old[0].union(cut_set, cuts_pinned),
                           old[1].union(pick_set, picks_pinned))
        done.append((cut_set, pick_set))
    return rows, live


def _memo_points(p: Protocol) -> tuple:
    """The node a walk of ``p`` starts at (a DAG's linked root), and
    ``id(node)`` -> (live cut ids, live pick ids) at each memo point of
    ``p``.  On a DAG that is a decision node more than one edge enters, where
    every cut is live and no pick is made.  On a GCC or extended tree it is a
    decision node where a cut made above becomes dead for the first time,
    that is, where more cuts are dead than at the nearest decision ancestor.
    A BC tree has none, as every BC leaf reads every cut.  Elsewhere one walk
    cannot reach the same live state twice, so the memo would only keep
    entries that never hit.  A leaf is never a memo point: it is scored."""
    if isinstance(p, BcDag):
        nodes = linked_nodes(p)
        entered = Counter(id(kid) for node in nodes.values() for kid in _children(node))
        cuts = frozenset(nid for nid, node in nodes.items() if isinstance(node, BcCut))
        return nodes[p.root], {id(node): (cuts, frozenset()) for node in nodes.values()
                               if entered[id(node)] > 1 and not isinstance(node, BcLeaf)}
    if isinstance(p, BcTree):
        return p.root, {}
    rows, _ = _live_walk(p.root, ())
    points = {ident for ident, up, dead in rows if up >= 0 and dead > rows[up][2]}
    return p.root, _live_walk(p.root, points)[1] if points else {}


def _leaf_groups(start, agents: int) -> dict:
    """``id(leaf)`` -> the leaf's part indices per agent, for each BC or DAG
    leaf reachable from ``start`` that gives every part to an agent in
    1..``agents``; found once per oracle on an explicit stack.  The walk
    scores such a leaf from each agent's values of the parts between the
    sorted cuts."""
    groups: dict = {}
    seen: set = set()
    stack = [start]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, BcLeaf):
            if all(0 < a <= agents for a in node.assign):
                groups[id(node)] = tuple(
                    tuple(k for k, a in enumerate(node.assign) if a == j)
                    for j in range(1, agents + 1))
        else:
            stack.extend(_children(node))
    return groups


class GuaranteeOracle:
    """Backward induction over one protocol, one grid, one valuation profile.

    A game state is the current node (a DAG's linked node), the cuts made so
    far as (cut node id, grid index) pairs in creation order, the GCC picks
    as (node id, piece index) pairs, the GCC allocations so far as (agent,
    (lo, hi)) pairs of an agent and two grid indices, and, in a BC or DAG
    game, the cuts' grid indices sorted, each cut inserted as
    ``engine.step_cut`` inserts it.
    Each agent's value of [0, x] at every grid point x is held as an integer
    numerator over ``denominator``, the least common denominator of all
    those values; leaf cross-values, envies and the scores the search
    compares are integers over it.  Only the results the queries return are
    ``Fraction``s.

    At construction each BC or DAG leaf's parts are grouped per agent
    (``_leaf_groups``), so a walk scores such a leaf from part values.
    Engine rules serve every move and branch, and the GCC and extended
    leaves.  One walk answers a batch of queries and scores each leaf once,
    so no leaf is cached.  Subgame results are memoized at the memo points only
    (``_memo_points``, found once per oracle): the DAG nodes more than one
    edge enters, and the GCC or extended tree nodes where a cut made above
    is first read by nothing below.  There the key is (node, the live cuts'
    (id, grid index) pairs, the live picks, allocated), and the memo is
    cleared at the start of each walk, so a query asked twice walks twice.
    A BC tree has no memo point.  ``budget`` bounds the evaluations of all
    its walks.
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
        self._root, self._memo_at = _memo_points(p)
        self._groups = _leaf_groups(self._root, p.agents)

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
            return [(kid, cuts, picks, allocated, order) for kid in node.children]
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
        child, sorts = node.child, isinstance(node, BcCut)
        return [(child, cuts + ((nid, z),), picks, allocated,
                 _insert(order, z) if sorts else order)
                for z in range(lo, hi + 1)]

    def _solve(self, label: str, queries: Sequence[tuple], yes_no=False) -> tuple:
        """Max/min over the game from the root for a batch of queries, in one
        walk; one result per query.  ``label`` names the walk in budget
        errors.  A query ``(agent, agent_maximizes, cells, score)`` takes the
        max at the agent's nodes if ``agent_maximizes``, else the min, and the
        other elsewhere.  A leaf computes each cross-value some query's
        ``cells`` name once, into a list indexed by ``_cell``, and ``score``
        maps that list to the query's integer or bool.  A batch of one yes/no
        query passes ``yes_no``: a side that reaches its own extreme skips its
        remaining moves.  Values and envies look at every move, so their cost
        depends on the protocol and the grid, not on the valuations: an early
        stop at 0 or 1 pays off only for some profiles.

        A BC or DAG leaf whose part count matches the cuts made is scored
        from each valuer's values of the parts between the sorted cuts.  The
        walk keeps those of the last sorted order it met, so sibling leaves,
        which share their order, compute them once.  A GCC or extended leaf
        goes through ``engine._leaf_pieces`` and ``check_allocation``; so
        does a BC leaf that does not fit the cuts or names an agent outside
        1..n, and ``_leaf_pieces`` raises the interpreter's error for it.
        """
        n, last, prefix = self.protocol.agents, self._last, self._prefix
        # (cell, valuer, owner) per cross-value some query reads
        plan = [(k, k // n, k % n)
                for k in sorted({k for _, _, cells, _ in queries for k in cells})]
        valuers = sorted({i for _, i, _ in plan})
        scores = [score for _, _, _, score in queries]
        # each query's max or min per acting agent, 0 for one no query is about
        sides = {a: tuple(max if (a == agent) == up else min
                          for agent, up, _, _ in queries) for a in range(n + 1)}
        memo, memo_at, groups_of = self._memo, self._memo_at, self._groups
        memo.clear()  # a walk keeps no entry from the walk before
        self._query, self._started = label, perf_counter()
        cross = [0] * (n * n)  # the leaf being scored, by ``_cell``
        # the last sorted order a BC leaf met, and each valuer's part values
        # there, as the list's ``__getitem__`` (None for an agent no cell reads)
        held: list = [None, [None] * n]

        def rec(node, cuts, picks, allocated, order):
            self.evals += 1
            if self.evals > self.budget:
                self._over_budget()
            if isinstance(node, _LEAVES):
                groups = groups_of.get(id(node))
                if groups is not None and len(order) + 1 == len(node.assign):
                    if order != held[0]:
                        bounds = (0, *order, last)
                        for i in valuers:
                            row = prefix[i]
                            held[1][i] = [row[b] - row[a] for a, b
                                          in zip(bounds, bounds[1:])].__getitem__
                        held[0] = order
                    parts = held[1]
                    for k, i, j in plan:
                        cross[k] = sum(map(parts[i], groups[j]))
                else:
                    # A BC leaf gets here only if it does not fit the cuts or
                    # names an agent outside 1..n: ``_leaf_pieces`` raises.
                    pieces = _leaf_pieces(node, n, cuts, order, allocated, 0, last)
                    try:
                        check_allocation(pieces, last, self.grid.points.__getitem__)
                    except DomainError as exc:
                        raise ExecutionError(f"allocation invalid at leaf: {exc}",
                                             node=node.nid)
                    for k, i, j in plan:
                        row = prefix[i]
                        cross[k] = sum([row[b] - row[a] for a, b in pieces[j]])
                return tuple([score(cross) for score in scores])
            if isinstance(node, GccIfElse):
                return rec(_branch(node, cuts, picks, 0, last),
                           cuts, picks, allocated, order)
            key = None
            if memo_at and (live := memo_at.get(id(node))) is not None:
                # keyed by object: a code-built tree may reuse a node id
                live_cuts, live_picks = live
                key = (id(node), tuple([c for c in cuts if c[0] in live_cuts]),
                       tuple([pk for pk in picks if pk[0] in live_picks]), allocated)
                hit = memo.get(key)
                if hit is not None:
                    return hit
            nexts = self._moves(node, cuts, picks, allocated, order)
            if not nexts:  # without a move no result could be taken
                raise ExecutionError("decision node offers no move", node=node.nid)
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
            if key is not None:
                memo[key] = result
            return result

        return rec(self._root, (), (), (), ())

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
            "measurements": {k: [format_frac(a), format_frac(b)]
                             for k, (a, b) in self.measurements.items()},
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
    for (i, key, what, _), a, b in zip(asks, *results, strict=True):
        if key is not None:
            measurements[key] = (a, b)
        if a != b:
            disagreements.append(Disagreement(notion, i, f"{what} {a} vs {b}"))
    return EquivReport(notion, not disagreements, disagreements, grid, measurements)
