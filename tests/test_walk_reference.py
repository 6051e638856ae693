"""The oracle walk against the walk it replaced.

``GuaranteeOracle`` scores a BC or DAG leaf from each agent's part values,
kept for the last sorted cut order; ``walk_reference.NodeWalkOracle`` is the
walk before that, which builds every leaf's pieces through the engine.  On seeded
random protocols of every form, each value, total and pairwise batch and
each ``can_guarantee`` must give the same result, the same cumulative
evaluation count and the same memo on both, and so must every error a
broken code-built protocol raises.  The examples are derandomized, so every
run tries the same ones.
"""

import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cakewalk.errors import CakeError
from cakewalk.ir import (
    END, ORIGIN, BcChoose, BcCut, BcDag, BcLeaf, BcTree, ExtBcTree, ExtCut, ExtLeaf,
    ExtSegment, GccChoose, GccCut, GccLeaf, GccTree, at,
)
from cakewalk.oracle import (
    BoundsQuery, GuaranteeOracle, build_grid, _envy_query, _value_query,
)
from cakewalk.valuation import random_valuation

from helpers import memo_by_nid, random_bc_tree, random_dag, random_ext_tree, random_gcc
from walk_reference import NodeWalkOracle

PROPERTY = settings(max_examples=50, deadline=None, derandomize=True)
BUDGET = 200_000


def batches(n: int) -> dict:
    agents = range(1, n + 1)
    return {
        "value": [_value_query(n, i) for i in agents],
        "total": [_envy_query(n, i, [j for j in agents if j != i]) for i in agents],
        "pairwise": [_envy_query(n, i, (j,)) for i in agents for j in agents if i != j],
    }


def bound_queries(n: int) -> list:
    agents = range(1, n + 1)
    queries = [BoundsQuery.make(i, {j: m}) for i in agents for j in agents if j != i
               for m in (F(0), F(1, 4), F(1, 2))]
    queries += [BoundsQuery.make(i, {j: F(1, 3) for j in agents if j != i})
                for i in agents]
    return queries


def outcome(oracle, call):
    """What ``call(oracle)`` returns or raises (without the elapsed time a
    budget error prints), the oracle's evaluations and its memo by node id."""
    try:
        got = call(oracle)
    except CakeError as exc:
        got = (type(exc), re.sub(r"[0-9.]+ s elapsed", "", str(exc)))
    return got, oracle.evals, memo_by_nid(oracle)


def calls(n: int) -> list:
    out = [lambda o, name=name, qs=qs: o._solve(name, qs)
           for name, qs in batches(n).items()]
    out += [lambda o, q=q: o.can_guarantee(q) for q in bound_queries(n)]
    return out


def assert_same_walks(p, vals, grid, budget=BUDGET):
    """Every call on one oracle of each kind, in turn, agrees."""
    fast = GuaranteeOracle(p, vals, grid, budget)
    ref = NodeWalkOracle(p, vals, grid, budget)
    for call in calls(p.agents):
        assert outcome(fast, call) == outcome(ref, call)
    assert fast._leaf_cache == {}


def profile(seed: int, agents: int) -> list:
    return [random_valuation(seed + k, 2 + k % 2) for k in range(agents)]


seeds = st.integers(0, 10_000)


@PROPERTY
@given(seeds, st.sampled_from([2, 3]))
def test_random_bc_trees(seed, agents):
    vals = profile(seed, agents)
    assert_same_walks(random_bc_tree(random.Random(seed), agents, 14), vals,
                      build_grid(vals, 2))


@PROPERTY
@given(seeds, st.sampled_from([2, 3]))
def test_random_extended_trees(seed, agents):
    vals = profile(seed, agents)
    assert_same_walks(random_ext_tree(random.Random(seed), agents, 14), vals,
                      build_grid(vals, 2))


@PROPERTY
@given(seeds)
def test_random_gcc_trees(seed):
    vals = profile(seed, 2)
    assert_same_walks(random_gcc(random.Random(seed), 2, 5), vals, build_grid(vals, 2))


@PROPERTY
@given(seeds)
def test_random_dags(seed):
    vals = profile(seed, 2)
    assert_same_walks(random_dag(random.Random(seed), 2, 25), vals, build_grid(vals, 2))


def test_budget_error_at_the_same_evaluation():
    p = random_bc_tree(random.Random(7), 3, 14)
    vals = profile(7, 3)
    for budget in (1, 5, 40):
        assert_same_walks(p, vals, build_grid(vals, 2), budget)


# -- broken code-built protocols: each run-time error the walk raises --------

def _leaf_after_a_sound_sibling(bad_leaf):
    """Agent 2 picks a leaf that fits the one cut made, or ``bad_leaf``; the
    sound sibling comes first, so the walk has met the same sorted order."""
    return BcTree(2, BcCut(0, 1, 1, BcChoose(1, 2, (BcLeaf(2, (1, 2)), bad_leaf))))


def _dag(nodes):
    return BcDag(2, 0, {node.nid: node for node in nodes})


BROKEN = {
    # a BC or DAG leaf whose part count differs from the cuts made
    "leaf-piece-count": _leaf_after_a_sound_sibling(BcLeaf(3, (1,))),
    "leaf-piece-count-and-agent": _leaf_after_a_sound_sibling(BcLeaf(3, (3,))),
    "dag-leaf-piece-count": _dag([BcCut(0, 1, 1, 1), BcLeaf(1, (1, 2, 1))]),
    # a leaf that gives a piece to an agent outside 1..n
    "leaf-agent-3": _leaf_after_a_sound_sibling(BcLeaf(3, (1, 3))),
    "leaf-agent-0": _leaf_after_a_sound_sibling(BcLeaf(3, (0, 2))),
    "dag-leaf-agent-minus-1": _dag([BcCut(0, 1, 1, 1), BcLeaf(1, (-1, 2))]),
    "ext-segment-agent-3": ExtBcTree(2, ExtCut(0, 1, ORIGIN, END, ExtLeaf(
        1, (ExtSegment(ORIGIN, at(0), 1), ExtSegment(at(0), END, 3))))),
    "gcc-choose-agent-3": GccTree(2, GccChoose(0, 3, ((ORIGIN, END),), GccLeaf(1))),
    # a cut in a piece that does not exist
    "bc-cut-piece-0": BcTree(2, BcCut(0, 1, 0, BcLeaf(1, (1, 2)))),
    "bc-cut-piece-3": BcTree(2, BcCut(0, 1, 3, BcLeaf(1, (1, 2)))),
    "dag-cut-piece-2": _dag([BcCut(0, 1, 2, 1), BcLeaf(1, (1, 2))]),
    # a decision node that offers no move
    "bc-choose-no-move": BcTree(2, BcCut(0, 1, 1, BcChoose(1, 2, ()))),
    "dag-choose-no-move": _dag([BcChoose(0, 1, ())]),
    "gcc-cut-no-move": GccTree(2, GccCut(0, 1, (), GccLeaf(1))),
    "gcc-choose-no-move": GccTree(2, GccChoose(0, 1, (), GccLeaf(1))),
    # a GCC or extended leaf that does not partition the cake
    "gcc-leaf-overlap": GccTree(2, GccCut(0, 1, ((ORIGIN, END),), GccChoose(
        1, 1, ((ORIGIN, at(0)),), GccChoose(2, 2, ((ORIGIN, END),), GccLeaf(3))))),
    "gcc-leaf-unallocated": GccTree(2, GccCut(0, 1, ((ORIGIN, END),), GccChoose(
        1, 1, ((ORIGIN, at(0)),), GccLeaf(2)))),
    "ext-cake-unallocated": ExtBcTree(2, ExtCut(0, 1, ORIGIN, END, ExtLeaf(
        1, (ExtSegment(ORIGIN, at(0), 1),)))),
    "ext-segments-out-of-order": ExtBcTree(2, ExtCut(0, 1, ORIGIN, END, ExtLeaf(
        1, (ExtSegment(at(0), END, 1), ExtSegment(ORIGIN, at(0), 1))))),
}


@pytest.mark.parametrize("name", BROKEN)
def test_same_error(name):
    p = BROKEN[name]
    vals = profile(3, 2)
    grid = build_grid(vals, 2)
    for call in calls(2):
        fast, ref = (outcome(cls(p, vals, grid), call)
                     for cls in (GuaranteeOracle, NodeWalkOracle))
        assert fast == ref
        error = fast[0][0]
        assert isinstance(error, type) and issubclass(error, CakeError), fast
