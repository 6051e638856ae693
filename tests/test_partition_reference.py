"""The interpreter's sorted cut order against the sort it replaced.

``reference_partition`` is ``engine.partition_of`` as it was before the cut
positions were kept sorted on ``ExecState.order``: every decision sorted all
the cuts made so far by (position, creation index).  Each strategy here is
wrapped so that at every decision the partition and cut positions the
engine hands it must equal the reference's, built from the cuts among the
context's events.  BC leaves are allocated again over the reference
partition, and every trace is replayed and retargeted onto itself.
"""

import random
from fractions import Fraction as F

import pytest

from cakewalk.engine import (
    CutMade, allocation_values, follow, partition_of, replay, run,
)
from cakewalk.errors import ExecutionError
from cakewalk.ir import BcDag, BcLeaf, iter_nodes
from cakewalk.library import generate
from cakewalk.transform import (
    cuts_before_choices_ext, dag_to_tree, extended_to_bc, retarget_trace,
)
from cakewalk.valuation import ONE, ZERO, random_valuation, uniform

from helpers import random_bc_tree, random_dag, random_ext_tree, random_gcc


def reference_partition(cuts):
    """Left-to-right pieces; coincident cuts keep creation order (earlier left)."""
    ordered = sorted(range(len(cuts)), key=lambda i: (cuts[i][1], i))
    bounds = [ZERO] + [cuts[i][1] for i in ordered] + [ONE]
    return tuple((bounds[k], bounds[k + 1]) for k in range(len(bounds) - 1))


def cuts_of(events):
    return [(ev.node, ev.position) for ev in events if isinstance(ev, CutMade)]


class Checked:
    """Wraps strategies so that every decision is checked against the
    reference; counts the decisions, and those made after coincident cuts."""

    def __init__(self):
        self.decisions = self.coincident = 0

    def __call__(self, strategies):
        return [self.wrap(s) for s in strategies]

    def wrap(self, strategy):
        def play(ctx):
            cuts = cuts_of(ctx.events)
            assert ctx.partition == reference_partition(cuts)
            assert ctx.cut_positions == dict(cuts)
            self.decisions += 1
            self.coincident += len({pos for _, pos in cuts}) < len(cuts)
            return strategy(ctx)
        return play


def check_trace(p, trace, alloc):
    """Replay and identity retargeting give back the run's trace and
    allocation; a BC leaf's allocation is the reference partition's."""
    again, state = follow(p, trace.events, lambda nid: nid)
    assert again == trace
    assert state.order == tuple(sorted(trace.cuts))
    assert replay(p, trace) == alloc
    nodes = p.nodes if isinstance(p, BcDag) else {n.nid: n for n in iter_nodes(p)}
    assert retarget_trace(p, trace, {nid: nid for nid in nodes}) == trace
    leaf = state.node
    if isinstance(leaf, BcLeaf):
        pieces = [[] for _ in range(p.agents)]
        for part, agent in zip(reference_partition(cuts_of(trace.events)), leaf.assign):
            pieces[agent - 1].append(part)
        assert alloc.pieces == tuple(map(tuple, pieces))


def profiles(seed, agents, count):
    rng = random.Random(seed)
    return [[random_valuation(rng.randrange(10 ** 9), 4) for _ in range(agents)]
            for _ in range(count)]


LIBRARY = [("cut-and-choose", "bc", 0), ("cut-and-choose", "gcc", 0),
           ("selfridge-conway", "bc", 0), ("selfridge-conway", "gcc", 0)] + [
    (name, model, n) for name, n in (("dubins-spanier", 2), ("dubins-spanier", 3),
                                     ("dubins-spanier", 4), ("even-paz", 2),
                                     ("even-paz", 4))
    for model in ("gcc", "extbc")]


@pytest.mark.parametrize("name, model, n", LIBRARY,
                         ids=lambda x: str(x) if x else None)
def test_library_runs_match_reference(name, model, n):
    p, bundle = generate(name, model, n)
    checked = Checked()
    for vals in profiles(7, p.agents, 6):
        trace, alloc = run(p, checked(bundle.strategies_for(p)), vals)
        check_trace(p, trace, alloc)
    assert checked.decisions >= 6


@pytest.mark.parametrize("name, n, convert", [
    ("dubins-spanier", 3, extended_to_bc),
    ("even-paz", 4, extended_to_bc),
    ("dubins-spanier", 4, cuts_before_choices_ext),
], ids=["ds3-extended_to_bc", "ep4-extended_to_bc", "ds4-cuts_before_choices_ext"])
def test_transported_runs_match_reference(name, n, convert):
    """Both sides are checked: the target contexts the engine builds, and
    the source contexts the transporter builds from them."""
    p, bundle = generate(name, "extbc", n)
    target, _, transporter = convert(p)
    outer, inner = Checked(), Checked()
    for vals in profiles(11, p.agents, 3):
        _, alloc = run(p, bundle.strategies_for(p), vals)
        trace, moved = run(target, outer(transporter(inner(bundle.strategies_for(p)))),
                           vals)
        check_trace(target, trace, moved)
        assert allocation_values(moved, vals) == allocation_values(alloc, vals)
    assert outer.decisions >= inner.decisions > 0


def clamp(z, lo, hi):
    return min(max(z, lo), hi)


def constant_profile(agents):
    """Each agent cuts at one fixed point, clamped into the offered piece,
    so that cuts coincide with each other and with the piece ends."""

    def strategy(z):
        def play(ctx):
            nid = ctx.node.nid
            if ctx.kind == "cut":
                return clamp(z, *ctx.pieces[0])
            if ctx.kind == "gcc-cut":
                j = nid % len(ctx.pieces)
                return j, clamp(z, *ctx.pieces[j])
            if ctx.kind == "branch":
                return nid % ctx.branches
            return nid % len(ctx.pieces)
        return play

    points = (F(1, 2), F(1, 3), ZERO, ONE)
    return [strategy(points[i % len(points)]) for i in range(agents)]


@pytest.mark.parametrize("make", [
    lambda rng: random_bc_tree(rng, rng.choice((1, 2, 3)), 25),
    lambda rng: random_ext_tree(rng, rng.choice((2, 3)), 40),
    lambda rng: random_gcc(rng, rng.choice((2, 3)), 6),
    lambda rng: random_dag(rng, 2, 20),
], ids=["bc", "extended", "gcc", "dag"])
def test_random_protocols_with_coincident_cuts(make):
    checked, runs = Checked(), 0
    for seed in range(120):
        p = make(random.Random(seed))
        vals = [uniform()] * p.agents
        try:
            trace, alloc = run(p, checked(constant_profile(p.agents)), vals)
        except ExecutionError:
            continue
        runs += 1
        check_trace(p, trace, alloc)
        if isinstance(p, BcDag):
            tree, nmap, _ = dag_to_tree(p)
            back = {new: old for old, targets in nmap.forward.items()
                    for new in targets}
            moved = retarget_trace(tree, trace, back)
            assert replay(tree, moved) == alloc
            check_trace(tree, moved, alloc)
    assert runs >= 100
    assert checked.coincident >= 10


def test_partition_of_matches_reference():
    rng = random.Random(3)
    for _ in range(300):
        cuts = [(rng.randrange(9), F(rng.randrange(5), 4))
                for _ in range(rng.randrange(6))]
        assert partition_of(cuts) == reference_partition(cuts)
