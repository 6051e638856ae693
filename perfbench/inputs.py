"""Seeded inputs.  The program sees only what these functions build.

Every input is a function of the workload seed alone.  Shapes and sizes are
fixed; the seed picks densities, agents and leaf assignments, so the amount
of work stays the same from seed to seed while the values change.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction


def rng_for(seed: int, *tags) -> random.Random:
    return random.Random("/".join(str(t) for t in (seed,) + tags))


def even_valuation(cw, rng: random.Random, segments: int):
    """Breakpoints at k/segments; positive seeded densities.

    With breakpoints fixed and every density positive, ``build_grid`` puts
    its p/q marks at the same places for every seed, so grid sizes, and
    with them the oracle's work, do not depend on the seed.
    """
    weights = [rng.randint(1, 6) for _ in range(segments)]
    total = sum(weights)
    bps = tuple(Fraction(k, segments) for k in range(segments + 1))
    densities = tuple(Fraction(w * segments, total) for w in weights)
    return cw.valuation.Valuation(bps, densities)


def random_bc_tree(cw, shape: random.Random, labels: random.Random,
                   nodes: int, agents: int = 2):
    """A valid BC tree with exactly ``nodes`` nodes.

    ``shape`` draws the node kinds, branchings and cut pieces, which set the
    work every conversion does; ``labels`` draws the agents and leaf
    assignments.  Callers pass a fixed ``shape`` and a seeded ``labels``.
    """
    ir = cw.ir
    gen = ir.IdGen()

    def build(size: int, cuts: int):
        nid = gen()
        if size == 1:
            return ir.BcLeaf(nid, tuple(labels.randint(1, agents)
                                        for _ in range(cuts + 1)))
        if size == 2 or shape.random() < 0.55:
            piece = shape.randint(1, cuts + 1)
            return ir.BcCut(nid, labels.randint(1, agents), piece,
                            build(size - 1, cuts + 1))
        k = shape.randint(2, min(3, size - 1))
        sizes = [1] * k
        for _ in range(size - 1 - k):
            sizes[shape.randrange(k)] += 1
        return ir.BcChoose(nid, labels.randint(1, agents),
                           tuple(build(s, cuts) for s in sizes))

    return ir.BcTree(agents, build(nodes, 0))


def hash_cons(cw, tree):
    """Share structurally identical subtrees of a BC tree: a BcDag.

    ``dag_to_tree`` of the result must give back ``tree`` up to node ids.
    """
    ir = cw.ir
    ids: dict[tuple, int] = {}
    nodes: dict[int, object] = {}

    def visit(node) -> int:
        if isinstance(node, ir.BcLeaf):
            key = ("leaf", node.assign)
        elif isinstance(node, ir.BcCut):
            key = ("cut", node.agent, node.piece, visit(node.child))
        else:
            key = ("choose", node.agent, tuple(visit(c) for c in node.children))
        nid = ids.get(key)
        if nid is None:
            nid = ids[key] = len(ids)
            if key[0] == "leaf":
                nodes[nid] = ir.DagLeaf(nid, node.assign)
            elif key[0] == "cut":
                nodes[nid] = ir.DagCut(nid, key[1], key[2], key[3])
            else:
                nodes[nid] = ir.DagChoose(nid, key[1], key[2])
        return nid

    root = visit(tree.root)
    return ir.BcDag(tree.agents, root, nodes)


def reconverging_dag(cw, rng: random.Random, layers: int):
    """A two-agent BcDag whose choose branches meet again at the next cut.

    Layer k: a cut into the last piece, then agent choices whose branches
    either stop at a leaf or continue to the shared cut of layer k+1.  Both
    routes into that cut carry the same cuts, so the oracle memo hits there.
    """
    ir = cw.ir
    nodes: dict[int, object] = {}
    counter = itertools.count()

    def add(make):
        nid = next(counter)
        nodes[nid] = make(nid)
        return nid

    def leaf(pieces: int) -> int:
        assign = tuple(rng.randint(1, 2) for _ in range(pieces))
        return add(lambda nid: ir.DagLeaf(nid, assign))

    nxt = leaf(layers + 1)
    for k in range(layers - 1, -1, -1):
        pieces_after = k + 2
        stop_a, stop_b = leaf(pieces_after), leaf(pieces_after)
        later = nxt
        y = add(lambda nid: ir.DagChoose(nid, rng.randint(1, 2), (later, stop_a)))
        z = add(lambda nid: ir.DagChoose(nid, rng.randint(1, 2), (stop_b, later)))
        x = add(lambda nid: ir.DagChoose(nid, rng.randint(1, 2), (y, z)))
        nxt = add(lambda nid: ir.DagCut(nid, rng.randint(1, 2), k + 1, x))
    return ir.BcDag(2, nxt, nodes)
