"""Shared test machinery: random protocols and deterministic strategies."""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

from cakewalk.ir import (
    And, BcChoose, BcCut, BcDag, BcLeaf, BcTree, ChoseAt, DagChoose, DagCut,
    DagLeaf, ELSE, END, ExtBcTree, ExtChoose, ExtCut, ExtLeaf, ExtSegment,
    GccChoose, GccCut, GccIfElse, GccLeaf, GccTree, IdGen, Not, ORIGIN, at,
    children_of, validate_dag, validate_ext,
)


def _digest(*parts) -> int:
    return int.from_bytes(
        hashlib.sha256(repr(parts).encode()).digest()[:6], "big"
    )


def rand_strategy(seed: int):
    """Deterministic pseudo-random legal play, stable across processes."""

    def play(ctx):
        key = _digest(
            seed, ctx.node.nid, ctx.kind,
            tuple(
                (e.node, getattr(e, "index", None), getattr(e, "position", None))
                for e in ctx.events
            ),
        )
        if ctx.kind == "branch":
            return key % ctx.branches
        if ctx.kind == "gcc-choose":
            return key % len(ctx.pieces)
        if ctx.kind == "cut":
            lo, hi = ctx.pieces[0]
            return lo + (hi - lo) * Fraction(key % 7, 6)
        if ctx.kind == "gcc-cut":
            j = key % len(ctx.pieces)
            lo, hi = ctx.pieces[j]
            return j, lo + (hi - lo) * Fraction((key >> 8) % 7, 6)
        raise AssertionError(ctx.kind)

    return play


def rand_profile(seed: int, n: int):
    return [rand_strategy(_digest(seed, i)) for i in range(n)]


# ---------------------------------------------------------------------------
# Random protocols


def random_bc_tree(rng: random.Random, agents: int = 2, max_nodes: int = 20) -> BcTree:
    gen = IdGen()
    budget = [max_nodes]

    def build(cuts: int, depth: int):
        budget[0] -= 1
        roll = rng.random()
        stop = budget[0] <= 1 or depth > 6
        if stop or roll < 0.25 + 0.1 * depth:
            return BcLeaf(gen(), tuple(rng.randint(1, agents) for _ in range(cuts + 1)))
        if roll < 0.7:
            piece = rng.randint(1, cuts + 1)
            nid = gen()
            return BcCut(nid, rng.randint(1, agents), piece, build(cuts + 1, depth + 1))
        k = rng.randint(1, 3)
        nid = gen()
        return BcChoose(nid, rng.randint(1, agents),
                        tuple(build(cuts, depth + 1) for _ in range(k)))

    return BcTree(agents, build(0, 0))


def clashing_bc_tree(rng: random.Random, max_nodes: int) -> BcTree:
    """Random BC tree of chooses over cuts into the first two pieces, so that
    a hoisted cut often splits the cuts of the other branches in two."""
    gen, left = IdGen(), [max_nodes]

    def build(cuts: int, depth: int):
        left[0] -= 1
        roll = rng.random()
        if left[0] <= 1 or depth > 6 or roll < 0.08 * depth:
            return BcLeaf(gen(), tuple(rng.randint(1, 2) for _ in range(cuts + 1)))
        nid = gen()
        if roll < 0.5:
            return BcCut(nid, rng.randint(1, 2), rng.randint(1, min(cuts + 1, 2)),
                         build(cuts + 1, depth + 1))
        return BcChoose(nid, rng.randint(1, 2),
                        tuple(build(cuts, depth + 1) for _ in range(rng.randint(2, 3))))

    return BcTree(2, build(0, 0))


def many_chooses_tree(branches: int = 20, chain: int = 60) -> BcTree:
    """A root choose of agent 1 over ``branches`` chains of ``chain``
    single-branch chooses, agents alternating, each chain ending in a leaf.

    It holds 1 + branches * chain chooses but only ``chain + 2`` levels, and
    ``bc_to_gcc`` gives it one preamble cut per choose.
    """
    gen = IdGen()

    def chain_of(length: int, agent: int):
        nid = gen()
        child = BcLeaf(gen(), (agent,)) if length == 1 else chain_of(length - 1, 3 - agent)
        return BcChoose(nid, agent, (child,))

    root = gen()
    return BcTree(2, BcChoose(root, 1, tuple(chain_of(chain, 1 + b % 2)
                                            for b in range(branches))))


def random_ext_tree(rng: random.Random, agents: int = 3, max_nodes: int = 40) -> ExtBcTree:
    """Random valid extended tree, grown with a fact graph of known orders."""
    gen = IdGen()
    budget = [max_nodes]
    succ: dict = {ORIGIN: [END], END: []}

    def sample_bounds(refs):
        # (a, b) with b reachable from a in the fact graph, a != b.
        for _ in range(10):
            a = rng.choice([r for r in refs if succ[r]])
            cur, hops = a, rng.randint(1, 3)
            for _ in range(hops):
                if not succ[cur]:
                    break
                cur = rng.choice(succ[cur])
            if cur != a:
                return a, cur
        return ORIGIN, END

    def sample_chain():
        chain = [ORIGIN]
        while chain[-1] != END:
            chain.append(rng.choice(succ[chain[-1]]))
        return chain

    def build(refs: list, depth: int):
        budget[0] -= 1
        roll = rng.random()
        if budget[0] <= 1 or depth > 7 or roll < 0.22 + 0.08 * depth:
            chain = sample_chain()
            segments = tuple(
                ExtSegment(chain[i], chain[i + 1], rng.randint(1, agents))
                for i in range(len(chain) - 1)
            )
            return ExtLeaf(gen(), segments)
        if roll < 0.68:
            left, right = sample_bounds(refs)
            nid = gen()
            ref = at(nid)
            succ[ref] = [right]
            succ[left] = succ[left] + [ref]
            refs.append(ref)
            child = build(refs, depth + 1)
            refs.pop()
            succ[left] = succ[left][:-1]
            del succ[ref]
            return ExtCut(nid, rng.randint(1, agents), left, right, child)
        k = rng.randint(1, 3)
        nid = gen()
        return ExtChoose(nid, rng.randint(1, agents),
                         tuple(build(refs, depth + 1) for _ in range(k)))

    tree = ExtBcTree(agents, build([ORIGIN, END], 0))
    assert validate_ext(tree).ok, validate_ext(tree)
    return tree


def random_dag(rng: random.Random, agents: int = 2, max_nodes: int = 25) -> BcDag:
    """Random valid DAG: a random tree with compatible subtrees merged."""
    tree = random_bc_tree(rng, agents, max_nodes)
    nodes: dict[int, object] = {}

    def load(node, depth):
        if isinstance(node, BcCut):
            load(node.child, depth + 1)
            nodes[node.nid] = DagCut(node.nid, node.agent, node.piece, node.child.nid)
        elif isinstance(node, BcChoose):
            for c in node.children:
                load(c, depth)
            nodes[node.nid] = DagChoose(node.nid, node.agent,
                                        tuple(c.nid for c in node.children))
        else:
            nodes[node.nid] = DagLeaf(node.nid, node.assign)

    load(tree.root, 0)
    dag = BcDag(agents, tree.root.nid, dict(nodes))
    assert validate_dag(dag).ok

    for _ in range(6):
        ids = sorted(dag.nodes)
        if len(ids) < 4:
            break
        u, v = rng.choice(ids), rng.choice(ids)
        if u == v or u == dag.root or v == dag.root:
            continue
        redirected = {}
        for nid, node in dag.nodes.items():
            if isinstance(node, DagCut):
                redirected[nid] = DagCut(nid, node.agent, node.piece,
                                         u if node.child == v else node.child)
            elif isinstance(node, DagChoose):
                redirected[nid] = DagChoose(
                    nid, node.agent,
                    tuple(u if c == v else c for c in node.children),
                )
            else:
                redirected[nid] = node
        reachable = set()
        stack = [dag.root]
        while stack:
            nid = stack.pop()
            if nid in reachable:
                continue
            reachable.add(nid)
            node = redirected[nid]
            if isinstance(node, DagCut):
                stack.append(node.child)
            elif isinstance(node, DagChoose):
                stack.extend(node.children)
        candidate = BcDag(agents, dag.root,
                          {nid: redirected[nid] for nid in reachable})
        if validate_dag(candidate).ok:
            dag = candidate
    return dag


def grid_within(grid, lo, hi) -> tuple:
    """The grid points in [lo, hi], or ``(lo,)`` when none is: the cut
    candidates of the engine-driven oracle and brute force."""
    pts = tuple(x for x in grid.points if lo <= x <= hi)
    return pts if pts else (lo,)  # degenerate window: the forced endpoint


class CountingMemo(dict):
    """Counts the lookups that find an entry (the oracle reads with ``get``)."""

    hits = 0

    def get(self, key, default=None):
        value = dict.get(self, key, default)
        if value is not None:
            self.hits += 1
        return value


def linked_by_nid(oracle) -> dict:
    """The nodes a ``GuaranteeOracle`` walks, by node id: on a DAG, its
    linked nodes, whose ``id`` keys its memo points and memo entries."""
    nodes, stack = {}, [oracle._root]
    while stack:
        node = stack.pop()
        if node.nid not in nodes:
            nodes[node.nid] = node
            stack.extend(children_of(node))
    return nodes


def memo_by_nid(oracle) -> dict:
    """The oracle's memo with each key's node named by its node id, so that
    the memos of two oracles of one protocol compare."""
    nid_of = {id(node): nid for nid, node in linked_by_nid(oracle).items()}
    return {(nid_of[key[0]], *key[1:]): value for key, value in oracle._memo.items()}


def reconverging_dags(count: int = 300):
    """Seeds in range(count) whose ``random_dag`` has at least 6 nodes and a
    node reached from two parents, with that DAG."""
    for seed in range(count):
        dag = random_dag(random.Random(seed), 2, 25)
        parents: dict[int, int] = {}
        for node in dag.nodes.values():
            for kid in children_of(node):
                parents[kid] = parents.get(kid, 0) + 1
        if len(dag.nodes) >= 6 and max(parents.values(), default=0) >= 2:
            yield seed, dag


def random_gcc(rng: random.Random, agents: int = 2, max_steps: int = 6) -> GccTree:
    """Random valid restricted GCC protocol that allocates the whole cake.

    The generator keeps a totally ordered chain of refs and only ever acts
    on single gaps of it, so restricted-mode validation always passes.
    """
    gen = IdGen()

    def build(chain: list, free: list, steps: int, multi_chooses: list):
        # chain: refs in known order; free: list of (lo_idx) gaps unallocated
        if steps <= 0 or not free:
            tail = GccLeaf(gen())
            for gap in reversed(free):
                piece = (chain[gap], chain[gap + 1])
                tail = GccChoose(gen(), rng.randint(1, agents), (piece,), tail)
            return tail
        roll = rng.random()
        if roll < 0.45:
            gap = rng.choice(free)
            nid = gen()
            piece = (chain[gap], chain[gap + 1])
            new_chain = chain[: gap + 1] + [at(nid)] + chain[gap + 1 :]
            new_free = [g if g <= gap else g + 1 for g in free] + [gap + 1]
            new_free.sort()
            return GccCut(nid, rng.randint(1, agents), (piece,),
                          build(new_chain, new_free, steps - 1, multi_chooses))
        if roll < 0.8 or len(free) < 2:
            gap = rng.choice(free)
            nid = gen()
            piece = (chain[gap], chain[gap + 1])
            rest = [g for g in free if g != gap]
            return GccChoose(nid, rng.randint(1, agents), (piece,),
                             build(chain, rest, steps - 1, multi_chooses))
        # Two-piece choose followed by an if-else that mops up the other piece.
        g1, g2 = sorted(rng.sample(free, 2))
        nid = gen()
        pieces = ((chain[g1], chain[g1 + 1]), (chain[g2], chain[g2 + 1]))
        rest = [g for g in free if g not in (g1, g2)]
        chooser = rng.randint(1, agents)
        taker = rng.randint(1, agents)
        branch0 = GccChoose(gen(), taker, (pieces[1],),
                            build(chain, rest, steps - 2, multi_chooses))
        branch1 = GccChoose(gen(), taker, (pieces[0],),
                            build(chain, rest, steps - 2, multi_chooses))
        body = GccIfElse(gen(), ((ChoseAt(nid, 0), branch0), (ELSE, branch1)))
        return GccChoose(nid, chooser, pieces, body)

    return GccTree(agents, build([ORIGIN, END], [0], max_steps, []))
