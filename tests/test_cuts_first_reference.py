"""The one-pass cuts-first normal forms against the restart loop they replaced.

``hoist_first`` and the two ``lower`` rules below are the former
``transform._hoist_first`` and the ``lower`` closures of
``cuts_before_choices_ext`` and ``cuts_before_choices_bc``: hoist the first
cut child of the first choose in preorder, then search again from the root,
until no choose has a cut child.  ``transform._cuts_first`` must give the
same trees and the same printed ``.cake`` bytes.  For the plain BC pass the
reference also gives the NodeMap and budget outcome the conversions promise:
every node of the result, each copy a split makes included, is listed under
its source, and a budget of N refuses exactly the results of more than N
nodes.
"""

import random
from collections import defaultdict

import pytest

from cakewalk.dsl import print_protocol
from cakewalk.errors import BudgetExceededError
from cakewalk.ir import (
    BcChoose, BcCut, BcLeaf, BcTree, ExtBcTree, ExtChoose, ExtCut, IdGen,
    children_of, iter_nodes, renumber, stats, structurally_equal,
    _children, _map_node,
)
from cakewalk.library import generate
from cakewalk.transform import (
    cuts_before_choices_bc, cuts_before_choices_ext, cuts_first, embed_bc_as_ext,
    extended_to_bc,
)

from helpers import clashing_bc_tree, random_bc_tree, random_ext_tree


def hoist_first(node, lower):
    """Hoist the first cut child of a choose, in preorder; returns (tree, moved)."""
    if isinstance(node, (BcChoose, ExtChoose)):
        for i, child in enumerate(node.children):
            if isinstance(child, (BcCut, ExtCut)):
                return lower(node, i), True
    for i, child in enumerate(_children(node)):
        new_child, moved = hoist_first(child, lower)
        if moved:
            kids = list(_children(node))
            kids[i] = new_child
            return _map_node(node, kids=kids), True
    return node, False


def reference_ext(t: ExtBcTree) -> ExtBcTree:
    def lower(choose, i):
        cut = choose.children[i]
        kids = choose.children[:i] + (cut.child,) + choose.children[i + 1:]
        return _map_node(cut, kids=[_map_node(choose, kids=kids)])

    root, moved = t.root, True
    while moved:
        root, moved = hoist_first(root, lower)
    return ExtBcTree(t.agents, root)


def node_count(node) -> int:
    return 1 + sum(map(node_count, children_of(node)))


def reference_bc(t: BcTree, size_budget: int):
    """(tree, NodeMap forward dict), or the ``BudgetExceededError`` due when
    the input or the result has more than ``size_budget`` nodes.

    A split copies the cut's subtree under both halves with the same ids,
    so ``origin`` gives the source of every node, copies included, and the
    map pairs each node of the result with its preorder id.  The tree only
    grows, so the walk stops once it passes the budget.
    """
    gen = IdGen(max(n.nid for n in iter_nodes(t)) + 1)
    origin = {n.nid: n.nid for n in iter_nodes(t)}
    count = node_count(t.root)

    def insert_cut(node, s):
        if isinstance(node, BcLeaf):
            return BcLeaf(node.nid, node.assign[:s] + node.assign[s - 1:])
        if isinstance(node, BcChoose):
            return BcChoose(node.nid, node.agent,
                            tuple(insert_cut(c, s) for c in node.children))
        if node.piece < s:
            return BcCut(node.nid, node.agent, node.piece, insert_cut(node.child, s + 1))
        if node.piece > s:
            return BcCut(node.nid, node.agent, node.piece + 1, insert_cut(node.child, s))
        left_id, right_id, choose_id = gen(), gen(), gen()
        origin[left_id] = origin[right_id] = origin[choose_id] = origin[node.nid]
        left = BcCut(left_id, node.agent, s, insert_cut(node.child, s + 1))
        right = BcCut(right_id, node.agent, s + 1, insert_cut(node.child, s))
        return BcChoose(choose_id, node.agent, (left, right))

    def lower(choose, i):
        nonlocal count
        cut = choose.children[i]
        kids = tuple(cut.child if j == i else insert_cut(other, cut.piece)
                     for j, other in enumerate(choose.children))
        lowered = _map_node(cut, kids=[_map_node(choose, kids=kids)])
        count += node_count(lowered) - node_count(choose)
        return lowered

    root, moved = t.root, True
    while count <= size_budget and moved:
        root, moved = hoist_first(root, lower)
    if count > size_budget:
        return BudgetExceededError(
            f"normalization exceeded the size budget of {size_budget} nodes")
    built = BcTree(t.agents, root)
    out, _ = renumber(built)
    fwd = defaultdict(set)
    for old, new in zip(iter_nodes(built), iter_nodes(out)):
        fwd[origin[old.nid]].add(new.nid)
    return out, {k: frozenset(v) for k, v in fwd.items()}


def reference_cuts_first(t) -> bool:
    def has_cut(node):
        return isinstance(node, (BcCut, ExtCut)) or any(map(has_cut, children_of(node)))

    def walk(node):
        if isinstance(node, (BcChoose, ExtChoose)) and any(map(has_cut, node.children)):
            return False
        return all(map(walk, children_of(node)))

    return walk(t.root)


def check_ext(t: ExtBcTree):
    want = reference_ext(t)
    got, nmap, _ = cuts_before_choices_ext(t)
    assert structurally_equal(got, want)
    assert print_protocol(got) == print_protocol(want)
    assert nmap.forward == {n.nid: frozenset({n.nid}) for n in iter_nodes(t)}
    assert cuts_first(t) == reference_cuts_first(t)
    assert cuts_first(got) and reference_cuts_first(got)


def check_bc(t: BcTree, size_budget: int) -> str:
    """Compare both on ``t``; returns "over", "grown" or "same"."""
    want = reference_bc(t, size_budget)
    assert cuts_first(t) == reference_cuts_first(t)
    check_ext(embed_bc_as_ext(t))
    if isinstance(want, BudgetExceededError):
        with pytest.raises(BudgetExceededError) as info:
            cuts_before_choices_bc(t, size_budget=size_budget)
        assert str(info.value) == str(want)
        return "over"
    got, nmap = cuts_before_choices_bc(t, size_budget=size_budget)
    assert structurally_equal(got, want[0])
    assert print_protocol(got) == print_protocol(want[0])
    assert nmap.forward == want[1]
    assert cuts_first(got)
    return "grown" if stats(got).nodes > stats(t).nodes else "same"


def test_random_extended_trees():
    for seed in range(1200):
        rng = random.Random(seed)
        check_ext(random_ext_tree(rng, agents=rng.randint(1, 3),
                                  max_nodes=rng.randint(3, 40)))


@pytest.mark.parametrize("make", [
    lambda rng: random_bc_tree(rng, agents=rng.randint(1, 3), max_nodes=rng.randint(3, 16)),
    lambda rng: clashing_bc_tree(rng, rng.randint(6, 20)),
], ids=["random", "clashing"])
def test_random_bc_trees(make):
    outcomes = []
    for seed in range(1200):
        rng = random.Random(seed)
        tree = make(rng)
        budget = stats(tree).nodes + rng.choice((2, 10, 200))
        outcomes.append(check_bc(tree, budget))
    assert min(outcomes.count(k) for k in ("over", "grown", "same")) >= 5


@pytest.mark.parametrize("name, model, n", [
    ("cut-and-choose", "bc", 0), ("selfridge-conway", "bc", 0),
    *(("dubins-spanier", "extbc", n) for n in (2, 3, 4)),
    *(("even-paz", "extbc", n) for n in (2, 4)),
])
def test_library_protocols(name, model, n):
    p = generate(name, model, n)[0]
    if isinstance(p, ExtBcTree):
        check_ext(p)
    else:
        check_bc(p, 1000)


def test_dubins_spanier_3_bc_to_the_budget():
    tree, _, _ = extended_to_bc(generate("dubins-spanier", "extbc", 3)[0])
    assert check_bc(tree, 10 ** 4) == "over"
