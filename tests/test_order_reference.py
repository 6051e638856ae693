"""The static cut order and the extended and GCC validators against two
references.

``validator_reference`` holds them as they were when the order was keyed by
``CutRef``: one bit row per ref, found through a ``CutRef``-keyed index.
``SetOrderBuilder`` and ``SetOrder`` are that module's ``_OrderBuilder`` and
``PartialOrder`` as they were before the order became bit rows: the relation
is a set of ``(CutRef, CutRef)`` pairs, closed by listing every ref below
and above a new pair.  Installed as ``validator_reference._OrderBuilder``,
they run the reference validators.  The current code numbers refs by small
ints per walk; every order query and report is compared with both.
"""

import random
from itertools import product

import pytest

from cakewalk import ir
from cakewalk.ir import (
    And, ChoseAt, CutInAt, ELSE, END, ExtBcTree, ExtChoose, ExtCut, ExtLeaf,
    ExtSegment, GccChoose, GccCut, GccIfElse, GccLeaf, GccMode, GccTree, IdGen,
    Less, Not, ORIGIN, Or, at, children_of, validate_ext, validate_gcc,
)
from cakewalk.library import (
    gen_cut_and_choose, gen_selfridge_conway_bc, generate,
)
from cakewalk.transform import bc_to_gcc, cuts_before_choices_ext

import validator_reference as reference
from validator_reference import Order, SlotOrder, slot_cut_order
from helpers import random_bc_tree, random_ext_tree, random_gcc


class SetOrder:
    """The former ``PartialOrder``: the <= relation as a set of ref pairs."""

    def __init__(self, refs, le):
        self.refs = refs
        self.le = le

    def compare(self, a, b):
        fwd = a == b or (a, b) in self.le
        bwd = a == b or (b, a) in self.le
        if fwd and bwd:
            return Order.EQ
        if fwd:
            return Order.LE
        if bwd:
            return Order.GE
        return Order.UNKNOWN

    def le_or_eq(self, a, b):
        return self.compare(a, b) in (Order.LE, Order.EQ)


class SetOrderBuilder:
    """The former ``_OrderBuilder``, built as a copy of ``parent`` as the
    validators now ask, where they used to copy ``refs`` and ``le`` by hand."""

    def __init__(self, parent=None):
        self.refs = [ORIGIN, END] if parent is None else list(parent.refs)
        self.le = {(ORIGIN, END)} if parent is None else set(parent.le)

    @property
    def index(self):  # the validators list the refs through ``index``
        return self.refs

    def snapshot(self):
        return SetOrder(tuple(self.refs), set(self.le))

    def add_ref(self, ref):
        if ref not in self.refs:
            self.refs.append(ref)

    def add_le(self, a, b):
        self.add_ref(a)
        self.add_ref(b)
        if (a, b) in self.le:
            return
        self.le.add((a, b))
        # Transitive closure, incremental: x <= a <= b <= y.
        before = [x for x in self.refs if x == a or (x, a) in self.le]
        after = [y for y in self.refs if y == b or (b, y) in self.le]
        for x in before:
            for y in after:
                if x != y:
                    self.le.add((x, y))

    def bounded_cut(self, ref, lows, highs):
        self.add_ref(ref)
        for low in lows:
            self.add_le(low, ref)
        for high in highs:
            self.add_le(ref, high)


@pytest.fixture
def reference_order(monkeypatch):
    """Runs a reference function with ``SetOrderBuilder`` installed as the
    order."""

    def run(fn, *args):
        with monkeypatch.context() as patch:
            patch.setattr(reference, "_OrderBuilder", SetOrderBuilder)
            return fn(*args)

    return run


STRAY = at(999)  # a ref no order names


def assert_same_order(got, want):
    assert got.refs == want.refs
    for a, b in product(got.refs + (STRAY,), repeat=2):
        assert got.compare(a, b) == want.compare(a, b), (a, b)
        assert got.le_or_eq(a, b) == want.le_or_eq(a, b), (a, b)


def _nodes(root):
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(children_of(node))


def wild_ext_tree(rng: random.Random, agents: int = 2, size: int = 10) -> ExtBcTree:
    """Extended tree whose refs are any refs above them, ordered or not."""
    gen = IdGen()

    def ref(cuts):
        return rng.choice([ORIGIN, END, *map(at, cuts)])

    def build(cuts, budget):
        roll = rng.random()
        if budget <= 0 or roll < 0.15:
            chain = [ORIGIN, *(ref(cuts) for _ in range(rng.randrange(3))), END]
            return ExtLeaf(gen(), tuple(ExtSegment(lo, hi, rng.randint(1, agents))
                                        for lo, hi in zip(chain, chain[1:])))
        nid = gen()
        if roll < 0.7:
            return ExtCut(nid, rng.randint(1, agents), ref(cuts), ref(cuts),
                          build(cuts + [nid], budget - 1))
        return ExtChoose(nid, rng.randint(1, agents),
                         tuple(build(cuts, budget - 2) for _ in range(rng.randint(1, 3))))

    return ExtBcTree(agents, build([], size))


def wild_gcc(rng: random.Random, agents: int = 2, size: int = 9) -> GccTree:
    """GCC tree with pieces of any refs above them, several pieces per cut
    or choose, and conditions of every kind."""
    gen = IdGen()

    def ref(cuts):
        return rng.choice([ORIGIN, END, *map(at, cuts)])

    def pieces(cuts):
        return tuple((ref(cuts), ref(cuts)) for _ in range(rng.randint(1, 3)))

    def cond(cuts, chooses, depth=0):
        roll = rng.random()
        if depth > 1 or roll < 0.4:
            return Less(ref(cuts), ref(cuts))
        if roll < 0.55 and chooses:
            return ChoseAt(rng.choice(chooses), rng.randrange(3))
        if roll < 0.75 and cuts:
            return CutInAt(rng.choice(cuts), rng.randrange(3))
        if roll < 0.88:
            return And((cond(cuts, chooses, depth + 1), cond(cuts, chooses, depth + 1)))
        if roll < 0.95:
            return Or((cond(cuts, chooses, depth + 1), cond(cuts, chooses, depth + 1)))
        return Not(cond(cuts, chooses, depth + 1))

    def build(cuts, chooses, budget):
        roll = rng.random()
        if budget <= 0 or roll < 0.1:
            return GccLeaf(gen())
        nid = gen()
        if roll < 0.45:
            return GccCut(nid, rng.randint(1, agents), pieces(cuts),
                          build(cuts + [nid], chooses, budget - 1))
        if roll < 0.75:
            return GccChoose(nid, rng.randint(1, agents), pieces(cuts),
                             build(cuts, chooses + [nid], budget - 1))
        branches = [(cond(cuts, chooses), build(cuts, chooses, budget - 2))
                    for _ in range(rng.randrange(3))]
        return GccIfElse(nid, (*branches, (ELSE, build(cuts, chooses, budget - 2))))

    return GccTree(agents, build([], [], size))


def ext_trees():
    trees = [generate(name, "extbc", n)[0]
             for name, n in (("dubins-spanier", 2), ("dubins-spanier", 3),
                             ("even-paz", 2), ("even-paz", 4))]
    trees.append(cuts_before_choices_ext(trees[1])[0])
    trees += [random_ext_tree(random.Random(seed), 3, 18) for seed in range(40)]
    trees += [wild_ext_tree(random.Random(seed)) for seed in range(120)]
    return trees


def gcc_trees():
    trees = [generate(name, "gcc", n)[0]
             for name, n in (("cut-and-choose", 0), ("selfridge-conway", 0),
                             ("dubins-spanier", 2), ("dubins-spanier", 3),
                             ("even-paz", 2), ("even-paz", 4))]
    trees += [bc_to_gcc(random_bc_tree(random.Random(seed), 2, 9)) for seed in range(6)]
    trees += [random_gcc(random.Random(seed), 2, 6) for seed in range(40)]
    trees += [wild_gcc(random.Random(seed)) for seed in range(200)]
    return trees


def test_compare_at_every_node(reference_order):
    for tree in ext_trees():
        for node in _nodes(tree.root):
            got = slot_cut_order(tree, node.nid)
            assert_same_order(got, reference_order(reference.static_cut_order,
                                                   tree, node.nid))
            assert_same_order(got, reference.static_cut_order(tree, node.nid))


def _report(report):
    return report.errors, report.warnings


def test_ext_reports(reference_order):
    trees = ext_trees()
    failing = 0
    for tree in trees:
        got = _report(validate_ext(tree))
        assert got == _report(reference_order(reference.validate_ext, tree))
        assert got == _report(reference.validate_ext(tree))
        failing += bool(got[0])
    assert 0 < failing < len(trees)


@pytest.mark.parametrize("mode", [GccMode.RESTRICTED, GccMode.EXTENSIVE])
def test_gcc_reports(reference_order, mode):
    trees = gcc_trees()
    failing = 0
    for tree in trees:
        got = _report(validate_gcc(tree, mode))
        assert got == _report(reference_order(reference.validate_gcc, tree, mode))
        assert got == _report(reference.validate_gcc(tree, mode))
        failing += bool(got[0])
    assert 0 < failing < len(trees)


def test_library_and_conversion_reports():
    # The library protocols, and the outputs of the two conversions that
    # build extended or GCC trees, as printed reports.
    ext = [generate(name, "extbc", n)[0]
           for name, n in (("dubins-spanier", 3), ("dubins-spanier", 4), ("even-paz", 4))]
    ext += [cuts_before_choices_ext(tree)[0] for tree in list(ext)]
    ext += [cuts_before_choices_ext(random_ext_tree(random.Random(seed), 3, 18))[0]
            for seed in range(20)]
    gcc = [gen_cut_and_choose()[1]] + [
        generate(name, "gcc", n)[0]
        for name, n in (("selfridge-conway", 0), ("dubins-spanier", 3),
                        ("dubins-spanier", 4), ("even-paz", 4))]
    gcc += [bc_to_gcc(gen_cut_and_choose()[0]), bc_to_gcc(gen_selfridge_conway_bc()[0])]
    gcc += [bc_to_gcc(random_bc_tree(random.Random(seed), 2 + seed % 2, 12))
            for seed in range(20)]
    for tree in ext:
        assert str(validate_ext(tree)) == str(reference.validate_ext(tree))
    reports = set()
    for tree in gcc:
        for mode in GccMode:
            got = str(validate_gcc(tree, mode))
            assert got == str(reference.validate_gcc(tree, mode))
            reports.add(got)
    assert "valid" in reports and len(reports) > 2


def test_random_facts_and_copies():
    # Random <= facts over a few refs, cycles included: after each one the
    # order and a copy taken before it agree with the reference's.
    pool = [ORIGIN, END, *map(at, range(6))]
    for seed in range(200):
        rng = random.Random(seed)
        slots = ir._Slots()
        got, want = ir.PartialOrder(slots), SetOrderBuilder()
        for _ in range(rng.randrange(1, 12)):
            copies = got.copy(), SetOrderBuilder(want)
            a, b = rng.choice(pool), rng.choice(pool)
            if rng.random() < 0.2:
                got.bound_cut(slots(a), slots(b), slots(END))
                want.bounded_cut(a, [b, ORIGIN], [END])
            else:
                got.add_le(slots(a), slots(b))
                want.add_le(a, b)
            assert_same_order(SlotOrder(got), want.snapshot())
            assert_same_order(SlotOrder(copies[0]), copies[1].snapshot())
