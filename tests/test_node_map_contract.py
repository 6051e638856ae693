"""What every conversion promises about its NodeMap and its size budget.

- The NodeMap's target sets are pairwise disjoint, their union is the
  output's node ids, and every source id is a node of the input.
- A budgeted conversion whose output has N nodes gives the same output under
  ``size_budget=N`` and raises ``BudgetExceededError`` under N - 1.  So no
  output passes its budget, and an input already over it is refused.

The inputs are the library protocols, the reconverging golden DAG, seeded
random protocols of every form and two trees on which the plain-BC
cuts-first pass once miscounted and mislabelled its split copies.
"""

import random
from functools import partial
from pathlib import Path

import pytest

from cakewalk.dsl import parse, print_protocol
from cakewalk.errors import BudgetExceededError
from cakewalk.ir import (
    BcChoose, BcCut, BcLeaf, BcTree, END, ExtBcTree, ExtLeaf, ExtSegment, GccMode,
    ORIGIN, iter_nodes, stats,
)
from cakewalk.library import generate
from cakewalk.transform import (
    bc_intermediate_form, bc_to_gcc, cuts_before_choices_bc, cuts_before_choices_ext,
    dag_to_tree, extended_to_bc, gcc_to_bc,
)

from helpers import (
    clashing_bc_tree, random_bc_tree, random_dag, random_ext_tree, random_gcc,
)

GOLDEN = Path(__file__).parent / "golden"
SEEDS = range(40)

# Seven nodes; a split copies the three-node choose under both halves, so the
# result has 12 nodes, not the 9 a count of two per split gives.
SPLIT_COPIES = BcTree(2, BcChoose(0, 1, (
    BcCut(1, 1, 1, BcLeaf(2, (1, 2))),
    BcCut(3, 2, 1, BcChoose(4, 2, (BcLeaf(5, (1, 2)), BcLeaf(6, (2, 1))))),
)))


def library(name, model, n=0):
    return generate(name, model, n)[0]


def bc_inputs():
    yield "cut-and-choose", library("cut-and-choose", "bc")
    yield "split copies", SPLIT_COPIES
    for seed in SEEDS:
        yield f"random {seed}", random_bc_tree(random.Random(seed), 2 + seed % 2,
                                               6 + seed % 10)
    # Splits are common in these; 12 of them grow under cuts_before_choices_bc.
    for seed in range(120):
        yield f"clashing {seed}", clashing_bc_tree(random.Random(seed), 8 + seed % 8)
    # 12 nodes, already in cuts-first form.
    yield "random 35 of 12", random_bc_tree(random.Random(35), max_nodes=12)


def ext_inputs():
    yield "one leaf", ExtBcTree(1, ExtLeaf(0, (ExtSegment(ORIGIN, END, 1),)))
    for name, n in (("dubins-spanier", 2), ("dubins-spanier", 3), ("even-paz", 2),
                    ("even-paz", 4)):
        yield f"{name} {n}", library(name, "extbc", n)
    for seed in SEEDS:
        yield f"random {seed}", random_ext_tree(random.Random(seed), 1 + seed % 3,
                                                5 + seed % 20)


def gcc_inputs(mode):
    yield "cut-and-choose", library("cut-and-choose", "gcc")
    yield "selfridge-conway", library("selfridge-conway", "gcc")
    if mode is GccMode.EXTENSIVE:
        for name, n in (("dubins-spanier", 2), ("dubins-spanier", 3),
                        ("even-paz", 2), ("even-paz", 4)):
            yield f"{name} {n}", library(name, "gcc", n)
    for seed in SEEDS:
        yield f"random {seed}", random_gcc(random.Random(seed), 2 + seed % 2,
                                           3 + seed % 5)


def dag_inputs():
    yield "reconverging", parse((GOLDEN / "reconverging_bcdag.cake").read_text())[0]
    for seed in SEEDS:
        yield f"random {seed}", random_dag(random.Random(seed), 2, 8 + seed % 20)


# (name, conversion, inputs, whether it takes a size budget)
CONVERSIONS = [
    ("dag_to_tree", dag_to_tree, dag_inputs, True),
    ("extended_to_bc", extended_to_bc, ext_inputs, True),
    *((f"gcc_to_bc {mode.value}", partial(gcc_to_bc, mode=mode),
       partial(gcc_inputs, mode), True) for mode in GccMode),
    ("cuts_before_choices_ext", cuts_before_choices_ext, ext_inputs, False),
    ("cuts_before_choices_bc", cuts_before_choices_bc, bc_inputs, True),
    ("bc_intermediate_form", bc_intermediate_form, bc_inputs, True),
    ("bc_to_gcc", bc_to_gcc, bc_inputs, True),
]


def output_and_map(result):
    """(output protocol, NodeMap or None) of a conversion's result."""
    return (result[0], result[1]) if isinstance(result, tuple) else (result, None)


def check(label: str, convert, p, budgeted: bool):
    out, nmap = output_and_map(convert(p))
    if nmap is not None:
        targets = [nid for ids in nmap.forward.values() for nid in ids]
        assert len(targets) == len(set(targets)), f"{label}: a node has two sources"
        assert set(targets) == {node.nid for node in iter_nodes(out)}, label
        assert set(nmap.forward) <= {node.nid for node in iter_nodes(p)}, label
    if not budgeted:
        return
    n = stats(out).nodes
    again, _ = output_and_map(convert(p, size_budget=n))
    assert print_protocol(again) == print_protocol(out), label
    try:
        convert(p, size_budget=n - 1)
    except BudgetExceededError as exc:
        assert str(exc).endswith(f"size budget of {n - 1} nodes"), label
    else:
        pytest.fail(f"{label}: {n} nodes built under a budget of {n - 1}")


@pytest.mark.parametrize("convert, inputs, budgeted",
                         [case[1:] for case in CONVERSIONS],
                         ids=[case[0] for case in CONVERSIONS])
def test_contract(convert, inputs, budgeted):
    for label, p in inputs():
        check(label, convert, p, budgeted)


def test_split_copies_are_each_listed():
    out, nmap = cuts_before_choices_bc(SPLIT_COPIES)
    assert stats(out).nodes == 12
    # The choose 4 and its leaves 5 and 6 are built under both halves of cut 3.
    assert [len(nmap.targets(nid)) for nid in range(7)] == [1, 1, 1, 3, 2, 2, 2]
