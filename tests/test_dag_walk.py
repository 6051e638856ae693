"""The one walk over a DAG's ids (``ir._walk_ids``) against the passes it
replaced, kept in ``validator_reference``.

Each example is a seeded mutation of a ``random_dag`` or of one of
``reconverging_dags``: one to three times, an edge is retargeted to a
missing id, to an ancestor of its parent (a cycle) or to any stored node, a
choose gets one more child, any stored node (these two may make paths
disagree on their cut count), a node other than the root is dropped, or a
cut's piece is changed.  ``validate_dag``,
``fold_dag`` and ``renumber`` must then agree with the reference, except
where the walk order may change a report of an invalid DAG:

* the order of missing-edge lines across nodes (each node's own lines keep
  their order);
* which path's cut count is reported first in "paths disagree", and so on
  which edges such lines are reported.

The examples are derandomized, so every run tries the same ones; raise
``max_examples`` locally for a longer search.
"""

import random
import re
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from cakewalk import ir
from cakewalk.errors import DomainError
from cakewalk.ir import BcChoose, BcCut, BcDag, children_of, renumber, validate_dag

import validator_reference as reference
from helpers import random_dag, reconverging_dags

BASES = [random_dag(random.Random(seed)) for seed in range(40)]
BASES += [dag for _, dag in reconverging_dags(120)]
FUZZ = settings(max_examples=1000, deadline=None, derandomize=True)


def _ancestors(nodes: dict, nid: int) -> list[int]:
    """``nid`` and every stored id from which an edge path leads to it."""
    parents: dict[int, list[int]] = {}
    for node in nodes.values():
        for kid in children_of(node):
            parents.setdefault(kid, []).append(node.nid)
    found, todo = {nid}, [nid]
    while todo:
        for parent in parents.get(todo.pop(), ()):
            if parent not in found:
                found.add(parent)
                todo.append(parent)
    return sorted(found)


def mutate(d: BcDag, rng: random.Random) -> BcDag:
    """``d`` after one to three mutations drawn from ``rng``."""
    nodes = dict(d.nodes)
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(["missing", "ancestor", "any", "extra", "drop", "piece"])
        ids = sorted(nodes)
        if kind == "drop":
            others = [nid for nid in ids if nid != d.root]
            if others:
                del nodes[rng.choice(others)]
            continue
        if kind == "piece":
            cuts = [nid for nid in ids if isinstance(nodes[nid], BcCut)]
            if cuts:
                nid = rng.choice(cuts)
                nodes[nid] = replace(nodes[nid], piece=rng.randint(0, 4))
            continue
        parents = [nid for nid in ids if children_of(nodes[nid])]
        if not parents:
            continue
        nid = rng.choice(parents)
        kids = list(children_of(nodes[nid]))
        if kind == "extra" and isinstance(nodes[nid], BcChoose):
            nodes[nid] = replace(nodes[nid], children=(*kids, rng.choice(ids)))
            continue
        if kind == "missing":
            target = max(ids) + 1 + rng.randrange(3)
        elif kind == "ancestor":
            target = rng.choice(_ancestors(nodes, nid))
        else:
            target = rng.choice(ids)
        kids[rng.randrange(len(kids))] = target
        node = nodes[nid]
        nodes[nid] = (replace(node, child=kids[0]) if isinstance(node, BcCut)
                      else replace(node, children=tuple(kids)))
    return BcDag(d.agents, d.root, nodes)


def allowed_form(report) -> list[str]:
    """The report's lines with the differences the walk order may make taken
    out: missing-edge lines stably sorted by their node, and the lines on
    which paths disagree on a cut count made one line."""
    lines = str(report).splitlines()
    missing = [line for line in lines if "edge to missing node" in line]
    rest = [line for line in lines if "edge to missing node" not in line
            and "paths disagree" not in line]
    if len(rest) + len(missing) < len(lines):
        rest.append("paths disagree")
    by_node = sorted(missing, key=lambda line: int(re.match(r"error: \[node (-?\d+)", line)[1]))
    return by_node + rest


def _dags():
    return st.builds(mutate, st.sampled_from(BASES), st.randoms(use_true_random=False))


@FUZZ
@given(_dags())
def test_validate_dag_agrees_with_the_three_passes(d):
    got, want = validate_dag(d), reference.validate_dag(d)
    assert got.ok == want.ok
    assert allowed_form(got) == allowed_form(want)


@FUZZ
@given(_dags())
def test_fold_dag_refuses_exactly_a_missing_id_or_cycle_it_can_reach(d):
    if d.root in d.nodes:
        reached, missing = reference.dag_reachability(d)
        faulty = bool(missing) or reference.dag_first_cycle(d) is not None
    else:
        reached, faulty = set(), True
    try:
        heights = ir.fold_dag(d, lambda node, kids: 1 + max(kids, default=0))
    except DomainError as exc:
        assert faulty
        gone = re.fullmatch(r"DAG edge to missing node (-?\d+)", str(exc))
        looped = re.fullmatch(r"DAG node (-?\d+) lies on a cycle", str(exc))
        assert gone or looped
        if gone:
            nid = int(gone[1])
            assert nid not in d.nodes
            assert nid == d.root or nid in {kid for _, kid in missing}
        else:
            nid = int(looped[1])
            assert nid in reached
            assert set(children_of(d.nodes[nid])) & set(_ancestors(d.nodes, nid))
    else:
        assert not faulty
        assert set(heights) == reached


def _outcome(renumber_dag, d):
    try:
        new, mapping = renumber_dag(d)
    except DomainError as exc:
        return str(exc)
    return new.agents, new.root, list(new.nodes.items()), list(mapping.items())


@FUZZ
@given(_dags())
def test_renumber_agrees_with_its_own_id_stack(d):
    assert _outcome(renumber, d) == _outcome(reference.renumber_dag, d)


def test_renumber_of_every_base_dag_agrees_with_its_own_id_stack():
    for d in BASES:
        assert validate_dag(d).ok
        assert _outcome(renumber, d) == _outcome(reference.renumber_dag, d)
