import gc
import random
from dataclasses import fields, is_dataclass
from fractions import Fraction as F

import pytest

from cakewalk import engine, ir
from cakewalk.dsl import print_protocol
from cakewalk.errors import DomainError
from cakewalk.engine import run
from cakewalk.ir import (
    And, BcChoose, BcCut, BcDag, BcLeaf, BcTree, ChoseAt, CutInAt, DagChoose,
    DagCut, DagLeaf, ELSE, END, ExtBcTree, ExtChoose, ExtCut, ExtLeaf,
    ExtSegment, GccChoose, GccCut, GccIfElse, GccLeaf, GccMode, GccTree,
    CutRef, IdGen, Less, Not, ORIGIN, Order, at, renumber, static_cut_order,
    stats, structurally_equal, validate, validate_bc, validate_dag, validate_ext,
    validate_gcc,
)
from cakewalk.jsonio import protocol_to_json
from cakewalk.library import (
    gen_cut_and_choose, gen_dubins_spanier, gen_even_paz,
    gen_selfridge_conway_bc, gen_selfridge_conway_gcc,
)
from cakewalk.valuation import random_valuation, uniform

from helpers import (
    rand_profile, random_bc_tree, random_dag, random_ext_tree, random_gcc,
    reconverging_dags,
)


def bc_leaf_only():
    return BcTree(1, BcLeaf(0, (1,)))


def choose_chain(depth: int) -> BcTree:
    """``depth`` single-child chooses above one leaf, ids in preorder."""
    node = BcLeaf(depth, (1,))
    for nid in reversed(range(depth)):
        node = BcChoose(nid, 1, (node,))
    return BcTree(1, node)


class TestValidateBc:
    def test_trivial_leaf(self):
        assert validate_bc(bc_leaf_only()).ok

    def test_leaf_arity_rule(self):
        bad = BcTree(1, BcCut(0, 1, 1, BcLeaf(1, (1,))))
        report = validate_bc(bad)
        assert not report.ok
        assert any("expected 2" in v.message for v in report.errors)

    def test_piece_out_of_range(self):
        bad = BcTree(1, BcCut(0, 1, 2, BcLeaf(1, (1, 1))))
        assert not validate_bc(bad).ok

    def test_agent_out_of_range(self):
        bad = BcTree(1, BcCut(0, 2, 1, BcLeaf(1, (1, 1))))
        assert not validate_bc(bad).ok

    def test_duplicate_ids(self):
        bad = BcTree(1, BcCut(0, 1, 1, BcLeaf(0, (1, 1))))
        assert not validate_bc(bad).ok

    def test_selfridge_conway_validates(self):
        tree, _ = gen_selfridge_conway_bc()
        assert validate_bc(tree).ok


def diamond_dag(left_cuts: int, right_cuts: int) -> BcDag:
    """Choose splitting into two cut chains that re-join at a shared leaf."""
    gen = IdGen()
    root = gen()
    nodes = {}
    leaf_id = 100
    arity = left_cuts + 1
    nodes[leaf_id] = DagLeaf(leaf_id, tuple(1 for _ in range(arity)))

    def chain(count):
        prev = leaf_id
        for k in range(count):
            nid = gen()
            nodes[nid] = DagCut(nid, 1, 1, prev)
            prev = nid
        return prev

    left = chain(left_cuts)
    right = chain(right_cuts)
    nodes[root] = DagChoose(root, 1, (left, right))
    return BcDag(1, root, nodes)


class TestValidateDag:
    def test_tree_shaped(self):
        dag = diamond_dag(1, 1)
        assert validate_dag(dag).ok

    def test_unequal_cut_paths(self):
        report = validate_dag(diamond_dag(1, 2))
        assert not report.ok
        assert any("paths disagree" in v.message for v in report.errors)

    def test_cycle_detected(self):
        nodes = {
            0: DagCut(0, 1, 1, 1),
            1: DagCut(1, 1, 1, 0),
        }
        assert not validate_dag(BcDag(1, 0, nodes)).ok

    def test_unreachable_node(self):
        nodes = {
            0: DagLeaf(0, (1,)),
            1: DagLeaf(1, (1,)),
        }
        report = validate_dag(BcDag(1, 0, nodes))
        assert any("unreachable" in v.message for v in report.errors)

    def test_relabeling_preserves_validity(self):
        dag = diamond_dag(2, 2)
        relabeled, _ = renumber(dag)
        assert validate_dag(relabeled).ok
        assert structurally_equal(dag, relabeled)


def ext_one_cut_leaf():
    cut = IdGen()()
    return ExtBcTree(2, ExtCut(0, 1, ORIGIN, END, ExtLeaf(1, (
        ExtSegment(ORIGIN, at(0), 1),
        ExtSegment(at(0), END, 2),
    ))))


class TestValidateExt:
    def test_single_cut_valid(self):
        assert validate_ext(ext_one_cut_leaf()).ok

    def test_unordered_cuts_rejected(self):
        # Two independent cuts in [0,1] cannot anchor a three-way allocation,
        # because the middle segment's endpoints have no derivable order.
        tree = ExtBcTree(2, ExtCut(0, 1, ORIGIN, END,
                                   ExtCut(1, 2, ORIGIN, END, ExtLeaf(2, (
                                       ExtSegment(ORIGIN, at(0), 1),
                                       ExtSegment(at(0), at(1), 2),
                                       ExtSegment(at(1), END, 1),
                                   )))))
        report = validate_ext(tree)
        assert not report.ok
        assert any("not derivable" in v.message for v in report.errors)

    def test_restricted_second_cut_accepted(self):
        # Restricting the second cut to [x, 1] makes the same allocation valid.
        tree = ExtBcTree(2, ExtCut(0, 1, ORIGIN, END,
                                   ExtCut(1, 2, at(0), END, ExtLeaf(2, (
                                       ExtSegment(ORIGIN, at(0), 1),
                                       ExtSegment(at(0), at(1), 2),
                                       ExtSegment(at(1), END, 1),
                                   )))))
        assert validate_ext(tree).ok

    def test_coarse_allocation_always_fine(self):
        tree = ExtBcTree(2, ExtCut(0, 1, ORIGIN, END,
                                   ExtCut(1, 2, ORIGIN, END, ExtLeaf(2, (
                                       ExtSegment(ORIGIN, at(0), 1),
                                       ExtSegment(at(0), END, 2),
                                   )))))
        assert validate_ext(tree).ok

    def test_non_ancestor_ref(self):
        tree = ExtBcTree(1, ExtCut(0, 1, ORIGIN, at(99),
                                   ExtLeaf(1, (ExtSegment(ORIGIN, END, 1),))))
        assert not validate_ext(tree).ok

    def test_broken_segment_chain(self):
        tree = ExtBcTree(2, ExtCut(0, 1, ORIGIN, END, ExtLeaf(1, (
            ExtSegment(ORIGIN, at(0), 1),
            ExtSegment(END, END, 2),
        ))))
        report = validate_ext(tree)
        assert any("share an endpoint" in v.message for v in report.errors)


class TestStaticCutOrder:
    def test_single_cut_between_ends(self):
        tree = ext_one_cut_leaf()
        order = static_cut_order(tree, 1)
        assert order.compare(ORIGIN, at(0)) == Order.LE
        assert order.compare(at(0), END) == Order.LE
        assert order.compare(ORIGIN, END) == Order.LE

    def test_independent_cuts_unknown(self):
        tree = ExtBcTree(2, ExtCut(0, 1, ORIGIN, END,
                                   ExtCut(1, 2, ORIGIN, END, ExtLeaf(2, (
                                       ExtSegment(ORIGIN, END, 1),
                                   )))))
        order = static_cut_order(tree, 2)
        assert order.compare(at(0), at(1)) == Order.UNKNOWN

    def test_transitive_chain(self):
        tree = ExtBcTree(1, ExtCut(0, 1, ORIGIN, END,
                                   ExtCut(1, 1, at(0), END,
                                          ExtCut(2, 1, at(1), END, ExtLeaf(3, (
                                              ExtSegment(ORIGIN, END, 1),
                                          ))))))
        order = static_cut_order(tree, 3)
        assert order.compare(at(0), at(2)) == Order.LE
        assert order.compare(at(2), at(0)) == Order.GE

    def test_soundness_on_random_trees(self):
        # Whenever LE is reported, no execution may violate it.
        checked = 0
        for seed in range(1000):
            rng = random.Random(seed)
            tree = random_ext_tree(rng, agents=2, max_nodes=12)
            _, alloc_unused = None, None
            strategies = rand_profile(seed, 2)
            vals = [uniform(), uniform()]
            trace, _ = run(tree, strategies, vals)
            positions = {ev.node: ev.position for ev in trace.events
                         if hasattr(ev, "position")}

            def resolve(ref):
                if ref.kind == "origin":
                    return F(0)
                if ref.kind == "end":
                    return F(1)
                return positions.get(ref.cut)

            # Find the leaf the run reached and audit the order at it.
            leaf_nid = None
            node = tree.root
            queue = list(trace.events)
            while not isinstance(node, ExtLeaf):
                if isinstance(node, ExtCut):
                    node = node.child
                    queue.pop(0)
                else:
                    ev = queue.pop(0)
                    node = node.children[ev.index]
            order = static_cut_order(tree, node.nid)
            for a in order.refs:
                for b in order.refs:
                    if order.compare(a, b) == Order.LE:
                        pa, pb = resolve(a), resolve(b)
                        if pa is not None and pb is not None:
                            assert pa <= pb, (seed, a, b)
                            checked += 1
        assert checked > 1000

    def test_unknown_node_rejected(self):
        with pytest.raises(Exception):
            static_cut_order(ext_one_cut_leaf(), 42)


def cut_and_choose_gcc():
    z = at(0)
    return GccTree(2, GccCut(0, 1, ((ORIGIN, END),),
                             GccChoose(1, 2, ((ORIGIN, z), (z, END)),
                                       GccIfElse(2, (
                                           (ChoseAt(1, 0),
                                            GccChoose(3, 1, ((z, END),), GccLeaf(4))),
                                           (ELSE,
                                            GccChoose(5, 1, ((ORIGIN, z),), GccLeaf(6))),
                                       )))))


class TestValidateGcc:
    def test_cut_and_choose_fixture(self):
        assert validate_gcc(cut_and_choose_gcc(), GccMode.RESTRICTED).ok

    def test_overlapping_pieces_rejected(self):
        tree = GccTree(2, GccCut(0, 1, ((ORIGIN, END),),
                                 GccChoose(1, 2, ((ORIGIN, END), (at(0), END)),
                                           GccLeaf(2))))
        report = validate_gcc(tree, GccMode.RESTRICTED)
        assert any("may overlap" in v.message for v in report.errors)

    def test_missing_else_rejected(self):
        tree = GccTree(2, GccCut(0, 1, ((ORIGIN, END),),
                                 GccIfElse(1, (
                                     (Less(ORIGIN, at(0)), GccLeaf(2)),
                                 ))))
        report = validate_gcc(tree, GccMode.EXTENSIVE)
        assert any("catch-all else" in v.message for v in report.errors)

    def test_interior_cut_restricted_vs_extensive(self):
        spanning = GccTree(1, GccCut(0, 1, ((ORIGIN, END),),
                                     GccCut(1, 1, ((ORIGIN, END),),
                                            GccChoose(2, 1, ((ORIGIN, END),),
                                                      GccLeaf(3)))))
        restricted = validate_gcc(spanning, GccMode.RESTRICTED)
        assert any("may contain earlier cut" in v.message
                   for v in restricted.errors)
        assert validate_gcc(spanning, GccMode.EXTENSIVE).ok

    def test_condition_must_reference_ancestor(self):
        tree = GccTree(1, GccIfElse(0, (
            (ChoseAt(42, 0), GccLeaf(1)),
            (ELSE, GccLeaf(2)),
        )))
        report = validate_gcc(tree, GccMode.EXTENSIVE)
        assert any("non-ancestor" in v.message for v in report.errors)

    def test_reallocation_rejected(self):
        z = at(0)
        tree = GccTree(2, GccCut(0, 1, ((ORIGIN, END),),
                                 GccChoose(1, 2, ((ORIGIN, z),),
                                           GccChoose(2, 1, ((ORIGIN, z),),
                                                     GccLeaf(3)))))
        report = validate_gcc(tree, GccMode.RESTRICTED)
        assert any("already be allocated" in v.message for v in report.errors)

    def test_unallocated_leaf_is_warning(self):
        tree = GccTree(1, GccCut(0, 1, ((ORIGIN, END),), GccLeaf(1)))
        report = validate_gcc(tree, GccMode.RESTRICTED)
        assert report.ok
        assert any("unallocated" in v.message for v in report.warnings)

    def test_selfridge_conway_gcc_extensive(self):
        tree, _ = gen_selfridge_conway_gcc()
        report = validate_gcc(tree, GccMode.EXTENSIVE)
        assert report.ok and not report.warnings

    def test_symbolic_state_cap_warns(self, monkeypatch):
        monkeypatch.setattr(ir, "_SYMBOLIC_STATE_CAP", 4)
        # Three two-piece chooses over disjoint gaps fork 8 > 4 states.
        gen = IdGen()
        cut_ids = [gen() for _ in range(5)]
        refs = [ORIGIN] + [at(c) for c in cut_ids] + [END]
        node = GccLeaf(gen())
        for k in (4, 2, 0):
            node = GccChoose(gen(), 1, ((refs[k], refs[k + 1]),
                                        (refs[k + 1], refs[k + 2])), node)
        for k, cid in reversed(list(enumerate(cut_ids))):
            node = GccCut(cid, 1, ((refs[k], END),), node)
        report = validate_gcc(GccTree(1, node), GccMode.EXTENSIVE)
        assert report.ok
        assert any("state cap" in w.message for w in report.warnings)


def ordered_cuts_gcc() -> GccTree:
    """Two cuts in a statically known order (the second lands right of the
    first), then an if-else on their order; every branch allocates all."""
    gen = IdGen()
    c0, c1 = gen(), gen()

    def allocate():
        tail = GccLeaf(gen())
        for agent, piece in ((2, (at(c1), END)), (1, (at(c0), at(c1))),
                             (2, (ORIGIN, at(c0)))):
            tail = GccChoose(gen(), agent, (piece,), tail)
        return tail

    conds = (Less(at(c1), at(c0)), Not(Less(at(c0), at(c1))), ELSE)
    branches = tuple((cond, allocate()) for cond in conds)
    return GccTree(2, GccCut(c0, 1, ((ORIGIN, END),),
                             GccCut(c1, 2, ((at(c0), END),), GccIfElse(gen(), branches))))


class TestConditionReaders:
    """The validator's static reading of a condition never contradicts a run."""

    def protocols(self):
        yield ordered_cuts_gcc()
        for seed in range(40):
            yield random_gcc(random.Random(seed), 2 + seed % 2, 6)
        yield gen_cut_and_choose()[1]
        yield gen_selfridge_conway_gcc()[0]
        for n in (3, 4):
            yield gen_dubins_spanier(n, "gcc")[0]
        for n in (2, 4):
            yield gen_even_paz(n, "gcc")[0]

    def test_static_verdicts_agree_with_runs(self, monkeypatch):
        static = ir._eval_condition_static
        runtime = engine.eval_condition
        orders: dict = {}  # id(condition) -> order the validator read it under
        reached: list = []

        def record_static(cond, picks, order):
            if not isinstance(cond, ir.Else):
                assert orders.setdefault(id(cond), order) is order
            return static(cond, picks, order)

        def record_run(cond, state):
            verdict = runtime(cond, state)
            reached.append((cond, state, verdict))
            return verdict

        monkeypatch.setattr(ir, "_eval_condition_static", record_static)
        monkeypatch.setattr(engine, "eval_condition", record_run)
        compared = decided = 0
        for k, p in enumerate(self.protocols()):
            orders.clear()
            validate_gcc(p, GccMode.EXTENSIVE)
            for seed in range(24):
                del reached[:]
                vals = [random_valuation(100 * k + seed + i, 3) for i in range(p.agents)]
                run(p, rand_profile(seed, p.agents), vals)
                for cond, state, verdict in reached:
                    if isinstance(cond, ir.Else):
                        continue
                    seen = static(cond, dict(state.picks), orders[id(cond)])
                    assert seen is None or seen == verdict, (k, cond, state)
                    compared += 1
                    decided += seen is not None
        assert compared > 500 and decided > 200


class TestValidate:
    def test_one_entry_point_for_every_form(self):
        bc, gcc, _ = gen_cut_and_choose()
        ext = gen_even_paz(2, "extbc")[0]
        dag = next(reconverging_dags())[1]
        assert str(validate(bc)) == str(validate_bc(bc))
        assert str(validate(ext)) == str(validate_ext(ext))
        assert str(validate(dag)) == str(validate_dag(dag))
        for mode in GccMode:
            assert str(validate(gcc, mode)) == str(validate_gcc(gcc, mode))
        bad = BcDag(1, 0, {0: DagLeaf(0, (2,))})
        assert str(validate(bad)) == str(validate_dag(bad)) != "valid"


class TestStats:
    def test_single_leaf(self):
        s = stats(bc_leaf_only())
        assert s.nodes == 1 and s.leaves == 1 and s.depth == 1

    def test_selfridge_conway_150(self):
        tree, _ = gen_selfridge_conway_bc()
        assert stats(tree).nodes == 150

    def test_dag_stats(self):
        s = stats(diamond_dag(1, 1))
        assert s.nodes == 4 and s.cuts == 2 and s.max_branching == 2

    def test_renumber_numbers_a_shared_subtree_per_occurrence(self):
        shared = BcCut(7, 1, 1, BcLeaf(7, (1, 1)))
        tree = BcTree(1, BcChoose(3, 1, (shared, shared)))
        relabeled, _ = renumber(tree)
        assert [n.nid for n in ir.iter_nodes(relabeled)] == [0, 1, 2, 3, 4]
        assert validate_bc(relabeled).ok

    def test_renumber_and_equality_take_deep_chains(self):
        relabeled, mapping = renumber(choose_chain(400))
        assert [n.nid for n in ir.iter_nodes(relabeled)] == list(range(401))
        assert mapping == {nid: nid for nid in range(401)}
        assert structurally_equal(choose_chain(400), choose_chain(400))
        assert not structurally_equal(choose_chain(400), choose_chain(401))

    @pytest.mark.parametrize("make", [
        lambda: gen_selfridge_conway_bc()[0], lambda: gen_selfridge_conway_gcc()[0],
        lambda: gen_even_paz(2, "extbc")[0], lambda: next(reconverging_dags())[1],
    ], ids=["sc-bc", "sc-gcc", "ep-extbc", "dag"])
    def test_renumber_and_equality_leave_no_garbage(self, make):
        # With the collector off, a reference cycle would keep the walks'
        # tables alive until the next collection.
        p = make()
        gc.collect()
        gc.disable()
        try:
            assert structurally_equal(p, p)
            renumber(p)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_renumber_preserves_structure_and_stats(self):
        tree, _ = gen_selfridge_conway_bc()
        relabeled, mapping = renumber(tree)
        assert stats(relabeled) == stats(tree)
        assert structurally_equal(tree, relabeled)
        assert validate_bc(relabeled).ok


# ---------------------------------------------------------------------------
# Structural equality, checked against copies built here field by field

# Int fields that hold node ids: node and DAG-edge ids, the cut a ref names,
# the node a condition reads, and a DAG's root.
ID_FIELDS = {"nid", "node", "cut", "root", "child", "children"}


def edit(value, fn, name=None):
    """A copy of ``value`` with every int field passed through ``fn(name, v)``."""
    if isinstance(value, int):
        return fn(name, value)
    if isinstance(value, tuple):
        return tuple(edit(v, fn, name) for v in value)
    if isinstance(value, dict):  # a DAG's node map
        return {fn("nid", k): edit(v, fn) for k, v in value.items()}
    if isinstance(value, CutRef) and value.kind != "cut":
        return value
    if is_dataclass(value):
        return type(value)(**{f.name: edit(getattr(value, f.name), fn, f.name)
                              for f in fields(value)})
    return value


def relabelled(p, rng):
    """``p`` with its node ids permuted at random, every reference following."""
    ids = sorted({n.nid for n in ir.iter_nodes(p)})
    perm = dict(zip(ids, rng.sample(range(10 * len(ids) + 10), len(ids))))
    return edit(p, lambda name, v: perm[v] if name in ID_FIELDS else v)


def single_field_changes(p, rng, limit=60):
    """Copies of ``p`` that each change one agent, piece, assign entry, ref,
    condition index or DAG edge (node ids themselves are left alone)."""
    sites = 0

    def count(name, v):
        nonlocal sites
        sites += name not in ("nid", "agents")
        return v

    edit(p, count)
    for target in sorted(rng.sample(range(sites), min(sites, limit))):
        seen = -1

        def bump(name, v):
            nonlocal seen
            if name in ("nid", "agents"):
                return v
            seen += 1
            return v + 1 if seen == target else v

        yield edit(p, bump)


def equality_cases():
    cases = [gen_cut_and_choose()[1], gen_dubins_spanier(3, "gcc")[0],
             gen_even_paz(2, "gcc")[0], gen_selfridge_conway_gcc()[0],
             gen_even_paz(2, "extbc")[0], ordered_cuts_gcc()]
    for seed in range(12):
        cases.append(random_bc_tree(random.Random(seed), 2, 15))
        cases.append(random_ext_tree(random.Random(seed), 3, 18))
        cases.append(random_gcc(random.Random(seed), 2, 5))
        cases.append(random_dag(random.Random(seed), 2, 14))
    cases += [dag for _, dag in reconverging_dags(120)]
    return cases


class TestStructuralEquality:
    def test_dag_sharing_either_order(self):
        shared = BcDag(1, 0, {0: DagChoose(0, 1, (1, 1)), 1: DagLeaf(1, (1,))})
        distinct = BcDag(1, 0, {0: DagChoose(0, 1, (1, 2)), 1: DagLeaf(1, (1,)),
                                2: DagLeaf(2, (1,))})
        assert not structurally_equal(shared, distinct)
        assert not structurally_equal(distinct, shared)

    def test_missing_cut_is_a_domain_error(self):
        tree = GccTree(1, GccIfElse(0, (
            (Less(at(7), END), GccLeaf(1)), (ELSE, GccLeaf(2)))))
        for write in (renumber, protocol_to_json, print_protocol):
            with pytest.raises(DomainError, match=r"\b7\b"):
                write(tree)
        assert not structurally_equal(tree, tree)

    def test_missing_dag_child_is_a_domain_error(self):
        dag = BcDag(1, 0, {0: DagCut(0, 1, 1, 5)})
        with pytest.raises(DomainError, match=r"\b5\b"):
            renumber(dag)
        assert not structurally_equal(dag, dag)

    def test_node_class_matters(self):
        # A gcc-cut and a gcc-choose hold the same fields.
        gcc = gen_cut_and_choose()[1]
        fields_of_root = {f.name: getattr(gcc.root, f.name) for f in fields(gcc.root)}
        assert isinstance(gcc.root, GccCut)
        choose = GccTree(gcc.agents, GccChoose(**fields_of_root))
        assert not structurally_equal(gcc, choose)
        assert not structurally_equal(choose, gcc)

    def test_relabelled_copies_are_equal(self):
        rng = random.Random(5)
        for p in equality_cases():
            copy = relabelled(p, rng)
            assert structurally_equal(p, copy) and structurally_equal(copy, p)

    def test_single_field_changes_are_unequal(self):
        rng = random.Random(6)
        checked = 0
        for p in equality_cases():
            for changed in single_field_changes(p, rng):
                assert not structurally_equal(p, changed), changed
                assert not structurally_equal(changed, p), changed
                checked += 1
        assert checked > 500
