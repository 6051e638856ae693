import random
from fractions import Fraction as F

import pytest

from cakewalk import ir
from cakewalk.engine import allocation_values, run
from cakewalk.errors import BudgetExceededError, DomainError, InvalidProtocolError
from cakewalk.ir import (
    BcChoose, BcCut, BcDag, BcLeaf, BcTree, ChoseAt, DagChoose, DagCut,
    DagLeaf, ELSE, END, ExtBcTree, ExtChoose, ExtCut, ExtLeaf, ExtSegment,
    GccChoose, GccCut, GccIfElse, GccLeaf, GccMode, GccTree, IdGen, ORIGIN,
    at, iter_nodes, stats, structurally_equal, validate_bc, validate_ext,
    validate_gcc,
)
from cakewalk.library import (
    gen_cut_and_choose, gen_dubins_spanier, gen_selfridge_conway_bc,
)
from cakewalk.oracle import Grid, GuaranteeOracle
from cakewalk.transform import (
    bc_intermediate_form, bc_to_gcc, conversion_cost, cuts_before_choices_bc,
    cuts_before_choices_ext, cuts_first, dag_to_tree, embed_bc_as_ext,
    extended_to_bc, gcc_to_bc, intermediate_form_ok,
)
from cakewalk.valuation import Valuation, random_valuation, uniform

from helpers import (
    many_chooses_tree, rand_profile, random_bc_tree, random_dag, random_ext_tree,
)


def chain_ext(n):
    """n spanning cuts in [0, 1] then a single take-everything leaf."""
    gen = IdGen()
    ids = [gen() for _ in range(n)]
    node = ExtLeaf(gen(), (ExtSegment(ORIGIN, END, 1),))
    for i in reversed(range(n)):
        node = ExtCut(ids[i], min(i + 1, n), ORIGIN, END, node)
    return ExtBcTree(max(n, 1), node)


def vals_for(p, seed):
    return [random_valuation(seed * 7 + k, 1 + (seed + k) % 3)
            for k in range(p.agents)]


class TestDagToTree:
    def test_tree_shaped_dag_is_isomorphic(self):
        nodes = {
            0: DagCut(0, 1, 1, 1),
            1: DagLeaf(1, (1, 1)),
        }
        dag = BcDag(1, 0, nodes)
        tree, nmap, _ = dag_to_tree(dag)
        assert stats(tree).nodes == 2
        assert nmap.targets(0) == frozenset({0})
        assert nmap.targets(1) == frozenset({1})

    def test_diamond_duplicates_shared_subtree(self):
        # Shared subtree of size s with two parents grows the tree by s.
        sub_size = 3
        nodes = {
            0: DagChoose(0, 1, (1, 2)),
            1: DagCut(1, 1, 1, 10),
            2: DagCut(2, 1, 1, 10),
            10: DagCut(10, 1, 1, 11),
            11: DagCut(11, 1, 2, 12),
            12: DagLeaf(12, (1, 1, 1, 1)),
        }
        dag = BcDag(1, 0, nodes)
        tree, nmap, _ = dag_to_tree(dag)
        assert stats(tree).nodes == len(nodes) + sub_size
        assert len(nmap.targets(10)) == 2

    def test_invalid_dag_rejected(self):
        bad = BcDag(1, 0, {0: DagCut(0, 1, 5, 1), 1: DagLeaf(1, (1, 1))})
        with pytest.raises(InvalidProtocolError):
            dag_to_tree(bad)

    def test_random_dags_preserve_allocations(self):
        for seed in range(40):
            dag = random_dag(random.Random(seed), 2, 25)
            tree, _, transport = dag_to_tree(dag)
            assert validate_bc(tree).ok
            vals = vals_for(dag, seed)
            src = rand_profile(seed, 2)
            _, a1 = run(dag, src, vals)
            _, a2 = run(tree, transport(src), vals)
            assert a1.pieces == a2.pieces

    def test_cost_is_exact(self):
        for seed in range(10):
            dag = random_dag(random.Random(seed), 2, 20)
            tree, _, _ = dag_to_tree(dag)
            assert conversion_cost("dag_to_tree", dag) == stats(tree).nodes


class TestExtendedToBc:
    def test_adjacent_cut_unchanged(self):
        tree = ExtBcTree(1, ExtCut(0, 1, ORIGIN, END, ExtLeaf(1, (
            ExtSegment(ORIGIN, at(0), 1), ExtSegment(at(0), END, 1),
        ))))
        bc, _, _ = extended_to_bc(tree)
        assert stats(bc).nodes == stats(tree).nodes
        assert isinstance(bc.root, BcCut)

    def test_three_spanning_cuts_expand_to_twelve_nodes(self):
        bc, _, _ = extended_to_bc(chain_ext(3))
        s = stats(bc)
        assert s.nodes - s.leaves == 12
        bottom_cuts = sum(
            1 for n in iter_nodes(bc)
            if isinstance(n, BcCut) and isinstance(n.child, BcLeaf)
        )
        assert bottom_cuts == 6

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_leaf_count_factorial(self, n):
        import math
        bc, _, _ = extended_to_bc(chain_ext(n))
        assert stats(bc).leaves == math.factorial(n)

    def test_random_trees_preserve_allocations(self):
        for seed in range(30):
            tree = random_ext_tree(random.Random(seed), 3, 22)
            bc, _, transport = extended_to_bc(tree)
            assert validate_bc(bc).ok
            vals = vals_for(tree, seed)
            src = rand_profile(seed, 3)
            _, a1 = run(tree, src, vals)
            _, a2 = run(bc, transport(src), vals)
            assert allocation_values(a1, vals) == allocation_values(a2, vals)

    def test_cost_bound_holds(self):
        for seed in range(12):
            tree = random_ext_tree(random.Random(seed), 3, 18)
            bc, _, _ = extended_to_bc(tree)
            assert conversion_cost("extended_to_bc", tree) >= stats(bc).nodes
        chain = chain_ext(4)
        bc, _, _ = extended_to_bc(chain)
        assert conversion_cost("extended_to_bc", chain) == stats(bc).nodes


class TestCutsBeforeChoicesExt:
    def test_already_normalized_unchanged(self):
        tree = chain_ext(3)
        out, _, _ = cuts_before_choices_ext(tree)
        assert structurally_equal(out, tree)

    def test_single_hoist_moves_cut_above_choose(self):
        # A choose with one cut child becomes a cut above the choose.
        tree = ExtBcTree(2, ExtChoose(0, 1, (
            ExtCut(1, 2, ORIGIN, END, ExtLeaf(2, (ExtSegment(ORIGIN, END, 1),))),
            ExtLeaf(3, (ExtSegment(ORIGIN, END, 2),)),
        )))
        out, nmap, _ = cuts_before_choices_ext(tree)
        assert isinstance(out.root, ExtCut)
        assert isinstance(out.root.child, ExtChoose)
        assert stats(out).nodes == stats(tree).nodes
        assert nmap.targets(1) == frozenset({1})

    def test_random_postconditions_and_allocations(self):
        for seed in range(40):
            tree = random_ext_tree(random.Random(seed), 3, 30)
            out, _, transport = cuts_before_choices_ext(tree)
            assert validate_ext(out).ok
            assert cuts_first(out)
            assert stats(out).nodes == stats(tree).nodes
            vals = vals_for(tree, seed)
            src = rand_profile(seed, 3)
            _, a1 = run(tree, src, vals)
            _, a2 = run(out, transport(src), vals)
            assert allocation_values(a1, vals) == allocation_values(a2, vals)

    def test_dubins_spanier_4_transported(self, monkeypatch):
        # The cuts-first form asks all 167 cuts of every branch where the
        # source run makes 15 decisions.  Each of its 173 decisions is one
        # query to a source strategy and one Valuation.mark call: the
        # transporter skips no query.
        p, bundle = gen_dubins_spanier(4, "extbc")
        out, _, transport = cuts_before_choices_ext(p)
        marks = []
        mark = Valuation.mark
        monkeypatch.setattr(Valuation, "mark",
                            lambda v, *args: marks.append(1) or mark(v, *args))
        for seed in range(3):
            vals = [random_valuation(seed * 10 + i, 4) for i in range(4)]
            source = bundle.strategies_for(p)
            _, a1 = run(p, source, vals)
            del marks[:]
            trace, a2 = run(out, transport(source), vals)
            assert allocation_values(a1, vals) == allocation_values(a2, vals)
            assert len(marks) == len(trace.events) == 173

    def test_idempotent(self):
        for seed in range(10):
            tree = random_ext_tree(random.Random(seed), 3, 25)
            once, _, _ = cuts_before_choices_ext(tree)
            twice, _, _ = cuts_before_choices_ext(once)
            assert structurally_equal(once, twice)

    def test_cost_is_exact_size(self):
        tree = random_ext_tree(random.Random(5), 3, 25)
        assert conversion_cost("cuts_before_choices_ext", tree) == stats(tree).nodes


class TestIntermediateForm:
    def test_cut_chain_unchanged(self):
        tree = BcTree(1, BcCut(0, 1, 1, BcCut(1, 1, 2, BcLeaf(2, (1, 1, 1)))))
        out, _ = bc_intermediate_form(tree)
        assert structurally_equal(out, tree)
        assert intermediate_form_ok(out)

    def test_selfridge_conway_aborts_cleanly(self):
        # Hoisting stacks all 23 cuts into one spanning chain, and the
        # re-split is factorial in interleaved unknown orders; the pass must
        # hit its size budget instead of filling memory.
        tree, _ = gen_selfridge_conway_bc()
        with pytest.raises(BudgetExceededError):
            bc_intermediate_form(tree)

    def test_choose_of_cuts(self):
        tree = BcTree(2, BcCut(0, 1, 1, BcChoose(1, 2, (
            BcCut(2, 2, 1, BcLeaf(3, (1, 2, 1))),
            BcCut(4, 2, 2, BcLeaf(5, (2, 1, 2))),
        ))))
        out, _ = bc_intermediate_form(tree)
        assert validate_bc(out).ok
        assert intermediate_form_ok(out)

    def test_random_trees(self):
        for seed in range(25):
            tree = random_bc_tree(random.Random(seed), 2, 18)
            out, _ = bc_intermediate_form(tree)
            assert validate_bc(out).ok
            assert intermediate_form_ok(out)


class TestCutsBeforeChoicesBc:
    def test_choose_free_unchanged(self):
        tree = BcTree(1, BcCut(0, 1, 1, BcLeaf(1, (1, 1))))
        out, _ = cuts_before_choices_bc(tree)
        assert structurally_equal(out, tree)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_hoists_build_top_chain_of_cuts(self, m):
        gen = IdGen()

        def leaf(cuts):
            return BcLeaf(gen(), tuple(1 for _ in range(cuts + 1)))

        branches = tuple(BcCut(gen(), 2, j, leaf(m)) for j in range(1, m + 1))
        node = BcChoose(gen(), 2, branches)
        for k in reversed(range(1, m)):
            node = BcCut(gen(), 1, k, node)
        tree = BcTree(2, node)
        out, _ = cuts_before_choices_bc(tree)
        assert validate_bc(out).ok and cuts_first(out)
        top = 0
        cursor = out.root
        while isinstance(cursor, BcCut):
            top += 1
            cursor = cursor.child
        assert top == 2 * m - 1

    def test_random_postconditions(self):
        for seed in range(30):
            tree = random_bc_tree(random.Random(seed), 2, 14)
            out, nmap = cuts_before_choices_bc(tree)
            assert validate_bc(out).ok
            assert cuts_first(out)
            # Every original decision node survives; leaves map to leaves.
            out_nodes = {n.nid: n for n in iter_nodes(out)}
            for node in iter_nodes(tree):
                targets = nmap.targets(node.nid)
                assert targets
                if isinstance(node, BcLeaf):
                    assert all(isinstance(out_nodes[t], BcLeaf) for t in targets)

    def test_idempotent(self):
        for seed in range(12):
            tree = random_bc_tree(random.Random(seed), 2, 12)
            once, _ = cuts_before_choices_bc(tree)
            twice, _ = cuts_before_choices_bc(once)
            assert structurally_equal(once, twice)

    def test_guarantees_preserved_tiny(self):
        # Guaranteeable value per agent agrees before and after on a shared
        # grid, for small protocols.
        grid = Grid((F(0), F(1, 4), F(1, 2), F(3, 4), F(1)))
        for seed in (0, 2, 5, 7):
            tree = random_bc_tree(random.Random(seed), 2, 9)
            out, _ = cuts_before_choices_bc(tree)
            vals = [uniform(), uniform()]
            before = GuaranteeOracle(tree, vals, grid)
            after = GuaranteeOracle(out, vals, grid)
            for agent in (1, 2):
                assert before.guarantee_value(agent) == after.guarantee_value(agent)

    def test_size_budget_aborts(self):
        # Hoisting either cut child forces a split in the sibling branch.
        tree = BcTree(1, BcChoose(0, 1, (
            BcCut(1, 1, 1, BcLeaf(2, (1, 1))),
            BcCut(3, 1, 1, BcLeaf(4, (1, 1))),
        )))
        with pytest.raises(BudgetExceededError):
            cuts_before_choices_bc(tree, size_budget=stats(tree).nodes)


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


class TestGccToBc:
    def test_singleton_choose_becomes_leaf_only(self):
        tree = GccTree(1, GccChoose(0, 1, ((ORIGIN, END),), GccLeaf(1)))
        bc, _ = gcc_to_bc(tree)
        assert isinstance(bc.root, BcLeaf)
        assert bc.root.assign == (1,)

    def test_cut_and_choose_fixture_shape(self):
        bc, _ = gcc_to_bc(cut_and_choose_gcc())
        assert validate_bc(bc).ok
        assert stats(bc).leaves == 2
        assert isinstance(bc.root, BcCut)
        choose = bc.root.child
        assert isinstance(choose, BcChoose) and choose.agent == 2
        assert len(choose.children) == 2

    def test_allocations_match_under_play(self):
        gcc = cut_and_choose_gcc()
        bc, _ = gcc_to_bc(gcc)
        vals = [random_valuation(5, 3), random_valuation(6, 2)]
        # agent 1 halves, agent 2 picks the better piece (index into S).
        gcc_strats = [
            lambda ctx: (0, ctx.valuation.mark(0, 1, F(1, 2))),
            lambda ctx: max(range(len(ctx.pieces)),
                            key=lambda j: ctx.valuation.value(*ctx.pieces[j])),
        ]
        bc_strats = [
            lambda ctx: ctx.valuation.mark(*ctx.pieces[0], F(1, 2)),
            lambda ctx: max(
                range(2),
                key=lambda j: ctx.valuation.value(*ctx.partition[[0, 1][j]]),
            ),
        ]
        _, a1 = run(gcc, gcc_strats, vals)
        _, a2 = run(bc, bc_strats, vals)
        assert allocation_values(a1, vals) == allocation_values(a2, vals)

    def test_cost_bound(self):
        gcc = cut_and_choose_gcc()
        bc, _ = gcc_to_bc(gcc)
        assert conversion_cost("gcc_to_bc", gcc) >= stats(bc).nodes


class TestBcToGcc:
    def test_choice_free_shape(self):
        tree = BcTree(2, BcCut(0, 1, 1, BcLeaf(1, (1, 2))))
        gcc = bc_to_gcc(tree)
        assert validate_gcc(gcc, GccMode.EXTENSIVE).ok
        # Preamble a1, a2, b1, then the main cut, then allocation chooses.
        cursor = gcc.root
        preamble = 0
        while isinstance(cursor, GccCut):
            preamble += 1
            cursor = cursor.child
        assert preamble == 4  # a1 a2 b1 + main cut
        chooses = 0
        while isinstance(cursor, GccChoose):
            chooses += 1
            cursor = cursor.child
        assert isinstance(cursor, GccLeaf)
        assert chooses == 4  # two leaf segments + two reserved slices

    def test_one_choose_structure(self):
        bc, _, _ = gen_cut_and_choose()
        gcc = bc_to_gcc(bc)
        assert validate_gcc(gcc, GccMode.EXTENSIVE).ok
        s = stats(gcc)
        # 2n-1 = 3 preamble cuts, one branch-division cut, one main cut.
        assert s.cuts == 5
        ifelse = [n for n in iter_nodes(gcc) if isinstance(n, GccIfElse)]
        assert len(ifelse) == 1 and len(ifelse[0].branches) == 2

    def test_cost_bound(self):
        for seed in range(8):
            tree = random_bc_tree(random.Random(seed), 2, 10)
            gcc = bc_to_gcc(tree)
            assert conversion_cost("bc_to_gcc", tree) >= stats(gcc).nodes

    def test_random_outputs_validate(self):
        for seed in range(12):
            tree = random_bc_tree(random.Random(seed), 3, 12)
            gcc = bc_to_gcc(tree)
            report = validate_gcc(gcc, GccMode.EXTENSIVE)
            assert report.ok, str(report)

    def test_preamble_longer_than_the_recursion_limit(self):
        tree = many_chooses_tree()  # 1,201 chooses, 62 levels
        gcc = bc_to_gcc(tree)
        cursor, cuts = gcc.root, 0
        while isinstance(cursor, GccCut):
            cuts += 1
            cursor = cursor.child
        # a1 a2 b1, one cut per choose but each agent's first, then the
        # root choose's 19 branch-division cuts.
        assert cuts == 3 + (1201 - 2) + 19
        assert sum(1 for _ in iter_nodes(gcc)) <= conversion_cost("bc_to_gcc", tree)


class TestOracleAgreementOnTinyInstances:
    """Bound guarantees agree across conversions with no strategy transport."""

    GRID = Grid((F(0), F(1, 2), F(1)))
    VECTORS = [{2: F(0)}, {2: F(1, 2)}, {1: F(0)}, {1: F(1, 2)}]

    def queries(self, agents):
        from cakewalk.oracle import BoundsQuery
        out = []
        for vector in self.VECTORS:
            others = {j: m for j, m in vector.items() if j <= agents}
            for agent in range(1, agents + 1):
                if agent not in others and others:
                    out.append(BoundsQuery.make(agent, others))
        return out

    def assert_agreement(self, before, after, agents):
        vals = [uniform()] * agents
        left = GuaranteeOracle(before, vals, self.GRID, budget=10_000_000)
        right = GuaranteeOracle(after, vals, self.GRID, budget=10_000_000)
        for query in self.queries(agents):
            assert left.can_guarantee(query) == right.can_guarantee(query), query

    def test_bc_to_gcc(self):
        for seed in (0, 5, 10, 20, 23):
            tree = random_bc_tree(random.Random(seed), 2, 9)
            self.assert_agreement(tree, bc_to_gcc(tree), 2)

    def test_gcc_to_bc(self):
        from helpers import random_gcc
        for seed in (1, 3, 4, 8):
            gcc = random_gcc(random.Random(seed), 2, 5)
            image, _ = gcc_to_bc(gcc)
            self.assert_agreement(gcc, image, 2)

    def test_cuts_before_choices_bc(self):
        for seed in (0, 2, 5, 7, 11):
            tree = random_bc_tree(random.Random(seed), 2, 9)
            out, _ = cuts_before_choices_bc(tree)
            self.assert_agreement(tree, out, 2)


class TestConversionCost:
    def test_unknown_op_rejected(self):
        with pytest.raises(DomainError):
            conversion_cost("mystery_pass", chain_ext(2))

    def test_unbounded_ops_rejected(self):
        tree = random_bc_tree(random.Random(0), 2, 8)
        with pytest.raises(DomainError):
            conversion_cost("cuts_before_choices_bc", tree)
