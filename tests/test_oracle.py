import random
from fractions import Fraction as F
from itertools import product

import pytest

from cakewalk.engine import (
    current_kind, initial_state, leaf_allocation, step_choose, step_cut,
    step_ifelse, _node_of, cut_intervals,
)
from cakewalk.errors import BudgetExceededError, DomainError, ExecutionError
from cakewalk.ir import (
    BcChoose, BcCut, BcDag, BcLeaf, BcTree, DagCut, DagLeaf, GccMode, IdGen, stats,
)
from cakewalk.library import (
    gen_cut_and_choose, gen_dubins_spanier, gen_selfridge_conway_bc,
    gen_selfridge_conway_gcc,
)
from cakewalk.oracle import (
    BoundsQuery, Grid, GuaranteeOracle, Notion, build_grid, check_equiv,
    strong_query_vectors,
)
from cakewalk.transform import bc_to_gcc, dag_to_tree, gcc_to_bc
from cakewalk.valuation import Valuation, random_valuation, uniform

from helpers import (
    CountingMemo, grid_within, random_bc_tree, random_gcc, reconverging_dags,
)


# ---------------------------------------------------------------------------
# Brute force: enumerate the queried agent's pure strategies over reachable
# information sets, then let the adversary walk the tree freely.  Shares only
# the small-step engine with the oracle under test.


class BruteForce:
    def __init__(self, p, vals, grid):
        self.p = p
        self.vals = vals
        self.grid = grid
        self.states = {}
        self.infosets = {}  # state key -> (actor, successor keys)
        self._explore(initial_state(p))

    def _key(self, state):
        nid = state.node if isinstance(state.node, int) else state.node.nid
        return (nid, state.cuts, state.picks)

    def _moves(self, state):
        kind = current_kind(self.p, state)
        node = _node_of(self.p, state)
        if kind == "cut":
            intervals = cut_intervals(self.p, state)
            out = []
            for j, (lo, hi) in enumerate(intervals):
                for z in grid_within(self.grid, lo, hi):
                    out.append(step_cut(self.p, state, j, z))
            return node.agent, out
        if kind == "choose":
            return node.agent, [step_choose(self.p, state, i)
                                for i in range(len(node.children))]
        return node.agent, [step_choose(self.p, state, i)
                            for i in range(len(node.pieces))]

    def _explore(self, state):
        key = self._key(state)
        if key in self.states:
            return
        self.states[key] = state
        kind = current_kind(self.p, state)
        if kind == "leaf":
            self.infosets[key] = ("leaf", None, ())
            return
        if kind == "ifelse":
            nxt = step_ifelse(self.p, state)
            self.infosets[key] = ("auto", None, (self._key(nxt),))
            self._explore(nxt)
            return
        actor, succs = self._moves(state)
        self.infosets[key] = ("move", actor, tuple(self._key(s) for s in succs))
        for s in succs:
            self._explore(s)

    def agent_choice_space(self, agent):
        keys = [k for k, (kind, actor, succ) in self.infosets.items()
                if kind == "move" and actor == agent]
        sizes = [len(self.infosets[k][2]) for k in keys]
        return keys, sizes

    def profile_count(self, agent):
        total = 1
        for size in self.agent_choice_space(agent)[1]:
            total *= size
        return total

    def _cross(self, key):
        alloc = leaf_allocation(self.p, self.states[key])
        return [[v.value_of(alloc.pieces[j]) for j in range(self.p.agents)]
                for v in self.vals]

    def best_guarantee(self, agent, score, agent_maximizes):
        keys, sizes = self.agent_choice_space(agent)
        best = None
        for combo in product(*[range(s) for s in sizes]):
            sigma = dict(zip(keys, combo))

            def walk(key):
                kind, actor, succ = self.infosets[key]
                if kind == "leaf":
                    return score(self._cross(key))
                if kind == "auto":
                    return walk(succ[0])
                if actor == agent:
                    return walk(succ[sigma[key]])
                worst = [walk(s) for s in succ]
                return min(worst) if agent_maximizes else max(worst)

            outcome = walk(self._key(initial_state(self.p)))
            if best is None:
                best = outcome
            elif agent_maximizes:
                best = max(best, outcome)
            else:
                best = min(best, outcome)
        return best

    def can_guarantee(self, query):
        agent = query.agent
        keys, sizes = self.agent_choice_space(agent)
        for combo in product(*[range(s) for s in sizes]):
            sigma = dict(zip(keys, combo))

            def walk(key):
                kind, actor, succ = self.infosets[key]
                if kind == "leaf":
                    cross = self._cross(key)
                    own = cross[agent - 1][agent - 1]
                    return all(
                        max(cross[agent - 1][j - 1] - own, F(0)) <= m
                        for j, m in query.bounds
                    )
                if kind == "auto":
                    return walk(succ[0])
                if actor == agent:
                    return walk(succ[sigma[key]])
                return all(walk(s) for s in succ)

            if walk(self._key(initial_state(self.p))):
                return True
        return False


def leaf_all_to(agent, agents):
    assign = tuple(agent for _ in range(1))
    return BcTree(agents, BcLeaf(0, assign))


GRID2 = Grid((F(0), F(1, 2), F(1)))


class TestBuildGrid:
    def test_uniform_q2(self):
        grid = build_grid([uniform()], 2)
        assert grid.points == (F(0), F(1, 2), F(1))

    def test_uniform_q3(self):
        grid = build_grid([uniform()], 3)
        assert grid.points == (F(0), F(1, 3), F(1, 2), F(2, 3), F(1))

    def test_breakpoints_included(self):
        v = Valuation((F(0), F(1, 4), F(1)), (F(2), F(2, 3)))
        grid = build_grid([v], 2)
        assert F(1, 4) in grid.points

    def test_rejects_tiny_cap(self):
        with pytest.raises(DomainError):
            build_grid([uniform()], 1)


class TestCanGuarantee:
    def test_trivial_leaf_owner(self):
        p = leaf_all_to(1, 2)
        oracle = GuaranteeOracle(p, [uniform(), uniform()], GRID2)
        assert oracle.can_guarantee(BoundsQuery.make(1, {2: F(0)}))

    def test_trivial_leaf_dispossessed(self):
        p = leaf_all_to(1, 2)
        oracle = GuaranteeOracle(p, [uniform(), uniform()], GRID2)
        assert not oracle.can_guarantee(BoundsQuery.make(2, {1: F(1, 2)}))

    def test_chooser_avoids_envy(self):
        bc, _, _ = gen_cut_and_choose()
        for vals in ([uniform(), uniform()],
                     [random_valuation(3, 3), random_valuation(9, 4)]):
            grid = build_grid(vals, 4)
            oracle = GuaranteeOracle(bc, vals, grid)
            assert oracle.can_guarantee(BoundsQuery.make(2, {1: F(0)}))

    def test_query_validation(self):
        with pytest.raises(DomainError):
            BoundsQuery.make(1, {1: F(0)})
        with pytest.raises(DomainError):
            BoundsQuery.make(1, {2: F(2)})


class TestGuaranteeValue:
    def test_all_to_one(self):
        p = leaf_all_to(1, 2)
        oracle = GuaranteeOracle(p, [uniform(), uniform()], GRID2)
        assert oracle.guarantee_value(1) == F(1)
        assert oracle.guarantee_value(2) == F(0)

    def test_cutter_guarantees_half(self):
        bc, _, _ = gen_cut_and_choose()
        oracle = GuaranteeOracle(bc, [uniform(), uniform()],
                                 build_grid([uniform(), uniform()], 4))
        assert oracle.guarantee_value(1) == F(1, 2)

    def test_dubins_spanier_proportional(self):
        tree, _ = gen_dubins_spanier(3, "gcc")
        vals = [uniform()] * 3
        grid = Grid((F(0), F(1, 3), F(2, 3), F(1)))
        oracle = GuaranteeOracle(tree, vals, grid, budget=20_000_000)
        for agent in (1, 2, 3):
            assert oracle.guarantee_value(agent) >= F(1, 3)


class TestGuaranteeEnvy:
    def test_fixed_halves_protocol(self):
        p = BcTree(2, BcCut(0, 1, 1, BcLeaf(1, (1, 2))))
        grid = GRID2
        oracle = GuaranteeOracle(p, [uniform(), uniform()], grid)
        # Agent 1 can cut at 1/2 for zero envy; agent 2 depends on the cut.
        assert oracle.guarantee_pair_envy(1, 2) == F(0)
        assert oracle.guarantee_pair_envy(2, 1) == F(1)

    def test_all_to_one_pair(self):
        p = leaf_all_to(1, 2)
        oracle = GuaranteeOracle(p, [uniform(), uniform()], GRID2)
        assert oracle.guarantee_pair_envy(2, 1) == F(1)

    def test_total_envy_three_agents(self):
        p = BcTree(3, BcLeaf(0, (1,)))
        oracle = GuaranteeOracle(p, [uniform()] * 3, GRID2)
        assert oracle.guarantee_total_envy(2) == F(1)

    def test_chooser_total_envy_zero(self):
        bc, _, _ = gen_cut_and_choose()
        vals = [uniform(), uniform()]
        oracle = GuaranteeOracle(bc, vals, build_grid(vals, 4))
        assert oracle.guarantee_total_envy(2) == F(0)

    def test_selfridge_conway_first_agent(self):
        # The first cutter's envy-free guarantee needs only the exact thirds
        # marks, which this grid carries.
        tree, _ = gen_selfridge_conway_bc()
        vals = [uniform()] * 3
        grid = Grid((F(0), F(1, 3), F(2, 3), F(1)))
        oracle = GuaranteeOracle(tree, vals, grid, budget=20_000_000)
        assert oracle.guarantee_pair_envy(1, 2) == F(0)
        assert oracle.guarantee_pair_envy(1, 3) == F(0)


class TestBudget:
    def test_budget_exhausts_explicitly(self):
        tree, _ = gen_selfridge_conway_bc()
        vals = [uniform()] * 3
        grid = build_grid(vals, 4)
        oracle = GuaranteeOracle(tree, vals, grid, budget=50)
        with pytest.raises(BudgetExceededError, match=(
                r"budget of 50 node evaluations exceeded in guarantee_value\(1\):"
                r" 51 evaluations made, \d+\.\d{3} s elapsed")):
            oracle.guarantee_value(1)

    def test_message_names_the_query_that_ran_out(self):
        # The budget covers every query of one oracle: the second query
        # trips it, and its message counts the evaluations of both.
        bc, _, _ = gen_cut_and_choose()
        vals = [uniform(), uniform()]
        oracle = GuaranteeOracle(bc, vals, build_grid(vals, 2), budget=15)
        assert oracle.guarantee_value(2) == F(1, 2)
        assert oracle.evals == 10
        with pytest.raises(BudgetExceededError, match=(
                r"in guarantee_pair_envy\(1, 2\): 16 evaluations made, "
                r"[0-9.]+ s elapsed")):
            oracle.guarantee_pair_envy(1, 2)
        tree, _ = gen_selfridge_conway_bc()
        oracle = GuaranteeOracle(tree, [uniform()] * 3, GRID2, budget=20)
        with pytest.raises(BudgetExceededError,
                           match=r"in can_guarantee\(1, \{2: 0, 3: 1/4\}\): 21 evaluations"):
            oracle.can_guarantee(BoundsQuery.make(1, {3: F(1, 4), 2: F(0)}))
        with pytest.raises(BudgetExceededError, match=r"in guarantee_total_envy\(3\)"):
            oracle.guarantee_total_envy(3)

    # The walk that runs out of a budget of 9 for cut-and-choose on GRID2:
    # a protocol's one walk for value, total or pairwise makes 10
    # evaluations; strong's first bound vector takes fewer.
    FIRST_QUERY = {"value": r"the walk for value\[1\], value\[2\]",
                   "total": r"the walk for total\[1\], total\[2\]",
                   "pairwise": r"the walk for pair\[1,2\], pair\[2,1\]",
                   "strong": r"can_guarantee\(1, \{2: 1/4\}\)"}

    @pytest.mark.parametrize("notion", Notion.ALL)
    def test_check_equiv_names_the_notion_and_the_protocol(self, notion):
        bc, _, _ = gen_cut_and_choose()
        vals = [uniform(), uniform()]
        one = leaf_all_to(1, 2)  # one evaluation per walk
        for k, pair in ((1, (bc, one)), (2, (one, bc))):
            with pytest.raises(BudgetExceededError, match=(
                    rf"^check_equiv {notion}, protocol {k}: oracle budget of 9 node"
                    rf" evaluations exceeded in {self.FIRST_QUERY[notion]}:"
                    r" 10 evaluations made, [0-9.]+ s elapsed; result inconclusive$")):
                check_equiv(*pair, notion, GRID2, vals, bound_samples=0, budget=9)

    @pytest.mark.parametrize("notion", ["value", "total", "pairwise"])
    def test_check_equiv_budget_covers_one_walk_per_protocol(self, notion):
        bc, _, _ = gen_cut_and_choose()
        vals = [uniform(), uniform()]
        assert check_equiv(bc, bc, notion, GRID2, vals, budget=10).equivalent
        with pytest.raises(BudgetExceededError, match="protocol 1"):
            check_equiv(bc, bc, notion, GRID2, vals, budget=9)


class TestRunTimeErrors:
    @pytest.mark.parametrize("piece", [0, 3, -1])
    def test_bc_cut_in_a_missing_piece(self, piece):
        # Piece 0 must not wrap round to the last piece and value it.
        tree = BcTree(2, BcCut(0, 1, piece, BcLeaf(1, (1, 2))))
        dag = BcDag(2, 0, {0: DagCut(0, 1, piece, 1), 1: DagLeaf(1, (1, 2))})
        for p in (tree, dag):
            oracle = GuaranteeOracle(p, [uniform(), uniform()], GRID2)
            with pytest.raises(ExecutionError, match=(
                    rf"cut piece {piece} out of range 1\.\.1 \(node 0, agent 1\)")):
                oracle.guarantee_value(1)


class TestAgentRange:
    """Agents and bound indices outside 1..n are refused, not read modulo n."""

    def oracle(self):
        bc, _, _ = gen_cut_and_choose()
        vals = [uniform(), uniform()]
        return GuaranteeOracle(bc, vals, build_grid(vals, 2))

    @pytest.mark.parametrize("agent", [0, -1, 3])
    def test_guarantee_value(self, agent):
        with pytest.raises(DomainError, match="out of range"):
            self.oracle().guarantee_value(agent)

    @pytest.mark.parametrize("agent", [0, -1, 3])
    def test_guarantee_total_envy(self, agent):
        with pytest.raises(DomainError, match="out of range"):
            self.oracle().guarantee_total_envy(agent)

    @pytest.mark.parametrize("agent, other", [(1, 0), (0, 1), (1, -1), (3, 1), (1, 3)])
    def test_guarantee_pair_envy(self, agent, other):
        with pytest.raises(DomainError, match="out of range"):
            self.oracle().guarantee_pair_envy(agent, other)

    @pytest.mark.parametrize("agent, bounds", [
        (1, {0: F(0)}), (1, {2: F(0), 3: F(0)}), (1, {-1: F(1, 2)}),
        (0, {1: F(0)}), (3, {1: F(0)}),
    ])
    def test_can_guarantee(self, agent, bounds):
        with pytest.raises(DomainError, match="out of range"):
            self.oracle().can_guarantee(BoundsQuery.make(agent, bounds))


class TestAgainstBruteForce:
    def small_instances(self):
        picked = []
        seed = 0
        while len(picked) < 12 and seed < 400:
            rng = random.Random(seed)
            if seed % 2:
                p = random_bc_tree(rng, 2, 8)
            else:
                p = random_gcc(rng, 2, 4)
            s = stats(p)
            if s.cuts + s.chooses <= 8 and s.nodes > 1:
                vals = [random_valuation(seed, 2), random_valuation(seed + 1, 2)]
                grid = Grid(tuple(sorted({F(0), F(1, 3), F(2, 3), F(1)})))
                bf = BruteForce(p, vals, grid)
                if all(bf.profile_count(a) <= 3000 for a in (1, 2)):
                    picked.append((p, vals, grid, bf))
            seed += 1
        assert len(picked) >= 10
        return picked

    def test_value_and_bounds_match(self):
        for p, vals, grid, bf in self.small_instances():
            oracle = GuaranteeOracle(p, vals, grid)
            for agent in (1, 2):
                expect = bf.best_guarantee(
                    agent, lambda cross, a=agent: cross[a - 1][a - 1], True
                )
                assert oracle.guarantee_value(agent) == expect
            for agent, other in ((1, 2), (2, 1)):
                for bound in (F(0), F(1, 4), F(1, 2)):
                    query = BoundsQuery.make(agent, {other: bound})
                    assert oracle.can_guarantee(query) == bf.can_guarantee(query)

    def test_envy_bounds_match(self):
        def envy_toward(other):
            def score(cross, agent):
                own = cross[agent - 1][agent - 1]
                return max(cross[agent - 1][other - 1] - own, F(0))
            return score

        for p, vals, grid, bf in self.small_instances()[:6]:
            oracle = GuaranteeOracle(p, vals, grid)
            for agent, other in ((1, 2), (2, 1)):
                expect = bf.best_guarantee(
                    agent,
                    lambda cross, a=agent, o=other: envy_toward(o)(cross, a),
                    False,
                )
                assert oracle.guarantee_pair_envy(agent, other) == expect
                # Two agents: total envy coincides with the single pair.
                assert oracle.guarantee_total_envy(agent) == expect


class TestDagOracle:
    def test_dag_matches_its_tree_expansion(self):
        hits = cases = 0
        for seed, dag in reconverging_dags():
            tree, _, _ = dag_to_tree(dag)
            vals = [random_valuation(seed, 2), random_valuation(seed + 1, 2)]
            grid = build_grid(vals, 2)
            on_dag = GuaranteeOracle(dag, vals, grid)
            on_tree = GuaranteeOracle(tree, vals, grid)
            on_dag._memo = CountingMemo()
            for agent, other in ((1, 2), (2, 1)):
                assert on_dag.guarantee_value(agent) == on_tree.guarantee_value(agent)
                assert (on_dag.guarantee_pair_envy(agent, other)
                        == on_tree.guarantee_pair_envy(agent, other))
            assert on_tree._memo == {}
            hits += on_dag._memo.hits
            cases += 1
        assert cases >= 10
        assert hits >= 1

    def test_memo_stays_empty_on_trees(self):
        bc, gcc, _ = gen_cut_and_choose()
        vals = [random_valuation(4, 3), random_valuation(5, 3)]
        grid = build_grid(vals, 2)
        for p in (bc, gcc, bc_to_gcc(bc)):
            oracle = GuaranteeOracle(p, vals, grid)
            oracle.guarantee_value(1)
            oracle.guarantee_total_envy(2)
            oracle.can_guarantee(BoundsQuery.make(2, {1: F(1, 4)}))
            assert oracle._memo == {}


class TestMonotonicity:
    def test_weaker_bounds_never_flip_to_false(self):
        for seed in range(10):
            p = random_bc_tree(random.Random(seed), 2, 10)
            if stats(p).nodes < 2:
                continue
            vals = [random_valuation(seed, 2), random_valuation(seed + 50, 3)]
            grid = build_grid(vals, 2)
            oracle = GuaranteeOracle(p, vals, grid)
            for base in (F(0), F(1, 4), F(1, 2)):
                low = oracle.can_guarantee(BoundsQuery.make(1, {2: base}))
                high = oracle.can_guarantee(BoundsQuery.make(1, {2: base + F(1, 4)}))
                assert not (low and not high)

    def test_strong_implies_pairwise(self):
        for seed in range(6):
            p = random_bc_tree(random.Random(seed), 2, 10)
            vals = [random_valuation(seed, 2), random_valuation(seed + 9, 2)]
            grid = build_grid(vals, 2)
            oracle = GuaranteeOracle(p, vals, grid)
            for m in (F(0), F(1, 2)):
                if oracle.can_guarantee(BoundsQuery.make(1, {2: m})):
                    assert oracle.guarantee_pair_envy(1, 2) <= m


class TestCheckEquiv:
    def test_reflexive_all_notions(self):
        bc, _, _ = gen_cut_and_choose()
        vals = [uniform(), uniform()]
        grid = build_grid(vals, 3)
        for notion in Notion.ALL:
            report = check_equiv(bc, bc, notion, grid, vals, bound_samples=4)
            assert report.equivalent

    def test_dictatorships_differ_in_value(self):
        p1 = leaf_all_to(1, 2)
        p2 = BcTree(2, BcLeaf(0, (2,)))
        report = check_equiv(p1, p2, Notion.VALUE, GRID2, [uniform(), uniform()])
        assert not report.equivalent

    def test_agent_count_mismatch(self):
        p1 = leaf_all_to(1, 2)
        p2 = BcTree(3, BcLeaf(0, (1,)))
        with pytest.raises(DomainError):
            check_equiv(p1, p2, Notion.VALUE, GRID2, [uniform()] * 2)

    def test_unknown_notion(self):
        p = leaf_all_to(1, 2)
        with pytest.raises(DomainError):
            check_equiv(p, p, "mystery", GRID2, [uniform(), uniform()])

    def test_strong_query_vectors_are_unique(self):
        for n in (2, 3):
            for agent in range(1, n + 1):
                vectors = strong_query_vectors(n, agent, 32)
                keys = [tuple(sorted(v.items())) for v in vectors]
                assert len(set(keys)) == len(keys)
                # the lattice comes first, in order
                assert vectors[0] == {j: F(0) for j in range(1, n + 1) if j != agent}

    def test_cut_and_choose_strong_equivalent_to_gcc_image(self):
        bc, _, _ = gen_cut_and_choose()
        image = bc_to_gcc(bc)
        vals = [uniform(), uniform()]
        grid = build_grid(vals, 4)
        report = check_equiv(bc, image, Notion.STRONG, grid, vals,
                             bound_samples=8, budget=30_000_000)
        assert report.equivalent, [str(d) for d in report.disagreements]

    def test_chooser_keeps_half_guarantee_in_gcc_image(self):
        # The branch-choice chooser's 1/2 guarantee survives the simulation
        # with value-zero preamble pieces, on any grid with the mark points.
        bc, _, _ = gen_cut_and_choose()
        image = bc_to_gcc(bc)
        vals = [uniform(), uniform()]
        grid = build_grid(vals, 4)
        oracle = GuaranteeOracle(image, vals, grid, budget=30_000_000)
        assert oracle.guarantee_value(2) == F(1, 2)
        assert oracle.guarantee_value(1) == F(1, 2)


class TestConvertedSelfridgeConway:
    def test_first_agent_envy_free_in_gcc_image(self):
        gcc, _ = gen_selfridge_conway_gcc()
        image, _ = gcc_to_bc(gcc, GccMode.EXTENSIVE)
        vals = [uniform()] * 3
        grid = Grid((F(0), F(1, 3), F(2, 3), F(1)))
        oracle = GuaranteeOracle(image, vals, grid, budget=20_000_000)
        assert oracle.can_guarantee(BoundsQuery.make(1, {2: F(0), 3: F(0)}))

    def test_pairwise_equivalent_to_bc_generator(self):
        # The converted GCC form and the native tree give every ordered pair
        # the same grid-relative envy bound.
        bc, _ = gen_selfridge_conway_bc()
        gcc, _ = gen_selfridge_conway_gcc()
        image, _ = gcc_to_bc(gcc, GccMode.EXTENSIVE)
        vals = [uniform()] * 3
        grid = Grid((F(0), F(1, 3), F(2, 3), F(1)))
        report = check_equiv(bc, image, Notion.PAIRWISE, grid, vals,
                             budget=100_000_000)
        assert report.equivalent, [str(d) for d in report.disagreements]
        assert report.measurements["pair[1,2]"] == (F(0), F(0))
        assert report.measurements["pair[3,1]"] == (F(0), F(0))
