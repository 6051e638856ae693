import random
from fractions import Fraction as F
from itertools import product
from pathlib import Path
from time import perf_counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cakewalk.cli import load_protocol
from cakewalk.engine import (
    current_kind, initial_state, leaf_allocation, step_choose, step_cut,
    step_ifelse, cut_intervals,
)
from cakewalk.errors import BudgetExceededError, DomainError, ExecutionError
from cakewalk.ir import (
    END, ORIGIN, BcChoose, BcCut, BcDag, BcLeaf, BcTree, DagChoose, DagCut, DagLeaf, ExtBcTree,
    ExtCut, ExtLeaf, ExtSegment, GccChoose, GccCut, GccLeaf, GccMode, GccTree, IdGen, at, stats,
)
from cakewalk.library import (
    gen_cut_and_choose, gen_dubins_spanier, gen_selfridge_conway_bc,
    gen_selfridge_conway_gcc,
)
from cakewalk.oracle import (
    BoundsQuery, Grid, GuaranteeOracle, Notion, build_grid, check_equiv,
    strong_query_vectors, _envy_query,
)
from cakewalk.transform import bc_to_gcc, dag_to_tree, gcc_to_bc
from cakewalk.valuation import Valuation, random_valuation, uniform

from helpers import (
    CountingMemo, grid_within, linked_by_nid, memo_by_nid, random_bc_tree, random_gcc,
    reconverging_dags,
)
from validator_reference import mark_grid


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
        return (state.node.nid, state.cuts, state.picks)

    def _moves(self, state):
        kind = current_kind(self.p, state)
        node = state.node
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

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(st.integers(0, 10 ** 6), st.integers(1, 8)), min_size=1,
                    max_size=3),
           st.integers(2, 8))
    def test_equals_the_grid_of_mark_queries(self, specs, cap):
        """Seeded random valuations, some with zero-density segments."""
        vals = [random_valuation(seed, segments) for seed, segments in specs]
        assert build_grid(vals, cap) == mark_grid(vals, cap)


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


class TestNoMove:
    """A decision node that offers no move ends every query in an
    ``ExecutionError`` naming it, not in an empty or made-up verdict."""

    PROTOCOLS = {
        "bc choose": BcTree(2, BcChoose(0, 1, ())),
        "dag choose": BcDag(2, 0, {0: BcChoose(0, 1, ())}),
        "gcc cut": GccTree(2, GccCut(0, 1, (), GccLeaf(1))),
        "gcc choose": GccTree(2, GccChoose(0, 1, (), GccLeaf(1))),
    }
    NO_MOVE = r"decision node offers no move \(node 0\)"

    @pytest.mark.parametrize("name", PROTOCOLS)
    def test_queries(self, name):
        oracle = GuaranteeOracle(self.PROTOCOLS[name], [uniform(), uniform()], GRID2)
        for query in (lambda: oracle.guarantee_value(1),
                      lambda: oracle.guarantee_pair_envy(1, 2),
                      lambda: oracle.guarantee_total_envy(2),
                      lambda: oracle.can_guarantee(BoundsQuery.make(1, {2: F(0)}))):
            with pytest.raises(ExecutionError, match=self.NO_MOVE):
                query()

    @pytest.mark.parametrize("notion", Notion.ALL)
    @pytest.mark.parametrize("name", PROTOCOLS)
    def test_check_equiv(self, name, notion):
        cc = gen_cut_and_choose()[0]
        vals = [uniform(), uniform()]
        for pair in ((self.PROTOCOLS[name], cc), (cc, self.PROTOCOLS[name])):
            with pytest.raises(ExecutionError, match=self.NO_MOVE):
                check_equiv(*pair, notion, GRID2, vals, bound_samples=2)


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

    # A DAG memoizes at the decision nodes more than one edge enters, the only
    # nodes where one walk can meet a state twice, and each walk starts empty.

    VALS = [random_valuation(4, 3), random_valuation(5, 2)]

    @staticmethod
    def shared_decision_dag():
        """Agent 1 cuts; agent 2 picks a choose of agent 1 or of agent 2, and
        either leads to agent 2's cut c4 or to the shared leaf c6."""
        nodes = [DagCut(0, 1, 1, 1), DagChoose(1, 2, (2, 3)), DagChoose(2, 1, (4, 6)),
                 DagChoose(3, 2, (4, 6)), DagCut(4, 2, 2, 5), DagLeaf(5, (1, 2, 1)),
                 DagLeaf(6, (2, 1))]
        return BcDag(2, 0, {node.nid: node for node in nodes})

    @staticmethod
    def four_walks(oracle):
        return [oracle.guarantee_value(1), oracle.guarantee_value(2),
                oracle.guarantee_pair_envy(1, 2), oracle.guarantee_total_envy(2)]

    def test_a_shared_decision_node_is_the_only_memo_point(self):
        dag = self.shared_decision_dag()
        grid = build_grid(self.VALS, 2)
        oracle = GuaranteeOracle(dag, self.VALS, grid)
        oracle._memo = CountingMemo()
        c4 = linked_by_nid(oracle)[4]
        assert oracle._memo_at == {id(c4): (frozenset({0, 4}), frozenset())}
        got = self.four_walks(oracle)
        tree, _, _ = dag_to_tree(dag)
        on_tree = GuaranteeOracle(tree, self.VALS, grid)
        assert got == self.four_walks(on_tree) == [F(1, 2), F(1, 2), 0, 0]
        # An entry per decision node and walk, kept across walks, held 148.
        assert (oracle.evals, len(oracle._memo), oracle._memo.hits) == (436, 9, 36)
        assert {key[0] for key in oracle._memo} == {id(c4)}

    def test_a_child_listed_twice_is_a_memo_point(self):
        nodes = [DagCut(0, 1, 1, 1), DagChoose(1, 2, (2, 2)), DagCut(2, 1, 2, 3),
                 DagLeaf(3, (2, 1, 2))]
        dag = BcDag(2, 0, {node.nid: node for node in nodes})
        grid = build_grid(self.VALS, 2)
        oracle = GuaranteeOracle(dag, self.VALS, grid)
        oracle._memo = CountingMemo()
        assert list(oracle._memo_at) == [id(linked_by_nid(oracle)[2])]
        tree, _, _ = dag_to_tree(dag)
        assert oracle.guarantee_value(2) == GuaranteeOracle(
            tree, self.VALS, grid).guarantee_value(2)
        assert oracle._memo.hits == len(oracle._memo) > 0

    def test_the_golden_dag_shares_only_a_leaf(self):
        dag = load_protocol(Path(__file__).parent / "golden" / "reconverging_bcdag.cake")
        oracle = GuaranteeOracle(dag, self.VALS, build_grid(self.VALS, 2))
        assert oracle._memo_at == {}
        oracle.guarantee_value(1)
        oracle.can_guarantee(BoundsQuery.make(2, {1: F(1, 4)}))
        assert oracle._memo == {}

    def test_a_walk_keeps_no_entry_of_the_walk_before(self):
        dag = self.shared_decision_dag()
        grid = build_grid(self.VALS, 2)
        oracle = GuaranteeOracle(dag, self.VALS, grid)
        queries = [BoundsQuery.make(2, {1: m}) for m in (F(0), F(1, 4), F(1, 2), F(0))]
        for query in queries:
            alone = GuaranteeOracle(dag, self.VALS, grid)
            expect = alone.can_guarantee(query)
            before = oracle.evals
            assert oracle.can_guarantee(query) is expect
            # a query asked again walks again
            assert oracle.evals - before == alone.evals
            assert memo_by_nid(oracle) == memo_by_nid(alone)


class TestTreeMemo:
    """A GCC or extended tree memoizes only at its memo points: decision
    nodes where a cut made above is first read by nothing below.  A BC tree
    has none, as every BC leaf reads every cut."""

    @staticmethod
    def walked(p, vals, grid):
        oracle = GuaranteeOracle(p, vals, grid)
        oracle._memo = CountingMemo()
        oracle.guarantee_value(1)
        oracle.guarantee_total_envy(2)
        oracle.can_guarantee(BoundsQuery.make(2, {1: F(1, 4)}))
        return oracle

    def test_protocols_without_a_memo_point_keep_no_entry(self):
        bc, gcc, _ = gen_cut_and_choose()
        vals = [random_valuation(4, 3), random_valuation(5, 3)]
        grid = build_grid(vals, 2)
        # Every leaf of cut-and-choose's own GCC form reads its one cut
        # through the allocation, so no cut dies.
        protocols = [bc, gcc]
        protocols += [random_bc_tree(random.Random(seed), 2, 10) for seed in range(8)]
        protocols += [random_gcc(random.Random(seed), 2, 4) for seed in range(16)]
        for p in protocols:
            oracle = self.walked(p, vals, grid)
            assert oracle._memo_at == {}
            assert oracle._memo == {} and oracle._memo.hits == 0
        sc, _ = gen_selfridge_conway_gcc()
        oracle = GuaranteeOracle(sc, [uniform()] * 3, Grid((F(0), F(1, 3), F(2, 3), F(1))))
        oracle.guarantee_value(1)
        assert oracle._memo_at == {} and oracle._memo == {}

    def test_gcc_image_of_cut_and_choose_hits_where_its_first_cut_dies(self):
        # bc_to_gcc's simulation cuts c0, c1 and c2 in turn; c0 is read by c1
        # alone, so it is dead from c2 on, and states that differ only in
        # c0 meet there.
        bc, _, _ = gen_cut_and_choose()
        image = bc_to_gcc(bc)
        c2 = image.root.child.child
        vals = [random_valuation(4, 3), random_valuation(5, 3)]
        grid = build_grid(vals, 2)
        oracle = GuaranteeOracle(image, vals, grid)
        oracle._memo = CountingMemo()
        assert list(oracle._memo_at) == [id(c2)]
        assert oracle.guarantee_value(1) == F(1, 2)
        # 9,738 evaluations without the memo
        assert (oracle.evals, len(oracle._memo), oracle._memo.hits) == (2_878, 7, 21)
        assert {key[0] for key in oracle._memo} == {id(c2)}
        walked = self.walked(image, vals, grid)
        assert walked._memo and walked._memo.hits >= 1

    @pytest.mark.parametrize("model, evals, entries, envies", [
        ("extbc", 7_706, 90, (4, 4, 2, 2, 0, 0)),
        ("gcc", 16_174, 716, (1, 1, 2, 2, 4, 4)),
    ])
    def test_dubins_spanier_three_agents(self, model, evals, entries, envies):
        # The six pair envies in one walk, as check_equiv's pairwise makes
        # it; without the memo the walk made 731,702 (extbc) and 2,021,870
        # (gcc) evaluations for the same envies.
        vals = [random_valuation(seed, 4) for seed in (1, 2, 3)]
        p, _ = gen_dubins_spanier(3, model)
        oracle = GuaranteeOracle(p, vals, build_grid(vals, 2))
        queries = [_envy_query(3, i, (j,)) for i in (1, 2, 3) for j in (1, 2, 3) if i != j]
        assert oracle._solve("six pair envies", queries) == envies
        assert (oracle.evals, len(oracle._memo)) == (evals, entries)


class TestDeepTrees:
    """Liveness walks the tree on a stack and keeps no set per node, so an
    oracle on a chain ten times deeper than the recursion limit is built in
    well under a second.  (Its walk still recurses.)"""

    DEPTH = 10_000

    def gcc_chain(self):
        """Each cut within the piece right of the one before, so each cut is
        read by the next alone; then the two agents take the two sides of
        the last cut."""
        last = self.DEPTH - 1
        node = GccChoose(last + 2, 2, ((at(last), END),), GccLeaf(last + 3))
        node = GccChoose(last + 1, 1, ((ORIGIN, at(last)),), node)
        for nid in reversed(range(self.DEPTH)):
            node = GccCut(nid, 1, ((at(nid - 1) if nid else ORIGIN, END),), node)
        return GccTree(2, node)

    def ext_chain(self, reads_every_cut: bool):
        """Cuts each right of the one before; the leaf's segments run between
        every two neighbouring cuts, or around the last cut only."""
        refs = [at(nid) for nid in range(self.DEPTH)] if reads_every_cut else [
            at(self.DEPTH - 1)]
        bounds = [ORIGIN, *refs, END]
        node = ExtLeaf(self.DEPTH, tuple(ExtSegment(a, b, 1 + k % 2)
                                         for k, (a, b) in enumerate(zip(bounds, bounds[1:]))))
        for nid in reversed(range(self.DEPTH)):
            node = ExtCut(nid, 1, at(nid - 1) if nid else ORIGIN, END, node)
        return ExtBcTree(2, node)

    @pytest.mark.parametrize("shape, points", [
        ("gcc", 9_999), ("ext-reads-every-cut", 0), ("ext-reads-the-last-cut", 9_998),
    ])
    def test_memo_points_of_deep_chains(self, shape, points):
        p = (self.gcc_chain() if shape == "gcc"
             else self.ext_chain(shape == "ext-reads-every-cut"))
        vals = [uniform(), uniform()]
        start = perf_counter()
        oracle = GuaranteeOracle(p, vals, Grid((F(0), F(1))))
        assert perf_counter() - start < 1
        assert len(oracle._memo_at) == points
        # A memo point keeps the ids its subtree reads: one cut at most.
        assert all(len(cuts) <= 1 and not picks for cuts, picks in oracle._memo_at.values())


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

    def test_report_json_writes_each_measurement_as_two_fractions(self):
        # as the grid is written: "1/4", not "(Fraction(1, 4), Fraction(1, 4))"
        bc, _, _ = gen_cut_and_choose()
        p2 = BcTree(2, BcCut(0, 1, 1, BcLeaf(1, (1, 2))))
        vals = [uniform(), uniform()]
        grid = Grid((F(0), F(1, 4), F(1, 2), F(1)))
        report = check_equiv(bc, p2, Notion.PAIRWISE, grid, vals)
        assert report.measurements["pair[2,1]"] == (F(0), F(1))
        assert report.to_json()["measurements"] == {
            "pair[1,2]": ["0", "0"], "pair[2,1]": ["0", "1"]}
        assert report.to_json()["grid"] == ["0", "1/4", "1/2", "1"]
        value = check_equiv(bc, bc, Notion.VALUE, grid, vals).to_json()
        assert value["measurements"] == {"value[1]": ["1/2", "1/2"],
                                         "value[2]": ["1/2", "1/2"]}
        strong = check_equiv(bc, bc, Notion.STRONG, grid, vals, bound_samples=0)
        assert strong.to_json()["measurements"] == {}

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
