"""The oracle's game on grid indices against the engine-driven game it replaced.

``FractionOracle`` plays the game the way ``GuaranteeOracle`` did before it
held states as grid indices: every move is an ``engine`` step on an
``ExecState`` of ``Fraction`` positions, cut candidates come from
``helpers.grid_within``, every leaf is built by ``engine.leaf_allocation``
(which checks that it partitions the cake) and valued with
``Valuation.value_of``, and envies, sums and bound comparisons are
``Fraction``s.  Its ``_solve``, ``_actions`` and ``_key`` are the oracle's
former code, one walk per query with a leaf cache.  So the oracle's results,
evaluation counts, memo sizes and run-time errors are checked against the
interpreter's own semantics.

``reference_check_equiv`` is ``check_equiv`` as it was before it answered a
notion's queries in one walk per protocol: one ``FractionOracle`` query per
agent, agent pair or bound vector.
"""

import json
import random
from fractions import Fraction as F
from pathlib import Path
from time import perf_counter

import pytest

from cakewalk.cli import load_protocol
from cakewalk.engine import (
    ExecState, current_kind, cut_intervals, initial_state, leaf_allocation,
    step_choose, step_cut, step_ifelse, _node_of,
)
from cakewalk.errors import ExecutionError
from cakewalk.ir import (
    And, BcChoose, BcCut, BcDag, BcLeaf, BcTree, ChoseAt, CutInAt, DagCut, DagLeaf,
    ELSE, END, ExtBcTree, ExtCut, ExtLeaf, ExtSegment, GccChoose, GccCut, GccIfElse,
    GccLeaf, GccMode, GccTree, Less, Not, ORIGIN, Or, at, stats,
)
from cakewalk.library import (
    gen_cut_and_choose, gen_dubins_spanier, gen_even_paz,
    gen_selfridge_conway_bc, gen_selfridge_conway_gcc,
)
from cakewalk.oracle import (
    BoundsQuery, Disagreement, EquivReport, Grid, GuaranteeOracle, Notion, build_grid,
    check_equiv, strong_query_vectors,
)
from cakewalk.transform import bc_to_gcc, dag_to_tree, gcc_to_bc
from cakewalk.valuation import ONE, ZERO, random_valuation, uniform

from helpers import (
    CountingMemo, grid_within, random_bc_tree, random_ext_tree, random_gcc,
    reconverging_dags,
)

GOLDEN = Path(__file__).parent / "golden"
THIRDS = Grid((F(0), F(1, 3), F(2, 3), F(1)))


def _envy(cross, i, j):
    return max(cross[i - 1][j - 1] - cross[i - 1][i - 1], ZERO)


class FractionOracle(GuaranteeOracle):
    """The reference: the game stepped by the engine, scored in ``Fraction``s."""

    def _bump(self):
        self.evals += 1
        if self.evals > self.budget:
            self._over_budget()

    def _key(self, state: ExecState):
        nid = state.node if isinstance(self.protocol, BcDag) else state.node.nid
        return (nid, state.cuts, state.picks)

    def _leaf_cross(self, state):
        key = self._key(state)
        hit = self._leaf_cache.get(key)
        if hit is None:
            alloc = leaf_allocation(self.protocol, state)
            hit = tuple(tuple(v.value_of(piece) for piece in alloc.pieces)
                        for v in self.vals)
            self._leaf_cache[key] = hit
        return hit

    def _actions(self, state: ExecState, kind: str):
        """Decision points: (acting agent, list of successor states)."""
        node = _node_of(self.protocol, state)
        if kind == "cut":
            intervals = cut_intervals(self.protocol, state)
            nexts = []
            for j, (lo, hi) in enumerate(intervals):
                for z in grid_within(self.grid, lo, hi):
                    nexts.append(step_cut(self.protocol, state, j, z))
            return node.agent, nexts
        count = len(node.children) if kind == "choose" else len(node.pieces)
        return node.agent, [step_choose(self.protocol, state, i) for i in range(count)]

    def _solve(self, query: str, score, agent: int, agent_maximizes: bool,
               extremes=None):
        """Max/min over the game tree; leaves scored by ``score``.

        ``query`` names the query in budget errors and keys its memo entries.
        Yes/no queries pass ``extremes=(False, True)``: a side that reaches
        its own extreme skips its remaining moves, as ``any``/``all`` would.
        Values and envies pass none and look at every move, so their cost
        depends on the protocol and the grid, not on the valuations: an
        early stop at 0 or 1 pays off only for some valuation profiles.
        """
        lowest, highest = extremes or (None, None)
        memo = self._memo if isinstance(self.protocol, BcDag) else None
        self._query, self._started = query, perf_counter()

        def rec(state):
            self._bump()
            kind = current_kind(self.protocol, state)
            if kind == "leaf":
                return score(state)
            if kind == "ifelse":
                return rec(step_ifelse(self.protocol, state))
            if memo is not None:
                key = (query, self._key(state))
                hit = memo.get(key)
                if hit is not None:
                    return hit
            actor, nexts = self._actions(state, kind)
            if (actor == agent) == agent_maximizes:
                better, result, stop = max, lowest, highest
            else:
                better, result, stop = min, highest, lowest
            for nxt in nexts:
                outcome = rec(nxt)
                result = outcome if result is None else better(result, outcome)
                if result == stop:
                    break
            if memo is not None:
                memo[key] = result
            return result

        return rec(initial_state(self.protocol))

    def can_guarantee(self, query):
        i = query.agent

        def leaf_ok(state):
            cross = self._leaf_cross(state)
            return all(_envy(cross, i, j) <= m for j, m in query.bounds)

        return self._solve(("can", i, query.bounds), leaf_ok, i,
                           agent_maximizes=True, extremes=(False, True))

    def guarantee_value(self, agent):
        return self._solve(
            ("value", agent),
            lambda state: self._leaf_cross(state)[agent - 1][agent - 1],
            agent, agent_maximizes=True)

    def guarantee_pair_envy(self, agent, other):
        return self._solve(
            ("pair", agent, other),
            lambda state: _envy(self._leaf_cross(state), agent, other),
            agent, agent_maximizes=False)

    def guarantee_total_envy(self, agent):
        others = [j for j in range(1, self.protocol.agents + 1) if j != agent]

        def score(state):
            cross = self._leaf_cross(state)
            return sum((_envy(cross, agent, j) for j in others), ZERO)

        return self._solve(("total", agent), score, agent, agent_maximizes=False)


def assert_same_fraction(got, want):
    assert type(got) is F, type(got)
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)


def near(m, step):
    """Bounds one step below, at and one step above ``m``, kept in [0, 1]."""
    return [b for b in (m - step, m, m + step) if ZERO <= b <= ONE]


def assert_matches_reference(p, vals, grid, budget=5_000_000, agents=None):
    """Every query of both oracles for ``agents`` (default: all) agrees.

    Returns the integer oracle; its memo counts hits.
    """
    fast = GuaranteeOracle(p, vals, grid, budget)
    fast._memo = CountingMemo()
    ref = FractionOracle(p, vals, grid, budget)
    # A step finer than the grid values' common denominator, so a bound
    # below the achieved envy has a denominator of its own.
    step = F(1, 3 * fast.denominator)
    everyone = range(1, p.agents + 1)
    for i in agents or everyone:
        assert_same_fraction(fast.guarantee_value(i), ref.guarantee_value(i))
        assert_same_fraction(fast.guarantee_total_envy(i), ref.guarantee_total_envy(i))
        envies = {}
        for j in everyone:
            if j == i:
                continue
            envies[j] = e = ref.guarantee_pair_envy(i, j)
            assert_same_fraction(fast.guarantee_pair_envy(i, j), e)
            for m in near(e, step):
                query = BoundsQuery.make(i, {j: m})
                answer = fast.can_guarantee(query)
                assert answer is ref.can_guarantee(query)
                assert answer is (m >= e)
        for j in envies:
            # every envy bound at once, each as tight as alone, then one
            # of them a step tighter
            for m in near(envies[j], step)[:2]:
                query = BoundsQuery.make(i, {**envies, j: m})
                assert fast.can_guarantee(query) is ref.can_guarantee(query)
    # A query is a batch of one, so it walks the states the reference walks.
    assert fast.evals == ref.evals
    assert len(fast._memo) == len(ref._memo)
    assert fast._leaf_cache == {}  # leaves are scored, never cached
    return fast


def assert_queries_match(p, vals, grid, *calls):
    """Each ``(method name, args)`` call gives the same result on both
    oracles, they make the same evaluations and memo entries, and the
    integer oracle caches no leaf."""
    fast = GuaranteeOracle(p, vals, grid)
    ref = FractionOracle(p, vals, grid)
    for name, args in calls:
        want = getattr(ref, name)(*args)
        got = getattr(fast, name)(*args)
        if isinstance(want, bool):
            assert got is want
        else:
            assert_same_fraction(got, want)
    assert fast.evals == ref.evals
    assert len(fast._memo) == len(ref._memo)
    assert fast._leaf_cache == {}


def profile(agents, seed=1):
    return [random_valuation(seed + k, 2) for k in range(agents)]


def two_profile(seed):
    return [random_valuation(seed, 3), random_valuation(seed + 1, 2)]


class TestRandomProtocols:
    def test_random_bc_trees(self):
        cases = 0
        for seed in range(40):
            agents = 2 + seed % 2
            p = random_bc_tree(random.Random(seed), agents, 10)
            if stats(p).cuts < 1:
                continue
            vals = [random_valuation(seed + k, 2 + k % 2) for k in range(agents)]
            assert_matches_reference(p, vals, build_grid(vals, 2))
            cases += 1
        assert cases >= 15

    def test_random_gcc_trees(self):
        for seed in range(16):
            p = random_gcc(random.Random(seed), 2, 4)
            vals = two_profile(seed)
            assert_matches_reference(p, vals, build_grid(vals, 2))

    def test_reconverging_dags(self):
        hits = cases = 0
        for seed, dag in reconverging_dags():
            vals = two_profile(seed)
            on_dag = assert_matches_reference(dag, vals, build_grid(vals, 2))
            assert not any(isinstance(v, F) for v in on_dag._memo.values())
            hits += on_dag._memo.hits
            cases += 1
            if cases == 10:
                break
        assert cases == 10
        assert hits >= 1


class TestLibraryProtocols:
    def test_cut_and_choose_on_built_grids(self):
        bc, gcc, _ = gen_cut_and_choose()
        vals = [random_valuation(4, 3), random_valuation(5, 3)]
        for p in (bc, gcc, bc_to_gcc(bc)):
            assert_matches_reference(p, vals, build_grid(vals, 2))
        vals = [uniform(), random_valuation(7, 4)]
        for p in (bc, gcc):
            assert_matches_reference(p, vals, build_grid(vals, 3))

    def test_selfridge_conway_on_a_built_grid(self):
        sc, _ = gen_selfridge_conway_bc()
        vals = [uniform(), random_valuation(2, 2), uniform()]
        grid = build_grid(vals, 2)
        assert len(grid.points) == 5
        assert_matches_reference(sc, vals, grid, budget=20_000_000, agents=(1,))


class TestGridsWithoutBreakpoints:
    def test_thirds_grid_misses_quarter_breakpoints(self):
        # random_valuation(_, 2) breaks on the quarter grid; prefix values
        # at 1/3 and 2/3 fall inside density segments.
        bc, _, _ = gen_cut_and_choose()
        for seed in range(1, 6):
            vals = [random_valuation(seed, 2), random_valuation(seed + 10, 2)]
            assert all(set(v.breakpoints) - set(THIRDS.points) for v in vals)
            assert_matches_reference(bc, vals, THIRDS)
            p = random_bc_tree(random.Random(seed), 2, 10)
            assert_matches_reference(p, vals, THIRDS)


class TestExtendedAndGccProtocols:
    """The forms whose refs, conditions and leaf checks the oracle reads on
    grid indices: extended trees and GCC protocols, on the thirds grid."""

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("model", ["extbc", "gcc"])
    def test_dubins_spanier(self, n, model):
        p, _ = gen_dubins_spanier(n, model)
        assert_matches_reference(p, profile(n), THIRDS, agents=(1,))

    def test_even_paz_four_agents(self):
        # GCC if-else branches decided by Less on two cuts
        p, _ = gen_even_paz(4, "gcc")
        assert_queries_match(p, profile(4), THIRDS, ("guarantee_value", (1,)),
                             ("can_guarantee", (BoundsQuery.make(1, {2: ZERO}),)))

    def test_selfridge_conway_gcc(self):
        p, _ = gen_selfridge_conway_gcc()
        assert_queries_match(p, profile(3), THIRDS, ("guarantee_value", (1,)),
                             ("guarantee_pair_envy", (1, 2)),
                             ("can_guarantee", (BoundsQuery.make(2, {3: F(1, 3)}),)))

    def test_random_extended_trees(self):
        cases = 0
        for seed in range(60):
            p = random_ext_tree(random.Random(seed), 2 + seed % 2, 12)
            if stats(p).cuts < 2:
                continue
            assert_matches_reference(p, profile(p.agents, seed), THIRDS)
            cases += 1
        assert cases >= 15


def _gcc_cut_then(child):
    """Agent 1 cuts the whole cake (node 0), then ``child``."""
    return GccTree(2, GccCut(0, 1, ((ORIGIN, END),), child))


def _ext_cut_then(child):
    return ExtBcTree(2, ExtCut(0, 1, ORIGIN, END, child))


def _gcc_two_picks(piece_of_agent_1):
    """Agent 1 takes ``piece_of_agent_1``, agent 2 the whole cake."""
    return GccChoose(1, 1, (piece_of_agent_1,),
                     GccChoose(2, 2, ((ORIGIN, END),), GccLeaf(3)))


RUN_TIME_ERRORS = {
    # the first cut at 1/3 gives agent 1 [0, 1/3] and agent 2 [0, 1]
    "gcc-leaf-overlap": _gcc_cut_then(_gcc_two_picks((ORIGIN, at(0)))),
    "gcc-cut-piece-inverted": _gcc_cut_then(
        GccCut(1, 2, ((END, at(0)),), GccLeaf(2))),
    "ref-to-a-cut-never-made": GccTree(
        2, GccChoose(0, 1, ((ORIGIN, at(7)),), GccLeaf(1))),
    "gcc-chosen-piece-inverted": _gcc_cut_then(_gcc_two_picks((at(0), ORIGIN))),
    "no-branch-matches": _gcc_cut_then(
        GccIfElse(1, ((Less(at(0), ORIGIN), GccLeaf(2)),))),
    "less-on-a-cut-never-made": GccTree(
        2, GccIfElse(0, ((Less(at(3), END), GccLeaf(1)),))),
    "undecided-pick": GccTree(2, GccIfElse(0, ((ChoseAt(5, 0), GccLeaf(1)),))),
    "undecided-cut-piece": GccTree(2, GccIfElse(0, ((CutInAt(5, 0), GccLeaf(1)),))),
    "less-on-a-cut-never-made-under-not-or": GccTree(2, GccIfElse(0, (
        (Not(Or((Less(END, ORIGIN), Less(at(3), END)))), GccLeaf(1)),))),
    "ext-cut-inverted": _ext_cut_then(
        ExtCut(1, 2, END, at(0), ExtLeaf(2, (ExtSegment(ORIGIN, END, 1),)))),
    "ext-segment-inverted": _ext_cut_then(ExtLeaf(
        1, (ExtSegment(at(0), ORIGIN, 1), ExtSegment(ORIGIN, END, 2)))),
    "ext-segments-out-of-order": _ext_cut_then(ExtLeaf(
        1, (ExtSegment(at(0), END, 1), ExtSegment(ORIGIN, at(0), 1)))),
    "ext-cake-unallocated": _ext_cut_then(
        ExtLeaf(1, (ExtSegment(ORIGIN, at(0), 1),))),
    "bc-cut-piece-0": BcTree(2, BcCut(0, 1, 0, BcLeaf(1, (1, 2)))),
    "bc-cut-piece-3": BcTree(2, BcCut(0, 1, 3, BcLeaf(1, (1, 2)))),
    "bc-leaf-piece-count": BcTree(
        2, BcChoose(0, 2, (BcLeaf(1, (1,)), BcCut(2, 1, 1, BcLeaf(3, (1,)))))),
    "dag-cut-piece-minus-1": BcDag(2, 0, {0: DagCut(0, 1, -1, 1),
                                          1: DagLeaf(1, (1, 2))}),
    # leaves that give a piece to an agent outside 1..n
    "bc-leaf-agent-0": BcTree(2, BcLeaf(0, (0,))),
    "bc-leaf-agent-minus-1": BcTree(2, BcLeaf(0, (-1,))),
    "bc-leaf-agent-3": BcTree(2, BcLeaf(0, (3,))),
    "dag-leaf-agent-3": BcDag(2, 0, {0: DagCut(0, 1, 1, 1), 1: DagLeaf(1, (1, 3))}),
    "ext-segment-agent-0": _ext_cut_then(ExtLeaf(
        1, (ExtSegment(ORIGIN, at(0), 1), ExtSegment(at(0), END, 0)))),
    "gcc-choose-agent-3": GccTree(
        2, GccChoose(0, 3, ((ORIGIN, END),), GccLeaf(1))),
}


def _end_condition_tree(cond):
    """Agent 1 cuts (node 0); while ``cond`` holds agent 1 takes [0, cut] and
    agent 2 the rest, else agent 2 takes both pieces."""
    return _gcc_cut_then(GccIfElse(1, (
        (cond, GccChoose(2, 1, ((ORIGIN, at(0)),),
                         GccChoose(3, 2, ((at(0), END),), GccLeaf(4)))),
        (ELSE, GccChoose(5, 2, ((ORIGIN, at(0)),),
                         GccChoose(6, 2, ((at(0), END),), GccLeaf(7)))),
    )))


_BEFORE_END, _AFTER_ORIGIN = Less(at(0), END), Less(ORIGIN, at(0))
END_CONDITIONS = {
    "cut-before-end": _BEFORE_END,
    "end-before-cut": Less(END, at(0)),
    "cut-before-origin": Less(at(0), ORIGIN),
    "origin-before-cut": _AFTER_ORIGIN,
    "not-cut-before-end": Not(_BEFORE_END),
    "strictly-inside": And((_AFTER_ORIGIN, _BEFORE_END)),
    "at-an-end": Or((Not(_AFTER_ORIGIN), Not(_BEFORE_END))),
    "not-at-an-end": Not(Or((Less(END, at(0)), Not(_BEFORE_END),
                             Less(at(0), ORIGIN), Not(_AFTER_ORIGIN)))),
}


class TestConditionsOnCakeEnds:
    """If-else branches decided by comparing a cut with 0 or 1: the oracle
    reads the cake's ends as grid indices 0 and the last one."""

    @pytest.mark.parametrize("name", END_CONDITIONS)
    def test_matches_reference(self, name):
        p = _end_condition_tree(END_CONDITIONS[name])
        for vals in ([uniform(), uniform()], two_profile(3)):
            assert_matches_reference(p, vals, THIRDS)
            assert_matches_reference(p, vals, build_grid(vals, 3))

    def test_cut_before_end_guarantees_two_thirds(self):
        p = _end_condition_tree(END_CONDITIONS["cut-before-end"])
        assert GuaranteeOracle(p, [uniform(), uniform()], THIRDS).guarantee_value(1) \
            == F(2, 3)


class TestRunTimeErrors:
    @pytest.mark.parametrize("name", RUN_TIME_ERRORS)
    def test_same_error_as_the_engine(self, name):
        p = RUN_TIME_ERRORS[name]
        errors = []
        for cls in (FractionOracle, GuaranteeOracle):
            with pytest.raises(ExecutionError) as caught:
                cls(p, profile(2), THIRDS).guarantee_value(1)
            errors.append((type(caught.value), str(caught.value)))
        assert errors[0] == errors[1]
        if "-agent-" in name:
            assert "outside 1..2" in errors[0][1]


def reference_check_equiv(p1, p2, notion, grid, vals, bound_samples=32,
                          budget=5_000_000, seed=0):
    """``check_equiv`` with one ``FractionOracle`` query per agent, agent pair
    or bound vector."""
    n = p1.agents
    o1 = FractionOracle(p1, vals, grid, budget)
    o2 = FractionOracle(p2, vals, grid, budget)
    disagreements = []
    measurements = {}

    if notion == Notion.VALUE:
        for i in range(1, n + 1):
            a, b = o1.guarantee_value(i), o2.guarantee_value(i)
            measurements[f"value[{i}]"] = (a, b)
            if a != b:
                disagreements.append(
                    Disagreement(notion, i, f"guaranteed value {a} vs {b}"))
    elif notion == Notion.TOTAL:
        for i in range(1, n + 1):
            a, b = o1.guarantee_total_envy(i), o2.guarantee_total_envy(i)
            measurements[f"total[{i}]"] = (a, b)
            if a != b:
                disagreements.append(
                    Disagreement(notion, i, f"total envy bound {a} vs {b}"))
    elif notion == Notion.PAIRWISE:
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == j:
                    continue
                a = o1.guarantee_pair_envy(i, j)
                b = o2.guarantee_pair_envy(i, j)
                measurements[f"pair[{i},{j}]"] = (a, b)
                if a != b:
                    disagreements.append(
                        Disagreement(notion, i, f"envy({i},{j}) bound {a} vs {b}"))
    else:
        for i in range(1, n + 1):
            for vector in strong_query_vectors(n, i, bound_samples, seed):
                query = BoundsQuery.make(i, vector)
                a, b = o1.can_guarantee(query), o2.can_guarantee(query)
                if a != b:
                    pretty = {j: str(m) for j, m in vector.items()}
                    disagreements.append(Disagreement(
                        notion, i,
                        f"bounds {pretty}: {'yes' if a else 'no'} vs"
                        f" {'yes' if b else 'no'}"))
    return EquivReport(notion, not disagreements, disagreements, grid, measurements)


class TestEquivReport:
    """``check_equiv`` makes one walk per protocol for a notion (strong: one
    per bound vector); its report's JSON bytes are the per-query
    reference's, for every notion."""

    @staticmethod
    def assert_same_reports(p1, p2, grid, vals, seed=0):
        """Returns each notion's report."""
        reports = []
        for notion in Notion.ALL:
            got, want = (check(p1, p2, notion, grid, vals, bound_samples=4, seed=seed)
                         for check in (check_equiv, reference_check_equiv))
            assert json.dumps(got.to_json()) == json.dumps(want.to_json())
            reports.append(got)
        return reports

    def test_report_json_is_byte_identical(self):
        bc, _, _ = gen_cut_and_choose()
        vals = [random_valuation(4, 3), random_valuation(5, 3)]
        self.assert_same_reports(bc, bc_to_gcc(bc), build_grid(vals, 2), vals)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_cut_and_choose_against_its_gcc_image(self, seed):
        bc, _, _ = gen_cut_and_choose()
        vals = [random_valuation(seed, 2), random_valuation(seed + 1, 2)]
        self.assert_same_reports(bc, bc_to_gcc(bc), build_grid(vals, 2), vals, seed)

    def test_selfridge_conway_against_its_converted_gcc_form(self):
        # one seed: the reference takes about 11 s here
        bc, _ = gen_selfridge_conway_bc()
        gcc, _ = gen_selfridge_conway_gcc()
        image, _ = gcc_to_bc(gcc, GccMode.RESTRICTED)
        self.assert_same_reports(bc, image, THIRDS, profile(3, 4), 4)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_reconverging_dag_against_its_tree(self, seed):
        dag = load_protocol(str(GOLDEN / "reconverging_bcdag.cake"))
        tree, _, _ = dag_to_tree(dag)
        vals = two_profile(seed)
        self.assert_same_reports(dag, tree, build_grid(vals, 3), vals, seed)

    def test_disagreements(self):
        # the cutter keeps the left piece, against cut-and-choose: every
        # notion tells them apart, so every disagreement text is compared
        bc, _, _ = gen_cut_and_choose()
        cutter_keeps = BcTree(2, BcCut(0, 1, 1, BcLeaf(1, (1, 2))))
        vals = two_profile(5)
        reports = self.assert_same_reports(bc, cutter_keeps, build_grid(vals, 2), vals)
        assert all(report.disagreements for report in reports)
