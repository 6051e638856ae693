"""The integer-scoring oracle against the ``Fraction`` scoring it replaced.

``FractionOracle`` scores every leaf the way ``GuaranteeOracle`` did before
it held grid values as integers: ``Valuation.value_of`` for each piece, and
``Fraction`` envies, sums and bound comparisons.  It keeps the oracle's
recursion (``_solve``), which ``test_oracle.TestAgainstBruteForce`` checks
on its own, so a difference here can only come from the integer leaf
values, scores, bound test or the conversion of results.
"""

import json
import random
from fractions import Fraction as F

from cakewalk import oracle
from cakewalk.engine import leaf_allocation
from cakewalk.ir import stats
from cakewalk.library import gen_cut_and_choose, gen_selfridge_conway_bc
from cakewalk.oracle import (
    BoundsQuery, Grid, GuaranteeOracle, Notion, build_grid, check_equiv,
)
from cakewalk.transform import bc_to_gcc
from cakewalk.valuation import ONE, ZERO, random_valuation, uniform

from helpers import CountingMemo, random_bc_tree, random_gcc, reconverging_dags

THIRDS = Grid((F(0), F(1, 3), F(2, 3), F(1)))


def _envy(cross, i, j):
    return max(cross[i - 1][j - 1] - cross[i - 1][i - 1], ZERO)


class FractionOracle(GuaranteeOracle):
    """The reference: leaves valued with ``Valuation.value_of``."""

    def _leaf_cross(self, state):
        key = self._key(state)
        hit = self._leaf_cache.get(key)
        if hit is None:
            alloc = leaf_allocation(self.protocol, state)
            hit = tuple(tuple(v.value_of(piece) for piece in alloc.pieces)
                        for v in self.vals)
            self._leaf_cache[key] = hit
        return hit

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
    assert fast.evals == ref.evals
    return fast


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


class TestEquivReport:
    def test_report_json_is_byte_identical(self, monkeypatch):
        bc, _, _ = gen_cut_and_choose()
        image = bc_to_gcc(bc)
        vals = [random_valuation(4, 3), random_valuation(5, 3)]
        grid = build_grid(vals, 2)

        def reports():
            return [json.dumps(check_equiv(bc, image, notion, grid, vals,
                                           bound_samples=4).to_json())
                    for notion in Notion.ALL]

        fast = reports()
        monkeypatch.setattr(oracle, "GuaranteeOracle", FractionOracle)
        assert reports() == fast
