import gc
import math
from fractions import Fraction as F

import pytest

from cakewalk.engine import CutMade, allocation_values, run
from cakewalk.errors import DomainError
from cakewalk.ir import (
    BcLeaf, BcTree, ExtChoose, ExtCut, ExtLeaf, GccCut, GccIfElse, GccMode,
    iter_nodes, stats, validate_bc, validate_ext, validate_gcc,
)
from cakewalk.library import (
    gen_cut_and_choose, gen_dubins_spanier, gen_even_paz,
    gen_selfridge_conway_bc, gen_selfridge_conway_gcc, generate,
    named_strategies,
)
from cakewalk.oracle import Grid, build_grid
from cakewalk.valuation import envy_matrix, random_valuation, uniform


def profile(seed, n):
    return [random_valuation(seed * 31 + k, 1 + (seed + k) % 4) for k in range(n)]


class TestCutAndChoose:
    def test_counts(self):
        bc, gcc, _ = gen_cut_and_choose()
        assert stats(bc).nodes == 4
        assert validate_bc(bc).ok
        assert validate_gcc(gcc, GccMode.RESTRICTED).ok

    def test_uniform_split(self):
        bc, gcc, bundle = gen_cut_and_choose()
        vals = [uniform(), uniform()]
        for p in (bc, gcc):
            _, alloc = run(p, bundle.strategies_for(p), vals)
            values = allocation_values(alloc, vals)
            assert values[0][0] == F(1, 2) and values[1][1] == F(1, 2)

    def test_chooser_bundle_never_envies(self):
        # Any grid cut by agent 1 against agent 2's intended play gives
        # agent 2 zero envy.
        bc, _, bundle = gen_cut_and_choose()
        vals = [uniform(), random_valuation(17, 4)]
        chooser = bundle.strategies_for(bc)[1]
        for z in build_grid(vals, 4).points:
            strategies = [lambda ctx, z=z: z, chooser]
            _, alloc = run(bc, strategies, vals)
            assert envy_matrix(alloc, vals)[1][0] == 0


class TestSelfridgeConway:
    def test_bc_node_count(self):
        tree, _ = gen_selfridge_conway_bc()
        assert stats(tree).nodes == 150
        assert validate_bc(tree).ok

    def test_gcc_validates_extensively(self):
        tree, _ = gen_selfridge_conway_gcc()
        report = validate_gcc(tree, GccMode.EXTENSIVE)
        assert report.ok and not report.warnings

    @pytest.mark.parametrize("generator", [gen_selfridge_conway_bc,
                                           gen_selfridge_conway_gcc])
    def test_envy_free_on_random_profiles(self, generator):
        tree, bundle = generator()
        strategies = bundle.strategies_for(tree)
        for seed in range(40):
            vals = profile(seed, 3)
            _, alloc = run(tree, strategies, vals)
            matrix = envy_matrix(alloc, vals)
            assert all(x == 0 for row in matrix for x in row), (seed, matrix)

    def test_uniform_values_exact_thirds(self):
        tree, bundle = gen_selfridge_conway_bc()
        vals = [uniform()] * 3
        _, alloc = run(tree, bundle.strategies_for(tree), vals)
        values = allocation_values(alloc, vals)
        assert all(values[i][i] == F(1, 3) for i in range(3))


class TestDubinsSpanier:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_gcc_proportional_and_query_count(self, n):
        tree, bundle = gen_dubins_spanier(n, "gcc")
        assert validate_gcc(tree, GccMode.EXTENSIVE).ok
        strategies = bundle.strategies_for(tree)
        for seed in range(6):
            vals = profile(seed + n, n)
            trace, alloc = run(tree, strategies, vals)
            cuts = sum(1 for e in trace.events if isinstance(e, CutMade))
            assert cuts == n * (n + 1) // 2 - 1
            values = allocation_values(alloc, vals)
            assert all(values[i][i] >= F(1, n) for i in range(n))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_extbc_branch_product(self, n):
        tree, bundle = gen_dubins_spanier(n, "extbc")
        assert validate_ext(tree).ok

        def branch_product(node):
            if isinstance(node, ExtLeaf):
                return 1
            if isinstance(node, ExtCut):
                return branch_product(node.child)
            return len(node.children) * branch_product(node.children[0])

        assert branch_product(tree.root) == 2 ** (n * (n - 1) // 2)
        strategies = bundle.strategies_for(tree)
        for seed in range(4):
            vals = profile(seed * 3, n)
            trace, alloc = run(tree, strategies, vals)
            values = allocation_values(alloc, vals)
            assert all(values[i][i] >= F(1, n) for i in range(n))
            cuts = sum(1 for e in trace.events if isinstance(e, CutMade))
            assert cuts == n * (n + 1) // 2 - 1

    def test_two_agent_first_dispatch(self):
        tree, _ = gen_dubins_spanier(2, "gcc")
        node = tree.root
        while isinstance(node, GccCut):
            node = node.child
        assert isinstance(node, GccIfElse)
        assert len(node.branches) == 2

    def test_rejects_single_agent(self):
        with pytest.raises(DomainError):
            gen_dubins_spanier(1, "gcc")

    def test_leftmost_tie_goes_to_lowest_index(self):
        tree, _ = gen_dubins_spanier(3, "gcc")

        def cut_half(ctx):
            lo, hi = ctx.pieces[0]
            return 0, max(lo, min(F(1, 2), hi))

        _, alloc = run(tree, [cut_half] * 3, [uniform()] * 3)
        assert alloc.pieces[0] == ((F(0), F(1, 2)),)
        assert alloc.pieces[1] == ((F(1, 2), F(1, 2)),)  # empty but assigned
        assert alloc.pieces[2] == ((F(1, 2), F(1)),)

    def test_gcc_image_keeps_value_guarantees(self):
        from cakewalk.oracle import Grid, GuaranteeOracle
        from cakewalk.transform import gcc_to_bc

        tree, _ = gen_dubins_spanier(2, "gcc")
        image, _ = gcc_to_bc(tree, GccMode.EXTENSIVE)
        vals = [uniform(), uniform()]
        grid = Grid((F(0), F(1, 4), F(1, 2), F(3, 4), F(1)))
        for agent in (1, 2):
            assert (GuaranteeOracle(tree, vals, grid).guarantee_value(agent)
                    == GuaranteeOracle(image, vals, grid).guarantee_value(agent) == F(1, 2))


class TestEvenPaz:
    def test_two_agents_one_round(self):
        for model in ("gcc", "extbc"):
            tree, bundle = gen_even_paz(2, model)
            vals = [random_valuation(5, 3), random_valuation(6, 2)]
            _, alloc = run(tree, bundle.strategies_for(tree), vals)
            values = allocation_values(alloc, vals)
            assert all(values[i][i] >= F(1, 2) for i in range(2))

    def test_four_agent_gcc_dispatch_shape(self):
        tree, _ = gen_even_paz(4, "gcc")
        assert validate_gcc(tree, GccMode.EXTENSIVE).ok
        node = tree.root
        while isinstance(node, GccCut):
            node = node.child
        assert isinstance(node, GccIfElse)
        assert len(node.branches) == 4
        # Every path below the root dispatch passes exactly two two-branch
        # (half-size) dispatches.
        def count_two_way(node, acc):
            if isinstance(node, GccIfElse):
                sizes = []
                for _, child in node.branches:
                    sizes.append(count_two_way(child, acc + (1 if len(node.branches) == 2 else 0)))
                assert len(set(sizes)) == 1
                return sizes[0]
            kids = [count_two_way(c, acc) for c in (
                [node.child] if hasattr(node, "child") else []
            )]
            return kids[0] if kids else acc

        assert count_two_way(node, 0) == 2

    def test_four_agents_proportional(self):
        for model in ("gcc", "extbc"):
            tree, bundle = gen_even_paz(4, model)
            strategies = bundle.strategies_for(tree)
            for seed in range(6):
                vals = profile(seed * 2 + 1, 4)
                _, alloc = run(tree, strategies, vals)
                values = allocation_values(alloc, vals)
                assert all(values[i][i] >= F(1, 4) for i in range(4))

    def test_uniform_exact_quarters(self):
        tree, bundle = gen_even_paz(4, "gcc")
        vals = [uniform()] * 4
        _, alloc = run(tree, bundle.strategies_for(tree), vals)
        values = allocation_values(alloc, vals)
        assert all(values[i][i] == F(1, 4) for i in range(4))

    def test_rejects_non_power_of_two(self):
        with pytest.raises(DomainError):
            gen_even_paz(3, "gcc")
        with pytest.raises(DomainError):
            gen_even_paz(6, "extbc")


class TestNamedAccess:
    def test_generate_dispatch(self):
        tree, _ = generate("dubins-spanier", "gcc", 3)
        assert tree.agents == 3
        with pytest.raises(DomainError):
            generate("mystery", "bc", 2)

    def test_named_strategies_reject_mismatch(self):
        bc, _, _ = gen_cut_and_choose()
        with pytest.raises(DomainError):
            named_strategies("selfridge-conway", "bc", 3, bc)

    def test_all_generator_outputs_validate(self):
        def gcc_ok(p):
            return validate_gcc(p, GccMode.EXTENSIVE)

        checks = [
            (generate("cut-and-choose", "bc")[0], validate_bc),
            (generate("cut-and-choose", "gcc")[0], gcc_ok),
            (generate("selfridge-conway", "bc")[0], validate_bc),
            (generate("selfridge-conway", "gcc")[0], gcc_ok),
        ]
        for n in (2, 3, 4, 5):
            checks.append((generate("dubins-spanier", "gcc", n)[0], gcc_ok))
            if n <= 4:
                checks.append((generate("dubins-spanier", "extbc", n)[0],
                               validate_ext))
        for n in (2, 4):
            checks.append((generate("even-paz", "gcc", n)[0], gcc_ok))
            checks.append((generate("even-paz", "extbc", n)[0], validate_ext))
        for protocol, validator in checks:
            report = validator(protocol)
            assert report.ok, str(report)


class TestStrategyBundle:
    def test_reused_address_is_not_served(self):
        # Drop the caller's reference to the bound BC tree, then allocate
        # many same-sized trees: had the bundle not kept the tree, one of
        # them could take its address and be served its strategies.
        bc, _, bundle = gen_cut_and_choose()
        del bc
        gc.collect()
        trees = [BcTree(1, BcLeaf(0, (1,))) for _ in range(5000)]
        for tree in trees:
            with pytest.raises(DomainError, match="not bound"):
                bundle.strategies_for(tree)
