"""Acceptance suite: one check per criterion, each printing PASS/FAIL.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Every tolerance is exact rational equality unless a criterion is an
inequality by definition (proportionality); grids are pinned explicitly.
"""

import math
import random
import sys
from fractions import Fraction as F
from itertools import product

import pytest

from cakewalk.dsl import parse, print_protocol
from cakewalk.engine import CutMade, allocation_values, run
from cakewalk.ir import (
    BcChoose, BcCut, BcLeaf, BcTree, ChoseAt, ELSE, END, ExtBcTree, ExtCut,
    ExtChoose, ExtLeaf, ExtSegment, GccChoose, GccCut, GccIfElse, GccLeaf,
    GccMode, GccTree, IdGen, ORIGIN, at, iter_nodes, stats,
    structurally_equal, validate_bc, validate_ext,
)
from cakewalk.library import (
    gen_cut_and_choose, gen_dubins_spanier, gen_even_paz,
    gen_selfridge_conway_bc, gen_selfridge_conway_gcc,
)
from cakewalk.oracle import (
    BoundsQuery, Grid, GuaranteeOracle, build_grid, strong_query_vectors,
)
from cakewalk.transform import (
    bc_to_gcc, cuts_before_choices_ext, cuts_first, dag_to_tree,
    extended_to_bc, gcc_to_bc,
)
from cakewalk.valuation import envy_matrix, random_valuation, uniform

from helpers import (
    rand_profile, random_bc_tree, random_dag, random_ext_tree, random_gcc,
    reconverging_dags,
)
from test_oracle import BruteForce


def report(number: int, name: str, ok: bool, detail: str = ""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[acceptance {number:02d}] {name}: {verdict}{suffix}",
          file=sys.stderr, flush=True)
    assert ok, f"criterion {number} failed: {name} {detail}"


def triple(seed: int):
    return [random_valuation(seed * 3 + k, 1 + (seed + k) % 4) for k in range(3)]


def test_01_selfridge_conway_envy_free_both_models():
    failures = 0
    for tree, bundle in (gen_selfridge_conway_bc(), gen_selfridge_conway_gcc()):
        strategies = bundle.strategies_for(tree)
        for seed in range(200):
            vals = triple(seed)
            _, alloc = run(tree, strategies, vals)
            matrix = envy_matrix(alloc, vals)
            if any(x != 0 for row in matrix for x in row):
                failures += 1
    report(1, "Selfridge-Conway envy-free, 200 profiles x 2 models",
           failures == 0, f"{failures} envious runs")


def test_02_selfridge_conway_node_count():
    tree, _ = gen_selfridge_conway_bc()
    count = stats(tree).nodes
    report(2, "Selfridge-Conway branch-choice tree has 150 nodes",
           count == 150, f"got {count}")


def chain_ext(n: int) -> ExtBcTree:
    gen = IdGen()
    ids = [gen() for _ in range(n)]
    node = ExtLeaf(gen(), (ExtSegment(ORIGIN, END, 1),))
    for i in reversed(range(n)):
        node = ExtCut(ids[i], min(i + 1, n), ORIGIN, END, node)
    return ExtBcTree(max(n, 1), node)


def test_03_extended_to_bc_worst_case():
    bc3, _, _ = extended_to_bc(chain_ext(3))
    s3 = stats(bc3)
    bottom = sum(1 for node in iter_nodes(bc3)
                 if isinstance(node, BcCut) and isinstance(node.child, BcLeaf))
    fig_ok = (s3.nodes - s3.leaves == 12) and bottom == 6
    factorial_ok = True
    for n in range(2, 7):
        bc, _, _ = extended_to_bc(chain_ext(n))
        if stats(bc).leaves != math.factorial(n):
            factorial_ok = False
    report(3, "spanning-cut chain: 12 nodes, 6 bottom cuts at n=3; n! leaves",
           fig_ok and factorial_ok,
           f"n=3 gives {s3.nodes - s3.leaves} non-leaves, {bottom} bottom cuts")


def test_04_cuts_before_choices_extended():
    ok = True
    detail = ""
    for seed in range(100):
        tree = random_ext_tree(random.Random(seed), 3, 40)
        out, _, transport = cuts_before_choices_ext(tree)
        if not cuts_first(out) or stats(out).nodes != stats(tree).nodes:
            ok, detail = False, f"structure broke at seed {seed}"
            break
        vals = [random_valuation(seed + k, 1 + (seed + k) % 3) for k in range(3)]
        src = rand_profile(seed, 3)
        _, before = run(tree, src, vals)
        _, after = run(out, transport(src), vals)
        if allocation_values(before, vals) != allocation_values(after, vals):
            ok, detail = False, f"allocation changed at seed {seed}"
            break
    report(4, "cuts-before-choices: same size, no cut under a choose,"
              " allocations preserved (100 trees)", ok, detail)


def test_05_dag_to_tree_allocations():
    ok = True
    detail = ""
    for seed in range(100):
        dag = random_dag(random.Random(seed), 2, 25)
        tree, _, transport = dag_to_tree(dag)
        vals = [random_valuation(seed + k, 1 + (seed + k) % 3) for k in range(2)]
        src = rand_profile(seed, 2)
        _, a = run(dag, src, vals)
        _, b = run(tree, transport(src), vals)
        if a.pieces != b.pieces:
            ok, detail = False, f"allocation changed at seed {seed}"
            break
    report(5, "dag expansion preserves allocations (100 dags)", ok, detail)


def hand_built_gcc_three_agents() -> GccTree:
    """Agent 1 halves; agent 2 takes a side; agent 3 splits the rest with 1."""
    z = at(0)
    def side(taken_left: bool, base: int):
        lo, hi = (z, END) if taken_left else (ORIGIN, z)
        w = at(base)
        return GccCut(base, 3, ((lo, hi),),
                      GccChoose(base + 1, 3, ((lo, w),),
                                GccChoose(base + 2, 1, ((w, hi),),
                                          GccLeaf(base + 3))))

    return GccTree(3, GccCut(0, 1, ((ORIGIN, END),),
                             GccChoose(1, 2, ((ORIGIN, z), (z, END)),
                                       GccIfElse(2, (
                                           (ChoseAt(1, 0), side(True, 10)),
                                           (ELSE, side(False, 20)),
                                       )))))


def hand_built_bc_two_agents() -> BcTree:
    """Agent 1 cuts, then either keeps the left piece or lets agent 2 pick."""
    return BcTree(2, BcCut(0, 1, 1, BcChoose(1, 1, (
        BcLeaf(2, (1, 2)),
        BcChoose(3, 2, (BcLeaf(4, (2, 1)), BcLeaf(5, (1, 2)))),
    ))))


def agreement_on_sampled_bounds(p, image, vals, grid, samples=32) -> str:
    left = GuaranteeOracle(p, vals, grid, budget=80_000_000)
    right = GuaranteeOracle(image, vals, grid, budget=80_000_000)
    for agent in range(1, p.agents + 1):
        for vector in strong_query_vectors(p.agents, agent, samples, seed=7):
            query = BoundsQuery.make(agent, vector)
            if left.can_guarantee(query) != right.can_guarantee(query):
                return f"agent {agent} disagrees on {vector}"
    return ""


def test_06_cross_model_strong_equivalence_surrogate():
    vals2 = [uniform(), uniform()]
    vals3 = [uniform()] * 3
    grid2 = build_grid(vals2, 4)
    grid3 = build_grid(vals3, 4)
    problems = []

    bc, gcc, _ = gen_cut_and_choose()
    msg = agreement_on_sampled_bounds(bc, bc_to_gcc(bc), vals2, grid2)
    if msg:
        problems.append(f"cut-and-choose bc->gcc: {msg}")
    image, _ = gcc_to_bc(gcc, GccMode.RESTRICTED)
    msg = agreement_on_sampled_bounds(gcc, image, vals2, grid2)
    if msg:
        problems.append(f"cut-and-choose gcc->bc: {msg}")

    hand_bc = hand_built_bc_two_agents()
    msg = agreement_on_sampled_bounds(hand_bc, bc_to_gcc(hand_bc), vals2, grid2)
    if msg:
        problems.append(f"hand-built bc->gcc: {msg}")

    hand_gcc = hand_built_gcc_three_agents()
    image3, _ = gcc_to_bc(hand_gcc, GccMode.EXTENSIVE)
    msg = agreement_on_sampled_bounds(hand_gcc, image3, vals3, grid3)
    if msg:
        problems.append(f"hand-built gcc->bc: {msg}")

    report(6, "strong-equivalence surrogate: sampled bound vectors agree"
              " across conversions", not problems, "; ".join(problems))


def test_07_proportionality():
    problems = []
    for n in (2, 3, 4, 5):
        tree, bundle = gen_dubins_spanier(n, "gcc")
        strategies = bundle.strategies_for(tree)
        for seed in range(50):
            vals = [random_valuation(seed * 13 + k, 1 + (seed + k) % 4)
                    for k in range(n)]
            trace, alloc = run(tree, strategies, vals)
            values = allocation_values(alloc, vals)
            if any(values[i][i] < F(1, n) for i in range(n)):
                problems.append(f"dubins-spanier n={n} seed={seed}")
                break
            cuts = sum(1 for e in trace.events if isinstance(e, CutMade))
            if cuts != n * (n + 1) // 2 - 1:
                problems.append(f"dubins-spanier cut count n={n}")
                break
    for n in (2, 4):
        for model in ("gcc", "extbc"):
            tree, bundle = gen_even_paz(n, model)
            strategies = bundle.strategies_for(tree)
            for seed in range(50):
                vals = [random_valuation(seed * 17 + k, 1 + (seed + k) % 4)
                        for k in range(n)]
                _, alloc = run(tree, strategies, vals)
                values = allocation_values(alloc, vals)
                if any(values[i][i] < F(1, n) for i in range(n)):
                    problems.append(f"even-paz {model} n={n} seed={seed}")
                    break
    report(7, "Dubins-Spanier and Even-Paz honest play is proportional"
              " (50 profiles each); Dubins-Spanier makes n(n+1)/2 - 1 cuts",
           not problems, "; ".join(problems))


def test_08_dubins_spanier_extbc_size():
    def branch_product(node):
        if isinstance(node, ExtLeaf):
            return 1
        if isinstance(node, ExtCut):
            return branch_product(node.child)
        return len(node.children) * branch_product(node.children[0])

    results = {}
    for n in (2, 3, 4):
        tree, _ = gen_dubins_spanier(n, "extbc")
        results[n] = branch_product(tree.root)
    ok = results == {2: 2, 3: 8, 4: 64}
    report(8, "Dubins-Spanier extended-BC branch product is 2^(n(n-1)/2)",
           ok, str(results))


def test_09_oracle_matches_brute_force():
    grid = Grid((F(0), F(1, 3), F(2, 3), F(1)))
    instances = []
    seed = 0
    while len(instances) < 20 and seed < 600:
        rng = random.Random(seed)
        p = random_bc_tree(rng, 2, 8) if seed % 2 else random_gcc(rng, 2, 4)
        s = stats(p)
        if 1 < s.cuts + s.chooses <= 8:
            vals = [random_valuation(seed, 2), random_valuation(seed + 1, 2)]
            bf = BruteForce(p, vals, grid)
            if all(bf.profile_count(a) <= 4000 for a in (1, 2)):
                instances.append((p, vals, bf))
        seed += 1
    problems = []
    for idx, (p, vals, bf) in enumerate(instances):
        oracle = GuaranteeOracle(p, vals, grid)
        for agent in (1, 2):
            direct = oracle.guarantee_value(agent)
            brute = bf.best_guarantee(
                agent, lambda cross, a=agent: cross[a - 1][a - 1], True
            )
            if direct != brute:
                problems.append(f"value mismatch, instance {idx} agent {agent}")
        for agent, other in ((1, 2), (2, 1)):
            for bound in (F(0), F(1, 4), F(1, 2), F(1)):
                query = BoundsQuery.make(agent, {other: bound})
                if oracle.can_guarantee(query) != bf.can_guarantee(query):
                    problems.append(f"bound mismatch, instance {idx}")
    report(9, "backward induction equals brute-force strategy enumeration"
              f" ({len(instances)} protocols)",
           len(instances) == 20 and not problems, "; ".join(problems[:3]))


def test_10_valuation_algebra_properties():
    rng = random.Random(20240817)
    pool = [random_valuation(s, 1 + s % 6) for s in range(160)]
    checked = 0
    problems = 0
    for _ in range(10_000):
        v = pool[rng.randrange(len(pool))]
        pts = sorted(F(rng.randrange(0, 65), 64) for _ in range(3))
        a, c, b = pts
        if v.value(a, c) + v.value(c, b) != v.value(a, b):
            problems += 1
        t1 = F(rng.randrange(0, 33), 32)
        t2 = F(rng.randrange(0, 33), 32)
        mark = v.mark(a, b, t1)
        if v.value(a, mark) != t1 * v.value(a, b):
            problems += 1
        lo_t, hi_t = sorted((t1, t2))
        if v.mark(a, b, lo_t) > v.mark(a, b, hi_t):
            problems += 1
        checked += 3
    report(10, f"valuation algebra: additivity, inversion, monotonicity"
               f" ({checked} exact checks)", problems == 0,
           f"{problems} violations")


def test_11_dsl_round_trip_and_fuzz():
    problems = []
    protocols = [
        gen_cut_and_choose()[0], gen_cut_and_choose()[1],
        gen_selfridge_conway_bc()[0], gen_selfridge_conway_gcc()[0],
        gen_dubins_spanier(2, "gcc")[0], gen_dubins_spanier(3, "gcc")[0],
        gen_dubins_spanier(2, "extbc")[0], gen_dubins_spanier(3, "extbc")[0],
        gen_even_paz(2, "gcc")[0], gen_even_paz(4, "gcc")[0],
        gen_even_paz(2, "extbc")[0], gen_even_paz(4, "extbc")[0],
    ]
    for seed in range(125):
        protocols.append(random_bc_tree(random.Random(seed), 2, 15))
        protocols.append(random_ext_tree(random.Random(seed), 3, 18))
        protocols.append(random_dag(random.Random(seed), 2, 14))
        protocols.append(random_gcc(random.Random(seed), 2, 5))
    protocols += [dag for _, dag in reconverging_dags()]
    for idx, p in enumerate(protocols):
        text = print_protocol(p)
        again, diagnostics = parse(text)
        if again is None or not structurally_equal(p, again):
            problems.append(f"round trip failed for protocol {idx}")
            break

    base = print_protocol(gen_selfridge_conway_gcc()[0])
    rng = random.Random(4242)
    for case in range(200):
        text = list(base)
        for _ in range(rng.randint(1, 8)):
            pos = rng.randrange(len(text))
            roll = rng.random()
            if roll < 0.4:
                text[pos] = rng.choice("()<>:abc123 \n\"")
            elif roll < 0.7:
                del text[pos]
            else:
                text.insert(pos, rng.choice("()';"))
        try:
            parsed, diagnostics = parse("".join(text))
        except Exception as exc:  # noqa: BLE001 - the point is "never crashes"
            problems.append(f"fuzz case {case} crashed: {exc!r}")
            break
        if parsed is None and not diagnostics:
            problems.append(f"fuzz case {case} failed without a diagnostic")
            break
    report(11, f"dsl round trip on {len(protocols)} protocols and 200 fuzz"
               " cases", not problems, "; ".join(problems[:2]))
