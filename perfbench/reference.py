"""Re-measure the rows of the ROADMAP baseline table, once each.

    python3 perfbench/reference.py            # rows that take seconds
    python3 perfbench/reference.py --slow     # also q=4 and Selfridge-Conway q=2

Run from the root of a checkout.  Inputs follow the table: ``random_valuation``
with seeds 1-3 and 4 segments for Selfridge-Conway, seeds 4-5 and 3
segments for cut-and-choose, grids from ``build_grid(vals, q)``.  One
measurement per row, so these are reference figures, not gated metrics.
The JSON goes to standard output and to ``perfbench/out/reference.json``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from cakewalk import library, oracle, transform  # noqa: E402
from cakewalk.engine import run  # noqa: E402
from cakewalk.errors import BudgetExceededError  # noqa: E402
from cakewalk.ir import GccMode, stats  # noqa: E402
from cakewalk.valuation import random_valuation  # noqa: E402


def timed(fn, *args, **kwargs):
    start = perf_counter()
    out = fn(*args, **kwargs)
    return out, perf_counter() - start


def per_run_ms(protocol, bundle, vals, repeats: int = 200) -> float:
    strategies = bundle.strategies_for(protocol)
    _, seconds = timed(lambda: [run(protocol, strategies, vals) for _ in range(repeats)])
    return 1e3 * seconds / repeats


def guarantee(protocol, vals, q: int) -> dict:
    grid = oracle.build_grid(vals, q)
    o = oracle.GuaranteeOracle(protocol, vals, grid, budget=10 ** 8)
    value, seconds = timed(o.guarantee_value, 1)
    return {"grid_points": len(grid.points), "s": seconds, "evals": o.evals,
            "memo_entries": len(o._memo), "value": str(value)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--slow", action="store_true")
    args = parser.parse_args()
    rows = {}
    sc_vals = [random_valuation(s, 4) for s in (1, 2, 3)]
    cc_vals = [random_valuation(s, 3) for s in (4, 5)]
    sc_bc, sc_bundle = library.gen_selfridge_conway_bc()
    sc_gcc, sc_gcc_bundle = library.gen_selfridge_conway_gcc()
    rows["run_sc_bc_ms"] = per_run_ms(sc_bc, sc_bundle, sc_vals)
    rows["run_sc_gcc_ms"] = per_run_ms(sc_gcc, sc_gcc_bundle, sc_vals)

    v = sc_vals[0]
    pairs = [(Fraction(i, 60), Fraction(j, 60)) for i in range(60) for j in range(i, 61)]
    _, seconds = timed(lambda: [v.value(a, b) for a, b in pairs])
    rows["valuation_value_us"] = 1e6 * seconds / len(pairs)

    ds4x, _ = library.gen_dubins_spanier(4, "extbc")
    (tree, _, _), seconds = timed(transform.extended_to_bc, ds4x)
    rows["extended_to_bc_ds4"] = {"nodes": stats(tree).nodes, "s": seconds}
    del tree
    ds4g, _ = library.gen_dubins_spanier(4, "gcc")
    (tree, _), seconds = timed(transform.gcc_to_bc, ds4g, GccMode.EXTENSIVE)
    rows["gcc_to_bc_ds4"] = {"nodes": stats(tree).nodes, "s": seconds}
    del tree

    start = perf_counter()
    try:
        transform.bc_intermediate_form(sc_bc)
        rows["bc_intermediate_form_sc_budget_s"] = None
    except BudgetExceededError:
        rows["bc_intermediate_form_sc_budget_s"] = perf_counter() - start

    ds3_bc, _, _ = transform.extended_to_bc(library.gen_dubins_spanier(3, "extbc")[0])
    for budget in (10 ** 4, 3 * 10 ** 4):
        start = perf_counter()
        try:
            transform.cuts_before_choices_bc(ds3_bc, size_budget=budget)
            rows[f"cuts_before_choices_bc_ds3_budget_{budget}_s"] = None
        except BudgetExceededError:
            rows[f"cuts_before_choices_bc_ds3_budget_{budget}_s"] = perf_counter() - start

    cc_bc, _, _ = library.gen_cut_and_choose()
    image = transform.bc_to_gcc(cc_bc)
    for q in ((2, 3, 4) if args.slow else (2, 3)):
        rows[f"oracle_cc_gcc_image_q{q}"] = guarantee(image, cc_vals, q)
    if args.slow:
        rows["oracle_sc_bc_q2"] = guarantee(sc_bc, sc_vals, 2)
    rows["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    text = json.dumps(rows, indent=1)
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / "reference.json").write_text(text, encoding="utf-8")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
