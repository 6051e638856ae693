"""The three workloads: set-up (inputs) and one pass of fixed work each.

A pass is a fixed list of operations.  Every operation goes through
``Recorder.op``, which counts it, times it and counts it as failed if the
program raises; every output goes through a check from ``checks``.  The
workload code calls the program only through module attributes
(``cw.transform.gcc_to_bc``), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import json
import sys
import traceback
from collections import Counter
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import checks
from inputs import (
    even_valuation, hash_cons, reconverging_dag, random_bc_tree, rng_for,
)

FAILED = object()


class Recorder:
    """Counts, latencies and check failures of the operations of a run."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.latency_ms: list[float] = []  # the workload's primary operations
        self.op_s: Counter = Counter()  # seconds per operation name
        self.counts: Counter = Counter()

    def op(self, name: str, fn, *args, primary: bool = False, **kwargs):
        self.attempted += 1
        start = perf_counter()
        try:
            if self.tracer is None:
                out = fn(*args, **kwargs)
            else:
                with self.tracer.operation(name):
                    out = fn(*args, **kwargs)
        except Exception:  # any exception fails this operation, not the run
            self.failed += 1
            if self.failed <= 3:
                print(f"operation {name} failed:", file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
            return FAILED
        elapsed = perf_counter() - start
        self.op_s[name] += elapsed
        if primary:
            self.latency_ms.append(elapsed * 1000.0)
        return out

    def check(self, where: str, error) -> None:
        if error is not None:
            self.errors.append(f"{where}: {error}")

    @property
    def correct(self) -> bool:
        return not self.errors


def input_conversion(cw, conversions: list, op: str, *args):
    """Convert with ``transform.<op>`` to make a workload input.

    Records (op, args, output, output nodes) so that every pass can make the
    conversion again (``convert_again``).
    """
    out = getattr(cw.transform, op)(*args)
    conversions.append((op, args, out, count_nodes(_protocol(out))))
    return out


def convert_again(cw, state: dict, rec: Recorder, rounds: int = 1) -> None:
    """Make the set-up's input conversions again, ``rounds`` times, timed,
    and check that each gives the protocol the set-up got.  This puts a
    whole run of conversions behind ``nodes_per_s`` on the workloads whose
    main work is not converting."""
    for op, args, first, _ in state["conversions"] * rounds:
        start = perf_counter()
        out = rec.op(f"convert:{op}", getattr(cw.transform, op), *args)
        elapsed = perf_counter() - start
        if out is FAILED:
            continue
        out = _protocol(out)
        nodes = count_nodes(out)
        rec.counts["conversion_s"] += elapsed
        rec.counts["out_nodes"] += nodes
        rec.counts[f"out_nodes.{op}"] += nodes
        rec.check(f"convert {op}", None if cw.ir.structurally_equal(
            out, _protocol(first)) else "conversion differs from the set-up's")


def _protocol(out):
    """The protocol of a conversion's result, without its map or transporter."""
    return out[0] if isinstance(out, tuple) else out


def count_nodes(p) -> int:
    """Nodes of a protocol tree, counted without calling the program."""
    count, stack = 0, [p.root]
    while stack:
        node = stack.pop()
        count += 1
        if hasattr(node, "child"):
            stack.append(node.child)
        elif hasattr(node, "children"):
            stack.extend(node.children)
        elif hasattr(node, "branches"):
            stack.extend(child for _, child in node.branches)
    return count


# ---------------------------------------------------------------------------
# verify


class Verify:
    """Envy-equivalence verdicts between library protocols and conversions."""

    name = "verify"
    # (label, notion): cut-and-choose under every notion, Selfridge-Conway
    # pairwise on the thirds grid, the reconverging DAG by value and pairwise.
    CASES = (("cc", "value"), ("cc", "total"), ("cc", "pairwise"), ("cc", "strong"),
             ("sc", "pairwise"), ("dag", "value"), ("dag", "pairwise"))
    BOUND_SAMPLES = 4
    BUDGET = 50_000_000
    # The three input conversions take about 25 ms together: 5 rounds of
    # them before each check give nodes_per_s about 0.9 s of conversion time
    # per pass, spread over the pass.
    CONVERSION_ROUNDS = 5

    def setup(self, cw, seed: int) -> dict:
        lib, orc, ir = cw.library, cw.oracle, cw.ir
        rng = rng_for(seed, "verify")
        conversions: list = []
        cc_bc, _, _ = lib.gen_cut_and_choose()
        sc_bc, _ = lib.gen_selfridge_conway_bc()
        sc_gcc, _ = lib.gen_selfridge_conway_gcc()
        vals2 = [even_valuation(cw, rng, 3) for _ in range(2)]
        vals3 = [even_valuation(cw, rng, 2) for _ in range(3)]
        grid2 = orc.build_grid(vals2, 2)
        thirds = orc.Grid((Fraction(0), Fraction(1, 3), Fraction(2, 3), Fraction(1)))
        dag = reconverging_dag(cw, rng, 3)
        cc_image = input_conversion(cw, conversions, "bc_to_gcc", cc_bc)
        sc_image, _ = input_conversion(cw, conversions, "gcc_to_bc", sc_gcc,
                                       ir.GccMode.RESTRICTED)
        dag_tree, _, _ = input_conversion(cw, conversions, "dag_to_tree", dag)
        pairs = {
            "cc": (cc_bc, cc_image, grid2, vals2),
            "sc": (sc_bc, sc_image, thirds, vals3),
            "dag": (dag, dag_tree, grid2, vals2),
        }
        return {"seed": seed, "pairs": pairs, "conversions": conversions,
                "grid_points": len(grid2.points)}

    def run_pass(self, cw, state: dict, rec: Recorder) -> None:
        orc = cw.oracle
        for label, notion in self.CASES:
            convert_again(cw, state, rec, self.CONVERSION_ROUNDS)
            p1, p2, grid, vals = state["pairs"][label]
            report = rec.op(f"check:{label}:{notion}", orc.check_equiv, p1, p2,
                            notion, grid, vals, bound_samples=self.BOUND_SAMPLES,
                            budget=self.BUDGET, seed=state["seed"], primary=True)
            if report is FAILED:
                continue
            where = f"{label} {notion}"
            rec.check(where, checks.verdict_error(report))
            if label == "cc" and notion == "value":
                rec.check(where, checks.closed_form_error(
                    report.measurements, vals[0], vals[1], grid.points))


# ---------------------------------------------------------------------------
# convert


class Convert:
    """The paper's conversions and normal forms, each output round-tripped."""

    name = "convert"
    RANDOM_TREES = 12
    RANDOM_NODES = 9
    EXACT = {"dag_to_tree", "cuts_before_choices_ext"}

    def setup(self, cw, seed: int) -> dict:
        lib, tr, ir = cw.library, cw.transform, cw.ir
        rng = rng_for(seed, "convert")
        cc_bc, cc_gcc, _ = lib.gen_cut_and_choose()
        sc_bc, _ = lib.gen_selfridge_conway_bc()
        sc_gcc, _ = lib.gen_selfridge_conway_gcc()
        ds3x, _ = lib.gen_dubins_spanier(3, "extbc")
        ds3g, _ = lib.gen_dubins_spanier(3, "gcc")
        ds4x, _ = lib.gen_dubins_spanier(4, "extbc")
        ep4x, _ = lib.gen_even_paz(4, "extbc")
        trees = [random_bc_tree(cw, rng_for(0, "shape", k), rng, self.RANDOM_NODES)
                 for k in range(self.RANDOM_TREES)]
        restricted, extensive = ir.GccMode.RESTRICTED, ir.GccMode.EXTENSIVE
        sc_dag = hash_cons(cw, sc_bc)
        sources = {id(sc_dag): sc_bc}  # hash-consed DAG -> the tree it came from
        items = [
            ("extended_to_bc", ds3x, ()), ("extended_to_bc", ep4x, ()),
            ("gcc_to_bc", cc_gcc, (restricted,)), ("gcc_to_bc", sc_gcc, (restricted,)),
            ("gcc_to_bc", ds3g, (extensive,)),
            ("bc_to_gcc", cc_bc, ()),
            ("dag_to_tree", sc_dag, ()),
            ("cuts_before_choices_ext", ds4x, ()),
            ("cuts_before_choices_bc", cc_bc, ()),
            ("bc_intermediate_form", cc_bc, ()),
        ]
        for tree in trees:
            dag = hash_cons(cw, tree)
            sources[id(dag)] = tree
            items += [
                ("bc_to_gcc", tree, ()),
                ("dag_to_tree", dag, ()),
                ("cuts_before_choices_ext", tr.embed_bc_as_ext(tree), ()),
                ("cuts_before_choices_bc", tree, ()),
                ("bc_intermediate_form", tree, ()),
            ]
        work = [(op, src, extra, self._bound(cw, op, src, extra))
                for op, src, extra in items]
        out_dir = Path(__file__).resolve().parent / "out"
        out_dir.mkdir(exist_ok=True)
        return {"items": work, "sources": sources,
                "file": out_dir / f"convert-{seed}.cake"}

    def _bound(self, cw, op: str, src, extra):
        """(cost, exact) for the output size, or None where none is asserted."""
        tr = cw.transform
        if op == "cuts_before_choices_bc":
            return None
        if op == "bc_intermediate_form":
            normal, _, _ = tr.cuts_before_choices_ext(tr.embed_bc_as_ext(src))
            return tr.conversion_cost("extended_to_bc", normal), False
        return tr.conversion_cost(op, src), op in self.EXACT

    def run_pass(self, cw, state: dict, rec: Recorder) -> None:
        for k, (op, src, extra, bound) in enumerate(state["items"]):
            rec.op(f"item:{op}", self._item, cw, state, rec, k, op, src, extra,
                   bound, primary=True)

    def _item(self, cw, state, rec, k, op, src, extra, bound):
        tr, ir, dsl, jsonio, cli = cw.transform, cw.ir, cw.dsl, cw.jsonio, cw.cli
        where = f"item {k} {op}"
        start = perf_counter()
        out = _protocol(getattr(tr, op)(src, *extra))
        rec.counts["conversion_s"] += perf_counter() - start
        if isinstance(out, ir.BcTree):
            report = ir.validate_bc(out)
        elif isinstance(out, ir.ExtBcTree):
            report = ir.validate_ext(out)
        else:
            report = ir.validate_gcc(out, ir.GccMode.EXTENSIVE)
        rec.check(where, None if report.ok else f"invalid output: {report}")
        nodes = count_nodes(out)
        rec.counts["out_nodes"] += nodes
        rec.counts[f"out_nodes.{op}"] += nodes
        if bound is not None:
            rec.check(where, checks.size_error(nodes, *bound))
        if op.startswith("cuts_before_choices"):
            rec.check(where, None if tr.cuts_first(out) else "not cuts-first")
        if op == "bc_intermediate_form":
            rec.check(where, None if tr.intermediate_form_ok(out)
                      else "not in intermediate form")
        if op == "dag_to_tree":
            rec.check(where, None if ir.structurally_equal(
                out, state["sources"][id(src)]) else "expansion differs from source")

        text = dsl.print_protocol(out)
        back, diagnostics = dsl.parse(text)
        rec.counts["dsl.bytes"] += 2 * len(text.encode())  # parsed here and by load
        rec.check(where, None if back is not None and ir.structurally_equal(back, out)
                  else f".cake round trip differs {diagnostics[:1]}")
        encoded = json.dumps(jsonio.protocol_to_json(out))
        rec.counts["jsonio.bytes"] += len(encoded.encode())
        back = jsonio.protocol_from_json(json.loads(encoded))
        rec.check(where, None if ir.structurally_equal(back, out)
                  else "JSON round trip differs")
        state["file"].write_text(text, encoding="utf-8")
        loaded = cli.load_protocol(str(state["file"]))
        rec.check(where, None if ir.structurally_equal(loaded, out)
                  else "loaded file differs")


# ---------------------------------------------------------------------------
# play


class Play:
    """Thousands of short runs of every library protocol, replayed."""

    name = "play"
    PROFILES = 160
    SEGMENTS = 4
    TRANSPORTED = 12  # profiles per transported protocol

    def setup(self, cw, seed: int) -> dict:
        lib = cw.library
        cc_bc, cc_gcc, cc_bundle = lib.gen_cut_and_choose()
        protocols = [("cc_bc", cc_bc, cc_bundle, "envy-free"),
                     ("cc_gcc", cc_gcc, cc_bundle, "envy-free")]
        for label, gen in (("sc_bc", lib.gen_selfridge_conway_bc),
                           ("sc_gcc", lib.gen_selfridge_conway_gcc)):
            p, bundle = gen()
            protocols.append((label, p, bundle, "envy-free"))
        for name, gen, n in (("ds", lib.gen_dubins_spanier, 3),
                             ("ds", lib.gen_dubins_spanier, 4),
                             ("ep", lib.gen_even_paz, 4)):
            for model in ("gcc", "extbc"):
                p, bundle = gen(n, model)
                protocols.append((f"{name}{n}_{model}", p, bundle, "proportional"))
        conversions: list = []
        by_label = {label: (p, bundle) for label, p, bundle, _ in protocols}
        transported = []
        for label, op in (("ds3_extbc", "extended_to_bc"),
                          ("ep4_extbc", "extended_to_bc"),
                          ("ds4_extbc", "cuts_before_choices_ext")):
            p, bundle = by_label[label]
            target, _, transporter = input_conversion(cw, conversions, op, p)
            transported.append((f"{label}>{op}", p, bundle, target, transporter))
        rng = rng_for(seed, "play")
        profiles = {}
        for label, p, _, _ in protocols:
            profiles[label] = [
                [cw.valuation.random_valuation(rng.randrange(10 ** 9), self.SEGMENTS)
                 for _ in range(p.agents)]
                for _ in range(self.PROFILES)
            ]
        return {"protocols": protocols, "transported": transported,
                "profiles": profiles, "conversions": conversions}

    def run_pass(self, cw, state: dict, rec: Recorder) -> None:
        engine = cw.engine
        convert_again(cw, state, rec)
        for label, p, bundle, prop in state["protocols"]:
            strategies = bundle.strategies_for(p)
            for vals in state["profiles"][label]:
                out = rec.op(f"run:{label}", engine.run, p, strategies, vals,
                             primary=True)
                if out is FAILED:
                    continue
                trace, alloc = out
                rec.counts["runs"] += 1
                rec.counts[f"runs.{label}"] += 1
                rec.counts["decisions"] += len(trace.events)
                check = (checks.envy_free_error if prop == "envy-free"
                         else checks.proportional_error)
                rec.check(f"{label} run", check(alloc.pieces, vals))
                again = rec.op(f"replay:{label}", engine.replay, p, trace)
                if again is not FAILED:
                    rec.check(f"{label} replay", None if again.pieces == alloc.pieces
                              else "replay gives another allocation")
        for label, p, bundle, target, transporter in state["transported"]:
            source = bundle.strategies_for(p)
            for vals in state["profiles"][label.split(">")[0]][: self.TRANSPORTED]:
                out = rec.op(f"source:{label}", engine.run, p, source, vals)
                moved = rec.op(f"transport:{label}", engine.run, target,
                               transporter(source), vals)
                if out is FAILED or moved is FAILED:
                    continue
                rec.counts["transports"] += 1
                rec.check(f"{label} transport", checks.same_matrix_error(
                    checks.value_matrix(moved[1].pieces, vals),
                    checks.value_matrix(out[1].pieces, vals)))


WORKLOADS = {w.name: w for w in (Verify(), Convert(), Play())}
