"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench -p "test_*.py"

Run from the root of a checkout.  Each output check is shown to fail when
the program hands back a perturbed result: the test swaps one program
function for a version that corrupts its output, runs the workload code
that checks it, and expects a check failure.
"""

from __future__ import annotations

import json
import sys
import unittest
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import metrics  # noqa: E402
from run import load_cakewalk  # noqa: E402
from tracer import ENTRY_CALLS, LAYER, SELF, Tracer  # noqa: E402
from workloads import Convert, Play, Recorder, Verify  # noqa: E402

F = Fraction


class Patched:
    """Replace ``owner.attr`` by ``make(original)`` for the duration."""

    def __init__(self, owner, attr, make):
        self.owner, self.attr, self.make = owner, attr, make

    def __enter__(self):
        self.original = getattr(self.owner, self.attr)
        setattr(self.owner, self.attr, self.make(self.original))

    def __exit__(self, *exc):
        setattr(self.owner, self.attr, self.original)


class CheckFunctions(unittest.TestCase):
    def setUp(self):
        cw = load_cakewalk()
        self.Valuation = cw.valuation.Valuation
        # Agent 1 values the right half three times as much as the left.
        self.v1 = self.Valuation((F(0), F(1, 2), F(1)), (F(1, 2), F(3, 2)))
        self.v2 = cw.valuation.uniform()

    def test_measure_integrates_densities(self):
        self.assertEqual(checks.measure(self.v1, F(1, 4), F(3, 4)), F(1, 2))

    def test_partition(self):
        self.assertIsNone(checks.partition_error([[(F(0), F(1, 2))], [(F(1, 2), F(1))]]))
        self.assertIsNotNone(checks.partition_error([[(F(0), F(1, 3))], [(F(1, 2), F(1))]]))
        self.assertIsNotNone(checks.partition_error([[(F(0), F(2, 3))], [(F(1, 2), F(1))]]))

    def test_envy_free(self):
        fair = [[(F(2, 3), F(1))], [(F(0), F(2, 3))]]
        self.assertIsNone(checks.envy_free_error(fair, [self.v1, self.v2]))
        swapped = [fair[1], fair[0]]
        self.assertIsNotNone(checks.envy_free_error(swapped, [self.v1, self.v2]))

    def test_proportional(self):
        halves = [[(F(1, 2), F(1))], [(F(0), F(1, 2))]]
        self.assertIsNone(checks.proportional_error(halves, [self.v1, self.v2]))
        short = [[(F(0), F(1, 2))], [(F(1, 2), F(1))]]
        self.assertIsNotNone(checks.proportional_error(short, [self.v1, self.v2]))

    def test_closed_form(self):
        grid = (F(0), F(1, 2), F(2, 3), F(1))
        cutter, chooser = checks.cut_and_choose_closed_form(self.v1, self.v2, grid)
        self.assertEqual((cutter, chooser), (F(1, 2), F(1, 2)))
        good = {"value[1]": (cutter, cutter), "value[2]": (chooser, chooser)}
        self.assertIsNone(checks.closed_form_error(good, self.v1, self.v2, grid))
        bad = dict(good, **{"value[2]": (chooser, chooser + F(1, 1000))})
        self.assertIsNotNone(checks.closed_form_error(bad, self.v1, self.v2, grid))

    def test_size(self):
        self.assertIsNone(checks.size_error(10, 10, exact=True))
        self.assertIsNotNone(checks.size_error(11, 10, exact=True))
        self.assertIsNone(checks.size_error(9, 10, exact=False))
        self.assertIsNotNone(checks.size_error(11, 10, exact=False))


class Perturbed(unittest.TestCase):
    """Workload checks fail when one program function corrupts its output."""

    def assertCaught(self, rec: Recorder, fragment: str):
        self.assertFalse(rec.correct, "a perturbed result passed its check")
        self.assertTrue(any(fragment in e for e in rec.errors), rec.errors)

    # -- verify --------------------------------------------------------------

    def verify_pass(self, corrupt):
        cw = load_cakewalk()
        workload = Verify()
        state = workload.setup(cw, 3)
        orc = cw.oracle

        def fake_check_equiv(original):
            def fake(p1, p2, notion, grid, vals, **kwargs):
                # Answer from the closed form so no search runs.
                cutter, chooser = checks.cut_and_choose_closed_form(
                    vals[0], vals[1], grid.points)
                report = orc.EquivReport(notion, True, [], grid, {
                    "value[1]": (cutter, cutter), "value[2]": (chooser, chooser)})
                return corrupt(report)
            return fake

        rec = Recorder()
        with Patched(orc, "check_equiv", fake_check_equiv):
            workload.run_pass(cw, state, rec)
        return rec

    def test_verify_accepts_right_answers(self):
        self.assertTrue(self.verify_pass(lambda r: r).correct)

    def test_verify_verdict(self):
        def disagree(report):
            report.equivalent = False
            return report
        self.assertCaught(self.verify_pass(disagree), "not equivalent")

    def test_verify_closed_form(self):
        def shift(report):
            a, b = report.measurements["value[1]"]
            report.measurements["value[1]"] = (a + F(1, 97), b + F(1, 97))
            return report
        self.assertCaught(self.verify_pass(shift), "closed form")

    # -- convert -------------------------------------------------------------

    def convert_items(self, ops, patch=None, make=None):
        """A convert pass over the items of the given ops only."""
        cw = load_cakewalk()
        workload = Convert()
        state = workload.setup(cw, 3)
        state["items"] = [item for item in state["items"] if item[0] in ops]
        rec = Recorder()
        if patch:
            with Patched(getattr(cw, patch[0]), patch[1],
                         lambda original: make(cw, original)):
                workload.run_pass(cw, state, rec)
        else:
            workload.run_pass(cw, state, rec)
        return rec

    def test_convert_accepts_right_answers(self):
        self.assertTrue(self.convert_items(set(metrics.TRANSFORM_OPS)).correct)

    @staticmethod
    def _bad_leaf(cw, tree):
        """The same tree with its first leaf given to the other agent."""
        ir = cw.ir

        def walk(node):
            if isinstance(node, ir.BcLeaf):
                first = 2 if node.assign[0] == 1 else 1
                return ir.BcLeaf(node.nid, (first,) + node.assign[1:]), True
            for i, child in enumerate(ir.children_of(node)):
                new, done = walk(child)
                if done:
                    return ir.replace_child(node, i, new), True
            return node, False

        return type(tree)(tree.agents, walk(tree.root)[0])

    def test_convert_invalid_output(self):
        def make(cw, original):
            def broken(*args, **kwargs):
                tree, nmap, transporter = original(*args, **kwargs)
                ir = cw.ir
                root = ir.BcChoose(10 ** 6, 1, (tree.root, ir.BcLeaf(10 ** 6 + 1, (1, 2))))
                return ir.BcTree(tree.agents, root), nmap, transporter
            return broken
        rec = self.convert_items({"extended_to_bc"}, ("transform", "extended_to_bc"), make)
        self.assertCaught(rec, "invalid output")

    def test_convert_size_and_expansion(self):
        def make(cw, original):
            def bigger(dag, *args, **kwargs):
                tree, nmap, transporter = original(dag, *args, **kwargs)
                ir = cw.ir
                return (ir.BcTree(tree.agents, ir.BcChoose(10 ** 6, 1, (tree.root,))),
                        nmap, transporter)
            return bigger
        rec = self.convert_items({"dag_to_tree"}, ("transform", "dag_to_tree"), make)
        self.assertCaught(rec, "exact cost")
        self.assertCaught(rec, "expansion differs")

    def test_convert_cuts_first(self):
        def make(cw, original):
            return lambda t, *args, **kwargs: (t, None, None)
        rec = self.convert_items({"cuts_before_choices_ext"},
                                 ("transform", "cuts_before_choices_ext"), make)
        self.assertCaught(rec, "not cuts-first")

    def test_convert_intermediate_form(self):
        def make(cw, original):
            ir = cw.ir
            # A choose over a leaf and a cut: a cut below, but not only cuts.
            tree = ir.BcTree(2, ir.BcChoose(0, 1, (
                ir.BcLeaf(1, (1,)), ir.BcCut(2, 2, 1, ir.BcLeaf(3, (1, 2))))))
            return lambda t, *args, **kwargs: (tree, None)
        rec = self.convert_items({"bc_intermediate_form"},
                                 ("transform", "bc_intermediate_form"), make)
        self.assertCaught(rec, "not in intermediate form")

    def test_convert_cake_round_trip(self):
        def make(cw, original):
            def parse(text):
                p, diagnostics = original(text)
                return self._bad_leaf(cw, p), diagnostics
            return parse
        rec = self.convert_items({"gcc_to_bc"}, ("dsl", "parse"), make)
        self.assertCaught(rec, ".cake round trip differs")

    def test_convert_json_round_trip(self):
        def make(cw, original):
            return lambda obj: self._bad_leaf(cw, original(obj))
        rec = self.convert_items({"extended_to_bc"}, ("jsonio", "protocol_from_json"), make)
        self.assertCaught(rec, "JSON round trip differs")

    def test_convert_loaded_file(self):
        def make(cw, original):
            return lambda path, *args: self._bad_leaf(cw, original(path, *args))
        rec = self.convert_items({"gcc_to_bc"}, ("cli", "load_protocol"), make)
        self.assertCaught(rec, "loaded file differs")

    # -- play ----------------------------------------------------------------

    def play_pass(self, attr, corrupt):
        """One short play pass with ``engine.<attr>`` corrupted.

        ``corrupt(cw, targets, p, out)`` gets the output of the original;
        ``targets`` holds the ids of the converted protocols.
        """
        cw = load_cakewalk()
        workload = Play()
        state = workload.setup(cw, 3)
        for key in state["profiles"]:
            state["profiles"][key] = state["profiles"][key][:2]
        targets = {id(target) for _, _, _, target, _ in state["transported"]}
        rec = Recorder()

        def make(original):
            return lambda p, *args: corrupt(cw, targets, p, original(p, *args))
        with Patched(cw.engine, attr, make):
            workload.run_pass(cw, state, rec)
        return rec

    @staticmethod
    def _all_to_last(cw, allocation):
        """Every interval handed to the last agent."""
        pieces = allocation.pieces
        merged = tuple(sorted(iv for piece in pieces for iv in piece))
        return cw.valuation.Allocation(tuple(() for _ in pieces[1:]) + (merged,))

    def test_play_accepts_right_answers(self):
        self.assertTrue(self.play_pass("run", lambda cw, t, p, out: out).correct)

    def test_play_fairness(self):
        def unfair(cw, targets, p, out):
            return out[0], self._all_to_last(cw, out[1])
        rec = self.play_pass("run", unfair)
        self.assertTrue(any("envies" in e for e in rec.errors), rec.errors)
        self.assertTrue(any("< 1/" in e for e in rec.errors), rec.errors)

    def test_play_replay(self):
        rec = self.play_pass("replay", lambda cw, t, p, out: self._all_to_last(cw, out))
        self.assertCaught(rec, "replay gives another")

    def test_play_transport(self):
        def moved(cw, targets, p, out):
            return (out[0], self._all_to_last(cw, out[1])) if id(p) in targets else out
        self.assertCaught(self.play_pass("run", moved), "value matrix")

    def test_input_conversion_made_again(self):
        cw = load_cakewalk()
        workload = Play()
        state = workload.setup(cw, 3)
        for key in state["profiles"]:
            state["profiles"][key] = state["profiles"][key][:1]
        other = cw.library.gen_cut_and_choose()[0]  # not the conversion's output

        def make(original):
            return lambda p: (other,) + original(p)[1:]
        rec = Recorder()
        with Patched(cw.transform, "extended_to_bc", make):
            workload.run_pass(cw, state, rec)
        self.assertCaught(rec, "conversion differs")


class Tracing(unittest.TestCase):
    def test_layer_and_self_time(self):
        tracer = Tracer()
        import time

        def leaf():
            time.sleep(0.01)

        def inner():
            wrapped_leaf()

        wrapped_leaf = tracer.wrap("b.leaf", "b", leaf)
        wrapped_inner = tracer.wrap("a.inner", "a", inner)
        outer = tracer.wrap("a.outer", "a", lambda: wrapped_inner())
        outer()
        outer_stats, inner_stats = tracer.stats["a.outer"], tracer.stats["a.inner"]
        self.assertLess(outer_stats[SELF], 0.005)  # self time excludes children
        self.assertLess(outer_stats[LAYER], 0.005)  # layer time excludes layer b
        self.assertGreaterEqual(tracer.stats["b.leaf"][LAYER], 0.01)
        self.assertEqual(inner_stats[ENTRY_CALLS], 0)  # called from its own layer
        self.assertEqual([s[1] for s in tracer.spans], [1, 0, -1])

    def test_install_and_uninstall_restore_the_program(self):
        cw = load_cakewalk()
        before = (cw.engine.run, cw.oracle.step_cut, cw.valuation.Valuation.value)
        tracer = Tracer()
        tracer.install(cw)
        self.assertIsNot(cw.oracle.step_cut, before[1])
        tracer.uninstall()
        self.assertEqual(before, (cw.engine.run, cw.oracle.step_cut,
                                  cw.valuation.Valuation.value))

    def traced_play(self):
        cw = load_cakewalk()
        workload = Play()
        tracer = Tracer()
        tracer.install(cw)
        try:
            state = workload.setup(cw, 5)
            snapshot = tracer.snapshot()
            rec = Recorder(tracer)
            workload.run_pass(cw, state, rec)
        finally:
            tracer.uninstall()
        return metrics.per_layer(tracer, snapshot, 1, rec, state, 1.0, 1.0)

    def test_robertson_webb_counts_repeat_exactly(self):
        first, second = self.traced_play(), self.traced_play()
        names = [n for n, _ in metrics.PER_LAYER if n.startswith("valuation.rw_")]
        self.assertEqual({n: first[n] for n in names}, {n: second[n] for n in names})
        self.assertEqual(first["valuation.rw_cut.cc_bc"]["value"], 1)
        self.assertEqual(first["valuation.rw_eval.cc_bc"]["value"], 2)


class BenchmarkFile(unittest.TestCase):
    def test_names_match_the_code(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([m["name"] for m in spec["end_to_end"]],
                         [n for n, _ in metrics.END_TO_END])
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         list(metrics.PER_LAYER))
        from workloads import WORKLOADS
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(WORKLOADS))


if __name__ == "__main__":
    unittest.main()
