import random

import pytest

from cakewalk.dsl import parse, print_protocol
from cakewalk.ir import BcTree, stats, structurally_equal
from cakewalk.library import (
    gen_cut_and_choose, gen_dubins_spanier, gen_even_paz,
    gen_selfridge_conway_bc, gen_selfridge_conway_gcc,
)

from helpers import (
    random_bc_tree, random_dag, random_ext_tree, random_gcc, reconverging_dags,
)


def assert_round_trip(p):
    text = print_protocol(p)
    again, diagnostics = parse(text)
    assert again is not None, [str(d) for d in diagnostics]
    assert structurally_equal(p, again)
    assert print_protocol(again) == text
    return again


class TestRoundTrip:
    def test_trivial(self):
        p, diags = parse("(bc :agents 1 (leaf (1 -> 1)))")
        assert p is not None and not diags
        assert isinstance(p, BcTree)
        assert stats(p).nodes == 1
        assert print_protocol(p).count("\n") == 2

    def test_cut_and_choose_matches_generator(self):
        bc, _, _ = gen_cut_and_choose()
        source = """
        (bc :agents 2
          (cut :agent 1 :piece 1
            (choose :agent 2
              (leaf (1 -> 2) (2 -> 1))
              (leaf (1 -> 1) (2 -> 2)))))
        """
        parsed, diags = parse(source)
        assert parsed is not None, diags
        assert structurally_equal(parsed, bc)

    def test_generator_outputs(self):
        bc, gcc, _ = gen_cut_and_choose()
        for p in (
            bc, gcc,
            gen_selfridge_conway_bc()[0],
            gen_selfridge_conway_gcc()[0],
            gen_dubins_spanier(3, "gcc")[0],
            gen_dubins_spanier(3, "extbc")[0],
            gen_even_paz(4, "gcc")[0],
            gen_even_paz(4, "extbc")[0],
        ):
            assert_round_trip(p)

    def test_random_protocols(self):
        for seed in range(60):
            assert_round_trip(random_bc_tree(random.Random(seed), 2, 15))
            assert_round_trip(random_ext_tree(random.Random(seed), 3, 18))
            assert_round_trip(random_dag(random.Random(seed), 2, 14))
            assert_round_trip(random_gcc(random.Random(seed), 2, 5))
        for _, dag in reconverging_dags():
            assert_round_trip(dag)

    def test_print_deterministic(self):
        tree, _ = gen_selfridge_conway_bc()
        assert print_protocol(tree) == print_protocol(tree)


class TestDiagnostics:
    @pytest.mark.parametrize("source", [
        "",
        "(",
        ")",
        "(((",
        "(bc",
        "(bc :agents 2)",
        "(bc :agents two (leaf (1 -> 1)))",
        "(bc :agents 1 (leaf (2 -> 1)))",
        "(bc :agents 1 (leaf (1 -> 1)) trailing)",
        "(mystery :agents 1 (leaf (1 -> 1)))",
        "(bc :agents 1 (cut :agent 1 (leaf (1 -> 1))))",
        "(extbc :agents 1 (leaf (origin missing -> 1)))",
        "(gcc :agents 1 (if ((< origin end) (gcc-leaf))))",
        "(gcc :agents 1 (gcc-cut :agent 1 (gcc-leaf)))",
        "(bcdag :agents 1)",
        "(bc :agents 1 (choose :agent 1))",
    ])
    def test_malformed_inputs_diagnosed(self, source):
        p, diagnostics = parse(source)
        assert p is None
        assert diagnostics
        for d in diagnostics:
            assert d.span.line >= 1 and d.span.column >= 1

    def test_unbalanced_paren_span(self):
        p, diagnostics = parse("(bc :agents 1\n  (leaf (1 -> 1))")
        assert p is None
        assert len(diagnostics) == 1
        # The diagnostic points at the opening parenthesis left unclosed.
        assert diagnostics[0].span.line == 1
        assert "unclosed" in diagnostics[0].message

    def test_duplicate_label_diagnosed(self):
        source = """
        (extbc :agents 1
          (cut :agent 1 :label x :left origin :right end
            (cut :agent 1 :label x :left x :right end
              (leaf (origin end -> 1)))))
        """
        p, diagnostics = parse(source)
        assert p is None
        assert any("already defined" in d.message for d in diagnostics)

    def test_validation_errors_forwarded(self):
        # Grammatically fine, semantically invalid: leaf arity is wrong.
        source = "(bc :agents 1 (cut :agent 1 :piece 1 (leaf (1 -> 1))))"
        p, diagnostics = parse(source)
        assert p is None
        assert any("validation" in d.message for d in diagnostics)

    def test_comments_ignored(self):
        source = "; a protocol\n(bc :agents 1 ; inline\n  (leaf (1 -> 1)))"
        p, diagnostics = parse(source)
        assert p is not None and not diagnostics


class TestFuzz:
    def test_mutation_fuzz_never_crashes(self):
        base = print_protocol(gen_selfridge_conway_gcc()[0])
        rng = random.Random(99)
        for _ in range(300):
            text = list(base)
            for _ in range(rng.randint(1, 6)):
                op = rng.random()
                pos = rng.randrange(len(text))
                if op < 0.4:
                    text[pos] = rng.choice("()<>:abc123 \n")
                elif op < 0.7:
                    del text[pos]
                else:
                    text.insert(pos, rng.choice("()\"';"))
            p, diagnostics = parse("".join(text))
            if p is None:
                assert diagnostics
