import random
import re
from fractions import Fraction as F

import pytest

from cakewalk.engine import (
    BranchChosen, CutMade, Trace, allocation_values, partition_of, replay, run,
)
from cakewalk.errors import DomainError, ExecutionError, TraceMismatchError
from cakewalk.ir import (
    BcChoose, BcCut, BcLeaf, BcTree, ExtBcTree, ExtCut, ExtLeaf, ExtSegment,
    END, ORIGIN, at,
)
from cakewalk.library import gen_cut_and_choose, gen_selfridge_conway_bc
from cakewalk.transform import dag_to_tree, retarget_trace
from cakewalk.valuation import envy_matrix, random_valuation, uniform

from helpers import (
    rand_profile, random_bc_tree, random_dag, random_gcc, reconverging_dags,
)


def const_cut(z):
    return lambda ctx: F(z)


def const_branch(i):
    return lambda ctx: i


class TestRun:
    def test_trivial_leaf(self):
        p = BcTree(1, BcLeaf(0, (1,)))
        trace, alloc = run(p, [const_branch(0)], [uniform()])
        assert alloc.pieces == (((F(0), F(1)),),)
        assert trace.events == ()

    def test_cut_and_choose_halves(self):
        bc, _, bundle = gen_cut_and_choose()
        vals = [random_valuation(3, 4), random_valuation(4, 3)]
        _, alloc = run(bc, bundle.strategies_for(bc), vals)
        values = allocation_values(alloc, vals)
        assert values[0][0] >= F(1, 2)
        assert values[1][1] >= F(1, 2)

    def test_selfridge_conway_uniform_thirds(self):
        tree, bundle = gen_selfridge_conway_bc()
        vals = [uniform()] * 3
        _, alloc = run(tree, bundle.strategies_for(tree), vals)
        values = allocation_values(alloc, vals)
        assert all(values[i][i] == F(1, 3) for i in range(3))
        assert all(x == 0 for row in envy_matrix(alloc, vals) for x in row)

    def test_determinism(self):
        tree, bundle = gen_selfridge_conway_bc()
        vals = [random_valuation(k, 3) for k in range(3)]
        first = run(tree, bundle.strategies_for(tree), vals)
        second = run(tree, bundle.strategies_for(tree), vals)
        assert first == second

    def test_out_of_interval_cut_rejected(self):
        p = BcTree(1, BcCut(0, 1, 1, BcLeaf(1, (1, 1))))
        with pytest.raises(ExecutionError) as err:
            run(p, [const_cut(F(3, 2))], [uniform()])
        assert err.value.node == 0 and err.value.agent == 1

    @pytest.mark.parametrize("piece", [0, 3, -1])
    def test_bc_cut_in_a_missing_piece_rejected(self, piece):
        # Before any cut the partition has one piece; piece 0 must not wrap
        # round to the last piece.
        p = BcTree(2, BcCut(0, 1, piece, BcLeaf(1, (1, 2))))
        with pytest.raises(ExecutionError, match=(
                rf"cut piece {piece} out of range 1\.\.1 \(node 0, agent 1\)")):
            run(p, [const_cut(F(1, 2))] * 2, [uniform(), uniform()])

    @pytest.mark.parametrize("agent", [0, -1, 3])
    def test_leaf_agent_outside_the_range_rejected(self, agent):
        # Agent 0 must not get the last agent's share, nor 3 an IndexError.
        for p in (BcTree(2, BcLeaf(0, (agent,))),
                  ExtBcTree(2, ExtLeaf(0, (ExtSegment(ORIGIN, END, agent),)))):
            with pytest.raises(ExecutionError, match=(
                    rf"leaf gives a piece to agent {agent}, outside 1\.\.2 \(node 0\)")):
                run(p, [const_cut(F(1, 2))] * 2, [uniform(), uniform()])

    def test_bad_branch_index_rejected(self):
        p = BcTree(1, BcChoose(0, 1, (BcLeaf(1, (1,)),)))
        with pytest.raises(ExecutionError):
            run(p, [const_branch(5)], [uniform()])

    @pytest.mark.parametrize("index", [True, False, 1.0, "1"])
    def test_non_integer_branch_rejected(self, index):
        # A bool is an int to isinstance, but no index: Trace.from_json
        # refuses "index": true, so run refuses it too.
        p = BcTree(1, BcChoose(0, 1, (BcLeaf(1, (1,)), BcLeaf(2, (1,)))))
        with pytest.raises(ExecutionError, match="branch strategy must return an int"):
            run(p, [const_branch(index)], [uniform()])

    @pytest.mark.parametrize("index", [True, 0.0, "0"])
    def test_non_integer_gcc_piece_rejected(self, index):
        _, gcc, _ = gen_cut_and_choose()
        vals = [uniform(), uniform()]
        with pytest.raises(ExecutionError, match="gcc-cut strategy must return"):
            run(gcc, [lambda ctx: (index, F(1, 2)), const_branch(0)], vals)
        with pytest.raises(ExecutionError, match="piece strategy must return an int"):
            run(gcc, [lambda ctx: (0, F(1, 2)), const_branch(index)], vals)

    def test_agent_count_mismatch(self):
        p = BcTree(2, BcLeaf(0, (1,)))
        with pytest.raises(DomainError):
            run(p, [const_branch(0)], [uniform()])

    def test_empty_piece_bookkeeping(self):
        # Two coincident cuts: the partition keeps the empty middle piece.
        p = BcTree(1, BcCut(0, 1, 1, BcCut(1, 1, 1, BcLeaf(2, (1, 1, 1)))))
        trace, alloc = run(p, [const_cut(F(1, 2))], [uniform()])
        parts = partition_of([(0, F(1, 2)), (1, F(1, 2))])
        assert parts == ((F(0), F(1, 2)), (F(1, 2), F(1, 2)), (F(1, 2), F(1)))
        assert len(trace.cuts) == 2

    def test_coincident_cut_tiebreak(self):
        # The earlier cut stays to the left of a later equal cut.
        parts = partition_of([(7, F(1, 3)), (8, F(1, 3))])
        assert parts[0] == (F(0), F(1, 3))
        assert parts[1] == (F(1, 3), F(1, 3))

    def test_ext_leaf_spanning_allocation(self):
        tree = ExtBcTree(2, ExtCut(0, 1, ORIGIN, END,
                                   ExtCut(1, 2, at(0), END, ExtLeaf(2, (
                                       ExtSegment(ORIGIN, at(0), 1),
                                       ExtSegment(at(0), END, 2),
                                   )))))
        strategies = [const_cut(F(1, 4)), lambda ctx: F(1, 2)]
        _, alloc = run(tree, strategies, [uniform(), uniform()])
        assert alloc.pieces[0] == ((F(0), F(1, 4)),)
        assert alloc.pieces[1] == ((F(1, 4), F(1)),)

    def test_gcc_runs_allocate_fully(self):
        for seed in range(15):
            p = random_gcc(random.Random(seed), agents=2, max_steps=6)
            strategies = rand_profile(seed, 2)
            vals = [random_valuation(seed, 2), random_valuation(seed + 1, 3)]
            _, alloc = run(p, strategies, vals)
            values = allocation_values(alloc, vals)
            assert all(sum(row, F(0)) == 1 for row in values)


class TestAllocationValues:
    def test_all_to_one(self):
        from cakewalk.valuation import Allocation
        alloc = Allocation((((F(0), F(1)),), ((F(1), F(1)),)))
        values = allocation_values(alloc, [uniform(), uniform()])
        assert values == ((F(1), F(0)), (F(1), F(0)))

    def test_row_sums_exactly_one(self):
        for seed in range(10):
            p = random_bc_tree(random.Random(seed), 2, 16)
            vals = [random_valuation(seed + k, 2 + k) for k in range(2)]
            _, alloc = run(p, rand_profile(seed, 2), vals)
            for row in allocation_values(alloc, vals):
                assert sum(row, F(0)) == 1


class TestReplay:
    def test_replay_identity(self):
        for seed in range(10):
            p = random_bc_tree(random.Random(seed), 2, 16)
            vals = [uniform(), uniform()]
            trace, alloc = run(p, rand_profile(seed, 2), vals)
            assert replay(p, trace).pieces == alloc.pieces

    def test_replay_gcc(self):
        for seed in range(8):
            p = random_gcc(random.Random(seed), 2, 5)
            vals = [uniform(), uniform()]
            trace, alloc = run(p, rand_profile(seed, 2), vals)
            assert replay(p, trace).pieces == alloc.pieces

    def test_truncated_trace_rejected(self):
        bc, _, bundle = gen_cut_and_choose()
        trace, _ = run(bc, bundle.strategies_for(bc), [uniform(), uniform()])
        short = Trace(trace.events[:-1], ())
        with pytest.raises(TraceMismatchError):
            replay(bc, short)

    def test_wrong_node_rejected(self):
        bc, _, bundle = gen_cut_and_choose()
        trace, _ = run(bc, bundle.strategies_for(bc), [uniform(), uniform()])
        wrong = Trace((CutMade(99, 1, F(1, 2)),) + trace.events[1:], trace.cuts)
        with pytest.raises(TraceMismatchError):
            replay(bc, wrong)

    def test_trace_transported_through_dag_map(self):
        dags = [(seed, random_dag(random.Random(seed), 2, 14)) for seed in range(8)]
        for seed, dag in dags + list(reconverging_dags()):
            tree, nmap, _ = dag_to_tree(dag)
            vals = [uniform(), uniform()]
            trace, alloc = run(dag, rand_profile(seed, 2), vals)
            back = {new: old for old, targets in nmap.forward.items()
                    for new in targets}
            moved = retarget_trace(tree, trace, back)
            assert replay(tree, moved).pieces == alloc.pieces

    def test_trace_json_round_trip(self):
        bc, _, bundle = gen_cut_and_choose()
        trace, _ = run(bc, bundle.strategies_for(bc), [uniform(), uniform()])
        again = Trace.from_json(trace.to_json())
        assert again == trace

    @pytest.mark.parametrize("obj, message", [
        ({"events": [{"type": "cut", "agent": 1, "position": "1/2"}]},
         "trace event 0 (cut) has no 'node'"),
        ({"events": [{"type": "branch", "node": 0, "agent": 1, "index": 0},
                     {"type": "cut", "node": 1, "agent": 1}]},
         "trace event 1 (cut) has no 'position'"),
        ({"events": 5}, "trace 'events' must be a list, not int"),
        ([{"type": "cut"}], "a trace must be a JSON object, not list"),
        ({"events": [{"type": "cut", "node": 0, "agent": 1, "position": "x"}]},
         "trace event 0 (cut) has position 'x', not a rational"),
        ({"events": [{"type": "branch", "node": 0, "agent": 1, "index": 0},
                     {"type": "cut", "node": 1, "agent": 1, "position": "1/0"}]},
         "trace event 1 (cut) has position '1/0', not a rational"),
        ({"events": [], "cuts": ["1/2", "x"]},
         "trace cuts entry 1 is 'x', not a rational"),
        ({"events": [{"type": "cut", "node": 0, "agent": 1, "position": "1e-1000000"}]},
         "trace event 0 (cut) has position '1e-1000000', not a rational"),
        ({"events": [], "cuts": ["1e-1000000"]},
         "trace cuts entry 0 is '1e-1000000', not a rational"),
        ({"events": [], "cuts": ["1/0"]},
         "trace cuts entry 0 is '1/0', not a rational"),
        ({"events": [{"type": "cut", "node": 0, "agent": 1, "position": "1/2",
                      "piece": "x"}]},
         "trace event 0 (cut) has piece 'x', not an integer"),
        ({"events": [{"type": "branch", "node": 0, "agent": 1, "index": "0"}]},
         "trace event 0 (branch) has index '0', not an integer"),
        ({"events": [{"type": "branch", "node": 0, "agent": 1, "index": True}]},
         "trace event 0 (branch) has index True, not an integer"),
        ({"events": [{"type": "piece", "node": "0", "agent": 1, "index": 0}]},
         "trace event 0 (piece) has node '0', not an integer"),
        ({"events": [{"type": "cut", "node": 0, "agent": 1.0, "position": "1/2"}]},
         "trace event 0 (cut) has agent 1.0, not an integer"),
        ({"events": [{"type": "branch", "node": 0, "agent": 1, "index": None}]},
         "trace event 0 (branch) has index None, not an integer"),
    ], ids=["no-node", "no-position", "events-int", "list", "letter-position",
            "zero-denominator-position", "letter-cut", "exponent-position",
            "exponent-cut", "zero-denominator-cut",
            "letter-piece", "string-index", "bool-index", "string-node", "float-agent",
            "null-index"])
    def test_malformed_trace_json_is_a_domain_error(self, obj, message):
        with pytest.raises(DomainError, match=re.escape(message)):
            Trace.from_json(obj)
