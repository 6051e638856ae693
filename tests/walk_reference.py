"""The oracle's walk as it was before it scored BC and DAG leaves from part
values per sorted cut order, kept as a second reference beside
``test_oracle_reference.FractionOracle``.

``NodeWalkOracle`` is a ``GuaranteeOracle`` whose ``_solve`` is that walk:
it plays the oracle's moves (``_moves`` is inherited) on the same grid
indices with the same memo points and keys, but builds every leaf's pieces
through ``engine._leaf_pieces`` and fills a dict of cross-values keyed by
``_cell``.  Its queries are the oracle's own (the public methods call
``_solve``), so the two must agree on every result, every evaluation count,
every memo entry and every error (``tests/test_walk_reference.py``).
"""

from __future__ import annotations

from time import perf_counter
from typing import Sequence

from cakewalk.engine import _branch, _leaf_pieces
from cakewalk.errors import DomainError, ExecutionError
from cakewalk.ir import BcLeaf, GccIfElse
from cakewalk.oracle import _LEAVES, GuaranteeOracle
from cakewalk.valuation import check_allocation


class NodeWalkOracle(GuaranteeOracle):
    """The reference: every leaf's pieces built by the engine's rule."""

    def _solve(self, label: str, queries: Sequence[tuple], yes_no=False) -> tuple:
        """``GuaranteeOracle._solve`` with every leaf through
        ``engine._leaf_pieces``: the same queries, the same max/min, the same
        memo, a cross-value dict per leaf."""
        n, last = self.protocol.agents, self._last
        plan = [(k, self._prefix[k // n], k % n)
                for k in sorted({k for _, _, cells, _ in queries for k in cells})]
        scores = [score for _, _, _, score in queries]
        # each query's max or min per acting agent, 0 for one no query is about
        sides = {a: tuple(max if (a == agent) == up else min
                          for agent, up, _, _ in queries) for a in range(n + 1)}
        memo, memo_at = self._memo, self._memo_at
        memo.clear()  # a walk keeps no entry from the walk before
        self._query, self._started = label, perf_counter()

        def rec(node, cuts, picks, allocated, order):
            self.evals += 1
            if self.evals > self.budget:
                self._over_budget()
            if isinstance(node, _LEAVES):
                pieces = _leaf_pieces(node, n, cuts, order, allocated, 0, last)
                if not isinstance(node, BcLeaf):
                    try:
                        check_allocation(pieces, last, self.grid.points.__getitem__)
                    except DomainError as exc:
                        raise ExecutionError(f"allocation invalid at leaf: {exc}",
                                             node=node.nid)
                cross = {k: sum([row[b] - row[a] for a, b in pieces[j]])
                         for k, row, j in plan}
                return tuple([score(cross) for score in scores])
            if isinstance(node, GccIfElse):
                return rec(_branch(node, cuts, picks, 0, last),
                           cuts, picks, allocated, order)
            key = None
            if memo_at and (live := memo_at.get(id(node))) is not None:
                # keyed by object: a code-built tree may reuse a node id
                live_cuts, live_picks = live
                key = (id(node), tuple([c for c in cuts if c[0] in live_cuts]),
                       tuple([pk for pk in picks if pk[0] in live_picks]), allocated)
                hit = memo.get(key)
                if hit is not None:
                    return hit
            nexts = self._moves(node, cuts, picks, allocated, order)
            if not nexts:  # without a move no result could be taken
                raise ExecutionError("decision node offers no move", node=node.nid)
            ops = sides.get(node.agent, sides[0])
            if yes_no:  # a side stops at its own extreme: max at True, min at False
                stop = ops[0] is max
                result = (not stop,)
                for nxt in nexts:
                    if rec(*nxt)[0] is stop:
                        result = (stop,)
                        break
            else:
                outcomes = [rec(*nxt) for nxt in nexts]
                result = tuple([op(column) for op, column in zip(ops, zip(*outcomes))])
            if key is not None:
                memo[key] = result
            return result

        return rec(self._root, (), (), (), ())
