"""Span tracing from outside the program.

``Tracer.install`` replaces the public functions of each cakewalk module
(and a few public methods) with timing wrappers, in every module namespace
that holds them, so calls made through ``from .x import f`` aliases are
seen too.  Nothing in the program's source changes; ``uninstall`` puts the
originals back.

Every call becomes a span (name, start, end, parent).  Aggregates per span
name are always kept; raw spans are kept in memory up to ``SPAN_CAP`` and
written out by ``write_spans`` when the benchmark ends.  A span's self time
is its duration minus the time its child spans cover.  A span that enters a
layer (its parent is in another module) also adds its layer time: its
duration minus the time spent in other layers below it, so nested calls
within one module count toward that module once.
"""

from __future__ import annotations

import functools
import inspect
import json
from collections import Counter
from time import perf_counter

# Stats slots per span name.
CALLS, INCL, SELF, LAYER, ENTRY_CALLS, ENTRY_INCL = range(6)

ORACLE_QUERIES = ("can_guarantee", "guarantee_value", "guarantee_pair_envy",
                  "guarantee_total_envy")
VALUATION_QUERIES = ("value", "value_of", "mark")


class CountingDict(dict):
    """A dict whose ``get`` counts lookups that found an entry.

    The oracle reads its memo and leaf cache only through ``get``; swapping
    these in after construction counts cache hits without touching its code.
    """

    __slots__ = ("hits",)

    def __init__(self, *args):
        super().__init__(*args)
        self.hits = 0

    def get(self, key, default=None):
        value = dict.get(self, key, default)
        if value is not None:
            self.hits += 1
        return value


SPAN_CAP = 50_000  # raw spans kept for the span file; aggregates cover all


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # [name, layer, sid, start, child_s, foreign_s]
        self.stats: dict[str, list] = {}
        self.active: Counter = Counter()  # open spans per name, for recursion
        self.entries: Counter = Counter()  # (op, name) -> calls entering a layer
        self.spans: list[tuple] = []
        self.next_id = 0
        self.op = "setup"
        self.oracles: dict[int, tuple[int, int, int, int, int]] = {}
        self._serial = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------------

    def enter(self, name: str, layer: str):
        sid = self.next_id
        self.next_id += 1
        self.active[name] += 1
        self.stack.append([name, layer, sid, perf_counter(), 0.0, 0.0])

    def exit(self):
        end = perf_counter()
        name, layer, sid, start, child_s, foreign_s = self.stack.pop()
        dur = end - start
        self.active[name] -= 1
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0, 0.0, 0, 0.0]
        st[CALLS] += 1
        if not self.active[name]:
            st[INCL] += dur
        st[SELF] += dur - child_s
        parent = self.stack[-1] if self.stack else None
        if parent is None or parent[1] != layer:
            st[LAYER] += dur - foreign_s
            st[ENTRY_CALLS] += 1
            st[ENTRY_INCL] += dur
            self.entries[(self.op, name)] += 1
        if parent is not None:
            parent[4] += dur
            parent[5] += dur if parent[1] != layer else foreign_s
        if sid < SPAN_CAP:
            self.spans.append((sid, parent[2] if parent else -1, name, start, end))

    def wrap(self, name: str, layer: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.enter(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit()

        return traced

    def operation(self, name: str):
        """Context for one benchmark operation: a root span in layer ``bench``."""
        return _Operation(self, name)

    # -- installing wrappers --------------------------------------------------

    def install(self, cw) -> None:
        """Wrap the public functions of every layer module in ``cw``."""
        wrapped: dict[object, object] = {}
        for layer, mod in cw.layers.items():
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__
                        or inspect.isgeneratorfunction(obj)):
                    continue
                wrapped[obj] = self.wrap(f"{layer}.{attr}", layer, obj)
        for mod in cw.all_modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(mod, attr, wrapped[obj])

        val = cw.valuation.Valuation
        for attr in VALUATION_QUERIES:
            self._patch(val, attr, self.wrap(f"valuation.{attr}", "valuation",
                                              getattr(val, attr)))
        self._install_oracle(cw.oracle.GuaranteeOracle)
        self._install_strategy_wrappers(cw)

    def _patch(self, owner, attr: str, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()

    def _install_oracle(self, cls):
        tracer = self
        init = cls.__init__

        @functools.wraps(init)
        def counted_init(oracle, *args, **kwargs):
            init(oracle, *args, **kwargs)
            oracle._memo = CountingDict(oracle._memo)
            oracle._leaf_cache = CountingDict(oracle._leaf_cache)
            tracer._serial += 1
            oracle.bench_serial = tracer._serial

        self._patch(cls, "__init__", counted_init)
        for attr in ORACLE_QUERIES:
            query = self.wrap(f"oracle.{attr}", "oracle", getattr(cls, attr))

            def snapshot(oracle, *args, _query=query, **kwargs):
                try:
                    return _query(oracle, *args, **kwargs)
                finally:
                    tracer.oracles[oracle.bench_serial] = (
                        oracle.evals, len(oracle._memo), oracle._memo.hits,
                        len(oracle._leaf_cache), oracle._leaf_cache.hits,
                    )

            self._patch(cls, attr, functools.wraps(getattr(cls, attr))(snapshot))

    def _install_strategy_wrappers(self, cw):
        """Strategies are closures, so wrap them where they are handed out."""
        tracer = self
        bundle_cls = cw.library.StrategyBundle
        strategies_for = bundle_cls.strategies_for

        def traced_strategies_for(bundle, protocol):
            return [tracer.wrap("library.strategy", "library", s)
                    for s in strategies_for(bundle, protocol)]

        self._patch(bundle_cls, "strategies_for", traced_strategies_for)
        transporter_cls = cw.transform.StrategyTransporter
        call = transporter_cls.__call__

        def traced_call(transporter, strategies):
            return [tracer.wrap("transform.transported_strategy", "transform", s)
                    for s in call(transporter, strategies)]

        self._patch(transporter_cls, "__call__", traced_call)

    # -- reading results ------------------------------------------------------

    def snapshot(self) -> tuple:
        """A copy of the aggregates, to separate set-up from the passes."""
        return ({name: list(st) for name, st in self.stats.items()},
                Counter(self.entries), self.oracle_totals(), self.next_id)

    def oracle_totals(self) -> tuple[int, int, int, int, int]:
        totals = [0, 0, 0, 0, 0]
        for row in self.oracles.values():
            for k, x in enumerate(row):
                totals[k] += x
        return tuple(totals)

    def write_spans(self, path) -> None:
        """One JSON object per line: id, parent, name, start and end in s."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"spans_kept": len(self.spans),
                                 "spans_total": self.next_id}) + "\n")
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": round(start, 9),
                                     "end": round(end, 9)}) + "\n")


class _Operation:
    __slots__ = ("tracer", "name", "outer")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.outer = self.tracer.op
        self.tracer.op = self.name
        self.tracer.enter("bench." + self.name.split(":")[0], "bench")

    def __exit__(self, *exc):
        self.tracer.exit()
        self.tracer.op = self.outer
        return False
