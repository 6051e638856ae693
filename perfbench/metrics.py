"""Metric names, units and how each is computed from a run.

End-to-end metrics come from untraced passes.  Per-layer metrics come from
the traced run and describe one traced set-up plus one traced pass (pass
figures are averaged over the traced passes); every per-layer metric is
reported on every workload, as 0 where the workload does not reach that
layer.  README.md maps each per-layer metric to the end-to-end metric and
workload it should move.
"""

from __future__ import annotations

import statistics

from tracer import CALLS, ENTRY_CALLS, ENTRY_INCL, INCL, LAYER

END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mib", "MiB"),
    ("run_ms_p50", "ms"), ("run_ms_p99", "ms"), ("nodes_per_s", "nodes/s"),
)

PLAY_PROTOCOLS = ("cc_bc", "cc_gcc", "sc_bc", "sc_gcc", "ds3_gcc", "ds3_extbc",
                  "ds4_gcc", "ds4_extbc", "ep4_gcc", "ep4_extbc")
NOTIONS = ("value", "total", "pairwise", "strong")
TRANSFORM_OPS = ("extended_to_bc", "gcc_to_bc", "bc_to_gcc", "dag_to_tree",
                 "cuts_before_choices_ext", "cuts_before_choices_bc",
                 "bc_intermediate_form")
STEP_FAMILY = ("engine.step_cut", "engine.step_choose", "engine.step_ifelse",
               "engine.cut_intervals", "engine.leaf_allocation")
VALIDATORS = ("ir.validate_bc", "ir.validate_dag", "ir.validate_ext",
              "ir.validate_gcc")

PER_LAYER = (
    [("valuation.value_calls", "count"), ("valuation.value_us", "us"),
     ("valuation.mark_calls", "count"), ("valuation.mark_us", "us"),
     ("valuation.busy_s", "s"), ("valuation.rw_eval_per_run", "count"),
     ("valuation.rw_cut_per_run", "count")]
    + [(f"valuation.rw_{kind}.{p}", "count") for p in PLAY_PROTOCOLS
       for kind in ("eval", "cut")]
    + [("engine.run_ms", "ms"), ("engine.replay_ms", "ms"),
       ("engine.decisions_per_run", "count"), ("engine.step_calls", "count"),
       ("engine.step_s", "s"),
       ("library.strategy_calls", "count"), ("library.strategy_s", "s"),
       ("oracle.evals", "count"), ("oracle.evals_per_s", "1/s"),
       ("oracle.self_s", "s"), ("oracle.memo_entries", "count"),
       ("oracle.memo_hits", "count"), ("oracle.leaf_cache_entries", "count"),
       ("oracle.leaf_cache_hits", "count"), ("oracle.grid_points", "count"),
       ("oracle.build_grid_s", "s")]
    + [(f"oracle.query_s.{n}", "s") for n in NOTIONS]
    + [(f"transform.{op}.{what}", unit) for op in TRANSFORM_OPS
       for what, unit in (("s", "s"), ("out_nodes", "count"))]
    + [("transform.transport_ms", "ms"),
       ("ir.validate_s", "s"), ("ir.renumber_s", "s"), ("ir.stats_s", "s"),
       ("ir.structurally_equal_s", "s"),
       ("dsl.print_s", "s"), ("dsl.parse_s", "s"), ("dsl.parse_mb_per_s", "MB/s"),
       ("dsl.bytes", "count"),
       ("jsonio.to_json_s", "s"), ("jsonio.from_json_s", "s"),
       ("jsonio.from_json_mb_per_s", "MB/s"), ("jsonio.bytes", "count"),
       ("cli.load_protocol_s", "s"),
       ("trace.overhead_s", "s"), ("trace.traced_wall_s", "s"),
       ("trace.untraced_wall_s", "s"), ("trace.spans_per_pass", "count")]
)


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def _pack(values: dict, table) -> dict:
    units = dict(table)
    return {name: {"value": values[name], "unit": units[name]} for name, _ in table}


def end_to_end(setup_s: float, walls: list, rec, peak_rss_mib: float) -> dict:
    """``nodes_per_s`` pools the conversions of every pass: the workload's
    own on ``convert``, the input conversions made again elsewhere."""
    nodes, seconds = rec.counts["out_nodes"], rec.counts["conversion_s"]
    cuts = statistics.quantiles(rec.latency_ms, n=100, method="inclusive")
    values = {
        "setup_s": setup_s,
        "wall_s": statistics.fmean(walls),
        "peak_rss_mib": peak_rss_mib,
        "run_ms_p50": statistics.median(rec.latency_ms),
        "run_ms_p99": cuts[98],
        "nodes_per_s": _ratio(nodes, seconds),
    }
    return _pack(values, END_TO_END)


class _View:
    """Tracer aggregates as one set-up plus the mean of the traced passes."""

    def __init__(self, tracer, snapshot, passes: int):
        stats0, entries0, oracles0, spans0 = snapshot
        blank = [0] * 6
        self.stats = {
            name: [a + (b - a) / passes for a, b in zip(stats0.get(name, blank), st)]
            for name, st in tracer.stats.items()
        }
        self.entries = {key: entries0.get(key, 0) + (n - entries0.get(key, 0)) / passes
                        for key, n in tracer.entries.items()}
        self.oracles = [a + (b - a) / passes
                        for a, b in zip(oracles0, tracer.oracle_totals())]
        self.spans_per_pass = (tracer.next_id - spans0) / passes

    def get(self, name: str, slot: int) -> float:
        st = self.stats.get(name)
        return st[slot] if st else 0

    def total(self, names, slot: int) -> float:
        return sum(self.get(name, slot) for name in names)

    def layer(self, layer: str) -> float:
        return sum(st[LAYER] for name, st in self.stats.items()
                   if name.startswith(layer + "."))

    def entered(self, op: str, name: str) -> float:
        return sum(n for (o, nm), n in self.entries.items()
                   if nm == name and (o == op or o.startswith(op + ":")))


def per_layer(tracer, snapshot, passes: int, rec, setup_state: dict,
              untraced_wall: float, traced_wall: float) -> dict:
    v = _View(tracer, snapshot, passes)
    counts = {k: n / passes for k, n in rec.counts.items()}
    op_s = {k: s / passes for k, s in rec.op_s.items()}
    runs = counts.get("runs", 0)
    out = {}

    calls = v.get("valuation.value", CALLS)
    marks = v.get("valuation.mark", CALLS)
    out.update({
        "valuation.value_calls": calls,
        "valuation.value_us": 1e6 * _ratio(v.get("valuation.value", INCL), calls),
        "valuation.mark_calls": marks,
        "valuation.mark_us": 1e6 * _ratio(v.get("valuation.mark", INCL), marks),
        "valuation.busy_s": v.layer("valuation"),
        "valuation.rw_eval_per_run": _ratio(v.entered("run", "valuation.value"), runs),
        "valuation.rw_cut_per_run": _ratio(v.entered("run", "valuation.mark"), runs),
    })
    for p in PLAY_PROTOCOLS:
        n = counts.get(f"runs.{p}", 0)
        out[f"valuation.rw_eval.{p}"] = _ratio(v.entered(f"run:{p}", "valuation.value"), n)
        out[f"valuation.rw_cut.{p}"] = _ratio(v.entered(f"run:{p}", "valuation.mark"), n)

    out.update({
        "engine.run_ms": 1e3 * _ratio(v.get("engine.run", LAYER),
                                      v.get("engine.run", CALLS)),
        "engine.replay_ms": 1e3 * _ratio(v.get("engine.replay", INCL),
                                         v.get("engine.replay", CALLS)),
        "engine.decisions_per_run": _ratio(counts.get("decisions", 0), runs),
        "engine.step_calls": v.total(STEP_FAMILY, ENTRY_CALLS),
        "engine.step_s": v.total(STEP_FAMILY, ENTRY_INCL),
        "library.strategy_calls": v.get("library.strategy", CALLS),
        "library.strategy_s": v.get("library.strategy", LAYER),
    })

    evals, memo, memo_hits, leaves, leaf_hits = v.oracles
    query_s = sum(st[ENTRY_INCL] for name, st in v.stats.items()
                  if name.startswith("oracle.") and name != "oracle.build_grid")
    out.update({
        "oracle.evals": evals,
        "oracle.evals_per_s": _ratio(evals, query_s),
        "oracle.self_s": v.layer("oracle"),
        "oracle.memo_entries": memo,
        "oracle.memo_hits": memo_hits,
        "oracle.leaf_cache_entries": leaves,
        "oracle.leaf_cache_hits": leaf_hits,
        "oracle.grid_points": setup_state.get("grid_points", 0),
        "oracle.build_grid_s": v.get("oracle.build_grid", INCL),
    })
    for notion in NOTIONS:
        out[f"oracle.query_s.{notion}"] = sum(
            s for name, s in op_s.items()
            if name.startswith("check:") and name.endswith(":" + notion))

    setup_nodes = {}
    for op, _, _, n in setup_state.get("conversions", []):
        setup_nodes[op] = setup_nodes.get(op, 0) + n
    for op in TRANSFORM_OPS:
        out[f"transform.{op}.s"] = v.get(f"transform.{op}", ENTRY_INCL)
        out[f"transform.{op}.out_nodes"] = (counts.get(f"out_nodes.{op}", 0)
                                            + setup_nodes.get(op, 0))
    transport_s = sum(s for name, s in op_s.items() if name.startswith("transport:"))
    out["transform.transport_ms"] = 1e3 * _ratio(transport_s,
                                                 counts.get("transports", 0))

    parse_s = v.get("dsl.parse", INCL)
    from_json_s = v.get("jsonio.protocol_from_json", INCL)
    dsl_bytes, json_bytes = counts.get("dsl.bytes", 0), counts.get("jsonio.bytes", 0)
    out.update({
        "ir.validate_s": v.total(VALIDATORS, INCL),
        "ir.renumber_s": v.get("ir.renumber", INCL),
        "ir.stats_s": v.get("ir.stats", INCL),
        "ir.structurally_equal_s": v.get("ir.structurally_equal", INCL),
        "dsl.print_s": v.get("dsl.print_protocol", INCL),
        "dsl.parse_s": parse_s,
        "dsl.parse_mb_per_s": _ratio(dsl_bytes / 1e6, parse_s),
        "dsl.bytes": dsl_bytes,
        "jsonio.to_json_s": v.get("jsonio.protocol_to_json", INCL),
        "jsonio.from_json_s": from_json_s,
        "jsonio.from_json_mb_per_s": _ratio(json_bytes / 1e6, from_json_s),
        "jsonio.bytes": json_bytes,
        "cli.load_protocol_s": v.get("cli.load_protocol", INCL),
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.traced_wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.spans_per_pass": v.spans_per_pass,
    })
    return _pack(out, PER_LAYER)
