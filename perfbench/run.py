"""Benchmark for cakewalk.

    python3 perfbench/run.py --workload {verify,convert,play} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout: the program is imported from ``src/`` of
that checkout and nowhere else.  Set-up (import, library generation, seeded
inputs, input conversions) runs ``SETUP_REPEATS`` times and its median is
``setup_s``.  Then whole passes of the workload's fixed work run until
``--seconds`` have passed.  With ``--trace 0`` the last line of standard
output is the JSON result with the end-to-end metrics.  With ``--trace 1``
untraced passes run for half of ``--seconds``, then a traced set-up and
traced passes for the other half, and the result carries the per-layer
metrics; the tracing overhead is the difference of the two mean pass times.
Raw results and span files go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from metrics import end_to_end, per_layer  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Recorder  # noqa: E402

LAYERS = ("valuation", "ir", "engine", "library", "transform", "oracle", "dsl",
          "jsonio", "cli")
SETUP_REPEATS = 5


def load_cakewalk() -> SimpleNamespace:
    """Import cakewalk afresh from this checkout's ``src``."""
    for name in [m for m in sys.modules if m == "cakewalk" or m.startswith("cakewalk.")]:
        del sys.modules[name]
    pkg = importlib.import_module("cakewalk")
    layers = {name: importlib.import_module(f"cakewalk.{name}") for name in LAYERS}
    errors = importlib.import_module("cakewalk.errors")
    return SimpleNamespace(pkg=pkg, layers=layers,
                           all_modules=[pkg, errors, *layers.values()], **layers)


def set_up(workload, seed: int):
    """Repeated set-up; returns the last (program, state) and the median time."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        cw = load_cakewalk()
        state = workload.setup(cw, seed)
        times.append(perf_counter() - start)
    return cw, state, statistics.median(times)


def run_passes(workload, cw, state, rec: Recorder, seconds: float) -> list[float]:
    """Whole passes until ``seconds`` have passed; returns each pass's time."""
    walls = []
    deadline = perf_counter() + seconds
    while True:
        start = perf_counter()
        workload.run_pass(cw, state, rec)
        walls.append(perf_counter() - start)
        if perf_counter() >= deadline:
            return walls


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cakewalk" / "__init__.py").is_file():
        print(f"no cakewalk sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)

    cw, state, setup_s = set_up(workload, args.seed)
    rec = Recorder()
    if not args.trace:
        walls = run_passes(workload, cw, state, rec, args.seconds)
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = end_to_end(setup_s, walls, rec, peak_rss_mib)
        extra = {"passes": len(walls), "pass_s": walls,
                 "latency_samples": len(rec.latency_ms)}
    else:
        untraced = run_passes(workload, cw, state, rec, args.seconds / 2)
        tracer = Tracer()
        tracer.install(cw)
        try:
            traced_setup = workload.setup(cw, args.seed)
            snapshot = tracer.snapshot()
            traced_rec = Recorder(tracer)
            walls = run_passes(workload, cw, traced_setup, traced_rec,
                               args.seconds / 2)
        finally:
            tracer.uninstall()
        metrics = per_layer(tracer, snapshot, len(walls), traced_rec, traced_setup,
                            statistics.fmean(untraced), statistics.fmean(walls))
        tracer.write_spans(out_dir / f"trace-{args.workload}-{args.seed}.jsonl")
        rec.attempted += traced_rec.attempted
        rec.failed += traced_rec.failed
        rec.errors += traced_rec.errors
        extra = {"passes": len(walls), "pass_s": walls, "untraced_pass_s": untraced,
                 "spans": tracer.next_id}

    result = {"correct": rec.correct, "attempted": rec.attempted,
              "failed": rec.failed, "metrics": metrics}
    detail = dict(result, workload=args.workload, seed=args.seed,
                  trace=args.trace, errors=rec.errors[:100], **extra)
    (out_dir / f"{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1), encoding="utf-8")
    for error in rec.errors[:20]:
        print("check failed:", error, file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} passes={len(walls)}"
          f" latency_samples={len(rec.latency_ms) or 'n/a'}"
          f" attempted={rec.attempted} failed={rec.failed}")
    print(json.dumps(result))
    return 0 if rec.correct else 1


if __name__ == "__main__":
    sys.exit(main())
