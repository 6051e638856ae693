"""Command-line front end.

Subcommands: ``convert``, ``normalize``, ``run``, ``verify``, ``stats``,
``gen``, ``fmt``.  Protocols are read from ``.cake`` text or ``.json`` files
(or stdin with ``-``); every loaded protocol is validated and its node ids
canonicalized before use.  Exit codes: 0 success, 1 validation/verification
failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from fractions import Fraction

from . import dsl, jsonio, library, oracle, transform
from .engine import DecisionContext, Strategy, Trace, allocation_values, run
from .errors import CakeError, DomainError, InvalidProtocolError
from .ir import (
    BcDag, BcTree, ExtBcTree, GccMode, GccTree, Protocol, renumber, stats, validate,
)
from .valuation import envy_matrix, format_frac, frac, random_valuation

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

MODEL_NAMES = {BcTree: "bc", ExtBcTree: "extbc", GccTree: "gcc", BcDag: "dag"}


def _budget(args, default: int) -> int:
    """``--budget``, else ``CAKE_BUDGET``, else ``default``; 0 is a budget."""
    budget, source = getattr(args, "budget", None), "--budget"
    if budget is None:
        env = os.environ.get("CAKE_BUDGET")
        if not env:
            return default
        source = "CAKE_BUDGET"
        try:
            budget = int(env)
        except ValueError:
            raise DomainError(f"CAKE_BUDGET must be an integer, got {env!r}")
    if budget < 0:
        raise DomainError(f"{source} must not be negative, got {budget}")
    return budget


def _read_text(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError:
        raise DomainError(f"{path} is not UTF-8 text") from None


def _parse_json(text: str, path: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"{path} is not valid JSON: {exc}") from None


def _write_text(path, text: str):
    if path in (None, "-"):
        _write_stdout(text if text.endswith("\n") else text + "\n")
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _write_stdout(text: str):
    """Write a result to standard output in one write.

    A reader that closes the pipe after the first line (``| head -1``) then
    meets no second write of the closing newline.  Unbuffered (``python -u``,
    ``PYTHONUNBUFFERED``), the text layer drops whatever a closing pipe did
    not take, so the bytes go to the raw layer, and the rest is written
    again until it is all out or the pipe's end raises ``BrokenPipeError``.
    """
    out = sys.stdout
    raw = getattr(out, "buffer", None)
    if not isinstance(raw, io.RawIOBase):
        out.write(text)
        return
    out.flush()
    data = memoryview(text.encode(out.encoding, out.errors))
    while data:
        data = data[raw.write(data):]


def load_protocol(path: str) -> Protocol:
    """Read, validate and canonicalize a protocol file.  Each reader checks
    the file's own mode: extensive for JSON, as for ``.cake`` without ``:mode``."""
    text = _read_text(path)
    body = text.lstrip()
    if body.startswith("{"):
        p = jsonio.protocol_from_json(_parse_json(text, path))
        report = validate(p, GccMode.EXTENSIVE)
        if not report.ok:
            raise DomainError(f"protocol in {path} is invalid:\n{report}")
    else:
        p, diagnostics = dsl.parse(text)
        if p is None:
            lines = "\n".join(str(d) for d in diagnostics)
            raise DomainError(f"could not parse {path}:\n{lines}")
    p, _ = renumber(p)
    return p


def _dump_protocol(p: Protocol, fmt: str, out):
    if fmt == "cake":
        _write_text(out, dsl.print_protocol(p))
    else:
        _write_text(out, json.dumps(jsonio.protocol_to_json(p), indent=2))


def _load_vals(args, agents: int):
    if args.vals:
        vals = jsonio.valuations_from_json(_parse_json(_read_text(args.vals), args.vals))
    elif args.random_vals is not None:
        vals = [random_valuation(args.seed + i, args.random_vals) for i in range(agents)]
    else:
        raise DomainError("provide --vals FILE or --random-vals SEGMENTS")
    if len(vals) != agents:
        raise DomainError(f"protocol has {agents} agents, got {len(vals)} valuations")
    return vals


# ---------------------------------------------------------------------------
# Strategies for `run`


class _HumanAbort(Exception):
    def __init__(self, events):
        self.events = events
        super().__init__("human player ended the session")


def human_strategy(agent: int) -> Strategy:
    """Interactive decisions for one agent, with re-prompts on bad input."""

    def ask(prompt: str) -> str:
        print(prompt, end="", flush=True, file=sys.stderr)
        line = sys.stdin.readline()
        if not line:
            raise EOFError
        return line.strip()

    def index(what: str, count: int) -> int:
        while True:
            raw = ask(f"{what} 1..{count}: ")
            try:
                k = int(raw)
            except ValueError:  # only what int() reads is an index
                k = 0
            if 1 <= k <= count:
                return k - 1
            print(f"  not a legal {what}, try again", file=sys.stderr)

    def position(lo: Fraction, hi: Fraction) -> Fraction:
        while True:
            raw = ask(f"cut position in [{format_frac(lo)}, {format_frac(hi)}]"
                      f" (fraction like 1/3): ")
            try:
                z = frac(raw)
            except (ValueError, ZeroDivisionError):
                print("  not a fraction, try again", file=sys.stderr)
                continue
            if lo <= z <= hi:
                return z
            print("  outside the mandated piece, try again", file=sys.stderr)

    def play(ctx: DecisionContext):
        print(f"\n[agent {agent}] current partition:", file=sys.stderr)
        for k, (lo, hi) in enumerate(ctx.partition, start=1):
            print(f"  piece {k}: [{format_frac(lo)}, {format_frac(hi)}]"
                  f"  (~[{float(lo):.6f}, {float(hi):.6f}])", file=sys.stderr)
        try:
            if ctx.kind == "branch":
                return index("branch", ctx.branches)
            if ctx.kind == "cut":
                return position(*ctx.pieces[0])
            # gcc-choose picks a piece; gcc-cut picks one, then cuts in it
            for j, (lo, hi) in enumerate(ctx.pieces, start=1):
                print(f"  option {j}: [{format_frac(lo)}, {format_frac(hi)}]",
                      file=sys.stderr)
            j = index("piece", len(ctx.pieces))
            return j if ctx.kind == "gcc-choose" else (j, position(*ctx.pieces[j]))
        except EOFError:
            raise _HumanAbort(ctx.events)

    return play


def scripted_strategy(path: str) -> Strategy:
    """Decisions looked up by node id from a JSON file."""
    obj = _parse_json(_read_text(path), path)
    decisions = obj.get("decisions", obj) if isinstance(obj, dict) else obj
    if not isinstance(decisions, dict):
        raise DomainError(f"{path} must hold an object of decisions keyed by node id")

    def play(ctx: DecisionContext):
        key = str(ctx.node.nid)
        if key not in decisions:
            raise DomainError(f"scripted file has no decision for node {key}")
        value = decisions[key]
        try:
            if ctx.kind == "cut":
                return frac(value)
            index, z = value if ctx.kind == "gcc-cut" else (value, None)
            if type(index) is not int:  # a bool, 1.0 or "1" is no index
                raise TypeError
            return index if z is None else (index, frac(z))
        except (TypeError, ValueError, ZeroDivisionError):
            raise DomainError(
                f"scripted decision for node {key} is malformed: {value!r}") from None

    return play


def _build_strategies(args, protocol, gen_info):
    n = protocol.agents
    listing = args.strategies or "bundle"
    entries = [e.strip() for e in listing.split(",")]

    # `human:i` as the sole entry: that agent is interactive, rest use the bundle.
    if len(entries) == 1 and entries[0].startswith("human:"):
        try:
            idx = int(entries[0].split(":", 1)[1])
        except ValueError:
            idx = 0
        if not 1 <= idx <= n:
            raise DomainError(f"{entries[0]!r} does not name an agent in 1..{n}")
        entries = ["human" if i == idx else "bundle" for i in range(1, n + 1)]
    elif len(entries) == 1:
        entries = entries * n
    if len(entries) != n:
        raise DomainError(f"need one strategy per agent ({n}), got {len(entries)}")

    bundle_strategies = None

    def bundle_for_protocol():
        nonlocal bundle_strategies
        if bundle_strategies is None:
            if gen_info is None:
                raise DomainError(
                    "bundle strategies need --gen NAME (or a protocol produced"
                    " by `gen`, named via --gen)"
                )
            name, model, count = gen_info
            bundle_strategies = library.named_strategies(name, model, count, protocol)
        return bundle_strategies

    out = []
    for i, entry in enumerate(entries, start=1):
        if entry == "bundle":
            out.append(bundle_for_protocol()[i - 1])
        elif entry.startswith("scripted:"):
            out.append(scripted_strategy(entry.split(":", 1)[1]))
        elif entry == "human":
            out.append(human_strategy(i))
        else:
            raise DomainError(f"unknown strategy source {entry!r}")
    return out


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_stats(args) -> int:
    p = load_protocol(args.input)
    s = stats(p)
    if args.json:
        payload = dict(s.to_json())
        payload["model"] = MODEL_NAMES[type(p)]
        payload["agents"] = p.agents
        print(json.dumps(payload, indent=2))
    else:
        print(f"model: {MODEL_NAMES[type(p)]}  agents: {p.agents}")
        print(f"nodes: {s.nodes}  cuts: {s.cuts}  chooses: {s.chooses}"
              f"  leaves: {s.leaves}")
        print(f"depth: {s.depth}  max branching: {s.max_branching}")
    return EXIT_OK


def _cmd_gen(args) -> int:
    p, _ = library.generate(args.name, args.model, args.n or 0)
    _dump_protocol(p, args.format, args.out)
    return EXIT_OK


def _cmd_fmt(args) -> int:
    p = load_protocol(args.input)
    _write_text(args.out, dsl.print_protocol(p))
    return EXIT_OK


def _cmd_convert(args) -> int:
    p = load_protocol(args.input)
    actual = MODEL_NAMES[type(p)]
    if args.source and args.source != actual:
        print(f"input is a {actual} protocol, not {args.source}", file=sys.stderr)
        return EXIT_USAGE
    budget = _budget(args, transform.DEFAULT_SIZE_BUDGET)
    pair = (actual, args.target)
    if pair == ("dag", "bc"):
        out, _, _ = transform.dag_to_tree(p, size_budget=budget)
    elif pair == ("extbc", "bc"):
        out, _, _ = transform.extended_to_bc(p, size_budget=budget)
    elif pair == ("gcc", "bc"):
        out, _ = transform.gcc_to_bc(p, GccMode(args.mode), size_budget=budget)
    elif pair == ("bc", "gcc"):
        out = transform.bc_to_gcc(p, size_budget=budget)
    elif pair == ("bc", "extbc"):
        out = transform.embed_bc_as_ext(p)
    else:
        print(f"no conversion from {pair[0]} to {pair[1]}", file=sys.stderr)
        return EXIT_USAGE
    _dump_protocol(out, args.format, args.out)
    return EXIT_OK


def _cmd_normalize(args) -> int:
    p = load_protocol(args.input)
    budget = _budget(args, transform.DEFAULT_SIZE_BUDGET)
    if args.pass_name == "cbc-ext":
        if not isinstance(p, ExtBcTree):
            if isinstance(p, BcTree):
                p = transform.embed_bc_as_ext(p)
            else:
                print("cbc-ext applies to extbc (or bc) protocols", file=sys.stderr)
                return EXIT_USAGE
        out, _, _ = transform.cuts_before_choices_ext(p)
    elif args.pass_name == "cbc-bc":
        if not isinstance(p, BcTree):
            print("cbc-bc applies to bc protocols", file=sys.stderr)
            return EXIT_USAGE
        out, _ = transform.cuts_before_choices_bc(p, size_budget=budget)
    elif args.pass_name == "intermediate":
        if not isinstance(p, BcTree):
            print("intermediate form applies to bc protocols", file=sys.stderr)
            return EXIT_USAGE
        out, _ = transform.bc_intermediate_form(p, size_budget=budget)
    else:  # pragma: no cover - argparse restricts choices
        return EXIT_USAGE
    _dump_protocol(out, args.format, args.out)
    return EXIT_OK


def _cmd_run(args) -> int:
    gen_info = None
    if args.gen:
        gen_info = (args.gen, args.model, args.n or 0)
        p, _ = library.generate(args.gen, args.model, args.n or 0)
    elif args.input:
        p = load_protocol(args.input)
        if args.bundle_name:
            gen_info = (args.bundle_name, args.model, args.n or 0)
    else:
        print("provide a protocol file or --gen NAME", file=sys.stderr)
        return EXIT_USAGE
    vals = _load_vals(args, p.agents)
    strategies = _build_strategies(args, p, gen_info)
    try:
        trace, alloc = run(p, strategies, vals)
    except _HumanAbort as abort:
        partial = Trace(tuple(abort.events), ())
        payload = {"aborted": True, "trace": partial.to_json()}
        _write_text(args.out, json.dumps(payload, indent=2))
        print("run aborted; partial trace saved", file=sys.stderr)
        return EXIT_FAIL
    values = allocation_values(alloc, vals)
    envy = envy_matrix(alloc, vals)
    payload = {
        "trace": trace.to_json(),
        "allocation": alloc.to_json(),
        "values": [[format_frac(x) for x in row] for row in values],
        "envy": [[format_frac(x) for x in row] for row in envy],
    }
    if args.json or args.out:
        _write_text(args.out, json.dumps(payload, indent=2))
    else:
        for i in range(p.agents):
            pieces = " ".join(
                f"[{format_frac(lo)}, {format_frac(hi)}]"
                for lo, hi in alloc.pieces[i] if lo != hi
            ) or "(nothing)"
            print(f"agent {i + 1}: value {format_frac(values[i][i])}"
                  f"  pieces {pieces}")
        total = sum((x for row in envy for x in row), start=0)
        print("envy-free" if total == 0 else "envy present:")
        if total != 0:
            for i, row in enumerate(envy):
                for j, x in enumerate(row):
                    if x:
                        print(f"  envy({i + 1},{j + 1}) = {format_frac(x)}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    p1 = load_protocol(args.first)
    p2 = load_protocol(args.second)
    vals = _load_vals(args, p1.agents)
    grid = oracle.build_grid(vals, args.grid_q)
    report = oracle.check_equiv(
        p1, p2, args.notion, grid, vals,
        bound_samples=args.bound_samples,
        budget=_budget(args, oracle.DEFAULT_BUDGET), seed=args.seed,
    )
    if args.json:
        print(json.dumps(report.to_json(), indent=2))
    else:
        verdict = "equivalent" if report.equivalent else "NOT equivalent"
        print(f"{args.notion}: {verdict} (grid of {len(grid.points)} points)")
        for key, (a, b) in sorted(report.measurements.items()):
            print(f"  {key}: {a} vs {b}")
        for d in report.disagreements:
            print(f"  disagrees: agent {d.agent}: {d.detail}")
    return EXIT_OK if report.equivalent else EXIT_FAIL


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cakewalk",
        description="Cake-cutting protocol toolkit: convert, normalize, run,"
                    " and verify protocols.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p, formats=True):
        p.add_argument("--out", default=None, help="output path (default stdout)")
        if formats:
            p.add_argument("--format", choices=("json", "cake"), default="json")

    s = sub.add_parser("stats", help="node counts and shape of a protocol")
    s.add_argument("input")
    s.add_argument("--json", action="store_true")
    s.set_defaults(func=_cmd_stats)

    s = sub.add_parser("gen", help="generate a library protocol")
    s.add_argument("name", choices=library.GENERATOR_NAMES)
    s.add_argument("--model", choices=("bc", "gcc", "extbc"), default="bc")
    s.add_argument("--n", type=int, default=None, help="agent count where applicable")
    add_output(s)
    s.set_defaults(func=_cmd_gen)

    s = sub.add_parser("fmt", help="canonicalize a protocol as .cake text")
    s.add_argument("input")
    add_output(s, formats=False)
    s.set_defaults(func=_cmd_fmt)

    s = sub.add_parser("convert", help="convert between protocol forms")
    s.add_argument("input")
    s.add_argument("--from", dest="source",
                   choices=("bc", "extbc", "dag", "gcc"), default=None)
    s.add_argument("--to", dest="target", required=True,
                   choices=("bc", "extbc", "gcc"))
    s.add_argument("--mode", choices=("restricted", "extensive"),
                   default="extensive")
    s.add_argument("--budget", type=int, default=None)
    add_output(s)
    s.set_defaults(func=_cmd_convert)

    s = sub.add_parser("normalize", help="run a normalization pass")
    s.add_argument("input")
    s.add_argument("--pass", dest="pass_name", required=True,
                   choices=("cbc-ext", "cbc-bc", "intermediate"))
    s.add_argument("--budget", type=int, default=None)
    add_output(s)
    s.set_defaults(func=_cmd_normalize)

    s = sub.add_parser("run", help="execute a protocol against strategies")
    s.add_argument("input", nargs="?", default=None)
    s.add_argument("--gen", choices=library.GENERATOR_NAMES, default=None,
                   help="generate the protocol instead of reading a file")
    s.add_argument("--bundle-name", choices=library.GENERATOR_NAMES, default=None,
                   help="bind bundle strategies for a file-loaded protocol")
    s.add_argument("--model", choices=("bc", "gcc", "extbc"), default="bc")
    s.add_argument("--n", type=int, default=None)
    s.add_argument("--vals", default=None, help="valuations JSON file")
    s.add_argument("--random-vals", type=int, default=None, metavar="SEGMENTS",
                   help="random valuations with this many segments")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--strategies", default="bundle",
                   help="comma list per agent: bundle | scripted:FILE | human"
                        " (or a single human:i)")
    s.add_argument("--out", default=None)
    s.add_argument("--json", action="store_true")
    s.set_defaults(func=_cmd_run)

    s = sub.add_parser("verify", help="compare guarantees of two protocols")
    s.add_argument("first")
    s.add_argument("second")
    s.add_argument("--notion", choices=oracle.Notion.ALL, default="pairwise")
    s.add_argument("--grid-q", type=int, default=4)
    s.add_argument("--bound-samples", type=int, default=32)
    s.add_argument("--vals", default=None)
    s.add_argument("--random-vals", type=int, default=None, metavar="SEGMENTS")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--budget", type=int, default=None)
    s.add_argument("--json", action="store_true")
    s.set_defaults(func=_cmd_verify)

    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so that a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # Standard output was closed early (``| head``).  Point it at devnull
        # so that the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_FAIL
    except InvalidProtocolError as exc:
        # The report's lines carry their own error: and warning: words.
        print(exc, file=sys.stderr)
        return EXIT_FAIL
    except CakeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except RecursionError:
        # The .cake reader, printer, stats and validators keep a stack, but
        # the .cake lowerer and the JSON reader and writer recurse per level.
        print("error: input nests too deeply to process"
              f" (Python recursion limit {sys.getrecursionlimit()})", file=sys.stderr)
        return EXIT_FAIL
    except OSError as exc:  # a missing file, a directory, no permission
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
