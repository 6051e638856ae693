"""Output checks that do not trust the program's own arithmetic.

Values are integrated here from each valuation's breakpoints and densities
rather than through ``Valuation.value``; the closed form for cut-and-choose
guarantees is computed here from the grid.  Each function returns an error
string, or ``None`` when the output is right.
"""

from __future__ import annotations

from fractions import Fraction

ZERO, ONE = Fraction(0), Fraction(1)


def measure(v, a: Fraction, b: Fraction) -> Fraction:
    """Integral of v's density over [a, b]."""
    total = ZERO
    bps, ds = v.breakpoints, v.densities
    for k, d in enumerate(ds):
        lo, hi = max(bps[k], a), min(bps[k + 1], b)
        if lo < hi:
            total += d * (hi - lo)
    return total


def piece_value(v, intervals) -> Fraction:
    return sum((measure(v, lo, hi) for lo, hi in intervals), ZERO)


def value_matrix(pieces, vals) -> tuple:
    """Entry (i, j): agent i's value for agent j's piece."""
    return tuple(tuple(piece_value(v, piece) for piece in pieces) for v in vals)


def partition_error(pieces):
    spans = sorted((lo, hi) for piece in pieces for lo, hi in piece if lo < hi)
    cursor = ZERO
    for lo, hi in spans:
        if lo != cursor:
            return f"pieces {'overlap' if lo < cursor else 'leave a gap'} at {lo}"
        cursor = hi
    return None if cursor == ONE else f"cake after {cursor} is not allocated"


def proportional_error(pieces, vals):
    n = len(vals)
    for i, v in enumerate(vals):
        own = piece_value(v, pieces[i])
        if own < Fraction(1, n):
            return f"agent {i + 1} gets {own} < 1/{n}"
    return partition_error(pieces)


def envy_free_error(pieces, vals):
    matrix = value_matrix(pieces, vals)
    for i, row in enumerate(matrix):
        for j, x in enumerate(row):
            if x > row[i]:
                return f"agent {i + 1} envies agent {j + 1}: {x} > {row[i]}"
    return partition_error(pieces)


def same_matrix_error(got, want):
    return None if got == want else f"value matrix {got} != {want}"


def cut_and_choose_closed_form(v_cutter, v_chooser, grid_points):
    """Grid guarantees of cut-and-choose: (cutter, chooser).

    The cutter gets max over z of min(V1[0,z], V1[z,1]); the chooser gets
    min over z of max(V2[0,z], V2[z,1]).
    """
    cutter = max(min(measure(v_cutter, ZERO, z), measure(v_cutter, z, ONE))
                 for z in grid_points)
    chooser = min(max(measure(v_chooser, ZERO, z), measure(v_chooser, z, ONE))
                  for z in grid_points)
    return cutter, chooser


def closed_form_error(measurements, v_cutter, v_chooser, grid_points):
    want = cut_and_choose_closed_form(v_cutter, v_chooser, grid_points)
    for agent, expected in enumerate(want, start=1):
        got = measurements[f"value[{agent}]"]
        if got != (expected, expected):
            return f"value[{agent}] is {got}, closed form gives {expected}"
    return None


def verdict_error(report):
    if report.equivalent:
        return None
    return "not equivalent: " + "; ".join(d.detail for d in report.disagreements)


def size_error(nodes: int, cost: int, exact: bool):
    if exact and nodes != cost:
        return f"{nodes} nodes, but the exact cost is {cost}"
    if nodes > cost:
        return f"{nodes} nodes exceed the bound {cost}"
    return None
