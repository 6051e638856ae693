import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cakewalk.errors import DomainError
from cakewalk.valuation import (
    Allocation, Valuation, envy_matrix, frac, random_valuation, uniform,
)


def two_block():
    # density 2 on [0, 1/2], 0 on [1/2, 1]
    return Valuation((F(0), F(1, 2), F(1)), (F(2), F(0)))


def riemann(v: Valuation, a: F, b: F) -> F:
    """Independent eval oracle: exact Riemann sum on a common refinement."""
    denom = math.lcm(a.denominator, b.denominator,
                     *[x.denominator for x in v.breakpoints])
    total = F(0)
    for k in range(a.numerator * (denom // a.denominator),
                   b.numerator * (denom // b.denominator)):
        lo = F(k, denom)
        mid = F(2 * k + 1, 2 * denom)
        for i in range(len(v.densities)):
            if v.breakpoints[i] <= mid <= v.breakpoints[i + 1]:
                total += v.densities[i] * F(1, denom)
                break
        else:  # pragma: no cover
            raise AssertionError(f"no segment contains {mid}")
    return total


class TestEval:
    def test_normalization(self):
        assert uniform().value(0, 1) == 1

    def test_non_atomic(self):
        for v in (uniform(), two_block(), random_valuation(3, 4)):
            assert v.value(F(1, 3), F(1, 3)) == 0

    def test_two_block_half(self):
        v = two_block()
        expected = riemann(v, F(1, 4), F(3, 4))
        assert expected == F(1, 2)
        assert v.value(F(1, 4), F(3, 4)) == expected

    def test_riemann_agreement_random(self):
        for seed in range(12):
            v = random_valuation(seed, 1 + seed % 5)
            a, b = F(seed % 4, 7), F(4 + seed % 3, 7)
            assert v.value(a, b) == riemann(v, a, b)

    def test_bad_range(self):
        with pytest.raises(DomainError):
            uniform().value(F(3, 4), F(1, 4))
        with pytest.raises(DomainError):
            uniform().value(F(-1, 2), F(1, 2))


class TestMark:
    def test_uniform_half(self):
        assert uniform().mark(0, 1, F(1, 2)) == F(1, 2)

    def test_zero_share_leftmost(self):
        for v in (uniform(), two_block(), random_valuation(9, 3)):
            assert v.mark(F(1, 8), F(7, 8), 0) == F(1, 8)

    def test_two_block_half_share(self):
        v = two_block()
        c = v.mark(0, 1, F(1, 2))
        assert c == F(1, 4)
        assert v.value(0, c) == F(1, 2)

    def test_leftmost_on_plateau(self):
        # Full share of a valuation with a trailing dead zone stops at 1/2.
        assert two_block().mark(0, 1, 1) == F(1, 2)

    def test_bad_share(self):
        with pytest.raises(DomainError):
            uniform().mark(0, 1, F(3, 2))


class TestValuationInvariants:
    def test_constructor_rejects_bad_mass(self):
        with pytest.raises(DomainError):
            Valuation((F(0), F(1)), (F(2),))

    def test_constructor_rejects_negative_density(self):
        with pytest.raises(DomainError):
            Valuation((F(0), F(1, 2), F(1)), (F(3), F(-1)))

    def test_constructor_rejects_unsorted(self):
        with pytest.raises(DomainError):
            Valuation((F(0), F(3, 4), F(1, 2), F(1)), (F(1), F(1), F(1)))

    @given(st.integers(0, 10 ** 6), st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_random_valuation_invariants(self, seed, segments):
        v = random_valuation(seed, segments)
        assert v.value(0, 1) == 1
        assert all(d >= 0 for d in v.densities)
        assert all(x.denominator <= 10_000 for x in v.breakpoints)
        assert all(d.denominator <= 10_000 for d in v.densities)

    def test_random_valuation_deterministic(self):
        assert random_valuation(7, 4) == random_valuation(7, 4)

    def test_single_segment_is_uniform(self):
        assert random_valuation(123, 1) == uniform()

    def test_random_valuation_bad_args(self):
        with pytest.raises(DomainError):
            random_valuation(1, 0)

    def test_json_round_trip(self):
        for seed in range(5):
            v = random_valuation(seed, 3)
            assert Valuation.from_json(v.to_json()) == v

    def test_json_reduces_silently(self):
        v = Valuation.from_json({"breakpoints": ["0", "2/4", "1"],
                                 "densities": ["4/2", "0"]})
        assert v == two_block()


@st.composite
def valuations(draw):
    return random_valuation(draw(st.integers(0, 10 ** 6)), draw(st.integers(1, 6)))


@st.composite
def ordered_points(draw, count=2):
    pts = sorted(
        draw(st.lists(st.fractions(min_value=0, max_value=1,
                                   max_denominator=64),
                      min_size=count, max_size=count))
    )
    return [F(p) for p in pts]


class TestAlgebra:
    @given(valuations(), ordered_points(3))
    @settings(max_examples=150, deadline=None)
    def test_additivity(self, v, pts):
        a, c, b = pts
        assert v.value(a, c) + v.value(c, b) == v.value(a, b)

    @given(valuations(), ordered_points(2),
           st.fractions(min_value=0, max_value=1, max_denominator=32))
    @settings(max_examples=150, deadline=None)
    def test_mark_inverts_eval(self, v, pts, t):
        a, b = pts
        c = v.mark(a, b, F(t))
        assert a <= c <= b
        assert v.value(a, c) == F(t) * v.value(a, b)

    @given(valuations(), ordered_points(2),
           st.fractions(min_value=0, max_value=1, max_denominator=16),
           st.fractions(min_value=0, max_value=1, max_denominator=16))
    @settings(max_examples=150, deadline=None)
    def test_mark_monotone(self, v, pts, t1, t2):
        a, b = pts
        lo, hi = sorted((F(t1), F(t2)))
        assert v.mark(a, b, lo) <= v.mark(a, b, hi)


class TestAllocation:
    def test_equal_halves_no_envy(self):
        alloc = Allocation((((F(0), F(1, 2)),), ((F(1, 2), F(1)),)))
        matrix = envy_matrix(alloc, [uniform(), uniform()])
        assert matrix == ((F(0), F(0)), (F(0), F(0)))

    def test_total_dispossession(self):
        alloc = Allocation((((F(0), F(1)),), ((F(1), F(1)),)))
        matrix = envy_matrix(alloc, [uniform(), uniform()])
        assert matrix[1][0] == F(1)
        assert matrix[0][1] == F(0)

    def test_empty_intervals_allowed(self):
        Allocation((((F(0), F(1)), (F(1), F(1))), ((F(1, 2), F(1, 2)),)))

    def test_rejects_gap(self):
        with pytest.raises(DomainError):
            Allocation((((F(0), F(1, 3)),), ((F(1, 2), F(1)),)))

    def test_rejects_overlap(self):
        with pytest.raises(DomainError):
            Allocation((((F(0), F(2, 3)),), ((F(1, 3), F(1)),)))

    def test_agent_count_mismatch(self):
        alloc = Allocation((((F(0), F(1)),),))
        with pytest.raises(DomainError):
            envy_matrix(alloc, [uniform(), uniform()])

    def test_envy_permutation_consistency(self):
        vals = [random_valuation(k, 3) for k in range(3)]
        alloc = Allocation((
            ((F(0), F(1, 4)),),
            ((F(1, 4), F(2, 3)),),
            ((F(2, 3), F(1)),),
        ))
        matrix = envy_matrix(alloc, vals)
        # Swap agents 1 and 2 everywhere: the envy matrix permutes with them.
        swapped = Allocation((alloc.pieces[1], alloc.pieces[0], alloc.pieces[2]))
        swapped_matrix = envy_matrix(swapped, [vals[1], vals[0], vals[2]])
        perm = (1, 0, 2)
        for i in range(3):
            for j in range(3):
                assert swapped_matrix[i][j] == matrix[perm[i]][perm[j]]
        assert all(F(0) <= x <= F(1) for row in matrix for x in row)

    def test_frac_parsing(self):
        assert frac("2/3") == F(2, 3)
        assert frac("5") == F(5)
        assert frac("0.25") == F(1, 4)
        with pytest.raises(DomainError):
            frac(3.5)
        with pytest.raises(DomainError):
            frac(True)  # JSON true is no number

    @pytest.mark.parametrize("text", ["1e-1000000", "2E3", "1.5e1", "1/2e9"])
    def test_frac_refuses_exponent_notation(self, text):
        # "1e-1000000" took 0.2 s to read, and a larger exponent all memory
        with pytest.raises(ValueError, match="exponent"):
            frac(text)

    def test_exponent_density_is_a_malformed_valuation(self):
        obj = {"breakpoints": ["0", "1"], "densities": ["1e-1000000"]}
        with pytest.raises(DomainError, match="malformed valuation object"):
            Valuation.from_json(obj)
