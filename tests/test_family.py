"""Unit tests for polynomial-coefficient functional families."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xibergman import family as fm
from xibergman.family import (
    AntiHolomorphicControl,
    FunctionalFamily,
    PolyW,
    anti_holomorphic_control,
    eval_family,
    lub_check,
    poly_from_json,
    poly_to_json,
)
from xibergman.functional import ArityMismatchError


def cxs(max_mag=2.0):
    part = st.floats(-max_mag, max_mag, allow_nan=False)
    return st.builds(complex, part, part)


def polys(arity=2, max_deg=3):
    idx = st.tuples(*[st.integers(0, max_deg)] * arity)
    return st.dictionaries(idx, cxs(), max_size=5).map(lambda d: PolyW(arity, d))


@st.composite
def families(draw):
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    alpha = st.tuples(*[st.integers(0, 3)] * n)
    return FunctionalFamily(
        n, m, draw(st.dictionaries(alpha, polys(m), max_size=4))
    )


class TestPolyArithmetic:
    @given(polys(), polys(), polys())
    @settings(max_examples=150, deadline=None)
    def test_distributive_law(self, f, g, h):
        lhs = (f + g) * h
        rhs = f * h + g * h
        assert lhs.equals(rhs)

    @given(polys(), polys())
    @settings(max_examples=100, deadline=None)
    def test_product_evaluates_pointwise(self, f, g):
        w = (0.37 - 0.21j, -0.55 + 0.4j)
        lhs = (f * g).evaluate(w)
        rhs = f.evaluate(w) * g.evaluate(w)
        scale = max(1.0, abs(rhs))
        assert abs(lhs - rhs) <= 1e-9 * scale

    def test_constructors(self):
        assert PolyW.constant(3.0, 2).evaluate((9.0, 9.0)) == 3.0
        assert PolyW.variable(1, 2).evaluate((5.0, 7.0)) == 7.0
        assert PolyW.monomial((2, 1), 2.0).evaluate((2.0, 3.0)) == 24.0

    def test_degree_of_zero(self):
        assert PolyW(2, {}).degree == -math.inf

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ArityMismatchError):
            PolyW(1, {(1,): 1.0}) + PolyW(2, {})

    def test_equal_polys_hash_equal(self):
        p = PolyW(2, {(0, 0): 1.0, (0, 1): 0.5 - 1j, (2, 0): 3.0})
        q = PolyW(2, {(2, 0): 3.0, (0, 1): 0.5 - 1j, (0, 0): 1.0})
        assert list(p.coeffs) != list(q.coeffs)
        assert p == q and hash(p) == hash(q)
        assert {p: "fiber"}[q] == "fiber"

    @given(st.integers(1, 3).flatmap(polys))
    @settings(max_examples=100, deadline=None)
    def test_json_round_trip(self, p):
        assert poly_from_json(poly_to_json(p), p.arity) == p


class TestFamilyEvaluation:
    def pencil(self):
        # xi(w) with coefficient w on dz1 and 1 on dz2
        return FunctionalFamily(
            2, 1, {(1, 0): PolyW.variable(0, 1), (0, 1): PolyW.constant(1.0, 1)}
        )

    def test_eval_substitutes_base_point(self):
        xi = self.pencil().eval((0.5 + 0.5j,))
        assert xi.coeffs[(1, 0)] == 0.5 + 0.5j
        assert xi.coeffs[(0, 1)] == 1.0

    def test_eval_family_helper(self):
        assert eval_family(self.pencil(), (0.25,)).coeffs[(1, 0)] == 0.25

    def test_z_degree(self):
        assert self.pencil().z_degree == 1

    def test_linear_structure(self):
        fam = self.pencil()
        two = 2.0 * fam
        s = fam + fam
        for w in [(0.3,), (0.1 - 0.9j,)]:
            a, b = two.eval(w), s.eval(w)
            assert a.coeffs == b.coeffs

    def test_arity_checks(self):
        with pytest.raises(ArityMismatchError):
            FunctionalFamily(2, 1, {(1,): PolyW.constant(1.0, 1)})
        with pytest.raises(ArityMismatchError):
            FunctionalFamily(2, 1, {(1, 0): PolyW.constant(1.0, 2)})

    def test_holomorphic_flag(self):
        assert self.pencil().holomorphic is True
        assert anti_holomorphic_control(self.pencil()).holomorphic is False

    def test_control_conjugates_base_point(self):
        fam = self.pencil()
        ctrl = AntiHolomorphicControl(fam)
        w = 0.3 + 0.4j
        assert ctrl.eval((w,)).coeffs[(1, 0)] == fam.eval((w.conjugate(),)).coeffs[(1, 0)]

    @given(families())
    @settings(max_examples=100, deadline=None)
    def test_json_round_trip(self, fam):
        assert fm.loads(fm.dumps(fam)) == fam


#: an annihilator entry, of z1 (i + (1 - i) w1) at N = 3, and a point where
#: an array product of its terms rounded the last bit of the imaginary part
#: apart from a scalar one
ENTRY = PolyW(1, {(0,): -0.9999999999999998j, (1,): -3 + 3j, (2,): 6 + 0j,
                  (3,): -2.000000000000001 - 1.999999999999999j})
ENTRY_AT = 0.5 + 0.125j


class TestValuesRoundAlike:
    @pytest.mark.parametrize("points", [1, 2, 8, 64, 65])
    def test_pinned_entry_at_every_batch_size(self, points):
        # values gave ...+0.4882812500000003i once two or more points
        # shared the call, and PolyW.evaluate gives ...02i
        fam = FunctionalFamily(1, 1, {(0,): ENTRY})
        V = fam.values(np.full((points, 1), ENTRY_AT))
        want = ENTRY.evaluate((ENTRY_AT,))
        assert repr(want) == "(-0.4882812500000002+0.4882812500000002j)"
        assert [repr(complex(v)) for v in V[:, 0]] == [repr(want)] * points
        assert fam.eval((ENTRY_AT,)).coeffs[(0,)] == want

    @given(families(), st.integers(0, 2**32 - 1))
    @example(FunctionalFamily(1, 2, {(0,): PolyW(2, {(1, 1): 2.225073858507e-311j})}), 0)
    @settings(max_examples=100, deadline=None)
    def test_bit_identical_at_every_batch_size(self, fam, seed):
        # the values at 1, 2 and 64 points are those of the same points in a
        # batch of 65; in one base variable they are PolyW.evaluate with the
        # terms in exponent order.  With more variables PolyW multiplies the
        # coefficient by each power in turn, the array takes the monomial
        # first, so the two agree to rounding: relative to the terms' moduli,
        # and below the normal range, where rounding is absolute, to a few
        # subnormal steps per term (the example differs by one, 5e-324)
        rng = np.random.default_rng(seed)
        W = rng.uniform(-1.5, 1.5, (65, fam.w_arity, 2)) @ np.array([1, 1j])
        V = fam.values(W)
        for points in (1, 2, 64):
            assert fam.values(W[:points]).tobytes() == V[:points].tobytes()
        for alpha, p in zip(fam.alphas, V.T):
            ordered = PolyW(fam.w_arity, dict(sorted(fam.terms[alpha].coeffs.items())))
            want = np.array([ordered.evaluate(tuple(w)) for w in W])
            if fam.w_arity == 1:
                assert np.array_equal(p, want)
            else:
                size = sum(abs(c) * np.prod(np.abs(W) ** b, axis=1)
                           for b, c in ordered.coeffs.items())
                tiny = 8 * math.ulp(0.0) * len(ordered.coeffs)
                assert np.all(np.abs(p - want) <= 1e-14 * size + tiny)


class TestLubCheck:
    def test_finite_on_grid(self):
        fam = TestFamilyEvaluation().pencil()
        grid = [(complex(a, b),) for a in (-0.5, 0, 0.5) for b in (-0.5, 0.5)]
        table = lub_check(fam, grid, rhos=[0.5, 1.0, 2.0])
        assert all(math.isfinite(v) for v in table.values())
        # sup over |w| <= ~0.7 of |w| rho + rho is attained on the grid corner
        assert table[1.0] == pytest.approx(abs(complex(0.5, 0.5)) + 1.0)

    def test_monotone_in_rho(self):
        fam = TestFamilyEvaluation().pencil()
        table = lub_check(fam, [(0.5,)], rhos=[0.5, 1.0, 2.0])
        vals = [table[r] for r in (0.5, 1.0, 2.0)]
        assert vals == sorted(vals)

    def test_rejects_empty_grid_and_bad_rho(self):
        fam = TestFamilyEvaluation().pencil()
        with pytest.raises(ValueError):
            lub_check(fam, [], [1.0])
        with pytest.raises(ValueError):
            lub_check(fam, [(0.0,)], [-1.0])
