"""Unit tests for finite-support functionals acting on Taylor data."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xibergman import functional as fl
from xibergman.functional import (
    ArityMismatchError,
    Functional,
    InsufficientTruncationError,
    TaylorData,
    apply,
    exact_tail,
    grlex_key,
    multi_indices_upto,
    norm_at_rho,
    recenter,
    tail_bound,
)


def cxs(max_mag=3.0):
    part = st.floats(-max_mag, max_mag, allow_nan=False)
    return st.builds(complex, part, part)


def functionals(arity=2, max_deg=4):
    idx = st.tuples(*[st.integers(0, max_deg)] * arity)
    return st.dictionaries(idx, cxs(), max_size=6).map(
        lambda d: Functional(arity, d)
    )


class TestMultiIndices:
    def test_counts_match_binomial(self):
        for n in (1, 2, 3):
            for d in (0, 1, 4):
                assert len(multi_indices_upto(n, d)) == math.comb(d + n, n)

    def test_grlex_sorted_and_unique(self):
        out = multi_indices_upto(3, 5)
        assert out == sorted(set(out), key=grlex_key)

    def test_negative_degree_empty(self):
        assert multi_indices_upto(2, -1) == []


class TestApply:
    def test_dirac_reads_value(self):
        xi = Functional(1, {(0,): 1.0})
        t = TaylorData((0.5,), {(0,): 3.0 + 1j, (1,): 2.0})
        assert apply(xi, t) == 3.0 + 1j

    def test_weighted_sum_of_coefficients(self):
        xi = Functional(2, {(1, 0): 2.0, (0, 1): 1j})
        t = TaylorData((0.0, 0.0), {(1, 0): 5.0, (0, 1): 7.0, (2, 0): 9.0})
        assert apply(xi, t) == 10.0 + 7j

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatchError):
            apply(Functional(2, {}), TaylorData((0.0,), {}))

    def test_insufficient_truncation(self):
        xi = Functional(1, {(3,): 1.0})
        t = TaylorData((0.0,), {(0,): 1.0}, truncation_degree=2)
        with pytest.raises(InsufficientTruncationError):
            apply(xi, t)

    def test_exact_data_any_degree_ok(self):
        xi = Functional(1, {(3,): 1.0})
        t = TaylorData((0.0,), {(0,): 1.0})  # exact polynomial, coeff 3 is 0
        assert apply(xi, t) == 0.0

    @given(functionals(), functionals(), cxs(), cxs())
    @settings(max_examples=120, deadline=None)
    def test_linearity(self, xi, eta, a, b):
        coeffs = {k: complex(1 + i, -i) for i, k in enumerate(multi_indices_upto(2, 4))}
        t = TaylorData((0.0, 0.0), coeffs)
        lhs = apply(a * xi + b * eta, t)
        rhs = a * apply(xi, t) + b * apply(eta, t)
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


class TestRecenter:
    def test_univariate_shift_oracle(self):
        # p(z) = z^2: at center 1, (z-1)^2 + 2(z-1) + 1
        p = TaylorData((0.0,), {(2,): 1.0})
        q = recenter(p, (1.0,))
        assert q.coeffs == {(2,): 1.0, (1,): 2.0, (0,): 1.0}

    def test_round_trip_identity(self):
        p = TaylorData((0.0, 0.0), {(2, 1): 1.5, (0, 3): -2j, (1, 0): 4.0})
        q = recenter(recenter(p, (0.3 + 0.1j, -0.2)), (0.0, 0.0))
        for k in set(p.coeffs) | set(q.coeffs):
            assert abs(p.coeffs.get(k, 0) - q.coeffs.get(k, 0)) < 1e-12

    def test_pointwise_values_preserved(self):
        p = TaylorData((0.0, 0.0), {(2, 1): 1.0, (1, 1): -1.0, (0, 0): 0.5})
        q = recenter(p, (0.4, -0.3j))
        for z in [(0.1, 0.2), (-0.5, 0.7j), (0.0, 0.0)]:
            assert abs(p.evaluate(z) - q.evaluate(z)) < 1e-12

    def test_rejects_truncated_data(self):
        p = TaylorData((0.0,), {(1,): 1.0}, truncation_degree=3)
        with pytest.raises(ValueError):
            recenter(p, (0.5,))


class TestDegreeAndNorm:
    def test_zero_functional_degree(self):
        assert Functional(2, {}).degree == -math.inf

    def test_degree_max_support(self):
        assert Functional(2, {(1, 2): 1.0, (0, 1): 1.0}).degree == 3
        # every coefficient is kept; the degree reads the nonzero ones
        xi = Functional(1, {(3,): 0.0, (2,): 1e-20, (1,): 1.0})
        assert len(xi.coeffs) == 3 and xi.degree == 2

    def test_norm_at_rho_weighted_l1(self):
        xi = Functional(1, {(0,): 3.0, (2,): 4.0})
        assert norm_at_rho(xi, 0.5) == pytest.approx(3.0 + 4.0 * 0.25)

    def test_norm_rejects_nonpositive_rho(self):
        with pytest.raises(ValueError):
            norm_at_rho(Functional(1, {}), 0.0)


class TestTailBound:
    @given(functionals(arity=1, max_deg=6), st.integers(0, 5))
    @settings(max_examples=120, deadline=None)
    def test_dominates_exact_tail(self, xi, k):
        rho, R, M = 1.5, 1.0, 2.0
        assert tail_bound(xi, k, rho, R, M) >= exact_tail(xi, k, R, M) - 1e-12

    def test_rejects_noncontractive(self):
        xi = Functional(1, {(0,): 1.0})
        with pytest.raises(ValueError):
            tail_bound(xi, 2, 0.5, 1.0, 1.0)


class TestJson:
    @given(st.integers(1, 3).flatmap(functionals))
    @settings(max_examples=100, deadline=None)
    def test_round_trip(self, xi):
        assert fl.loads(fl.dumps(xi)) == xi

    def test_grlex_term_order_in_wire_format(self):
        xi = Functional(1, {(4,): 1.0, (0,): 1.0, (2,): 1.0})
        obj = json.loads(fl.dumps(xi))
        assert [t["alpha"] for t in obj["terms"]] == [[0], [2], [4]]
