"""Unit tests for the weight catalog, moments, and multiplier oracles."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xibergman.bergman import assemble_gram, orthonormalize, xi_kernel
from xibergman.config import ConfigError
from xibergman.family import PolyW
from xibergman.functional import ArityMismatchError, Functional
from xibergman.weights import (
    ConstantWeight,
    JointLogDivisor,
    JointPairQuadratic,
    JointQuadraticSplit,
    JointZero,
    LogDivisorWeight,
    LogMonomialWeight,
    Polydisc,
    QuadraticWeight,
    SumWeight,
    UnsupportedWeightError,
    WIndependentJoint,
    ZeroWeight,
    check_joint_weight,
    coordinate_form,
    divisor_split,
    eval_weight,
    gauss_legendre,
    monomial_moment,
    multiplier_membership_oracle,
    substitute_base,
    weight_from_json,
    weight_to_json,
)


def polar_integral_oracle(radii, alpha, c):
    """Independent adaptive-quadrature oracle for the monomial moment."""
    from scipy.integrate import quad

    total = 1.0
    for R, a, ci in zip(radii, alpha, c):
        val, _ = quad(lambda r: r ** (2 * a + 1 - 2 * ci), 0.0, R)
        total *= 2.0 * math.pi * val
    return total


class TestPolydisc:
    def test_contains(self):
        D = Polydisc((1.0, 0.5))
        assert D.contains((0.5, 0.2))
        assert not D.contains((0.5, 0.6))

    def test_centered(self):
        D = Polydisc((1.0,), (2.0,))
        assert D.contains((2.5,)) and not D.contains((0.5,))

    def test_rejects_bad_radii(self):
        with pytest.raises(ValueError):
            Polydisc((0.0,))

    @pytest.mark.parametrize("x, inside", [(1 + 5e-10, True), (1 + 2e-9, False)])
    def test_kernels_gate_points_by_contains(self, x, inside):
        # one containment rule: contains refused 1 + 5e-10 on the unit
        # disc, where xi_kernel evaluated
        D = Polydisc((1.0,))
        assert D.contains((x,)) is inside
        assert D.contains(np.array([[x], [0.5]])).tolist() == [inside, True]
        model = orthonormalize(assemble_gram(D, ZeroWeight(1), 4))
        xi = Functional(1, {(0,): 1.0})
        if inside:
            # sum_k (k + 1) / pi |z|^2k over k <= 4, at |z| = 1
            assert xi_kernel(model, xi, (x,)) == pytest.approx(15 / math.pi, rel=1e-8)
        else:
            with pytest.raises(ValueError, match="outside domain"):
                xi_kernel(model, xi, (x,))

    def test_slack_is_relative_to_the_radius(self):
        # an absolute 1e-9 admitted z = 5e-10, five radii out of a disc of
        # radius 1e-10, where xi_kernel read 6.1e22
        D = Polydisc((1e-10,))
        assert not D.contains((5e-10,))
        assert D.contains((1e-10 * (1 + 5e-10),))
        assert not D.contains((1e-10 * (1 + 2e-9),))
        model = orthonormalize(assemble_gram(D, ZeroWeight(1), 2))
        with pytest.raises(ValueError, match="outside domain"):
            xi_kernel(model, Functional(1, {(0,): 1.0}), (5e-10,))
        # off its center the slack scales with the radius, not |center|
        D = Polydisc((1e-3,), (5.0,))
        assert D.contains((5.0 + 1e-3 * (1 + 5e-10),))
        assert not D.contains((5.0 + 1e-3 * (1 + 1e-6),))
        # slack = 0 is the open polydisc
        assert not Polydisc((1.0,)).contains((1.0,), slack=0)

    def test_contains_checks_the_arity(self):
        with pytest.raises(ArityMismatchError):
            Polydisc((1.0,)).contains((0.1, 0.1))
        with pytest.raises(ArityMismatchError):
            Polydisc((1.0,)).contains(np.zeros((2, 2)))


class TestMoments:
    def test_unweighted_formula(self):
        # pi R^{2(a+1)} / (a+1) per coordinate
        for a in range(6):
            v = monomial_moment((0.8,), (a,))
            assert v == pytest.approx(math.pi * 0.8 ** (2 * a + 2) / (a + 1))

    def test_weighted_against_quadrature_oracle(self):
        radii, c = (1.0, 0.7), (0.5, 0.25)
        for alpha in [(0, 0), (1, 2), (3, 0)]:
            v = monomial_moment(radii, alpha, c)
            assert v == pytest.approx(
                polar_integral_oracle(radii, alpha, c), rel=1e-10
            )

    def test_non_integrable_is_infinite(self):
        assert monomial_moment((1.0,), (0,), (1.0,)) == math.inf
        assert monomial_moment((1.0,), (1,), (1.5,)) < math.inf


class TestPointwiseEvaluation:
    def test_catalog_values(self):
        assert eval_weight(ZeroWeight(2), (0.5, 0.5)) == 0.0
        assert eval_weight(ConstantWeight(1, 2.5), (0.1,)) == 2.5
        assert eval_weight(QuadraticWeight((2.0,)), (0.5,)) == pytest.approx(0.5)
        assert eval_weight(LogMonomialWeight((1.0,)), (0.5,)) == pytest.approx(
            2 * math.log(0.5)
        )
        assert eval_weight(LogMonomialWeight((1.0,)), (0.0,)) == -math.inf
        g = PolyW(1, {(1,): 1.0, (0,): -0.5})
        assert eval_weight(LogDivisorWeight(g), (0.5,)) == -math.inf
        s = SumWeight((ZeroWeight(1), ConstantWeight(1, 1.0)))
        assert eval_weight(s, (0.9,)) == 1.0

    def test_joint_weights_restrict(self):
        g = PolyW(3, {(1, 0, 0): 1.0, (0, 1, 1): -1.0})  # z1 - w z2
        jw = JointLogDivisor(g, 2)
        assert eval_weight(jw, (0.25, 0.5), (0.5,)) == -math.inf
        split = JointQuadraticSplit((1.0,), (2.0,))
        assert eval_weight(split, (1.0,), (1.0,)) == pytest.approx(3.0)
        pair = JointPairQuadratic((1.0,))
        assert eval_weight(pair, (0.7,), (0.2,)) == pytest.approx(0.25)
        indep = WIndependentJoint(QuadraticWeight((1.0,)), 1)
        assert eval_weight(indep, (0.5,), (123.0,)) == pytest.approx(0.25)

    def test_joint_requires_base_point(self):
        with pytest.raises(ValueError):
            eval_weight(JointQuadraticSplit((1.0,), (1.0,)), (0.5,))

    def test_joint_point_arity_checked(self):
        with pytest.raises(ArityMismatchError):
            eval_weight(JointQuadraticSplit((1.0,), (1.0,)), (0.5,), (0.1, 0.2))

    def test_joint_weight_is_a_weight_on_the_product_domain(self):
        g = PolyW(3, {(1, 0, 0): 1.0, (0, 1, 1): -1.0})  # z1 - w z2
        for spec in (JointLogDivisor(g, 2), JointPairQuadratic((1.0, 2.0)),
                     JointZero(2, 1), JointQuadraticSplit((1.0, 2.0), (3.0,)),
                     WIndependentJoint(QuadraticWeight((1.0, 2.0)), 1)):
            assert spec.arity == spec.z_arity + spec.w_arity
            z, w = (0.3, 0.5j)[: spec.z_arity], (0.2 - 0.1j,) * spec.w_arity
            assert spec.evaluate(z + w) == spec.fiber(w).evaluate(z)

    def test_split_quadratic_coefficients_nonnegative(self):
        with pytest.raises(ValueError, match=">= 0"):
            JointQuadraticSplit((1.0,), (-1.0,))


class TestJointWeightCheck:
    @pytest.mark.parametrize("spec", [ZeroWeight(2), QuadraticWeight((1.0, 1.0))])
    def test_fiber_weight_refused(self, spec):
        with pytest.raises(ValueError, match="joint weight is required"):
            check_joint_weight(spec, 1, 1)

    @pytest.mark.parametrize("spec, n, m, message", [
        (JointQuadraticSplit((1.0,), (1.0,)), 1, 2, "domain arity 3"),
        (JointPairQuadratic((1.0,)), 1, 2, "domain arity 3"),
        (WIndependentJoint(ZeroWeight(1), 1), 1, 2, "domain arity 3"),
        (JointZero(2, 1), 1, 2, "fiber domain arity 1"),
        # z1 - w z2 read with one fiber and two base coordinates
        (JointLogDivisor(PolyW(3, {(1, 0, 0): 1.0, (0, 1, 1): -1.0}), 1), 2, 1,
         "fiber domain arity 2"),
    ])
    def test_arity_mismatch_refused(self, spec, n, m, message):
        with pytest.raises(ArityMismatchError, match=message):
            check_joint_weight(spec, n, m)
        check_joint_weight(spec, spec.z_arity, spec.w_arity)


class TestSubstituteBase:
    def test_pencil_restriction(self):
        g = PolyW(3, {(1, 0, 0): 1.0, (0, 1, 1): -1.0})
        h = substitute_base(g, 2, (0.5,))
        assert h.coeffs == {(1, 0): 1.0, (0, 1): -0.5}

    def test_constant_in_base(self):
        g = PolyW(2, {(2, 0): 3.0})
        assert substitute_base(g, 1, (0.9,)).coeffs == {(2,): 3.0}


def form_value(dec, z):
    form, shift = dec
    return shift + sum(
        q * abs(zi - a) ** 2 + 2.0 * c * math.log(abs(zi))
        for (q, a, c), zi in zip(form, z)
    )


_CPLX = st.builds(complex, st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
_OFF_AXES = st.builds(complex, st.floats(0.1, 1.0), st.floats(-1.0, 1.0))
_PART = st.one_of(
    st.builds(ConstantWeight, st.just(2), st.floats(-2.0, 2.0)),
    st.builds(
        QuadraticWeight,
        st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2.0)),
        st.tuples(_CPLX, _CPLX),
    ),
    st.builds(LogMonomialWeight, st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2.0))),
    st.just(ZeroWeight(2)),
)


_JOINT = st.one_of(
    st.builds(JointZero, st.integers(1, 2), st.integers(1, 2)),
    st.builds(
        JointQuadraticSplit,
        st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2.0)),
        st.lists(st.floats(0.0, 2.0), min_size=1, max_size=2).map(tuple),
    ),
    st.builds(
        WIndependentJoint,
        st.one_of(_PART, st.lists(_PART, min_size=1, max_size=3).map(
            lambda parts: SumWeight(tuple(parts)))),
        st.integers(1, 2),
    ),
)


class TestCoordinateForm:
    @settings(max_examples=100, deadline=None)
    @given(_JOINT, st.data())
    def test_joint_form_matches_pointwise(self, spec, data):
        # the form on the product domain, z then w, against the fiber values
        p = data.draw(st.tuples(*[_OFF_AXES] * spec.arity))
        value = eval_weight(spec, p[: spec.z_arity], p[spec.z_arity :])
        assert spec.evaluate(p) == value
        assert form_value(coordinate_form(spec), p) == pytest.approx(
            value, rel=1e-12, abs=1e-12
        )

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_PART, min_size=1, max_size=4), st.tuples(_OFF_AXES, _OFF_AXES))
    def test_matches_pointwise(self, parts, z):
        # nested sums too: the square is completed at every level
        spec = SumWeight((parts[0], SumWeight(tuple(parts[1:]) or (ZeroWeight(2),))))
        assert form_value(coordinate_form(spec), z) == pytest.approx(
            eval_weight(spec, z), rel=1e-12, abs=1e-12
        )

    def test_one_center_kept_exactly(self):
        a = (0.1 + 0.2j, -0.3)
        spec = SumWeight(
            (QuadraticWeight((1.0, 0.0), a), QuadraticWeight((2.0, 0.5), a),
             ConstantWeight(2, 0.25), LogMonomialWeight((0.5, 0.0)))
        )
        form, shift = coordinate_form(spec)
        assert form == [(3.0, a[0], 0.5), (0.5, a[1], 0.0)]
        assert shift == 0.25

    def test_distinct_centers_complete_the_square(self):
        spec = SumWeight(
            (QuadraticWeight((1.0,), (0.2,)), QuadraticWeight((3.0,), (-0.2,)))
        )
        (form, shift) = coordinate_form(spec)
        assert form[0][0] == 4.0 and form[0][1] == pytest.approx(-0.1)
        assert shift == pytest.approx(0.04 + 3 * 0.04 - 4 * 0.01)

    def test_divisors_and_joint_weights_have_none(self):
        g = PolyW(1, {(1,): 1.0, (0,): -0.5})
        assert coordinate_form(LogDivisorWeight(g)) is None
        assert coordinate_form(SumWeight((ZeroWeight(1), LogDivisorWeight(g)))) is None
        # fibers that move with w other than by a shift
        assert coordinate_form(JointPairQuadratic((1.0,))) is None
        pencil = PolyW(2, {(1, 0): 1.0, (0, 1): -0.5})  # z - w/2
        assert coordinate_form(JointLogDivisor(pencil, 1)) is None
        assert coordinate_form(WIndependentJoint(LogDivisorWeight(g), 1)) is None


class TestQuadraticCenter:
    @pytest.mark.parametrize("coeffs, center", [
        ((1.0,), (0.1, 0.9)), ((1.0, 5.0), (0.1,))])
    def test_center_of_another_length_refused(self, coeffs, center):
        # evaluate and coordinate_form zip the two, dropping the extra ones
        with pytest.raises(ValueError, match="center coordinates for"):
            QuadraticWeight(coeffs, center)


class TestSeparability:
    def test_separable_matches_pointwise(self):
        # e^{-psi} = e^{-shift} prod_i e^{-q_i |z_i - a_i|^2} |z_i|^{-2 c_i}
        for spec in [
            ZeroWeight(2),
            ConstantWeight(2, 0.7),
            QuadraticWeight((1.0, 2.0)),
            QuadraticWeight((1.0, 2.0), (0.3, -0.1j)),
            LogMonomialWeight((0.5, 0.0)),
            SumWeight((QuadraticWeight((1.0, 0.5)), ConstantWeight(2, 0.2))),
        ]:
            form, shift = coordinate_form(spec)
            z = (0.3, 0.6)
            lhs = math.exp(-shift) * math.prod(
                math.exp(-q * abs(zi - a) ** 2) * abs(zi) ** (-2.0 * c)
                for (q, a, c), zi in zip(form, z)
            )
            assert lhs == pytest.approx(math.exp(-eval_weight(spec, z)))


class TestMultiplierOracle:
    def test_nonsingular_weights_vacuous(self):
        f = PolyW(1, {(0,): 1.0})
        for spec in [ZeroWeight(1), ConstantWeight(1, 1.0), QuadraticWeight((1.0,))]:
            assert multiplier_membership_oracle(spec, f)

    def test_log_monomial_threshold(self):
        spec = LogMonomialWeight((1.5,))
        assert not multiplier_membership_oracle(spec, PolyW(1, {(0,): 1.0}))
        assert multiplier_membership_oracle(spec, PolyW(1, {(1,): 1.0}))

    def test_divisor_divisibility(self):
        g = PolyW(2, {(1, 0): 1.0, (0, 1): -1.0})  # z1 - z2
        spec = LogDivisorWeight(g)
        assert multiplier_membership_oracle(spec, g)
        assert multiplier_membership_oracle(spec, g * PolyW.variable(0, 2))
        assert not multiplier_membership_oracle(spec, PolyW(2, {(1, 0): 1.0}))

    def test_divisor_missing_origin_vacuous(self):
        g = PolyW(1, {(1,): 1.0, (0,): 0.5})
        assert multiplier_membership_oracle(
            LogDivisorWeight(g), PolyW(1, {(0,): 1.0})
        )

    def test_unsupported_exponent(self):
        g = PolyW(1, {(1,): 1.0})
        with pytest.raises(UnsupportedWeightError):
            multiplier_membership_oracle(LogDivisorWeight(g, c=2.0), g)

    @pytest.mark.parametrize("spec, f", [
        (LogMonomialWeight((1.5,)), PolyW(2, {(1, 0): 1.0})),
        (ZeroWeight(3), PolyW(1, {(0,): 1.0})),
    ])
    def test_arity_mismatch_refused(self, spec, f):
        # the exponent test zipped f's exponents with the generator's and
        # answered True for both
        with pytest.raises(ArityMismatchError):
            multiplier_membership_oracle(spec, f)

    def test_sum_with_one_singular_part(self):
        # the multiplier ideal of |z|^2 + 2 log|z1| is (z1); the oracle
        # refused the sum, which multiplier_generators decoded
        spec = SumWeight((QuadraticWeight((1.0, 1.0)), LogMonomialWeight((1.0, 0.0))))
        assert multiplier_membership_oracle(spec, PolyW(2, {(1, 0): 1.0, (2, 1): 3.0}))
        assert not multiplier_membership_oracle(spec, PolyW(2, {(0, 1): 1.0}))
        assert not multiplier_membership_oracle(spec, PolyW(2, {(0, 0): 1.0}))

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.0, 6.0), st.integers(0, 7))
    def test_log_monomial_generator_is_the_integrability_threshold(self, c, a):
        # |z^a|^2 |z|^(-2c) is integrable at 0 iff a > c - 1
        f = PolyW(1, {(a,): 1.0})
        assert multiplier_membership_oracle(LogMonomialWeight((c,)), f) == (a > c - 1.0)


G_2PZ = PolyW(1, {(0,): 2.0, (1,): 1.0})  # 2 + z


class TestDivisorSplit:
    def test_fiber_sum(self):
        quad = QuadraticWeight((1.0,))
        assert divisor_split(SumWeight((quad, LogDivisorWeight(G_2PZ)))) == (
            LogDivisorWeight(G_2PZ), quad)
        assert divisor_split(LogDivisorWeight(G_2PZ)) == (
            LogDivisorWeight(G_2PZ), ZeroWeight(1))
        assert divisor_split(quad) == (None, quad)

    def test_joint_divisor_is_a_divisor_on_the_product_domain(self):
        g = PolyW(2, {(1, 0): 1.0, (0, 1): -1.0})
        assert divisor_split(JointLogDivisor(g, 1)) == (
            LogDivisorWeight(g), JointZero(1, 1))

    def test_w_independent_divisor_reads_g_in_z_and_w(self):
        base = SumWeight((QuadraticWeight((1.0,)), LogDivisorWeight(G_2PZ)))
        divisor, rest = divisor_split(WIndependentJoint(base, 2))
        assert divisor.g == PolyW(3, {(0, 0, 0): 2.0, (1, 0, 0): 1.0})
        assert rest == WIndependentJoint(QuadraticWeight((1.0,)), 2)

    @pytest.mark.parametrize("weight", [
        JointLogDivisor(PolyW(2, {(1, 0): 1.0, (0, 1): -1.0}), 1, c=0.5),
        JointPairQuadratic((1.0,)),
        WIndependentJoint(ZeroWeight(1), 1),
        # a lone fiber divisor with c != 1 keeps the tensor rule, as a joint
        # one does
        LogDivisorWeight(G_2PZ, c=2.0),
    ])
    def test_unsplit_joint_weights(self, weight):
        assert divisor_split(weight) == (None, weight)

    @pytest.mark.parametrize("weight", [
        SumWeight((QuadraticWeight((1.0,)), LogDivisorWeight(G_2PZ, c=2.0))),
        WIndependentJoint(LogDivisorWeight(G_2PZ, c=0.5), 1),
        SumWeight((LogDivisorWeight(G_2PZ), LogDivisorWeight(G_2PZ))),
    ])
    def test_no_factored_basis(self, weight):
        with pytest.raises(UnsupportedWeightError):
            divisor_split(weight)


class TestGaussLegendre:
    @pytest.mark.parametrize("count", [4, 16, 32, 160])
    def test_equals_leggauss_and_is_computed_once(self, count):
        t, wt = gauss_legendre(count)
        ref_t, ref_wt = np.polynomial.legendre.leggauss(count)
        assert np.array_equal(t, ref_t) and np.array_equal(wt, ref_wt)
        again = gauss_legendre(count)
        assert again[0] is t and again[1] is wt

    def test_shared_rule_refuses_writes(self):
        t, wt = gauss_legendre(16)
        with pytest.raises(ValueError, match="read-only"):
            t[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            wt *= 2.0
        assert np.array_equal(t, np.polynomial.legendre.leggauss(16)[0])


def _poly(arity):
    part = st.floats(-2, 2)
    idx = st.tuples(*[st.integers(0, 2)] * arity)
    return st.dictionaries(idx, st.builds(complex, part, part), max_size=3).map(
        lambda d: PolyW(arity, d)
    )


def _fiber_weights(n):
    coeffs = st.tuples(*[st.floats(0, 3)] * n)
    center = st.tuples(*[st.builds(complex, st.floats(-1, 1), st.floats(-1, 1))] * n)
    return st.one_of(
        st.just(ZeroWeight(n)),
        st.builds(ConstantWeight, st.just(n), st.floats(-2, 2)),
        st.builds(QuadraticWeight, coeffs, center),
        st.builds(LogMonomialWeight, coeffs),
        st.builds(LogDivisorWeight, _poly(n), st.floats(0.1, 3)),
    )


@st.composite
def catalog_weights(draw):
    """A weight of any variant, fiber or joint, with n, m in {1, 2}."""
    n, m = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    fiber = _fiber_weights(n)
    coeffs = st.tuples(*[st.floats(0, 3)] * n)
    return draw(st.one_of(
        fiber,
        st.lists(fiber, min_size=1, max_size=3).map(lambda p: SumWeight(tuple(p))),
        st.just(JointZero(n, m)),
        st.builds(JointLogDivisor, _poly(n + m), st.just(n), st.floats(0.1, 3)),
        st.builds(JointQuadraticSplit, coeffs, st.tuples(*[st.floats(0, 3)] * m)),
        st.builds(JointPairQuadratic, coeffs),
        st.builds(WIndependentJoint, fiber, st.just(m)),
    ))


def numeric_leaves(x, path=()):
    """The key path of each number in a JSON value."""
    if isinstance(x, (dict, list)):
        for k, v in x.items() if isinstance(x, dict) else enumerate(x):
            yield from numeric_leaves(v, path + (k,))
    elif isinstance(x, (int, float)) and not isinstance(x, bool):
        yield path


class TestJson:
    def test_unknown_variant_is_refused(self):
        with pytest.raises(UnsupportedWeightError, match="'odd'"):
            weight_to_json(type("Odd", (), {"variant": "odd"})())

    @given(catalog_weights())
    @settings(max_examples=200, deadline=None)
    def test_round_trip_catalog(self, spec):
        obj = weight_to_json(spec)
        assert weight_from_json(obj) == spec
        # the reader is strict: a string in place of any number is refused,
        # and the error names its key path
        for path in numeric_leaves(obj):
            bad = json.loads(json.dumps(obj))
            leaf = bad
            for key in path[:-1]:
                leaf = leaf[key]
            leaf[path[-1]] = "1"
            where = "".join(f"[{k}]" if isinstance(k, int) else f".{k}"
                            for k in path).lstrip(".")
            with pytest.raises(ConfigError, match=rf"^{re.escape(where)}: expected a"):
                weight_from_json(bad)

