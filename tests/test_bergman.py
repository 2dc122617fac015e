"""Unit tests for truncated Gram models and extremal kernels."""

import cmath
import math
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import gammainc, gammaln

from xibergman import bergman
from xibergman.bergman import (
    KernelZeroError,
    QuadSpec,
    _radial_moment,
    _tensor_quadrature_gram,
    assemble_gram,
    basis_action,
    boundedness_constant,
    extremal_function,
    kernels,
    model_summary_json,
    orthonormalize,
    radial_moments,
    xi_kernel,
)
from xibergman.extension import (
    ExtensionProblem,
    extension_report,
    minimal_extension,
)
from xibergman.family import PolyW
from xibergman.functional import (
    Functional,
    TaylorData,
    apply,
    multi_indices_upto,
    recenter,
)
from xibergman.weights import (
    ConstantWeight,
    LogDivisorWeight,
    LogMonomialWeight,
    Polydisc,
    QuadraticWeight,
    SumWeight,
    UnsupportedWeightError,
    WIndependentJoint,
    ZeroWeight,
)

DIRAC1 = Functional(1, {(0,): 1.0})


def classical_disc_kernel(z, R=1.0):
    return R**2 / (math.pi * (R**2 - abs(z) ** 2) ** 2)


class TestGramAssembly:
    def test_moment_formula_n1(self):
        D = Polydisc((0.8,))
        m = assemble_gram(D, ZeroWeight(1), 8, method="quadrature")
        for i, a in enumerate(m.basis_labels):
            expect = math.pi * 0.8 ** (2 * (a[0] + 1)) / (a[0] + 1)
            assert m.gram[i, i] == pytest.approx(expect, rel=1e-8)
        off = m.gram - np.diag(np.diag(m.gram))
        assert np.max(np.abs(off)) <= 1e-8 * np.max(np.abs(m.gram))

    def test_moment_formula_n2(self):
        D = Polydisc((1.0, 1.0))
        m = assemble_gram(D, ZeroWeight(2), 6, method="quadrature")
        for i, a in enumerate(m.basis_labels):
            expect = math.pi**2 / ((a[0] + 1) * (a[1] + 1))
            assert m.gram[i, i] == pytest.approx(expect, rel=1e-8)

    def test_closed_vs_quadrature_weighted(self):
        D = Polydisc((1.0,))
        wt = SumWeight((LogMonomialWeight((0.5,)), ConstantWeight(1, 0.3)))
        mc = assemble_gram(D, wt, 6, method="closed")
        mq = assemble_gram(D, wt, 6, method="quadrature")
        scale = np.max(np.abs(mc.gram))
        assert np.max(np.abs(mc.gram - mq.gram)) <= 1e-8 * scale

    def test_closed_form_unavailable_raises(self):
        # a quadratic centered off the domain center is not radial
        with pytest.raises(UnsupportedWeightError):
            assemble_gram(
                Polydisc((1.0,)), QuadraticWeight((1.0,), (0.3,)), 4, method="closed"
            )

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown Gram method"):
            assemble_gram(Polydisc((1.0,)), ZeroWeight(1), 4, method="quadratur")

    @pytest.mark.parametrize(
        "radii, weight",
        [
            ((1.0,), QuadraticWeight((1.0, 5.0))),
            ((1.0, 1.0), ZeroWeight(1)),
            ((1.0,), LogDivisorWeight(PolyW(2, {(1, 0): 1.0}))),
        ],
    )
    def test_weight_arity_must_match_the_domain(self, radii, weight):
        # a 2-coefficient quadratic on one disc took its first coefficient
        # and ignored the second
        with pytest.raises(ValueError, match="arity"):
            assemble_gram(Polydisc(radii), weight, 4)

    def test_analytic_exclusion_log_monomial(self):
        # c = 1.5 excludes the constant and linear... only alpha > 0.5 stays
        m = assemble_gram(Polydisc((1.0,)), LogMonomialWeight((1.5,)), 4)
        assert (0,) not in m.basis_labels
        assert (1,) in m.basis_labels

    def test_empty_model(self):
        m = assemble_gram(Polydisc((1.0,)), LogMonomialWeight((50.0,)), 8)
        assert m.size == 0
        orthonormalize(m)
        assert xi_kernel(m, DIRAC1, (0.0,)) == 0.0

    def test_divisor_factored_basis_gram(self):
        # weight 2log|g| with c=1: Gram of {g z^a} is the unweighted moment diag
        g = PolyW(2, {(1, 0): 1.0, (0, 1): -1.0})
        D = Polydisc((1.0, 1.0))
        m = assemble_gram(D, LogDivisorWeight(g), 4)
        plain = assemble_gram(D, ZeroWeight(2), 4, method="closed")
        assert np.allclose(m.gram, plain.gram)
        assert m.basis[0].equals(g)

    def test_divisor_requires_unit_exponent(self):
        g = PolyW(1, {(1,): 1.0})
        with pytest.raises(UnsupportedWeightError):
            assemble_gram(Polydisc((1.0,)), LogDivisorWeight(g, c=2.0), 3)

    @pytest.mark.parametrize("quad", [QuadSpec(16, 32), QuadSpec(32, 64)])
    def test_divisor_plus_constant_is_grid_free(self, quad):
        # |g b|^2 e^{-2 log|g| - 0.1} = |b|^2 e^{-0.1}, so pi e^{-0.1} for b = g
        g = PolyW(1, {(1,): 1.0, (0,): -0.2})
        wt = SumWeight((LogDivisorWeight(g), ConstantWeight(1, 0.1)))
        m = assemble_gram(Polydisc((1.0,)), wt, 4, quad)
        assert m.gram[0, 0].real == pytest.approx(
            math.pi * math.exp(-0.1), rel=1e-14
        )
        assert m.basis[0].equals(g) and m.weight == wt

    def test_divisor_sum_takes_the_gram_of_the_rest(self):
        # an off-center quadratic rest: the product quadrature of that weight
        g = PolyW(2, {(1, 0): 1.0, (0, 1): -0.5})
        D = Polydisc((1.0, 0.8), (0.1, -0.2j))
        rest = QuadraticWeight((1.0, 0.5), (0.3, 0.2j))
        m = assemble_gram(D, SumWeight((rest, LogDivisorWeight(g))), 3)
        plain = assemble_gram(D, rest, 3)
        assert np.array_equal(m.gram, plain.gram)
        assert m.basis[3].equals(g * plain.basis[3])

    def test_zero_divisor_on_an_off_center_disc_is_the_zero_model(self):
        # 2 log|0| = -inf: every element g (z - c)^alpha is 0, so is the kernel
        m = orthonormalize(
            assemble_gram(Polydisc((1.0,), (0.25,)), LogDivisorWeight(PolyW(1, {})), 2)
        )
        assert len(m.coeffs) == 0 and xi_kernel(m, DIRAC1, (0.25,)) == 0.0

    @pytest.mark.parametrize("c", [(1.0, 1.0), (2.0,)])
    def test_divisor_sum_without_a_factored_basis_refused(self, c):
        g = PolyW(1, {(1,): 1.0})
        parts = tuple(LogDivisorWeight(g, ci) for ci in c) + (ConstantWeight(1, 0.1),)
        with pytest.raises(UnsupportedWeightError):
            assemble_gram(Polydisc((1.0,)), SumWeight(parts), 3)

    def test_closed_form_matches_separable_quadrature_gaussian(self):
        D = Polydisc((0.9, 1.2))
        wt = SumWeight((QuadraticWeight((1.5, 0.7)), ConstantWeight(2, -0.4)))
        mc = assemble_gram(D, wt, 8)
        mq = assemble_gram(D, wt, 8, method="quadrature")
        scale = np.sqrt(np.outer(np.diag(mc.gram), np.diag(mc.gram))).real
        assert np.all(np.abs(mc.gram - mq.gram) <= 1e-12 * scale)

    def test_quad_spec_validation(self):
        with pytest.raises(ValueError):
            QuadSpec(radial_nodes=2)
        with pytest.raises(ValueError):
            QuadSpec(inner_cutoff=0.5).validate_for(Polydisc((1.0,)))

    def test_inner_cutoff_is_one_domain_on_every_disc(self):
        # exact moments are those of the whole disc: under "auto" a centered
        # quadratic ignored the cutoff (K = 0.5035588255089833) while
        # "quadrature" integrated over the annulus 0.05 < |z| < 1
        quad = QuadSpec(inner_cutoff=0.05)
        D, wt = Polydisc((1.0,)), QuadraticWeight((1.0,))
        K = [xi_kernel(orthonormalize(assemble_gram(D, wt, 6, quad, method)),
                       DIRAC1, (0j,)) for method in ("auto", "quadrature")]
        assert K[0] == K[1] == 0.5055557719239062
        with pytest.raises(UnsupportedWeightError, match="inner cutoff"):
            assemble_gram(D, wt, 6, quad, "closed")
        # two discs, one exact and one not: one annulus rule on both
        D2 = Polydisc((1.0, 0.8))
        two = QuadraticWeight((1.0, 2.0), (0j, 0.3))
        auto = assemble_gram(D2, two, 4, quad)
        assert np.array_equal(auto.gram,
                              assemble_gram(D2, two, 4, quad, "quadrature").gram)
        assert not np.array_equal(auto.gram, assemble_gram(D2, two, 4).gram)


@st.composite
def radial_problems(draw):
    """A disc, a weight radial about its center, and a degree."""
    centered = draw(st.booleans())
    center = 0j if centered else complex(
        draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0))
    )
    parts = []
    if draw(st.booleans()):
        parts.append(ConstantWeight(1, draw(st.floats(-1.0, 1.0))))
    if draw(st.booleans()):
        parts.append(QuadraticWeight((draw(st.floats(0.0, 2.0)),), (center,)))
    if centered and draw(st.booleans()):
        c = draw(st.sampled_from([0.0, 0.5, 1.0, 1.5]))
        parts.append(LogMonomialWeight((c,)))
    weight = SumWeight(tuple(parts)) if parts else ZeroWeight(1)
    domain = Polydisc((draw(st.floats(0.5, 1.5)),), (center,))
    return domain, weight, draw(st.integers(0, 6))


class TestRadialMoments:
    @settings(max_examples=100, deadline=None)
    @given(radial_problems())
    def test_closed_form_matches_tensor_quadrature(self, problem):
        # the integrands are polynomials in r times exp(-q r^2): Gauss-Legendre
        # resolves them to rounding, so the two paths agree closely
        domain, weight, degree = problem
        m = assemble_gram(domain, weight, degree, method="closed")
        G = _tensor_quadrature_gram(m, QuadSpec())
        d = np.diag(m.gram).real
        assert np.all(d > 0)
        assert np.all(np.abs(G - m.gram) <= 1e-10 * np.sqrt(np.outer(d, d)))

    def test_off_center_log_monomial_takes_product_quadrature(self):
        # the pole of log|z| lies outside the disc |z - 0.6| < 0.5: the
        # weight is bounded there and not radial about the center
        D = Polydisc((0.5,), (0.6,))
        wt = LogMonomialWeight((0.5,))
        m = orthonormalize(assemble_gram(D, wt, 10))
        G = _tensor_quadrature_gram(m, QuadSpec())
        assert np.max(np.abs(m.gram - G)) <= 1e-10 * np.max(np.abs(G))
        assert m.gram[0, 0].real == pytest.approx(1.471939350755606, rel=1e-10)
        assert xi_kernel(m, DIRAC1, (0.6,)) == pytest.approx(0.76394, abs=1e-5)
        with pytest.raises(UnsupportedWeightError):
            assemble_gram(D, wt, 10, method="closed")

    def test_off_center_pole_does_not_exclude(self):
        m = assemble_gram(Polydisc((0.5,), (0.6,)), LogMonomialWeight((1.5,)), 4)
        assert (0,) in m.basis_labels and m.size == 5

    @pytest.mark.parametrize(
        "center, weight",
        [
            (0.3, LogMonomialWeight((1.5,))),
            (0.3, LogMonomialWeight((1.0,))),
            (0.3, SumWeight((ConstantWeight(1, 0.2), LogMonomialWeight((1.5,))))),
            # exponents 0.6 + 0.6 = 1.2: each part alone is integrable
            (0.3, SumWeight((LogMonomialWeight((0.6,)), LogMonomialWeight((0.6,))))),
            # the pole on the boundary circle: the disc covers a half-disc
            # about z = 0
            (0.5, LogMonomialWeight((1.5,))),
        ],
    )
    def test_off_center_pole_inside_disc_raises(self, center, weight):
        # z = 0 lies in |z - center| <= 0.5: |z|^(-2c) with c >= 1 is not
        # integrable there, and quadrature returned a grid-dependent Gram
        D = Polydisc((0.5,), (center,))
        for quad in (QuadSpec(32, 64), QuadSpec(64, 128)):
            with pytest.raises(UnsupportedWeightError, match="not integrable"):
                assemble_gram(D, weight, 4, quad)

    def test_off_center_integrable_pole_keeps_product_quadrature(self):
        # c < 1: |z|^(-2c) is integrable at the pole inside the disc
        D = Polydisc((0.5,), (0.3,))
        m = assemble_gram(D, LogMonomialWeight((0.5,)), 4)
        d = np.diag(m.gram).real
        assert m.size == 5 and np.all(np.isfinite(d)) and np.all(d > 0)

    def test_small_quadratic_at_high_degree(self):
        # gammainc(e, 1e-6) underflows to 0 for large e; the series does not
        m = assemble_gram(Polydisc((1.0,)), QuadraticWeight((1e-6,)), 60)
        d = np.diag(m.gram).real
        e = np.array([a[0] + 1.0 for a in m.basis_labels])
        assert np.all(np.isfinite(d)) and np.all(d > 0)
        assert np.all(np.abs(d / (math.pi / e) - 1.0) <= 1e-5)

    def test_radial_moments(self):
        labels = multi_indices_upto(1, 40)
        d = radial_moments(ZeroWeight(1), Polydisc((2.0,)), labels)
        expect = [math.pi * 2.0 ** (2 * k + 2) / (k + 1) for (k,) in labels]
        assert np.array_equal(d, expect)
        off = QuadraticWeight((1.0,), (0.2,))
        assert radial_moments(off, Polydisc((1.0,)), labels) is None

    def test_exact_moments_per_coordinate(self):
        # z1 is centered on its quadratic, z2 is not: the z1 factor takes
        # the closed form whatever the rule of the z2 factor
        D = Polydisc((0.7, 0.9), (0, 0.3))
        m = assemble_gram(D, QuadraticWeight((1.0, 1.0)), 6, QuadSpec(4, 4))
        d = np.diag(m.gram).real
        at = {a: i for i, a in enumerate(m.basis_labels)}
        for k in range(7):
            expect = _radial_moment(k + 1, 1, 0.7) / _radial_moment(1, 1, 0.7)
            assert d[at[(k, 0)]] / d[at[(0, 0)]] == pytest.approx(expect, rel=1e-13)

    def test_series_moment_past_the_range_of_its_power(self):
        # on R = 20 with q = 0.1, 20^238 overflows before e^{-40} brings the
        # z^118 moment back into range: it was refused as outside the range
        m = assemble_gram(Polydisc((20.0,)), QuadraticWeight((0.1,)), 118)
        i = m.basis_labels.index((118,))
        got = m.gram[i, i]
        from scipy.special import gammainc, gammaln

        e, q, x = 119, 0.1, 40.0
        want = math.pi * math.exp(gammaln(e) + math.log(gammainc(e, x))
                                  - e * math.log(q))
        assert want == 7.416093145340126e290
        assert abs(got.real / want - 1.0) <= 1e-12 and got.imag == 0

    @pytest.mark.parametrize("radii, weight, alpha", [
        # each factor is finite; their product overflows
        ((20.0, 20.0), ZeroWeight(2), "(0, 117)"),
        ((0.01, 1.0), ZeroWeight(2), "(80, 0)"),
        # e^{-shift} overflows the whole diagonal
        ((1.0,), ConstantWeight(1, -800.0), "(0,)"),
        # the same on the quadrature path (the quadratic is off center): it
        # raised OverflowError
        ((1.0,), SumWeight((QuadraticWeight((1.0,), (0.2,)),
                            ConstantWeight(1, -800.0))), "(0,)"),
    ])
    def test_moment_outside_the_float_range_raises(self, radii, weight, alpha):
        with pytest.raises(UnsupportedWeightError,
                           match=re.escape(f"(z - center)^{alpha}")):
            assemble_gram(Polydisc(radii), weight, 118)


def scipy_moment(e, q, R):
    """pi Gamma(e) P(e, qR^2) / q^e from scipy.special; inf where the
    exponential overflows, None where q or P is subnormal (there the oracle
    has lost its digits)."""
    try:
        if q == 0:
            return math.exp(2.0 * e * math.log(R) + math.log(math.pi / e))
        P = gammainc(e, q * R * R)
        if not min(q, P) >= sys.float_info.min:
            return None
        return math.pi * math.exp(gammaln(e) + math.log(P) - e * math.log(q))
    except OverflowError:
        return math.inf


def assert_meets_scipy(e, q, R):
    got, want = _radial_moment(e, q, R), scipy_moment(e, q, R)
    if want is None:
        return
    top, low = sys.float_info.max * (1.0 - 1e-12), 2.0 * sys.float_info.min
    if got > top or want > top:
        # infinite where scipy's overflows, up to rounding at the float edge
        assert got > top and want > top, (got, want)
    elif got >= low or want >= low:
        assert abs(got / want - 1.0) <= 1e-12, (got, want)


class TestRadialMomentSeries:
    """``_radial_moment`` is one positive series up to its P = 1 switch at
    x = e + 9 sqrt(e) + 40, and pi Gamma(e) / q^e past it: it meets
    scipy's incomplete gamma function at every x."""

    @settings(max_examples=400, deadline=None)
    @given(st.floats(0.0, 200.0, exclude_min=True), st.floats(0.05, 20.0),
           st.floats(0.0, 500.0))
    # near the top of the range past x = e: R^(2e) overflows, and at the
    # smallest normal e so does pi total / e, but the moment does not
    @example(159.0, 15.75, 167.0)
    @example(sys.float_info.min, 1.0, 1.0)
    def test_matches_scipy(self, e, R, x):
        assert_meets_scipy(e, x / (R * R), R)

    def test_finite_moment_past_the_range_of_its_power(self):
        # pi 20^238 / 119 = 1.16611633586648e308 (40-digit mpmath) is in
        # range, yet 20^238 and exp(238 log 20) are not
        assert _radial_moment(119.0, 0.0, 20.0) == pytest.approx(
            1.16611633586648e308, rel=1e-12)

    @pytest.mark.parametrize("e", [0.01, 0.5, 1.0, 7.5, 50.0, 119.0, 200.0, 300.0])
    def test_either_side_of_each_switch(self, e):
        # R = 1, so x = q: just below, at and just above x = e (where the
        # sum is taken as one exponential) and the P = 1 switch
        t = e + 9.0 * math.sqrt(e) + 40.0
        for x in (math.nextafter(e, 0), e, math.nextafter(e, math.inf),
                  math.nextafter(t, 0), t, math.nextafter(t, math.inf)):
            assert_meets_scipy(e, x, 1.0)
        below, above = (_radial_moment(e, x, 1.0)
                        for x in (t, math.nextafter(t, math.inf)))
        assert abs(above / below - 1.0) <= 1e-12


@st.composite
def product_problems(draw):
    """An off-center polydisc (n <= 2), a product weight and a degree <= 6.

    The weights are constants, quadratics with random centers, sums of two
    quadratics with distinct centers, and log-monomials (plus an optional
    quadratic) whose pole is the center of its disc, lies inside it with
    c < 1, or lies outside it.
    """
    n = draw(st.sampled_from([1, 2]))
    cplx = st.builds(complex, st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
    radii = tuple(draw(st.floats(0.3, 1.2)) for _ in range(n))
    kind = draw(st.sampled_from(["constant", "quadratic", "two", "log"]))
    center = [draw(cplx) for _ in range(n)]
    coef = st.floats(0.0, 2.0)
    if kind == "constant":
        weight = ConstantWeight(n, draw(st.floats(-1.0, 1.0)))
    elif kind == "quadratic":
        weight = QuadraticWeight(
            tuple(draw(coef) for _ in range(n)), tuple(draw(cplx) for _ in range(n))
        )
    elif kind == "two":
        a = tuple(draw(cplx) for _ in range(n))
        b = tuple(ai + draw(st.sampled_from([0.25, -0.5j, 0.3 + 0.4j])) for ai in a)
        weight = SumWeight(
            (
                QuadraticWeight(tuple(draw(coef) for _ in range(n)), a),
                QuadraticWeight(tuple(draw(coef) for _ in range(n)), b),
            )
        )
    else:
        cs = []
        for i in range(n):
            # the pole z_i = 0 at distance t R_i from the center of disc i
            t = draw(st.sampled_from([0.0, draw(st.floats(0.1, 0.9)),
                                      draw(st.floats(1.05, 1.5))]))
            center[i] = t * radii[i] * cmath.exp(1j * draw(st.floats(0.0, 6.3)))
            cs.append(draw(st.floats(0.0, 0.9) if 0 < t < 1 else st.floats(0.0, 3.0)))
        parts = [LogMonomialWeight(tuple(cs))]
        if draw(st.booleans()):
            parts.append(
                QuadraticWeight(tuple(draw(coef) for _ in range(n)), tuple(center))
            )
        weight = SumWeight(tuple(parts))
    return Polydisc(radii, tuple(center)), weight, draw(st.integers(0, 6))


class TestProductQuadrature:
    @settings(max_examples=60, deadline=None)
    @given(product_problems(), st.sampled_from([QuadSpec(4, 4), QuadSpec(6, 8)]))
    # the pole excludes z2 from the basis, so disc 2 has top exponent 0: it
    # takes the angular count of the largest exponent, as the tensor rule does
    @example((Polydisc((1.0, 1.0), (0, 1.5)),
              SumWeight((LogMonomialWeight((1.0, 1.0)),)), 1), QuadSpec(4, 4))
    def test_matches_tensor_quadrature(self, problem, quad):
        domain, weight, degree = problem
        m = assemble_gram(domain, weight, degree, quad, method="quadrature")
        G = _tensor_quadrature_gram(m, quad)
        err = np.max(np.abs(m.gram - G), initial=0.0)
        assert err <= 1e-12 * np.max(np.abs(G), initial=0.0)

    def test_product_weights_skip_tensor_path(self, monkeypatch):
        def refuse(model, quad):
            raise AssertionError("product weight on the tensor path")

        monkeypatch.setattr(bergman, "_tensor_quadrature_gram", refuse)
        D = Polydisc((0.8, 0.9), (0.2 + 0.1j, -0.3))
        for wt in [
            QuadraticWeight((1.0, 0.5), (0.5, 0.1j)),
            SumWeight((QuadraticWeight((1.0, 0.5), (0.5, 0.1j)), ConstantWeight(2, 0.4))),
            SumWeight((LogMonomialWeight((0.5, 0.3)), QuadraticWeight((1.0, 0.0)))),
        ]:
            m = assemble_gram(D, wt, 6)
            assert m.size == 28 and np.all(np.diag(m.gram).real > 0)

    def test_two_centers_on_one_coordinate(self):
        # |z - 0.2|^2 + 2|z + 0.4i|^2 = 3|z - A|^2 + const: the same Gram as
        # the completed square, which is radial when A is the domain center
        A = (0.2 + 2 * -0.4j) / 3
        two = SumWeight(
            (QuadraticWeight((1.0,), (0.2,)), QuadraticWeight((2.0,), (-0.4j,)))
        )
        D = Polydisc((0.7,), (A,))
        m = assemble_gram(D, two, 6, method="quadrature")
        closed = assemble_gram(D, QuadraticWeight((3.0,), (A,)), 6)
        const = 0.04 + 2 * 0.16 - 3 * abs(A) ** 2
        d = np.diag(closed.gram).real * math.exp(-const)
        assert np.all(np.abs(m.gram - np.diag(d)) <= 1e-12 * np.sqrt(np.outer(d, d)))


class TestBasisAction:
    def test_matches_recenter_oracle(self):
        D = Polydisc((1.0, 1.0))
        m = assemble_gram(D, ZeroWeight(2), 4)
        xi = Functional(2, {(0, 0): 1.0, (1, 0): 2.0 - 1j, (0, 2): 0.5})
        z0 = (0.3 - 0.1j, 0.2)
        u = basis_action(m, xi, z0)
        for j, b in enumerate(m.basis):
            t = recenter(TaylorData((0.0, 0.0), dict(b.coeffs)), z0)
            assert abs(u[j] - apply(xi, t)) < 1e-12

    def test_divisor_basis_action(self):
        g = PolyW(2, {(1, 0): 1.0, (0, 1): -1.0})
        m = assemble_gram(Polydisc((1.0, 1.0)), LogDivisorWeight(g), 2)
        u = basis_action(m, Functional(2, {(0, 0): 1.0}), (0.4, 0.1))
        # Dirac action on g * z^a at z0 is g(z0) * z0^a
        for j, a in enumerate(m.basis_labels):
            expect = (0.4 - 0.1) * (0.4 ** a[0]) * (0.1 ** a[1])
            assert abs(u[j] - expect) < 1e-12

    def test_taylor_shift_uses_exact_binomials(self):
        # the 14th derivative of z^31 / 14! at z = 1 is C(31, 14) = 265182525;
        # a float binomial gives 265182524.99999997
        E = np.array([[31], [31]])
        shift = bergman.TaylorShift(
            [(14,)], E, np.array([1.0, 1.0j]), np.array([0, 1]), 1, 2
        )
        U = shift.tables(shift.z_factors(np.array([[1.0]])), 1)
        assert U.shape == (1, 1, 1, 2)
        assert U[0, 0, 0, 0] == 265182525.0 == math.comb(31, 14)
        assert U[0, 0, 0, 1] == 265182525.0j


@st.composite
def shared_point_cases(draw):
    """A TaylorShift on random terms without w, P rows of functional
    coefficients and one fiber point.

    Each coordinate and coefficient is 0 or at least 1e-30 in modulus, so no
    product C z^k reaches the subnormal range: there rounding is absolute,
    not relative to the bound (a 2e-314 action can differ in its last
    subnormal bit, 5e-324, while 1e-13 of its bound rounds to 0)."""
    n = draw(st.sampled_from([1, 2]))
    part = st.floats(-1.0, 1.0).filter(lambda x: x == 0.0 or abs(x) >= 1e-30)
    cplx = st.builds(complex, part, part)
    size = draw(st.integers(1, 6))
    terms = draw(st.lists(st.tuples(st.tuples(*[st.integers(0, 6)] * n), cplx,
                                    st.integers(0, size - 1)),
                          min_size=1, max_size=12))
    E = np.array([e for e, _, _ in terms], dtype=int).reshape(len(terms), n)
    C = np.array([c for _, c, _ in terms], dtype=complex)
    S = np.array([j for _, _, j in terms], dtype=int)
    alphas = draw(st.lists(st.tuples(*[st.integers(0, 3)] * n), min_size=1,
                           max_size=4, unique=True))
    # the rows from a drawn seed: a failing case shrinks in few steps
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (draw(st.sampled_from([1, 2, 63, 64, 65, 140])), len(alphas))
    X = rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape)
    z = np.array([[0.9 * draw(cplx) for _ in range(n)]])
    return bergman.TaylorShift(alphas, E, C, S, n, size), X, z


class TestSharedPointActions:
    @settings(max_examples=150, deadline=None)
    @given(shared_point_cases())
    def test_shared_point_matches_the_per_row_path(self, case):
        # one shared point takes u = X @ U[0, 0]; the same point repeated on
        # every row (plus one, so that a single row also has a point of its
        # own) takes one product per row: the same bits
        shift, X, z = case
        u = shift.actions(X, shift.tables(shift.z_factors(z), 1))
        rows = np.vstack([X, X[:1]])
        Z = np.repeat(z, len(rows), axis=0)
        ref = shift.actions(rows, shift.tables(shift.z_factors(Z), len(Z)),
                            at=np.arange(len(rows)))[:-1]
        assert u.shape == ref.shape == (len(X), shift.size)
        assert np.array_equal(u, ref)

    def test_kernels_refuse_a_point_count_other_than_one_or_the_rows(self):
        # one point serves every row, or each row has its own; two points
        # for one row are not silently cut to the first
        m = orthonormalize(assemble_gram(Polydisc((1.0,)), ZeroWeight(1), 4))
        with pytest.raises(ValueError, match="1 functionals but 2 evaluation"):
            kernels(m, [(0,)], [[1.0]], [(0.1,), (0.2,)])
        with pytest.raises(ValueError, match="3 functionals but 2 evaluation"):
            kernels(m, [(0,)], [[1.0]] * 3, [(0.1,), (0.2,)])
        K = kernels(m, [(0,)], [[1.0]] * 2, [(0.1,), (0.2,)])[0]
        assert K.tolist() == [kernels(m, [(0,)], [[1.0]], z)[0][0]
                              for z in [(0.1,), (0.2,)]]

    def test_functional_without_terms_has_zero_actions(self):
        # a config may give a functional no terms: no alpha to stack
        m = orthonormalize(assemble_gram(Polydisc((1.0,)), ZeroWeight(1), 4))
        assert np.array_equal(basis_action(m, Functional(1, {}), (0.3,)),
                              np.zeros(m.size))
        assert xi_kernel(m, Functional(1, {}), (0.3,)) == 0.0

    def test_tables_are_one_sums_pass(self, monkeypatch):
        # the tables sum the terms of every alpha and point in one pass (one
        # bincount per real and imaginary part), whatever the row count
        E = np.array([[3], [2], [0]])
        shift = bergman.TaylorShift([(0,), (1,), (2,)], E,
                                    np.array([1.0, 2.0, 0.5j]),
                                    np.array([0, 0, 1]), 1, 2)
        calls = []
        bincount = np.bincount
        monkeypatch.setattr(np, "bincount",
                            lambda b, x, n: calls.append(x.shape) or bincount(b, x, n))
        U = shift.tables(shift.z_factors(np.array([[0.5], [0.5]])), 2)
        assert calls == [(18,), (18,)]  # 2 points x 3 alphas x 3 terms
        monkeypatch.undo()
        X = np.ones((200, 3), dtype=complex)
        u = shift.actions(X, U[:1])
        # z^3 + 2 z^2 and 0.5i: actions of e_0, e_1, e_2 at 0.5, summed
        expect = [0.125 + 0.5 + 0.75 + 2.0 + 1.5 + 2.0, 0.5j]
        assert np.allclose(u, np.tile(expect, (200, 1)), rtol=1e-15)


    def test_row_actions_do_not_depend_on_the_row_count(self):
        # a row's tables keep their term order and its products are its
        # own, so its actions are the same bits at 64, 65 and 129 rows
        rng = np.random.default_rng(7)
        E = np.array([[3, 0], [2, 1], [0, 2], [1, 0]])  # (z, w) exponents
        shift = bergman.TaylorShift([(0,), (1,), (2,)], E,
                                    np.array([1.0, 2.0, 0.5j, -1.0]),
                                    np.array([0, 0, 1, 1]), 1, 2)

        def draw(*shape):
            return rng.uniform(-0.6, 0.6, shape) + 1j * rng.uniform(-0.6, 0.6, shape)

        X, Z, W = draw(129, 3), draw(129, 1), draw(129, 1)
        u = [shift.actions(X[:P], shift.tables(shift.z_factors(Z[:P]), P), W[:P],
                           np.arange(P)) for P in (64, 65, 129)]
        assert np.array_equal(u[0], u[1][:64]) and np.array_equal(u[1], u[2][:65])


@st.composite
def per_row_cases(draw):
    """A TaylorShift on random terms in (z, w), rows of functional
    coefficients with zeros among them, and a fiber point and a base point
    per row; coordinates and coefficients are 0 or at least 1e-30 in
    modulus, as in ``shared_point_cases``."""
    n, m = draw(st.sampled_from([1, 2])), draw(st.sampled_from([1, 2]))
    part = st.floats(-1.0, 1.0).filter(lambda x: x == 0.0 or abs(x) >= 1e-30)
    cplx = st.builds(complex, part, part)
    size = draw(st.integers(1, 5))
    terms = draw(st.lists(st.tuples(st.tuples(*[st.integers(0, 5)] * n),
                                    st.tuples(*[st.integers(0, 3)] * m), cplx,
                                    st.integers(0, size - 1)),
                          min_size=1, max_size=10))
    E = np.array([ez + ew for ez, ew, _, _ in terms], dtype=int).reshape(-1, n + m)
    C = np.array([c for _, _, c, _ in terms], dtype=complex)
    S = np.array([j for _, _, _, j in terms], dtype=int)
    alphas = draw(st.lists(st.tuples(*[st.integers(0, 3)] * n), min_size=1,
                           max_size=4, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    P = draw(st.sampled_from([1, 2, 5, 17]))

    def cloud(*shape):
        return rng.uniform(-0.6, 0.6, shape) + 1j * rng.uniform(-0.6, 0.6, shape)

    X = np.where(rng.random((P, len(alphas))) < 0.3, 0, cloud(P, len(alphas)))
    return alphas, (E, C, S, n, size), X, cloud(P, n), cloud(P, m)


class TestPerRowActions:
    @settings(max_examples=150, deadline=None)
    @given(per_row_cases())
    def test_a_row_acts_by_its_own_coefficients_alone(self, case):
        # each row at its own fiber and base point: its actions are the
        # Taylor shift of every term, and the same bits alone and over its
        # nonzero alphas alone, on a shift built over those alphas
        alphas, basis, X, Z, W = case
        E, C, S, n, size = basis

        def act(alphas, X, Z, W):
            shift = bergman.TaylorShift(alphas, *basis)
            return shift.actions(X, shift.tables(shift.z_factors(Z), len(Z)), W,
                                 np.arange(len(X)))

        u = act(alphas, X, Z, W)
        for p in range(len(X)):
            ref, bound = np.zeros(size, dtype=complex), np.zeros(size)
            for x, alpha in zip(X[p], alphas):
                for e, c, j in zip(E, C, S):
                    ez, ew = e[:n], e[n:]
                    if any(g < a for g, a in zip(ez, alpha)):
                        continue
                    term = x * c * math.prod(
                        math.comb(int(g), a) * complex(z) ** int(g - a)
                        for g, a, z in zip(ez, alpha, Z[p]))
                    term *= math.prod(complex(w) ** int(k) for k, w in zip(ew, W[p]))
                    ref[j] += term
                    bound[j] += abs(term)
            assert np.all(np.abs(u[p] - ref) <= 1e-13 * bound)
            want = u[p].tobytes()
            assert act(alphas, X[[p]], Z[[p]], W[[p]])[0].tobytes() == want
            nz = np.flatnonzero(X[p])
            mine = act([alphas[k] for k in nz], X[[p]][:, nz], Z[[p]], W[[p]])
            assert mine[0].tobytes() == want


def reference_basis(domain, labels, g=None):
    """g * prod_i (z_i - c_i)^alpha_i for each label, by PolyW products."""
    n = domain.arity
    out = []
    for a in labels:
        b = PolyW.constant(1.0, n)
        for i, (ai, ci) in enumerate(zip(a, domain.center)):
            lin = PolyW.variable(i, n) - PolyW.constant(ci, n)
            for _ in range(ai):
                b = b * lin
        out.append(b if g is None else g * b)
    return out


@st.composite
def array_basis_problems(draw):
    """An off-center polydisc, an optional divisor g, a degree <= 5, and data."""
    n = draw(st.sampled_from([1, 2]))
    cplx = st.builds(complex, st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
    center = tuple(draw(cplx) for _ in range(n))
    domain = Polydisc(tuple(draw(st.floats(0.5, 1.5)) for _ in range(n)), center)
    g = None
    if draw(st.booleans()):
        exps = st.tuples(*[st.integers(0, 2)] * n)
        g = PolyW(n, draw(st.dictionaries(exps, cplx, min_size=1, max_size=3)))
        if not g.coeffs:
            g = None
    degree = draw(st.integers(0, 5))
    xi = Functional(
        n,
        draw(st.dictionaries(st.tuples(*[st.integers(0, 3)] * n), cplx,
                             min_size=1, max_size=3)),
    )
    z0 = tuple(c + draw(cplx) for c in center)
    return domain, g, degree, xi, z0, draw(st.randoms(use_true_random=False))


@st.composite
def translated_kernel_cases(draw):
    """Radii, a quadratic's coefficients and a center c, a functional, a
    degree <= 8 and a point z0 of the polydisc about c."""
    n = draw(st.sampled_from([1, 2]))
    cplx = st.builds(complex, st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
    radii = tuple(draw(st.floats(0.5, 1.5)) for _ in range(n))
    q = tuple(draw(st.floats(0.0, 2.0)) for _ in range(n))
    c = tuple(draw(cplx) for _ in range(n))
    xi = Functional(n, draw(st.dictionaries(
        st.tuples(*[st.integers(0, 2)] * n), cplx, min_size=1, max_size=3)))
    z0 = tuple(ci + 0.6 * R * draw(cplx) for ci, R in zip(c, radii))
    return radii, q, c, xi, draw(st.integers(0, 8)), z0


class TestArrayBasis:
    @settings(max_examples=80, deadline=None)
    @given(array_basis_problems())
    def test_arrays_match_polyw_reference(self, problem):
        domain, g, degree, xi, z0, rnd = problem
        weight = ZeroWeight(domain.arity) if g is None else LogDivisorWeight(g)
        m = assemble_gram(domain, weight, degree)
        ref = reference_basis(domain, m.basis_labels, g)
        assert len(m.basis) == len(ref) == m.size
        for b, r in zip(m.basis, ref):
            assert b.equals(r)
        # basis_action against the binomial Taylor shift of each reference
        u = basis_action(m, xi, z0)
        for j, r in enumerate(ref):
            t = recenter(TaylorData((0.0,) * domain.arity, dict(r.coeffs)), z0)
            scale = sum(abs(v) for v in xi.coeffs.values()) * sum(
                abs(v) * (1.0 + max(abs(x) for x in z0)) ** sum(a)
                for a, v in r.coeffs.items()
            )
            assert abs(u[j] - apply(xi, t)) <= 1e-12 * max(1.0, scale)
        # poly_from_coeffs against the explicit PolyW sum
        c = [complex(rnd.uniform(-1, 1), rnd.uniform(-1, 1))
             if rnd.random() < 0.8 else 0j for _ in range(m.size)]
        p = m.poly_from_coeffs(c)
        total = PolyW(domain.arity, {})
        for cj, r in zip(c, ref):
            total = total + cj * r
        scale = max(1.0, max((abs(v) for v in total.coeffs.values()), default=0.0))
        for k in set(p.coeffs) | set(total.coeffs):
            diff = p.coeffs.get(k, 0.0) - total.coeffs.get(k, 0.0)
            assert abs(diff) <= 1e-12 * scale

    def test_centered_basis_is_the_identity(self):
        # the basis is stored in u = z - center, off the origin too
        for domain in Polydisc((1.0, 1.0)), Polydisc((1.0, 0.5), (0.3, -0.2j)):
            m = assemble_gram(domain, ZeroWeight(2), 3)
            assert m.exps.tolist() == [list(a) for a in m.basis_labels]
            assert np.all(m.coeffs == 1.0)
            assert m.seg.tolist() == list(range(m.size))

    @settings(max_examples=200, deadline=None)
    @given(translated_kernel_cases())
    def test_kernel_is_translation_invariant(self, case):
        # a quadratic centered at c on a polydisc about c, at z0, is the
        # same weight centered at 0 on a polydisc about 0, at z0 - c: the
        # same Gram, basis and point, so the same kernel bit for bit
        radii, q, c, xi, degree, z0 = case
        moved = orthonormalize(
            assemble_gram(Polydisc(radii, c), QuadraticWeight(q, c), degree)
        )
        home = orthonormalize(
            assemble_gram(Polydisc(radii), QuadraticWeight(q), degree)
        )
        u0 = tuple(z - ci for z, ci in zip(z0, c))
        assert xi_kernel(moved, xi, z0) == xi_kernel(home, xi, u0)

    def test_basis_view_is_read_only(self):
        m = assemble_gram(Polydisc((0.5,), (0.3,)), ZeroWeight(1), 3)
        assert isinstance(m.basis, tuple) and m.basis is m.basis


class TestClassicalKernel:
    def test_unit_disc_dirac(self):
        m = orthonormalize(assemble_gram(Polydisc((1.0,)), ZeroWeight(1), 40))
        for z in (0.0, 0.3, 0.5):
            K = xi_kernel(m, DIRAC1, (z,))
            assert K == pytest.approx(classical_disc_kernel(z), rel=1e-6)

    def test_off_center_disc(self):
        D = Polydisc((0.5,), (0.3,))
        m = orthonormalize(assemble_gram(D, ZeroWeight(1), 30))
        K = xi_kernel(m, DIRAC1, (0.3,))
        assert K == pytest.approx(1.0 / (math.pi * 0.25), rel=1e-9)

    def test_derivative_functional_at_center(self):
        # sum over k of |d/dz e_k|^2 at 0 on the unit disc: e_k = z^k sqrt((k+1)/pi)
        m = orthonormalize(assemble_gram(Polydisc((1.0,)), ZeroWeight(1), 20))
        K = xi_kernel(m, Functional(1, {(1,): 1.0}), (0.0,))
        assert K == pytest.approx(2.0 / math.pi, rel=1e-12)

    @pytest.mark.parametrize("R, alpha, K", [
        # only e_0 = 1 / sqrt(pi R^2) is nonzero at 0
        (1.5, 0, 1.0 / (2.25 * math.pi)),
        (2.0, 0, 1.0 / (4.0 * math.pi)),
        # the Taylor coefficient of z^30: 1 / ||z^30||^2 = 31 / (pi R^62)
        (0.5, 30, 31.0 / (math.pi * 0.5**62)),
    ], ids=["dirac_R1.5", "dirac_R2", "e30_R0.5"])
    def test_wide_moment_range_at_degree_40(self, R, alpha, K):
        # the moments pi R^(2k + 2) / (k + 1) span more than 12 decades; a
        # cutoff on the unscaled Gram dropped well-conditioned elements and
        # read K = 0 in each case
        m = orthonormalize(assemble_gram(Polydisc((R,)), ZeroWeight(1), 40))
        assert m.rank == 41
        got = xi_kernel(m, Functional(1, {(alpha,): 1.0}), (0.0,))
        assert abs(got - K) <= 1e-12 * K

    def test_top_moment_at_the_edge_of_the_float_range(self):
        # on R = 20 at degree 118 the last moment is pi 20^238 / 119 =
        # 1.166e308, whose power 20^238 overflows: it was refused as
        # outside the float range
        m = assemble_gram(Polydisc((20.0,)), ZeroWeight(1), 118)
        assert m.G[-1].real == pytest.approx(1.16611633586648e308, rel=1e-12)
        K = xi_kernel(m, DIRAC1, (0.0,))
        want = 1.0 / (400.0 * math.pi)
        assert abs(K / want - 1.0) <= 1e-15

    def test_subnormal_moment_keeps_its_kernel(self):
        # on a disc of radius 1e-10 the degree-15 moment pi R^32 / 16 is the
        # subnormal 1.96e-321, whose 1 / d overflowed the zero test's bound
        # to inf: the kernel read 0 and exited 0
        m = orthonormalize(assemble_gram(Polydisc((1e-10,)), ZeroWeight(1), 15))
        assert 0 < m.gram[-1, -1] < np.finfo(float).tiny
        K = xi_kernel(m, DIRAC1, (5e-11,))
        assert K == pytest.approx(classical_disc_kernel(5e-11, 1e-10), rel=1e-8)
        assert np.isfinite(m.frame.s).all()

    def test_outside_domain_rejected(self):
        m = assemble_gram(Polydisc((1.0,)), ZeroWeight(1), 4)
        with pytest.raises(ValueError, match="outside domain"):
            xi_kernel(m, DIRAC1, (1.5,))
        with pytest.raises(ValueError, match="outside domain"):
            extremal_function(m, DIRAC1, (1.5,))
        with pytest.raises(ValueError, match="outside domain"):
            boundedness_constant(m, DIRAC1, [(0.2,), (1.5,)])


class TestExtremalFunction:
    def test_attains_kernel_value(self):
        D = Polydisc((1.0,))
        wt = QuadraticWeight((1.0,))
        m = orthonormalize(assemble_gram(D, wt, 12))
        xi = Functional(1, {(0,): 1.0, (1,): 0.5j})
        z = (0.4 - 0.2j,)
        K = xi_kernel(m, xi, z)
        c = extremal_function(m, xi, z)
        u = basis_action(m, xi, z)
        val = complex(u @ c)
        ratio = abs(val) ** 2 / m.norm_sq(c)
        assert ratio == pytest.approx(K, rel=1e-10)

    def test_constant_shift_keeps_the_extremal_function(self):
        # psi = -80 scales the kernel by e^-80 ~ 1.8e-35; the extremal
        # function of the Dirac functional at 0 is the constant K
        m = orthonormalize(
            assemble_gram(Polydisc((1.0,)), ConstantWeight(1, -80.0), 4)
        )
        K = xi_kernel(m, DIRAC1, (0.0,))
        assert K == pytest.approx(math.exp(-80.0) / math.pi, rel=1e-12)
        c = extremal_function(m, DIRAC1, (0.0,))
        assert c[0] == pytest.approx(K, rel=1e-12) and not c[1:].any()

    def test_kernel_zero_raises(self):
        # Dirac at 0 annihilates the divisor-factored model (g(0) = 0)
        g = PolyW(1, {(1,): 1.0})
        m = orthonormalize(assemble_gram(Polydisc((1.0,)), LogDivisorWeight(g), 4))
        assert xi_kernel(m, DIRAC1, (0.0,)) <= 1e-30
        with pytest.raises(KernelZeroError):
            extremal_function(m, DIRAC1, (0.0,))


class TestInvariants:
    def setup_method(self):
        self.model = orthonormalize(
            assemble_gram(Polydisc((1.0,)), ZeroWeight(1), 10)
        )
        self.rng = np.random.default_rng(7)

    def random_xi(self):
        deg = int(self.rng.integers(0, 4))
        coeffs = {
            (k,): complex(*self.rng.uniform(-2, 2, 2)) for k in range(deg + 1)
        }
        return Functional(1, coeffs)

    def random_point(self):
        r, t = 0.8 * self.rng.random(), 2 * math.pi * self.rng.random()
        return (r * complex(math.cos(t), math.sin(t)),)

    def test_scaling_homogeneity(self):
        for _ in range(100):
            xi, z = self.random_xi(), self.random_point()
            c = complex(*self.rng.uniform(-2, 2, 2))
            K1 = xi_kernel(self.model, c * xi, z)
            K2 = abs(c) ** 2 * xi_kernel(self.model, xi, z)
            assert abs(K1 - K2) <= 1e-9 * max(1.0, K2)

    def test_weight_shift_law(self):
        base = orthonormalize(assemble_gram(Polydisc((1.0,)), ZeroWeight(1), 8))
        for a in (-1.0, 0.5, 2.0):
            shifted = orthonormalize(
                assemble_gram(Polydisc((1.0,)), ConstantWeight(1, a), 8)
            )
            for _ in range(30):
                xi, z = self.random_xi(), self.random_point()
                K0 = xi_kernel(base, xi, z)
                Ka = xi_kernel(shifted, xi, z)
                assert Ka == pytest.approx(math.exp(a) * K0, rel=1e-9)

    def test_degree_monotonicity(self):
        models = [
            orthonormalize(assemble_gram(Polydisc((1.0,)), ZeroWeight(1), d))
            for d in (4, 8, 16)
        ]
        for _ in range(100):
            xi, z = self.random_xi(), self.random_point()
            vals = [xi_kernel(m, xi, z) for m in models]
            assert vals[0] <= vals[1] + 1e-12 and vals[1] <= vals[2] + 1e-12

    def test_domain_monotonicity(self):
        small = orthonormalize(assemble_gram(Polydisc((0.9,)), ZeroWeight(1), 10))
        big = orthonormalize(assemble_gram(Polydisc((1.1,)), ZeroWeight(1), 10))
        for _ in range(100):
            xi, z = self.random_xi(), self.random_point()
            assert xi_kernel(big, xi, z) <= xi_kernel(small, xi, z) + 1e-12


class TestBoundednessAndSummary:
    def test_boundedness_constant_is_sup(self):
        m = orthonormalize(assemble_gram(Polydisc((1.0,)), ZeroWeight(1), 10))
        grid = [(0.1 * k,) for k in range(9)]
        C = boundedness_constant(m, DIRAC1, grid)
        assert C == pytest.approx(max(xi_kernel(m, DIRAC1, z) for z in grid))
        with pytest.raises(ValueError):
            boundedness_constant(m, DIRAC1, [])

    def test_summary_json(self):
        m = assemble_gram(Polydisc((1.0,)), ZeroWeight(1), 3)
        s = model_summary_json(m)
        assert s["basisSize"] == 4 and s["rank"] == 4
        assert len(s["eigenvalues"]) == 4


def reference_frame(G):
    """The eigenvalues, dense frame and rank that ``np.linalg.eigh`` gives
    under the ``EIG_CUTOFF_REL`` rule on the equilibrated Gram s G s,
    s = D^-1/2."""
    G = 0.5 * (G + G.conj().T)
    s = 1.0 / np.sqrt(G.diagonal().real)
    lam, V = np.linalg.eigh(s[:, None] * G * s[None, :])
    keep = lam > bergman.EIG_CUTOFF_REL * lam[-1]
    return lam, s[:, None] * V[:, keep] / np.sqrt(lam[keep]), int(keep.sum())


def kernel_sum(a):
    """sum_k |a_k|^2 as re^2 + im^2, the kernels' own rounding: np.abs(a)**2
    rounds |a| first, which moves a subnormal K by an ulp of 5e-324, more
    than a relative bound allows there."""
    return np.sum(a.real**2 + a.imag**2)


def subnormal_kernel_problem():
    """A draw whose kernel, ~1.2e-317, is subnormal."""
    c = 4.303739502171819e-160
    return (assemble_gram(Polydisc((0.1,)), ZeroWeight(1), 0),
            Functional(1, {(0,): complex(c, c)}), (0.0,))


def close(x, want, rel=1e-14):
    """x within rel of want, in the 2-norm."""
    return np.linalg.norm(np.subtract(x, want)) <= rel * np.linalg.norm(want)


@st.composite
def diagonal_gram_problems(draw):
    """A closed-form or divisor model, which has an exactly diagonal Gram,
    with a functional and a point.  Equal radii tie eigenvalues, and a small
    radius at a high degree puts some below the cutoff."""
    n = draw(st.sampled_from([1, 2]))
    radius = st.sampled_from([0.1, 0.5, 1.0, 1.5])
    radii = tuple(draw(radius) for _ in range(n))
    kind = draw(st.sampled_from(["zero", "constant", "quadratic", "log", "divisor"]))
    if kind == "zero":
        weight = ZeroWeight(n)
    elif kind == "constant":
        weight = ConstantWeight(n, draw(st.floats(-5.0, 5.0)))
    elif kind == "quadratic":
        weight = QuadraticWeight(tuple(draw(st.floats(0.0, 4.0)) for _ in range(n)))
    elif kind == "log":
        weight = LogMonomialWeight(
            tuple(draw(st.sampled_from([0.0, 0.5, 1.0])) for _ in range(n))
        )
    else:
        weight = LogDivisorWeight(PolyW(n, {(1,) + (0,) * (n - 1): 1.0}))
    degree = draw(st.integers(0, 12 if n == 1 else 6))
    labels = multi_indices_upto(n, 2)
    coeffs = st.builds(complex, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
    xi = Functional(n, {a: draw(coeffs) for a in draw(
        st.lists(st.sampled_from(labels), min_size=1, max_size=3, unique=True)
    )})
    z = tuple(0.9 * draw(st.floats(-0.7, 0.7)) * r for r in radii)
    model = assemble_gram(Polydisc(radii), weight, degree)
    assume(model.size > 0)  # a pole of order 1 excludes every alpha = 0
    return model, xi, z


class TestOrthonormalize:
    @given(diagonal_gram_problems())
    @example(subnormal_kernel_problem())
    @settings(max_examples=150, deadline=None)
    def test_diagonal_gram_matches_eigh(self, problem):
        model, xi, z = problem
        G = model.gram
        assert np.array_equal(G, np.diag(np.diag(G)))
        lam, T, rank = reference_frame(model.gram)
        orthonormalize(model)
        assert np.array_equal(model.eigenvalues, lam)
        assert model.rank == rank
        assert np.array_equal(
            np.sort(np.abs(model.transform), axis=1), np.sort(np.abs(T), axis=1)
        )
        # the kernel before its zero test, against the actions on T
        K = kernels(model, list(xi.coeffs), [list(xi.coeffs.values())], z)[0][0]
        want = kernel_sum(basis_action(model, xi, z) @ T)
        assert abs(K - want) <= 1e-14 * want

    @given(diagonal_gram_problems())
    @example(subnormal_kernel_problem())
    @settings(max_examples=150, deadline=None)
    def test_vector_frame_matches_the_dense_reference(self, problem):
        """The scaled columns of an exactly diagonal Gram's frame act as the
        dense eigh frame does: in the kernels, the extremal function and the
        free solve of the extension, with_datum included."""
        model, xi, z = problem
        # the stored Gram is its diagonal, and the gram view its matrix
        assert model.G.ndim == 1
        assert np.array_equal(model.gram, np.diag(model.G))
        rng = np.random.default_rng(len(model.basis_labels))
        c = rng.standard_normal(model.size) + 1j * rng.standard_normal(model.size)
        assert model.norm_sq(c) == float(np.real(np.conj(c) @ model.gram @ c))
        T = reference_frame(model.gram)[1]
        orthonormalize(model)
        assert model.frame.cols is not None and model.frame.shape == T.shape
        alphas, X = list(xi.coeffs), [list(xi.coeffs.values())]
        K, a, zero = kernels(model, alphas, X, z)
        a_ref = basis_action(model, xi, z) @ T
        want = kernel_sum(a_ref)
        assert abs(K[0] - want) <= 1e-14 * want
        if not zero[0]:
            assert close(extremal_function(model, xi, z), T @ np.conj(a_ref))

        f = model.basis[0]
        prob = ExtensionProblem(model.domain, 1.0, WIndependentJoint(model.weight, 1),
                                0.0, f, model.degree, 2)
        res = minimal_extension(prob)
        assert res.H.ndim == 1 and np.array_equal(res.gram, np.diag(res.H))
        for r in (res, res.with_datum(f * (0.5 - 1j) + model.basis[-1])):
            free = r.free
            TF = reference_frame(r.gram[np.ix_(free, free)])[1]
            assert r.factor.cols is not None and r.factor.shape == TF.shape
            b = r.coeffs.copy()
            b[free] = 0
            want = b.copy()
            want[free] = TF @ (np.conj(TF).T @ (-r.gram[free] @ b))
            assert close(r.coeffs, want)
            # G_FC = 0 on a diagonal Gram: the frame's solve of a full rhs
            rhs = (1.0 + np.arange(len(free))) * np.exp(1j * np.arange(len(free)))
            assert close(r.factor.solve(rhs), TF @ (np.conj(TF).T @ rhs))

    def test_diagonal_frame_holds_no_square_array(self):
        # 2-D zero weight at degree 40: p = 861, whose complex Gram or dense
        # frame alone is 11.3 MiB
        tracemalloc.start()
        try:
            model = assemble_gram(Polydisc((1.0, 1.0)), ZeroWeight(2), 40)
            orthonormalize(model)
            K = xi_kernel(model, Functional(2, {(0, 0): 1.0}), (0.3, 0.1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert model.size == model.rank == 861 and K > 0
        assert peak < 2**20

    def test_diagonal_extension_holds_no_square_array(self):
        # a 2-D w-independent zero weight at dz = dw = 12: p = 1183, whose
        # complex joint Gram alone is 21.4 MiB
        prob = ExtensionProblem(Polydisc((1.0, 1.0)), 1.0,
                                WIndependentJoint(ZeroWeight(2), 1), 0.0,
                                PolyW(2, {(0, 0): 1.0, (2, 1): 0.5}), 12, 12)
        tracemalloc.start()
        try:
            res = minimal_extension(prob)
            report = extension_report(prob, res)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.model.size == 1183 and report["ratio"] > 0
        assert peak < 2 * 2**20

    def test_diagonal_gram_skips_eigh(self, monkeypatch):
        def no_eigh(G):
            raise AssertionError("eigh called")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        m = orthonormalize(assemble_gram(Polydisc((1.0, 1.0)), ZeroWeight(2), 6))
        assert m.rank == m.size == 28
        with pytest.raises(AssertionError, match="eigh called"):
            # off its center a quadratic weight has a full Gram
            orthonormalize(
                assemble_gram(Polydisc((1.0,)), QuadraticWeight((1.0,), (0.3,)), 4)
            )
