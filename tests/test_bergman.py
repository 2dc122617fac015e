"""Unit tests for truncated Gram models and extremal kernels."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xibergman import bergman
from xibergman.bergman import (
    KernelZeroError,
    QuadSpec,
    _tensor_quadrature_gram,
    assemble_gram,
    basis_action,
    boundedness_constant,
    extremal_function,
    model_summary_json,
    orthonormalize,
    xi_kernel,
)
from xibergman.family import PolyW
from xibergman.functional import Functional, TaylorData, apply, recenter
from xibergman.weights import (
    ConstantWeight,
    LogDivisorWeight,
    LogMonomialWeight,
    Polydisc,
    QuadraticWeight,
    SumWeight,
    UnsupportedWeightError,
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

    def test_taylor_action_uses_exact_binomials(self):
        # the 14th derivative of z^31 / 14! at z = 1 is C(31, 14) = 265182525;
        # a float binomial gives 265182524.99999997
        E = np.array([[31], [31]])
        u = bergman.taylor_action(
            E, np.array([1.0, 1.0j]), np.array([0, 1]), 2,
            Functional(1, {(14,): 1.0}), (1.0,),
        )
        assert u[0] == 265182525.0 == math.comb(31, 14)
        assert u[1] == 265182525.0j


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
        m = assemble_gram(Polydisc((1.0, 1.0)), ZeroWeight(2), 3)
        assert m.exps.tolist() == [list(a) for a in m.basis_labels]
        assert np.all(m.coeffs == 1.0) and m.seg.tolist() == list(range(m.size))

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

    def test_outside_domain_rejected(self):
        m = assemble_gram(Polydisc((1.0,)), ZeroWeight(1), 4)
        with pytest.raises(ValueError):
            xi_kernel(m, DIRAC1, (1.5,))


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
