"""Unit tests for minimum-norm extension and the optimal-constant check."""

import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xibergman.bergman import (
    EIG_CUTOFF_REL,
    QuadSpec,
    _tensor_quadrature_gram,
    assemble_gram,
    extremal_function,
    orthonormal_frame,
    orthonormalize,
    xi_kernel,
)
from xibergman.extension import (
    ExtensionProblem,
    _fiber_gram,
    _fill_free,
    _jensen_actions,
    _joint_gram,
    _placed,
    InconsistentConstraintError,
    ZeroFiberNormError,
    extension_report,
    fiber_norm,
    jensen_diagnostic,
    minimal_extension,
    optimal_constant_check,
)
from xibergman.family import FunctionalFamily, PolyW
from xibergman.fiberwise import FamilyProblem, log_kernel_on_fiber
from xibergman.functional import (
    ArityMismatchError,
    TaylorData,
    apply,
    multi_indices_upto,
    recenter,
)
from xibergman.weights import (
    ConstantWeight,
    JointLogDivisor,
    JointPairQuadratic,
    JointQuadraticSplit,
    LogDivisorWeight,
    LogMonomialWeight,
    Polydisc,
    QuadraticWeight,
    SumWeight,
    UnsupportedWeightError,
    WIndependentJoint,
    ZeroWeight,
    substitute_base,
    weight_from_json,
)

DISC = Polydisc((1.0,))
W_INDEP = WIndependentJoint(ZeroWeight(1), 1)
GAUSSIAN = JointQuadraticSplit((1.0,), (1.0,))
DIRAC_FAMILY = FunctionalFamily(1, 1, {(0,): PolyW.constant(1.0, 1)})


def problem(weight=W_INDEP, f=None, r=1.0, dz=10, dw=10):
    if f is None:
        f = PolyW(1, {(0,): 2.0, (1,): 1.0})
    return ExtensionProblem(DISC, r, weight, 0.0, f, dz, dw)


class TestMinimalExtension:
    def test_restriction_exactness(self):
        res = minimal_extension(problem())
        restricted = res.restrict(0.0)
        expect = {(0,): 2.0, (1,): 1.0}
        for k in set(restricted.coeffs) | set(expect):
            assert abs(restricted.coeffs.get(k, 0) - expect.get(k, 0)) < 1e-12

    def test_w_independent_minimizer_is_constant_in_w(self):
        res = minimal_extension(problem())
        F = res.joint_poly()
        for exps, c in F.coeffs.items():
            if exps[-1] != 0:
                assert abs(c) < 1e-12

    def test_zero_datum_extends_to_zero(self):
        res = minimal_extension(problem(f=PolyW(1, {})))
        assert res.joint_norm < 1e-20
        assert all(abs(c) < 1e-12 for c in res.joint_poly().coeffs.values())

    def test_kkt_residual_small(self):
        for wt in (W_INDEP, GAUSSIAN):
            res = minimal_extension(problem(weight=wt))
            assert res.kkt_residual < 1e-9

    def test_null_space_perturbations_increase_norm(self):
        res = minimal_extension(problem(weight=GAUSSIAN, f=PolyW(1, {(1,): 1.0})))
        G = res.model.gram
        rng = np.random.default_rng(5)
        base = res.joint_norm
        for _ in range(20):
            y = rng.standard_normal(res.null_basis.shape[1]) + 1j * rng.standard_normal(
                res.null_basis.shape[1]
            )
            d = res.null_basis @ (0.1 * y)
            c = res.coeffs + d
            perturbed = float(np.real(np.conj(c) @ G @ c))
            assert perturbed >= base - 1e-12 * max(1.0, base)

    def test_gaussian_beats_or_matches_constant_extension(self):
        prob = problem(weight=GAUSSIAN, f=PolyW(1, {(1,): 1.0}))
        res = minimal_extension(prob)
        # the feasible point F(z, w) = z has joint norm = fiber norm x
        # (base mass of e^{-|w|^2}); the minimizer can only do better
        base_mass = math.pi * (1.0 - math.exp(-1.0))
        feasible = fiber_norm(prob) * base_mass / math.pi * math.pi
        assert res.joint_norm <= feasible * (1 + 1e-10)

    def test_schur_solve_on_tensor_path(self):
        # |z - w|^2 is not a product weight: the joint Gram is dense
        prob = ExtensionProblem(
            DISC, 0.8, JointPairQuadratic((1.0,)), 0.0,
            PolyW(1, {(0,): 1.0, (1,): 0.5}), 2, 2, QuadSpec(8, 8),
        )
        res = minimal_extension(prob)
        assert res.kkt_residual < 1e-9
        ratio = optimal_constant_check(prob, res)
        assert ratio == pytest.approx(0.82768974113143, rel=1e-12)

    def test_off_center_base_matches_tensor_reference(self):
        # the Gaussian joint weight on the base disc about w0 = 0.3: 121
        # elements on the per-coordinate quadrature against the tensor rule
        # on the same nodes (the default method takes the z factor, centered,
        # in closed form)
        prob = ExtensionProblem(
            DISC, 1.0, GAUSSIAN, 0.3, PolyW(1, {(1,): 1.0}), 10, 10, QuadSpec(8, 8)
        )
        model = assemble_gram(prob.joint_domain(), prob.joint_weight, 20,
                              prob.quad, method="quadrature",
                              labels=prob.joint_labels())
        G = _tensor_quadrature_gram(model, prob.quad)
        assert model.size == 121
        assert np.max(np.abs(model.gram - G)) <= 1e-12 * np.max(np.abs(G))

    def test_inconsistent_datum_rejected(self):
        with pytest.raises(InconsistentConstraintError):
            minimal_extension(problem(f=PolyW(1, {(5,): 1.0}), dz=3))


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


class TestJointWeightOnTheProductDomain:
    # the product weight each shipped extend weight was turned into before a
    # joint weight was a weight on the product domain
    @pytest.mark.parametrize("name, product", [
        ("extend_gaussian", QuadraticWeight((1.0,) + (1.0,))),  # cz + cw
        ("extend_gaussian_steep", QuadraticWeight((1.0,) + (800.0,))),
        ("extend_windependent", ZeroWeight(2)),
    ])
    def test_joint_gram_is_that_of_the_product_weight(self, name, product):
        cfg = json.loads((CONFIGS / f"{name}.json").read_text())
        prob = ExtensionProblem(
            Polydisc(tuple(cfg["fiberDomain"]["radii"])), cfg["baseRadius"],
            weight_from_json(cfg["weight"]), complex(*cfg["w0"]),
            PolyW(1, {(0,): 1.0}), cfg["dz"], cfg["dw"],
        )
        expect = assemble_gram(prob.joint_domain(), product, prob.dz + prob.dw,
                               prob.quad, labels=prob.joint_labels())
        model = _joint_gram(prob)
        assert model.weight is prob.joint_weight
        assert np.array_equal(model.gram, expect.gram)


G = PolyW(1, {(0,): 2.0, (1,): 1.0})  # g = 2 + z, no zero in the unit disc


class TestDivisorFiberNorm:
    # the fiber model's basis is g z^alpha: the datum g has fiber norm
    # ||1||^2 = pi, not ||g^2||^2 = 4.5 pi
    @pytest.mark.parametrize("weight", [
        WIndependentJoint(LogDivisorWeight(G), 1),
        JointLogDivisor(PolyW(2, {(0, 0): 2.0, (1, 0): 1.0}), 1),
    ], ids=["w_independent", "joint_log_divisor"])
    def test_ratio_is_one(self, weight):
        prob = ExtensionProblem(DISC, 0.5, weight, 0.0, G, 3, 3, QuadSpec(16, 32))
        rep = extension_report(prob, minimal_extension(prob))
        assert rep["fiberNorm"] == pytest.approx(math.pi, rel=1e-12)
        assert rep["ratio"] == pytest.approx(1.0, abs=1e-12)

    def test_datum_outside_the_span_rejected(self):
        # 1 is not g times a polynomial; the ratio read 0.2877
        prob = ExtensionProblem(DISC, 0.5, WIndependentJoint(LogDivisorWeight(G), 1),
                                0.0, PolyW(1, {(0,): 1.0}), 3, 3, QuadSpec(16, 32))
        with pytest.raises(InconsistentConstraintError, match="divisor basis"):
            fiber_norm(prob)

    def test_sum_with_a_divisor_part(self):
        # the w-independent extension of a sum with a divisor part: the
        # product weight of its base was None inside a SumWeight
        base = SumWeight((QuadraticWeight((1.0,)), LogDivisorWeight(G)))
        prob = ExtensionProblem(DISC, 0.5, WIndependentJoint(base, 1), 0.0, G,
                                3, 3, QuadSpec(8, 8))
        rep = extension_report(prob, minimal_extension(prob))
        assert rep["fiberNorm"] == pytest.approx(
            math.pi * (1.0 - math.exp(-1.0)), rel=1e-12
        )
        assert rep["ratio"] == pytest.approx(1.0, abs=1e-9)


Z_MINUS_W = JointLogDivisor(PolyW(2, {(1, 0): 1.0, (0, 1): -1.0}), 1)


class TestDivisorJointBasis:
    # a joint weight with a divisor part 2 log|g| takes the joint basis
    # g(z, w) z^alpha w^k, whose Gram is that of the rest
    def test_vanishing_divisor_ratio_is_one_at_every_node_count(self):
        # 2 log|z - w|: only multiples of z - w have a finite joint norm.  The
        # tensor rule over the monomial basis read ratio 0.99628, 0.99546 and
        # 0.99942 at 8, 16 and 32 nodes; F = (z - w) h with h(z, 0) = 1, and
        # the minimizer is h = 1
        runs = []
        for nodes in (8, 16, 32):
            prob = ExtensionProblem(DISC, 0.5, Z_MINUS_W, 0.0, PolyW(1, {(1,): 1.0}),
                                    2, 2, QuadSpec(nodes, nodes))
            res = minimal_extension(prob)
            runs.append((extension_report(prob, res), res.coeffs))
        assert runs[0][0]["ratio"] == pytest.approx(1.0, abs=1e-12)
        for rep, coeffs in runs[1:]:
            assert rep == runs[0][0]
            assert np.array_equal(coeffs, runs[0][1])

    @pytest.mark.parametrize("base, rest", [
        (LogDivisorWeight(G), ZeroWeight(1)),
        (SumWeight((QuadraticWeight((1.0,)), LogDivisorWeight(G))),
         QuadraticWeight((1.0,))),
    ], ids=["divisor", "sum"])
    def test_w_independent_gram_is_a_kronecker_product(self, base, rest):
        # the fiber Gram of the rest times the base-disc moments
        # pi r^(2k+2) / (k + 1); the tensor rule took 2.2 s here
        r, dz, dw = 0.5, 3, 3
        prob = ExtensionProblem(DISC, r, WIndependentJoint(base, 1), 0.0, G,
                                dz, dw, QuadSpec(16, 32))
        fiber = assemble_gram(DISC, rest, dz, prob.quad)
        moments = [math.pi * r ** (2 * k + 2) / (k + 1) for k in range(dw + 1)]
        expect = np.kron(fiber.gram, np.diag(moments))
        assert np.all(np.abs(_joint_gram(prob).gram - expect)
                      <= 1e-12 * np.abs(expect))
        rep = extension_report(prob, minimal_extension(prob))
        assert rep["ratio"] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("g, c", [
        (Z_MINUS_W.g, 1.5),
        (Z_MINUS_W.g, 2.0),
        # |z - w|^(-3): c < 1, but c deg g = 1.5
        (PolyW(2, {(2, 0): 1.0, (1, 1): -2.0, (0, 2): 1.0}), 0.75),
    ], ids=["c1.5", "c2", "square_c0.75"])
    @pytest.mark.parametrize("nodes", [8, 16])
    def test_divisor_not_integrable_where_it_vanishes_refused(self, g, c, nodes):
        # |g|^(-2c) is integrable nowhere near z = w: the tensor rule read
        # the joint norm 5.0617 and 4.8871 at 8 and 16 nodes for c = 1.5, and
        # 32.78 and 41.21 for c = 2
        prob = ExtensionProblem(DISC, 0.5, JointLogDivisor(g, 1, c), 0.0,
                                PolyW(1, {(1,): 1.0}), 2, 2, QuadSpec(nodes, nodes))
        with pytest.raises(UnsupportedWeightError,
                           match="may vanish in the closed domain"):
            minimal_extension(prob)

    @pytest.mark.parametrize("g, c, w0, r", [
        # |2| > |1| 1 + |-0.5| 0.5 on the centered product domain
        (PolyW(2, {(0, 0): 2.0, (1, 0): 1.0, (0, 1): -0.5}), 1.5, 0.0, 0.5),
        # g = w has no constant term, but g = 0.9 + (w - 0.9) about w0 = 0.9
        (PolyW(2, {(0, 1): 1.0}), 1.5, 0.9, 0.05),
        # g = z - w vanishes in the domain, but |g|^(-1) is integrable there
        (Z_MINUS_W.g, 0.5, 0.0, 0.5),
    ], ids=["centered", "off_center", "c_deg_below_one"])
    def test_divisor_integrable_or_without_zeros_keeps_the_tensor_rule(
        self, g, c, w0, r
    ):
        prob = ExtensionProblem(DISC, r, JointLogDivisor(g, 1, c), w0,
                                PolyW(1, {(1,): 1.0}), 2, 2, QuadSpec(8, 8))
        res = minimal_extension(prob)
        assert res.kkt_residual < 1e-9
        assert 0 < res.joint_norm < math.inf

    def test_fiber_of_a_divisor_without_zeros_takes_the_tensor_rule(self):
        # the central fiber weight 2c log|g(., 0)| with c = 1.5 has no
        # factored basis and takes the tensor rule as the joint weight does;
        # divisor_split refused it, so the report and the diagnostic raised
        g = PolyW(2, {(0, 0): 2.0, (1, 0): 1.0, (0, 1): -0.5})
        for quad in (QuadSpec(8, 8), QuadSpec(12, 12)):
            prob = ExtensionProblem(DISC, 0.5, JointLogDivisor(g, 1, 1.5), 0.0,
                                    PolyW(1, {(0,): 1.0, (1,): 0.5}), 2, 2, quad)
            res = minimal_extension(prob)
            ratio = extension_report(prob, res)["ratio"]
            assert ratio == pytest.approx(1.0, abs=1e-6)
        assert jensen_diagnostic(prob, DIRAC_FAMILY, (0.3,), result=res,
                                 radial_nodes=4, angular_nodes=8)["holds"]

    def test_no_divisor_weight_takes_the_tensor_rule(self, monkeypatch):
        import xibergman.bergman as bergman

        def refuse(model, quad):
            raise AssertionError("divisor weight on the tensor path")

        monkeypatch.setattr(bergman, "_tensor_quadrature_gram", refuse)
        for weight, f in [(Z_MINUS_W, PolyW(1, {(1,): 1.0})),
                          (WIndependentJoint(LogDivisorWeight(G), 1), G)]:
            prob = ExtensionProblem(DISC, 0.5, weight, 0.0, f, 2, 2, QuadSpec(16, 32))
            res = minimal_extension(prob)
            assert extension_report(prob, res)["ratio"] == pytest.approx(1.0, abs=1e-12)
            jensen_diagnostic(prob, DIRAC_FAMILY, (0.3,), result=res)


class TestOptimalConstant:
    def test_w_independent_ratio_is_one(self):
        prob = problem()
        ratio = optimal_constant_check(prob, minimal_extension(prob))
        assert abs(ratio - 1.0) <= 1e-10

    def test_constant_shift_cancels(self):
        # e^{-2} scales the joint and the fiber norm alike
        prob = problem(weight=WIndependentJoint(ConstantWeight(1, 2.0), 1))
        ratio = optimal_constant_check(prob, minimal_extension(prob))
        assert abs(ratio - 1.0) <= 1e-12

    def test_gaussian_ratio_below_one(self):
        prob = problem(weight=GAUSSIAN, f=PolyW(1, {(1,): 1.0}))
        ratio = optimal_constant_check(prob, minimal_extension(prob))
        assert ratio <= 1.0 + 5e-3
        # strict improvement expected: e^{-|w|^2} has sub-Lebesgue mass
        assert ratio < 1.0
        assert ratio == pytest.approx(1.0 - math.exp(-1.0), rel=1e-9)

    def test_shrinking_base_disc_trend(self):
        ratios = []
        for r in (1.0, 0.5, 0.25):
            prob = problem(weight=GAUSSIAN, f=PolyW(1, {(1,): 1.0}), r=r)
            ratios.append(optimal_constant_check(prob, minimal_extension(prob)))
        assert all(x <= 1.0 + 5e-3 for x in ratios)
        assert ratios == sorted(ratios)  # closer to 1 as the disc shrinks

    def test_zero_fiber_norm_rejected(self):
        prob = problem(f=PolyW(1, {}))
        res = minimal_extension(prob)
        with pytest.raises(ZeroFiberNormError):
            optimal_constant_check(prob, res)

    def test_report_fields(self):
        prob = problem()
        rep = extension_report(prob, minimal_extension(prob))
        assert set(rep) == {"ratio", "fiberNorm", "jointNorm", "kktResidual"}
        assert rep["ratio"] == pytest.approx(1.0, abs=1e-10)


class TestJensenDiagnostic:
    def test_w_independent_equality_case(self):
        out = jensen_diagnostic(problem(), DIRAC_FAMILY, (0.0,))
        assert out["holds"]
        assert abs(out["margin"]) < 1e-10
        assert out["areaCheck"] == pytest.approx(1.0, abs=1e-10)

    def test_gaussian_strict_inequality(self):
        out = jensen_diagnostic(
            problem(weight=GAUSSIAN, f=PolyW(1, {(1,): 1.0})), DIRAC_FAMILY, (0.0,)
        )
        assert out["holds"] and out["margin"] > 0.1

    def test_off_center_evaluation_point(self):
        out = jensen_diagnostic(problem(), DIRAC_FAMILY, (0.3,))
        assert out["holds"], out

    def test_returns_python_scalars(self):
        out = jensen_diagnostic(problem(dz=3, dw=3), DIRAC_FAMILY, (0.0,))
        for key in ("lhs", "rhs", "margin", "areaCheck", "tolerance"):
            assert type(out[key]) is float, key
        assert out["holds"] is True

    def test_joint_log_divisor_fibers(self):
        # every fiber weight 2 log|1 + w/2| is a LogDivisorWeight holding a PolyW
        weight = JointLogDivisor(PolyW(2, {(0, 0): 1.0, (0, 1): 0.5}), 1)
        prob = ExtensionProblem(
            DISC, 1.0, weight, 0.0, PolyW(1, {(0,): 1.0}), 2, 2, QuadSpec(8, 8)
        )
        out = jensen_diagnostic(prob, DIRAC_FAMILY, (0.0,))
        assert out["holds"] is True
        assert abs(out["margin"]) < 1e-10

    def test_point_outside_fiber_disc_rejected(self):
        with pytest.raises(ValueError, match="outside domain"):
            jensen_diagnostic(problem(dz=2, dw=2), DIRAC_FAMILY, (1.5,))

    def test_point_arity_mismatch_rejected(self):
        with pytest.raises(ArityMismatchError):
            jensen_diagnostic(problem(dz=2, dw=2), DIRAC_FAMILY, ())


JENSEN_PROBLEMS = [
    problem(),
    problem(weight=GAUSSIAN, f=PolyW(1, {(1,): 1.0}), r=0.7, dz=6, dw=6),
    ExtensionProblem(DISC, 0.8, JointPairQuadratic((1.0,)), 0.1,
                     PolyW(1, {(0,): 1.0}), 2, 2, QuadSpec(8, 8)),
    ExtensionProblem(DISC, 1.0, JointLogDivisor(PolyW(2, {(0, 0): 1.0, (0, 1): 0.5}), 1),
                     0.0, PolyW(1, {(0,): 1.0}), 2, 2, QuadSpec(8, 8)),
]


class TestOneJointModel:
    @pytest.mark.parametrize("prob", JENSEN_PROBLEMS)
    def test_jensen_with_and_without_result_agree(self, prob):
        alone = jensen_diagnostic(prob, DIRAC_FAMILY, (0.2,))
        given_result = jensen_diagnostic(
            prob, DIRAC_FAMILY, (0.2,), result=minimal_extension(prob)
        )
        assert alone == given_result

    @pytest.mark.parametrize("prob", JENSEN_PROBLEMS)
    def test_with_datum_is_the_extension_of_the_datum(self, prob):
        f = PolyW(1, {(0,): 0.5 - 1j, (1,): 2.0})
        res = minimal_extension(prob)
        other = res.with_datum(f)
        fresh = minimal_extension(replace(prob, f=f))
        assert other.problem == fresh.problem
        assert other.model is res.model
        assert np.array_equal(other.coeffs, fresh.coeffs)
        assert other.kkt_residual == fresh.kkt_residual
        assert fiber_norm(other.problem, other.fiber_model()) == fiber_norm(
            fresh.problem
        )

    def test_central_fiber_model_is_shared(self):
        res = minimal_extension(problem(weight=GAUSSIAN))
        fmodel = res.fiber_model()
        assert res.fiber_model() is fmodel
        assert res.with_datum(PolyW(1, {(2,): 1.0})).fiber_model() is fmodel

    def test_result_of_another_problem_rejected(self):
        res = minimal_extension(problem(r=0.5))
        with pytest.raises(ValueError, match="not the extension"):
            jensen_diagnostic(problem(), DIRAC_FAMILY, (0.0,), result=res)


@st.composite
def psd_cases(draw):
    """A Hermitian PSD matrix of rank r <= size, exactly diagonal or dense,
    with kept eigenvalues in [0.1, 1] times a scale and the others 0, and
    two right-hand sides.  A diagonal one may also hold 1e-11 and 1e-13
    times its largest eigenvalue, which the cutoff on the equilibrated
    matrix keeps."""
    size = draw(st.integers(1, 12))
    rank = draw(st.integers(0, size))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ev = np.zeros(size)
    ev[:rank] = rng.uniform(0.1, 1.0, rank) * 10.0 ** draw(st.integers(-6, 6))
    diagonal = draw(st.booleans())
    if diagonal and rank and draw(st.booleans()):
        ev[rank:rank + 2] = [1e-11 * ev.max(), 1e-13 * ev.max()][:size - rank]
    ev = rng.permutation(ev)
    if diagonal:
        G = np.diag(ev).astype(complex)
    else:
        Q, _ = np.linalg.qr(rng.standard_normal((size, size))
                            + 1j * rng.standard_normal((size, size)))
        G = (Q * ev) @ np.conj(Q).T
        G = 0.5 * (G + np.conj(G).T)
    rhs = rng.standard_normal((2, size)) + 1j * rng.standard_normal((2, size))
    return G, rhs


class TestSharedFactorization:
    @settings(max_examples=80, deadline=None)
    @given(psd_cases())
    def test_solves_match_lstsq_and_separate_factorizations(self, case):
        G, rhs = case
        T = orthonormal_frame(G)[0]
        for b in rhs:
            y = T.solve(b)
            # lstsq on the equilibrated s G s, in the coordinates y / s; a
            # zero diagonal entry (a zero row and column) takes s = 0
            d = G.diagonal().real
            s = np.divide(1.0, np.sqrt(np.abs(d)), out=np.zeros(len(d)),
                          where=d > 0)
            ref = s * np.linalg.lstsq(s[:, None] * G * s[None, :], s * b,
                                      rcond=EIG_CUTOFF_REL)[0]
            assert np.linalg.norm(y - ref) <= 1e-12 * np.linalg.norm(ref)
            # a second datum on one factorization is its own solve
            assert np.array_equal(y, orthonormal_frame(G)[0].solve(b))

    def test_steep_gaussian_keeps_every_free_direction(self):
        # the free block's diagonal spans ~60 decades; a cutoff on the
        # unscaled block kept 15 of its 20 directions
        cfg = json.loads((CONFIGS / "extend_gaussian_steep.json").read_text())
        prob = ExtensionProblem(
            Polydisc((1.0,)), cfg["baseRadius"], weight_from_json(cfg["weight"]),
            complex(*cfg["w0"]), PolyW(1, {(1,): 1.0}), cfg["dz"], cfg["dw"],
        )
        res = minimal_extension(prob)
        assert len(res.free) == res.factor.shape[1] == 20

    @pytest.mark.parametrize("prob", JENSEN_PROBLEMS)
    def test_with_datum_factors_nothing(self, prob, monkeypatch):
        import xibergman.extension as extension

        sizes = []
        original = extension.orthonormal_frame

        def spy(G):
            sizes.append(len(G))
            return original(G)

        monkeypatch.setattr(extension, "orthonormal_frame", spy)
        res = minimal_extension(prob)
        # G_FF alone: the KKT scale ||G||_inf factors nothing
        assert sizes == [len(res.free)]
        res.with_datum(PolyW(1, {(0,): 0.5 - 1j, (1,): 2.0}))
        assert len(sizes) == 1


class TestCentralModelInJensenKernels:
    @pytest.mark.parametrize("weight, w0, quad, built", [
        (GAUSSIAN, 0.0, QuadSpec(8, 8), 0),
        (WIndependentJoint(QuadraticWeight((2.0,), (0.1j,)), 1), 0.3,
         QuadSpec(8, 8), 0),
        # the fiber at w0 = 0.3 carries the shift |w0|^2, psi does not
        (GAUSSIAN, 0.3, QuadSpec(8, 8), 1),
        # the kernels model the rest of the weight, not the divisor
        (Z_MINUS_W, 0.0, QuadSpec(8, 8), 1),
        (GAUSSIAN, 0.0, QuadSpec(8, 12), 1),
    ], ids=["gaussian", "w_independent", "gaussian_off_zero", "joint_divisor",
            "other_quadrature"])
    def test_kernels_equal_and_the_model_reused_only_where_the_same(
        self, monkeypatch, weight, w0, quad, built
    ):
        import xibergman.fiberwise as fiberwise

        prob = ExtensionProblem(DISC, 0.5, weight, w0, PolyW(1, {(1,): 1.0}),
                                3, 3, QuadSpec(8, 8))
        fmodel = minimal_extension(prob).fiber_model()
        family = FunctionalFamily(1, 1, {(0,): PolyW(1, {(0,): 1.0}),
                                         (1,): PolyW(1, {(1,): 0.5j})})
        fam = FamilyProblem(DISC, Polydisc((0.5,), (w0,)), weight, family, 3, quad)
        W = (w0 + 0.4 * np.exp(2j * np.pi * np.arange(7) / 7))[:, None]
        alone = log_kernel_on_fiber(fam, W, (0.2 - 0.1j,))

        calls = []
        original = fiberwise.assemble_gram

        def spy(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(fiberwise, "assemble_gram", spy)
        # a fresh problem: fam keeps the model of psi it built
        given = log_kernel_on_fiber(replace(fam), W, (0.2 - 0.1j,), fmodel)
        assert np.array_equal(given, alone)
        assert len(calls) == built


def reference_jensen(prob_template, family, z0, radial_nodes, angular_nodes, tol):
    """The diagnostic node by node: one fiber model, one kernel and one sum
    over the terms of F_w per node.  The extremal datum is read as the
    diagnostic reads it: its coefficients go onto the joint model's k = 0
    elements and are extended there, and F_w is summed from the joint model's
    terms.  A PolyW between them would trim the coefficients at the rounding
    level of the largest, which need not vanish from an action."""
    n = prob_template.n
    w0, r = prob_template.w0, prob_template.base_radius
    fmodel = orthonormalize(
        assemble_gram(
            prob_template.fiber_domain,
            prob_template.joint_weight.fiber((w0,)),
            prob_template.dz,
            prob_template.quad,
        )
    )
    c = extremal_function(fmodel, family.eval((w0,)), z0)
    prob = replace(prob_template, f=fmodel.poly_from_coeffs(c))
    res = minimal_extension(prob)
    coeffs = _fill_free(
        _placed(zip(fmodel.basis_labels, c.tolist()), res.fixed, res.model.size, ""),
        res.coupling, res.free, res.factor,
    )
    lhs = math.log(fiber_norm(prob))
    # F = sum_t x_t (z - center)^e_t (w - w0)^k_t, in the joint model's terms
    center = res.model.domain.center
    u0 = [zi - ci for zi, ci in zip(z0, center)]
    terms = [(e[:n], e[n], coeffs[j] * cf) for e, cf, j in zip(
        res.model.exps.tolist(), res.model.coeffs.tolist(), res.model.seg.tolist())]
    t, wt = np.polynomial.legendre.leggauss(radial_nodes)
    rr, wr = 0.5 * r * (t + 1.0), 0.5 * r * wt
    thetas = 2.0 * math.pi * np.arange(angular_nodes) / angular_nodes
    total, area = 0.0, 0.0
    for rho, wgt in zip(rr, wr):
        for th in thetas:
            w = w0 + rho * complex(math.cos(th), math.sin(th))
            da = wgt * rho * (2.0 * math.pi / angular_nodes)
            xiw = family.eval((w,))
            # the untrimmed xi_alpha(w), as the diagnostic takes them, each on
            # the Taylor coefficient of F_w at z0, term by term
            act = sum(
                v * sum(x * (w - w0) ** k * math.prod(
                    math.comb(ei, ai) * ui ** (ei - ai)
                    for ei, ai, ui in zip(e, a, u0)) for e, k, x in terms
                    if all(ei >= ai for ei, ai in zip(e, a)))
                for a, v in zip(family.terms, family.values([(w,)])[0])
            )
            model = orthonormalize(
                assemble_gram(
                    prob.fiber_domain, prob.joint_weight.fiber((w,)), prob.dz,
                    prob.quad,
                )
            )
            K = xi_kernel(model, xiw, z0)
            if abs(act) == 0 or K <= 0:
                term = -math.inf
            else:
                # 2 log|act|: |act|^2 underflows for a family of size 1e-92
                term = 2 * math.log(abs(act)) - math.log(K)
            total += da * term
            area += da
    rhs = total / (math.pi * r**2)
    return {"lhs": lhs, "rhs": rhs, "margin": lhs - rhs,
            "areaCheck": area / (math.pi * r**2), "holds": lhs >= rhs - tol}


@st.composite
def jensen_problems(draw):
    """A Gaussian split weight at w0 = 0, with a large cw on a fiber disc off
    its center, or a w-independent one off the origin, with a w-dependent
    family of z-order <= 2 and z0 within 0.7 of the fiber center."""
    n = draw(st.sampled_from([1, 2]))
    unit = st.floats(0.0, 2.0)
    cplx = st.builds(complex, st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
    kind = draw(st.sampled_from(["split", "split_large", "w_independent"]))
    center = (0j,) * n
    if kind == "split":
        weight = JointQuadraticSplit(
            tuple(draw(unit) for _ in range(n)), (draw(unit),)
        )
        w0 = 0.0
    elif kind == "split_large":
        # shifts cw |w|^2 up to 128: the fiber Grams differ by e^{-128}
        weight = JointQuadraticSplit(
            tuple(draw(unit) for _ in range(n)), (draw(st.floats(8.0, 128.0)),)
        )
        w0 = 0.0
        center = tuple(0.25 * draw(cplx) for _ in range(n))
    else:
        base = draw(st.sampled_from([
            ZeroWeight(n),
            ConstantWeight(n, draw(st.floats(-50.0, 50.0))),
            QuadraticWeight(tuple(draw(unit) for _ in range(n))),
            LogMonomialWeight(tuple(draw(st.floats(0.0, 0.9)) for _ in range(n))),
        ]))
        weight = WIndependentJoint(base, 1)
        w0 = 0.5 * draw(cplx)
    coeff = st.dictionaries(st.tuples(st.integers(0, 2)), cplx.filter(bool),
                            min_size=1, max_size=3)
    family = FunctionalFamily(n, 1, draw(st.dictionaries(
        st.sampled_from(multi_indices_upto(n, 2)),
        coeff.map(lambda d: PolyW(1, d)),
        min_size=1, max_size=3,
    )))
    # a fiber degree below the family's z-order would mostly annihilate xi
    dz = draw(st.integers(max(0, family.z_degree), 3))
    dw = draw(st.integers(0, 3))
    thetas = [draw(st.floats(0.0, 2.0 * math.pi)) for _ in range(n)]
    z0 = tuple(
        c + draw(st.floats(0.0, 0.7 / math.sqrt(n)))
        * complex(math.cos(t), math.sin(t))
        for c, t in zip(center, thetas)
    )
    prob = ExtensionProblem(
        Polydisc((1.0,) * n, center), draw(st.floats(0.3, 1.0)), weight, w0,
        PolyW(n, {}), dz, dw,
    )
    return prob, family, z0


class TestJensenAgainstNodeLoop:
    @settings(max_examples=60, deadline=None)
    @given(jensen_problems())
    # the extremal datum's z2 coefficient is rounding noise, -3.3e-52 -
    # 4.1e-51i at 5e-17 of its largest, and the i w term of the family acts
    # on it alone: rhs -234.937 where a PolyW datum, which trims it, gave
    # -312.264
    @example((ExtensionProblem(
        Polydisc((1.0, 1.0), (0.25j, 0j)), 1.0,
        JointQuadraticSplit((1.0, 0.0), (8.0,)), 0.0, PolyW(2, {}), 2, 0),
        FunctionalFamily(2, 1, {(0, 0): PolyW(1, {(0,): 4.88624424598879e-34j}),
                                (0, 1): PolyW(1, {(1,): 1j})}),
        (0.25j, 0j)))
    def test_batched_matches_reference(self, case):
        prob, family, z0 = case
        args = (prob, family, z0, 4, 8, 1e-3)
        try:
            ref = reference_jensen(*args)
        except ValueError as exc:
            with pytest.raises(type(exc)):
                jensen_diagnostic(*args)
            return
        out = jensen_diagnostic(*args)
        assert out["holds"] == ref["holds"]
        for key in ("lhs", "rhs", "margin", "areaCheck"):
            a, b = out[key], ref[key]
            if math.isinf(a) or math.isinf(b):
                assert a == b, key
            else:
                assert abs(a - b) <= 1e-10 * max(1.0, abs(b)), (key, a, b)


@st.composite
def jensen_action_cases(draw):
    """A joint model on a polydisc about (center, w0), centered or not, with
    the basis (z - center)^alpha (w - w0)^k or g times it, coefficients on
    up to 8 of its elements, a family of z-order <= 2, base nodes in a disc
    about w0 and a fiber point z0 near the center."""
    n = draw(st.sampled_from([1, 2]))
    cplx = st.builds(complex, st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
    center = (0j,) * (n + 1)
    if draw(st.booleans()):
        center = tuple(0.5 * draw(cplx) for _ in range(n + 1))
    weight = ZeroWeight(n + 1)
    if draw(st.booleans()):
        weight = LogDivisorWeight(PolyW(n + 1, draw(st.dictionaries(
            st.tuples(*[st.integers(0, 1)] * (n + 1)), cplx, min_size=1,
            max_size=3))))
    coeffs = draw(st.dictionaries(st.tuples(*[st.integers(0, 3)] * (n + 1)),
                                  cplx, max_size=8))
    labels = list(coeffs) or [(0,) * (n + 1)]
    model = assemble_gram(Polydisc((1.0,) * (n + 1), center), weight,
                          max(map(sum, labels)), labels=labels)
    c = [coeffs.get(a, 0j) for a in model.basis_labels]
    family = FunctionalFamily(n, 1, draw(st.dictionaries(
        st.sampled_from(multi_indices_upto(n, 2)),
        st.dictionaries(st.tuples(st.integers(0, 2)), cplx, min_size=1,
                        max_size=3).map(lambda d: PolyW(1, d)),
        min_size=1, max_size=3,
    )))
    w0, r = center[n], draw(st.floats(0.1, 0.5))
    w = np.array([w0 + r * draw(cplx) for _ in range(draw(st.integers(1, 8)))])
    z0 = tuple(ci + 0.7 * draw(cplx) for ci in center[:n])
    return model, c, n, family, w, z0


class TestJensenActions:
    @settings(max_examples=60, deadline=None)
    @given(jensen_action_cases())
    def test_match_restriction_then_recenter(self, case):
        model, c, n, family, w, z0 = case
        values = family.values(w[:, None])
        act = _jensen_actions(model, c, family.alphas, values, w, z0)
        F = model.poly_from_coeffs(c)
        for k, wk in enumerate(w.tolist()):
            Fw = substitute_base(F, n, (wk,))
            xi = family.eval((wk,))
            ref = apply(xi, recenter(TaylorData((0j,) * n, dict(Fw.coeffs)), z0))
            # the sum over moduli that bounds both: 1e-12 relative to it
            top = 1.0 + max(abs(x) for x in z0)
            scale = sum(abs(v) for v in xi.coeffs.values()) * sum(
                abs(c) * top ** sum(e[:n]) * max(1.0, abs(wk)) ** e[n]
                for e, c in F.coeffs.items()
            )
            assert abs(act[k] - ref) <= 1e-12 * scale


def datum_through_a_polynomial(monkeypatch, prob, family, z0):
    """lhs and rhs of the diagnostic with its extremal datum read as a PolyW:
    ``with_datum`` of the extremal function's polynomial and its
    ``fiber_norm``; the average is the diagnostic's own, fed that extension."""
    import xibergman.extension as extension

    res = minimal_extension(prob)
    fmodel = res.fiber_model()
    c = extremal_function(fmodel, family.eval((prob.w0,)), z0)
    ext = res.with_datum(fmodel.poly_from_coeffs(c))
    lhs = math.log(fiber_norm(ext.problem, fmodel))
    actions = extension._jensen_actions
    with monkeypatch.context() as m:
        m.setattr(extension, "_jensen_actions",
                  lambda model, coeffs, *args: actions(model, ext.coeffs, *args))
        rhs = jensen_diagnostic(prob, family, z0, result=res)["rhs"]
    return {"lhs": lhs, "rhs": rhs, "margin": lhs - rhs}


W_FAMILY = FunctionalFamily(1, 1, {(0,): PolyW(1, {(0,): 1.0, (1,): 0.5j}),
                                   (1,): PolyW(1, {(0,): 0.3})})


class TestExtremalDatumFromItsCoefficients:
    @pytest.mark.parametrize("prob, z0, exact", [
        (problem(weight=GAUSSIAN, f=PolyW(1, {(1,): 1.0}), dz=6, dw=6),
         (0.2 - 0.1j,), True),
        (problem(dz=6, dw=6), (0.3,), True),
        # the PolyW was recentered to 0 and back
        (ExtensionProblem(Polydisc((1.0,), (0.3 - 0.2j,)), 0.8, W_INDEP, 0.0,
                          PolyW(1, {(0,): 1.0}), 6, 6), (0.1 - 0.3j,), False),
        # the PolyW was g(., w0) times the datum, divided back by least squares
        (ExtensionProblem(DISC, 0.5, Z_MINUS_W, 0.0, PolyW(1, {(1,): 1.0}), 3, 3,
                          QuadSpec(8, 8)), (0.3,), False),
    ], ids=["gaussian", "w_independent", "off_center", "joint_divisor"])
    def test_matches_the_datum_read_as_a_polynomial(self, monkeypatch, prob, z0,
                                                     exact):
        out = jensen_diagnostic(prob, W_FAMILY, z0)
        ref = datum_through_a_polynomial(monkeypatch, prob, W_FAMILY, z0)
        for key in ("lhs", "rhs", "margin"):
            if exact:
                assert out[key] == ref[key], key
            else:
                assert abs(out[key] - ref[key]) <= 1e-13, (key, out[key], ref[key])

    def test_datum_outside_the_joint_span_rejected(self):
        res = minimal_extension(problem(dz=3, dw=3))
        with pytest.raises(InconsistentConstraintError, match="joint model span"):
            res.with_datum(PolyW(1, {(4,): 1.0}))
        # a central fiber model of higher degree than the joint model's fiber
        # part: its extremal function has a term outside the fixed set
        res.fiber = _fiber_gram(problem(dz=4, dw=3))
        with pytest.raises(InconsistentConstraintError, match="joint model span"):
            jensen_diagnostic(problem(dz=3, dw=3), DIRAC_FAMILY, (0.3,), result=res)


class TestRestrictionConsistency:
    def test_restriction_at_other_fibers_is_polynomial(self):
        res = minimal_extension(problem(weight=GAUSSIAN, f=PolyW(1, {(1,): 1.0})))
        F = res.joint_poly()
        for w in (0.2, -0.5j):
            fw = substitute_base(F, 1, (w,))
            assert fw.arity == 1

    @pytest.mark.parametrize("radius", [math.nan, math.inf, 0.0, -1.0])
    def test_base_radius_must_be_finite_and_positive(self, radius):
        with pytest.raises(ValueError, match="finite and positive"):
            problem(r=radius)

    @pytest.mark.parametrize("dz, dw", [(-1, 4), (4, -1)])
    def test_bidegree_must_be_nonnegative(self, dz, dw):
        with pytest.raises(ValueError, match="bidegree must be >= 0"):
            problem(f=PolyW(1, {}), dz=dz, dw=dw)

    def test_base_arity_validation(self):
        with pytest.raises(ValueError):
            ExtensionProblem(
                DISC, 1.0, JointQuadraticSplit((1.0,), (1.0, 1.0)), 0.0,
                PolyW(1, {(0,): 1.0}), 4, 4,
            )
