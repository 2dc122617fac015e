"""Unit tests for minimum-norm extension and the optimal-constant check."""

import math

import numpy as np
import pytest

from xibergman.bergman import QuadSpec
from xibergman.extension import (
    ExtensionProblem,
    InconsistentConstraintError,
    ZeroFiberNormError,
    extension_report,
    fiber_norm,
    jensen_diagnostic,
    minimal_extension,
    optimal_constant_check,
)
from xibergman.family import FunctionalFamily, PolyW
from xibergman.weights import (
    ConstantWeight,
    JointPairQuadratic,
    JointQuadraticSplit,
    Polydisc,
    WIndependentJoint,
    ZeroWeight,
    substitute_base,
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

    def test_inconsistent_datum_rejected(self):
        with pytest.raises(InconsistentConstraintError):
            minimal_extension(problem(f=PolyW(1, {(5,): 1.0}), dz=3))


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


class TestRestrictionConsistency:
    def test_restriction_at_other_fibers_is_polynomial(self):
        res = minimal_extension(problem(weight=GAUSSIAN, f=PolyW(1, {(1,): 1.0})))
        F = res.joint_poly()
        for w in (0.2, -0.5j):
            fw = substitute_base(F, 1, (w,))
            assert fw.arity == 1

    def test_base_arity_validation(self):
        with pytest.raises(ValueError):
            ExtensionProblem(
                DISC, 1.0, JointQuadraticSplit((1.0,), (1.0, 1.0)), 0.0,
                PolyW(1, {(0,): 1.0}), 4, 4,
            )
