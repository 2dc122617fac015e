"""Unit tests for fiberwise kernel maps and log-psh verification."""

import math

import pytest

from xibergman.family import FunctionalFamily, PolyW, anti_holomorphic_control
from xibergman.fiberwise import (
    FamilyProblem,
    kernel_on_fiber,
    log_kernel_on_fiber,
    psh_verify_base,
    psh_verify_joint,
    scan_base,
    square_grid,
    submean_check,
    usc_spot_check,
)
from xibergman.weights import (
    JointLogDivisor,
    JointPairQuadratic,
    JointQuadraticSplit,
    Polydisc,
    WIndependentJoint,
    ZeroWeight,
)


def pstar_problem(degree=6):
    """Weight 2log|z1 - w z2| with the dz2 functional; closed-form kernel."""
    g = PolyW(3, {(1, 0, 0): 1.0, (0, 1, 1): -1.0})
    fam = FunctionalFamily(2, 1, {(0, 1): PolyW.constant(1.0, 1)})
    return FamilyProblem(
        Polydisc((1.0, 1.0)), Polydisc((1.0,)), JointLogDivisor(g, 2), fam, degree
    )


def pstar_log_kernel(w):
    return 2.0 * math.log(abs(w)) - 2.0 * math.log(math.pi)


class TestKernelOnFiber:
    def test_pstar_closed_form(self):
        prob = pstar_problem()
        for w in (0.3, -0.45 + 0.2j, 0.08j):
            lk = log_kernel_on_fiber(prob, (w,), (0.0, 0.0))
            assert lk == pytest.approx(pstar_log_kernel(w), abs=1e-9)

    def test_pstar_minus_inf_at_zero(self):
        prob = pstar_problem()
        assert log_kernel_on_fiber(prob, (0.0,), (0.0, 0.0)) == -math.inf
        assert kernel_on_fiber(prob, (0.0,), (0.0, 0.0)) == 0.0

    def test_base_domain_enforced(self):
        with pytest.raises(ValueError):
            kernel_on_fiber(pstar_problem(), (1.5,), (0.0, 0.0))


class TestSubmeanCheck:
    def test_harmonic_passes_exactly(self):
        rep = submean_check(lambda t: (0.3 + t).real, ("x",), 0.1, 64)
        assert rep.passed and abs(rep.max_violation) < 1e-12

    def test_superharmonic_fails(self):
        rep = submean_check(lambda t: -abs(0.2 + t) ** 2, ("x",), 0.3, 64)
        assert rep.verdict == "FAIL" and rep.max_violation > 0

    def test_minus_inf_center_trivial_pass(self):
        rep = submean_check(
            lambda t: -math.inf if t == 0 else 0.0, ("x",), 0.1, 32
        )
        assert rep.passed and "trivially" in rep.diagnostic

    def test_minus_inf_circle_sample_fails(self):
        rep = submean_check(
            lambda t: -math.inf if t != 0 else 0.0, ("x",), 0.1, 32
        )
        assert rep.verdict == "FAIL" and rep.infinity_count == 32

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            submean_check(lambda t: 0.0, ("x",), 0.1, 8)


class TestPshVerify:
    def test_pstar_base_circles_pass(self):
        prob = pstar_problem()
        for w0, r in [(0.4, 0.2), (-0.3 + 0.1j, 0.15), (0.5j, 0.3)]:
            rep = psh_verify_base(prob, (0.0, 0.0), (w0,), r, 64)
            assert rep.passed, rep.to_json()

    def test_pstar_harmonic_equality(self):
        # log K = 2log|w| - 2log(pi) is harmonic off 0: average equals center
        rep = psh_verify_base(pstar_problem(), (0.0, 0.0), (0.4,), 0.2, 64)
        assert abs(rep.max_violation) < 1e-9

    def test_pstar_joint_line_passes(self):
        prob = pstar_problem()
        rep = psh_verify_joint(
            prob, (0.1, 0.2), (0.35,), (0.5, 0.5), (0.5,), 0.25, 64
        )
        assert rep.passed, rep.to_json()

    def test_quadratic_pair_weight_passes(self):
        fam = FunctionalFamily(1, 1, {(0,): PolyW.constant(1.0, 1)})
        prob = FamilyProblem(
            Polydisc((1.0,)), Polydisc((1.0,)), JointPairQuadratic((1.0,)), fam, 8
        )
        rep = psh_verify_base(prob, (0.1,), (0.2,), 0.2, 32)
        assert rep.passed, rep.to_json()

    def test_w_independent_weight_constant_in_w(self):
        fam = FunctionalFamily(1, 1, {(0,): PolyW.constant(1.0, 1)})
        prob = FamilyProblem(
            Polydisc((1.0,)),
            Polydisc((1.0,)),
            WIndependentJoint(ZeroWeight(1), 1),
            fam,
            8,
        )
        rep = psh_verify_base(prob, (0.0,), (0.3,), 0.2, 32)
        assert rep.passed and abs(rep.max_violation) < 1e-12

    def test_anti_holomorphic_control_fails(self):
        # coefficients 1 on dz1 and conj(w) on dz2 give kernel values
        # proportional to (1 - |w|^2)^2, whose log violates the submean
        # inequality on any base circle
        g = PolyW(3, {(1, 0, 0): 1.0, (0, 1, 1): -1.0})
        fam = FunctionalFamily(
            2, 1, {(1, 0): PolyW.constant(1.0, 1), (0, 1): PolyW.variable(0, 1)}
        )
        prob = FamilyProblem(
            Polydisc((1.0, 1.0)),
            Polydisc((1.0,)),
            JointLogDivisor(g, 2),
            anti_holomorphic_control(fam),
            6,
        )
        rep = psh_verify_base(prob, (0.1, 0.2), (0.3 + 0.2j,), 0.2, 64)
        assert rep.verdict == "FAIL" and rep.max_violation > 1e-3

    def test_circle_leaving_domain_rejected(self):
        with pytest.raises(ValueError):
            psh_verify_base(pstar_problem(), (0.0, 0.0), (0.9,), 0.3, 32)


class TestUscSpotCheck:
    def test_pstar_passes(self):
        out = usc_spot_check(
            pstar_problem(), (0.1, 0.1), (0.4,), [0.2, 0.1, 0.05, 0.02], seed=3
        )
        assert out["verdict"] == "PASS"

    def test_fixture_discontinuity_fails(self):
        prob = pstar_problem()

        def jumpy(z, w):
            # value jumps UP away from the center: limsup exceeds the value
            return 1.0 if abs(w[0] - 0.4) > 1e-12 else 0.0

        out = usc_spot_check(
            prob, (0.1, 0.1), (0.4,), [0.2, 0.1, 0.05], value_fn=jumpy, seed=3
        )
        assert out["verdict"] == "FAIL"

    def test_scale_validation(self):
        with pytest.raises(ValueError):
            usc_spot_check(pstar_problem(), (0.0, 0.0), (0.4,), [0.1, 0.2, 0.3])


class TestScan:
    def test_square_grid_shape_and_center(self):
        grid = square_grid(0.6, 9)
        assert len(grid) == 81 and 0j in grid

    def test_scan_matches_closed_form(self):
        prob = pstar_problem()
        rows = scan_base(prob, (0.0, 0.0), square_grid(0.6, 5))
        for re, im, lk in rows:
            w = complex(re, im)
            if abs(w) >= 0.05:
                assert lk == pytest.approx(pstar_log_kernel(w), abs=1e-6)

    def test_scan_requires_1d_base(self):
        fam = FunctionalFamily(1, 2, {(0,): PolyW.constant(1.0, 2)})
        prob = FamilyProblem(
            Polydisc((1.0,)),
            Polydisc((1.0, 1.0)),
            JointQuadraticSplit((1.0,), (1.0, 1.0)),
            fam,
            4,
        )
        with pytest.raises(ValueError):
            scan_base(prob, (0.0,), [0.1])
