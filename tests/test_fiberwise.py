"""Unit tests for fiberwise kernel maps and log-psh verification."""

import cmath
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xibergman.bergman import QuadSpec, assemble_gram, orthonormalize, xi_kernel
from xibergman.family import FunctionalFamily, PolyW, anti_holomorphic_control
from xibergman.functional import Functional
from xibergman.fiberwise import (
    Circle,
    FamilyProblem,
    fiber_kernels,
    kernel_on_fiber,
    log_kernel_on_fiber,
    psh_verify_base,
    psh_verify_joint,
    scan_base,
    scan_psh,
    square_grid,
    submean_check,
    usc_spot_check,
)
from xibergman.weights import (
    ConstantWeight,
    JointLogDivisor,
    JointPairQuadratic,
    JointQuadraticSplit,
    JointZero,
    Polydisc,
    QuadraticWeight,
    UnsupportedWeightError,
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


class TestLogKernelInOneCall:
    """log_kernel_on_fiber takes its logs in one numpy call."""

    W = np.array([[0.0], [0.3], [-0.45 + 0.2j], [0.08j], [0.0], [-0.6]])

    def logs(self, problem, W, z):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            return (kernel_on_fiber(problem, W, z),
                    log_kernel_on_fiber(problem, W, z))

    @pytest.mark.parametrize("family", [
        FunctionalFamily(2, 1, {(0, 1): PolyW.constant(1.0, 1)}),
        # z-order 9 on a basis g z^alpha of degree at most 7: every kernel
        # vanishes
        FunctionalFamily(2, 1, {(9, 0): PolyW.constant(1.0, 1)}),
    ], ids=["vanishing_at_w_0", "annihilating"])
    def test_minus_inf_exactly_where_the_kernel_vanishes(self, family):
        prob = replace(pstar_problem(), family=family)
        K, L = self.logs(prob, self.W, (0.0, 0.0))
        assert (K == 0).any()
        assert np.array_equal(L == -math.inf, K == 0)
        assert np.isfinite(L[K > 0]).all()

    def test_within_two_ulp_of_math_log_plus_the_shift(self):
        # psi = |z|^2 + s(w) with s(w) = 3 |w|^2; cw = 0 gives K_psi itself
        fam = FunctionalFamily(1, 1, {(0,): PolyW(1, {(0,): 1.0, (1,): 0.5j}),
                                      (2,): PolyW(1, {(1,): -2.0})})
        base = Polydisc((0.9,))
        rng = np.random.default_rng(7)
        W = 0.6 * (rng.uniform(-1, 1, (40, 1)) + 1j * rng.uniform(-1, 1, (40, 1)))
        Z = 0.6 * (rng.uniform(-1, 1, (40, 1)) + 1j * rng.uniform(-1, 1, (40, 1)))
        unshifted = FamilyProblem(Polydisc((1.0,)), base, JointQuadraticSplit((1.0,), (0.0,)),
                                  fam, 5)
        weight = JointQuadraticSplit((1.0,), (3.0,))
        K, L0 = self.logs(unshifted, W, Z)
        ref = np.array([math.log(k) for k in K.tolist()])
        assert (np.abs(L0 - ref) <= 2 * np.spacing(np.abs(ref))).all()
        _, L = self.logs(replace(unshifted, joint_weight=weight), W, Z)
        assert np.array_equal(L, L0 + weight.shift_split(W)[1])


def reference_kernel(problem, w, z):
    """The per-point path: a fresh fiber model and xi(w) at one base point."""
    w = tuple(complex(x) for x in w)
    fw = problem.joint_weight.fiber(w)
    model = orthonormalize(
        assemble_gram(problem.fiber_domain, fw, problem.degree, problem.quad)
    )
    return xi_kernel(model, problem.family.eval(w), tuple(z))


class TestBatchedKernel:
    def test_one_point_is_a_float_and_arrays_give_arrays(self):
        prob = pstar_problem()
        K = kernel_on_fiber(prob, [[0.3], [0.0], [-0.2j]], (0.0, 0.0))
        assert K.shape == (3,) and K[1] == 0.0
        assert isinstance(kernel_on_fiber(prob, (0.3,), (0.0, 0.0)), float)
        assert K[0] == pytest.approx(kernel_on_fiber(prob, 0.3, (0.0, 0.0)), rel=1e-15)
        lk = log_kernel_on_fiber(prob, [[0.3], [0.0]], (0.0, 0.0))
        assert lk[1] == -math.inf
        assert lk[0] == pytest.approx(pstar_log_kernel(0.3), abs=1e-12)

    def test_one_fiber_point_per_base_point(self):
        prob = pstar_problem(4)
        W = [[0.3], [0.1 + 0.2j]]
        Z = [[0.1, 0.2], [-0.3j, 0.4]]
        K = kernel_on_fiber(prob, W, Z)
        for k, w, z in zip(K, W, Z):
            assert k == pytest.approx(reference_kernel(prob, w, z), rel=1e-12)

    def test_no_alphas_on_a_basis_with_w_monomials(self):
        # the divisor basis g(z, w) z^alpha carries w-monomials; a functional
        # without terms acts by 0 on it, so every kernel vanishes
        prob = pstar_problem(4)
        K = fiber_kernels(prob.fiber_domain, prob.joint_weight, 4, QuadSpec(), [],
                          np.zeros((2, 0)), np.array([[0.3], [0.1j]]),
                          np.array([[0.2, 0.1]]), log=True)
        assert K.tolist() == [-math.inf, -math.inf]

    def test_mismatched_point_counts_refused(self):
        with pytest.raises(ValueError):
            kernel_on_fiber(pstar_problem(), [[0.1], [0.2]], [[0.0] * 2] * 3)

    def test_fiber_point_outside_refused(self):
        with pytest.raises(ValueError):
            kernel_on_fiber(pstar_problem(), [[0.1]], [[1.5, 0.0]])

    def test_divisor_exponent_other_than_one_refused(self):
        prob = pstar_problem(3)
        prob.joint_weight = JointLogDivisor(prob.joint_weight.g, 2, c=2.0)
        with pytest.raises(UnsupportedWeightError):
            kernel_on_fiber(prob, [[0.3]], (0.0, 0.0))

    def test_one_model_per_call_for_a_divisor_weight(self, monkeypatch):
        import xibergman.fiberwise as fw

        calls = []
        real = fw.assemble_gram
        monkeypatch.setattr(
            fw, "assemble_gram", lambda *a, **k: calls.append(a) or real(*a, **k)
        )
        kernel_on_fiber(pstar_problem(), [[x / 10] for x in range(-5, 6)], (0.0, 0.0))
        assert len(calls) == 1 and calls[0][1] == ZeroWeight(2)

    def test_one_model_per_call_for_a_shift_split_weight(self, monkeypatch):
        # every fiber Gram is e^{-|w|^2} times that of |z|^2, so one model of
        # |z|^2 serves the whole ring
        import xibergman.fiberwise as fw

        fam = FunctionalFamily(1, 1, {(0,): PolyW(1, {(0,): 1.0, (1,): 0.5})})
        prob = FamilyProblem(
            Polydisc((1.0,)), Polydisc((1.0,)),
            JointQuadraticSplit((1.0,), (1.0,)), fam, 3,
        )
        ring = [
            [rho * cmath.exp(2j * math.pi * k / 32)]
            for rho in (0.2, 0.45, 0.7, 0.95) for k in range(32)
        ]
        calls = []
        real = fw.assemble_gram
        monkeypatch.setattr(
            fw, "assemble_gram", lambda *a, **k: calls.append(a) or real(*a, **k)
        )
        K = kernel_on_fiber(prob, ring, (0.1,))
        assert len(calls) == 1 and calls[0][1] == QuadraticWeight((1.0,))
        for i in range(0, len(ring), 13):
            ref = reference_kernel(prob, ring[i], (0.1,))
            assert K[i] == pytest.approx(ref, rel=1e-12)


#: lattice values: sums of their products are exact in binary, so a kernel
#: that vanishes does so exactly on both paths
LATTICE = st.integers(-8, 8).map(lambda k: k / 4)
CPLX = st.builds(complex, LATTICE, LATTICE)


def lattice_point(draw, domain):
    """A point of the polydisc on the lattice (a + ib) R / 8, |a + ib| <= 7."""
    out = []
    for c, R in zip(domain.center, domain.radii):
        a, b = draw(
            st.tuples(st.integers(-7, 7), st.integers(-7, 7)).filter(
                lambda t: t[0] ** 2 + t[1] ** 2 <= 49
            )
        )
        out.append(c + complex(a, b) * R / 8)
    return tuple(out)


def poly(draw, arity, degree):
    exps = st.tuples(*[st.integers(0, degree)] * arity).filter(
        lambda e: sum(e) <= degree
    )
    return PolyW(arity, draw(st.dictionaries(exps, CPLX, max_size=3)))


@st.composite
def batched_problems(draw, variant):
    """A problem of the given joint-weight variant, base points and z."""
    n, m = draw(st.sampled_from([1, 2])), draw(st.sampled_from([1, 2]))
    if variant == "pair":
        n = m
    center = st.sampled_from([0j, 0.25, -0.125j, 0.25 + 0.25j])
    fiber = Polydisc(
        tuple(draw(st.sampled_from([0.75, 1.0])) for _ in range(n)),
        tuple(draw(center) for _ in range(n)),
    )
    base_center = st.sampled_from([0j, 0j, 0.25j])
    base = Polydisc((1.0,) * m, tuple(draw(base_center) for _ in range(m)))
    coeff = st.sampled_from([0.0, 0.5, 1.0])
    if variant.startswith("divisor"):
        if variant == "divisor_off_center":
            fiber = Polydisc(fiber.radii, tuple(
                draw(st.sampled_from([0.25, -0.125j, 0.25 + 0.25j]))
                for _ in range(n)
            ))
        g = poly(draw, n + m, 2)
        if not g.coeffs:
            g = PolyW.constant(1.0, n + m)
        weight = JointLogDivisor(g, n)
    elif variant == "zero":
        weight = JointZero(n, m)
    elif variant == "windependent":
        cz = tuple(draw(coeff) for _ in range(n))
        part = QuadraticWeight(cz, tuple(draw(center) for _ in range(n)))
        weight = WIndependentJoint(
            draw(st.sampled_from([part, ZeroWeight(n), ConstantWeight(n, 0.3)])), m
        )
    elif variant == "constant":
        weight = WIndependentJoint(
            ConstantWeight(n, draw(st.sampled_from([-2.0, 0.3, 40.0]))), m
        )
    elif variant == "split":
        weight = JointQuadraticSplit(
            tuple(draw(coeff) for _ in range(n)), tuple(draw(coeff) for _ in range(m))
        )
    elif variant == "split_large":
        # shifts s(w) up to ~200 on a fiber domain off its center, where the
        # Gram takes the per-coordinate quadrature
        fiber = Polydisc(fiber.radii, tuple(
            draw(st.sampled_from([0.25, -0.125j, 0.25 + 0.25j])) for _ in range(n)
        ))
        weight = JointQuadraticSplit(
            tuple(draw(coeff) for _ in range(n)),
            tuple(draw(st.sampled_from([16.0, 64.0, 128.0])) for _ in range(m)),
        )
    else:
        weight = JointPairQuadratic(tuple(draw(coeff) for _ in range(n)))
    alphas = st.tuples(*[st.integers(0, 2)] * n).filter(lambda a: sum(a) <= 2)
    terms = {a: poly(draw, m, 2) for a in draw(st.sets(alphas, min_size=1, max_size=3))}
    family = FunctionalFamily(n, m, terms)
    if draw(st.booleans()):
        family = anti_holomorphic_control(family)
    problem = FamilyProblem(
        fiber, base, weight, family, draw(st.integers(0, 3)), QuadSpec(8, 16)
    )
    count = draw(st.integers(1, 6))
    W = [lattice_point(draw, base) for _ in range(count)]
    if draw(st.booleans()) and base.center == (0j,) * m:
        W[0] = (0j,) * m  # the base origin exactly
    if draw(st.booleans()):
        Z = lattice_point(draw, fiber)  # one z for every base point
    else:
        Z = [lattice_point(draw, fiber) for _ in W]
    return problem, W, Z


@st.composite
def kernel_path_cases(draw):
    """A w-independent quadratic weight q sum |z_i|^2, three alphas with
    constant coefficients, and a fiber and a base point."""
    n = draw(st.sampled_from([1, 2]))
    part = st.floats(-0.6, 0.6)
    cplx = st.builds(complex, part, part)
    alphas = draw(st.lists(st.tuples(*[st.integers(0, 3)] * n), min_size=3,
                           max_size=3, unique=True))
    coeffs = draw(st.lists(cplx, min_size=3, max_size=3))
    return (n, draw(st.floats(0.0, 3.0)), draw(st.integers(1, 8)),
            dict(zip(alphas, coeffs)), tuple(draw(cplx) for _ in range(n)),
            draw(cplx))


class TestKernelPathsAgree:
    @settings(max_examples=100, deadline=None)
    @given(kernel_path_cases())
    def test_xi_kernel_is_the_fiber_kernel_bit_for_bit(self, case):
        # bergman.kernels and the fiber provider take one action rule
        n, q, degree, coeffs, z, w = case
        domain, psi = Polydisc((1.0,) * n), QuadraticWeight((q,) * n)
        xi = Functional(n, coeffs)
        fam = FunctionalFamily(
            n, 1, {a: PolyW.constant(c, 1) for a, c in coeffs.items()})
        problem = FamilyProblem(domain, Polydisc((1.0,)),
                                WIndependentJoint(psi, 1), fam, degree)
        model = orthonormalize(assemble_gram(domain, psi, degree))
        assert xi_kernel(model, xi, z) == kernel_on_fiber(problem, (w,), z)

    def test_one_set_of_coefficients_is_one_functional(self):
        # the Functional keeps the 2.22e-16 on z^2, as the family row does;
        # it dropped it, and xi_kernel read 0.3978873577297385 against the
        # fiber kernel's 0.3978873577297387
        coeffs = {(0,): 0.0, (1,): 0.5, (2,): 2.22e-16}
        domain, psi = Polydisc((1.0,)), QuadraticWeight((0.0,))
        fam = FunctionalFamily(
            1, 1, {a: PolyW.constant(c, 1) for a, c in coeffs.items()})
        problem = FamilyProblem(domain, Polydisc((1.0,)),
                                WIndependentJoint(psi, 1), fam, 2)
        model = orthonormalize(assemble_gram(domain, psi, 2))
        K = xi_kernel(model, Functional(1, coeffs), (0.5,))
        assert K == kernel_on_fiber(problem, (0.0,), (0.5,)) == 0.3978873577297387


class TestBatchedAgainstPerPoint:
    """The batched kernels against the per-point reference path, to 1e-12."""

    def check(self, problem, W, Z, log=False):
        K = (log_kernel_on_fiber if log else kernel_on_fiber)(problem, W, Z)
        Zs = [Z] * len(W) if isinstance(Z, tuple) else Z
        ref = [reference_kernel(problem, w, z) for w, z in zip(W, Zs)]
        if log:
            ref = [math.log(r) if r > 0 else -math.inf for r in ref]
        assert K.shape == (len(W),)
        for k, r in zip(K.tolist(), ref):
            if r == 0 or math.isinf(r):
                assert k == r
            else:
                assert k == pytest.approx(r, rel=1e-12, abs=0)

    # divisor_off_center: the joint basis g(z, w) b, local in z and global
    # in w, on fiber discs that are all off their centers
    @pytest.mark.parametrize(
        "variant", ["divisor", "divisor_off_center", "zero", "windependent",
                    "constant", "split", "pair"]
    )
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_the_per_point_path(self, variant, data):
        self.check(*data.draw(batched_problems(variant)))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_large_shifts_match_in_log_space(self, data):
        self.check(*data.draw(batched_problems("split_large")), log=True)


class TestRowBlocks:
    """fiber_kernels runs the kernel body in blocks of ROWS rows, each on the
    tables of its own fiber points."""

    def test_rows_across_block_boundaries_match_their_own_calls(self):
        # 1,100 rows, each with its own fiber point, cross the boundaries at
        # 512 and 1,024; the rows at w = 0 and z = 0 on them vanish
        from xibergman.fiberwise import ROWS

        rng = np.random.default_rng(11)
        P = 1100
        assert 2 * ROWS < P
        W = 0.6 * (rng.uniform(-1, 1, (P, 1)) + 1j * rng.uniform(-1, 1, (P, 1)))
        W[[0, 511, 512, 1023, 1024]] = 0.0
        Z = 0.5 * (rng.uniform(-1, 1, (P, 2)) + 1j * rng.uniform(-1, 1, (P, 2)))
        Z[[0, 511, 512, 1023, 1024]] = 0.0
        problem = pstar_problem()
        problem.family = FunctionalFamily(2, 1, {
            (0, 1): PolyW.constant(1.0, 1), (1, 1): PolyW(1, {(1,): 0.5})})
        K = kernel_on_fiber(problem, W, Z)
        alone = [kernel_on_fiber(problem, tuple(w), tuple(z))
                 for w, z in zip(W.tolist(), Z.tolist())]
        assert K.tolist() == alone
        assert K[[0, 511, 512, 1023, 1024]].tolist() == [0.0] * 5

    def test_a_long_joint_circle_stays_within_its_blocks(self):
        # a 4,096-sample joint circle has a fiber point per row; with the
        # tables of all of them taken at once its peak was 75 MiB
        import tracemalloc

        problem = pstar_problem(degree=10)
        problem.family = FunctionalFamily(2, 1, {
            (0, 1): PolyW.constant(1.0, 1), (1, 1): PolyW(1, {(1,): 0.5})})

        def circle(samples):
            return Circle((0.1, 0.2), (0.35,), 0.25, samples, "joint",
                          (0.5, 0.5), (0.5,))

        scan_psh(problem, (0.1, 0.2), [circle(16)])  # imports and caches
        tracemalloc.start()
        try:
            report = scan_psh(problem, (0.1, 0.2), [circle(4096)])[0][0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed
        assert peak < 20 * 2**20


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


def count_gram_calls(monkeypatch) -> list:
    """The argument tuples of every fiber-model ``assemble_gram`` call."""
    import xibergman.fiberwise as fw

    calls = []
    real = fw.assemble_gram
    monkeypatch.setattr(
        fw, "assemble_gram", lambda *a, **k: calls.append(a) or real(*a, **k)
    )
    return calls


def control_problem():
    """P* with the anti-holomorphic control family of scan_control.json."""
    g = PolyW(3, {(1, 0, 0): 1.0, (0, 1, 1): -1.0})
    fam = FunctionalFamily(
        2, 1, {(1, 0): PolyW.constant(1.0, 1), (0, 1): PolyW.variable(0, 1)}
    )
    return FamilyProblem(Polydisc((1.0, 1.0)), Polydisc((1.0,)),
                         JointLogDivisor(g, 2), anti_holomorphic_control(fam), 6)


SPLIT = JointQuadraticSplit((1.0,), (1.0,))
Z_MINUS_W = JointLogDivisor(PolyW(2, {(1, 0): 1.0, (0, 1): -1.0}), 1)


def disc_problem(weight):
    """A problem on the unit disc over the unit disc, QuadSpec(8, 8)."""
    fam = FunctionalFamily(
        1, 1, {(0,): PolyW.constant(1.0, 1), (1,): PolyW(1, {(1,): 0.5j})}
    )
    return FamilyProblem(Polydisc((1.0,)), Polydisc((1.0,)), weight, fam, 4,
                         QuadSpec(8, 8))


class TestOneModelPerCall:
    """Each kernel call builds the model of psi of a joint weight
    psi(z) + s(w) once, and one model per distinct base point of any other
    joint weight; a problem holds no model, so a problem used for several
    calls gives the results of a fresh problem per call."""

    @staticmethod
    def command(prob):
        """Two base circles, a joint line and a grid scan, each its own
        kernel call; prob() gives the problem of each."""
        n = prob().fiber_domain.arity
        z = (0.1,) * n
        reports = [
            psh_verify_base(prob(), z, (0.3,), 0.2, 32),
            psh_verify_base(prob(), z, (-0.2 + 0.1j,), 0.15, 32),
            psh_verify_joint(prob(), z, (0.35,), (0.5,) * n, (0.5,), 0.25, 32),
        ]
        return reports, scan_base(prob(), z, square_grid(0.5, 5))

    @pytest.mark.parametrize("make, shared", [
        (pstar_problem, True),
        (control_problem, True),
        (lambda: disc_problem(JointQuadraticSplit((1.0,), (2.0,))), True),
        # its fibers move with w: one model per distinct base point
        (lambda: disc_problem(JointPairQuadratic((1.0,))), False),
    ], ids=["pstar", "control", "split", "pair"])
    def test_one_model_per_call_and_the_results_of_fresh_problems(
        self, monkeypatch, make, shared
    ):
        calls = count_gram_calls(monkeypatch)
        one = make()
        reused = self.command(lambda: one)
        reused_calls = len(calls)
        fresh = self.command(make)
        assert reused == fresh
        # four kernel calls; the circles' 33 base points and the grid's 25
        assert reused_calls == len(calls) - reused_calls == (
            4 if shared else 33 + 33 + 33 + 25)

    def test_usc_spot_check_builds_one_model(self, monkeypatch):
        calls = count_gram_calls(monkeypatch)
        args = ((0.1, 0.1), (0.4,), [0.2, 0.1, 0.05, 0.02])
        out = usc_spot_check(pstar_problem(), *args, seed=3)
        assert len(calls) == 1
        fresh = usc_spot_check(
            pstar_problem(), *args, seed=3,
            value_fn=lambda z, w: log_kernel_on_fiber(pstar_problem(), w, z),
        )
        assert out == fresh

    @pytest.mark.parametrize("weight, edit", [
        (SPLIT, lambda p: setattr(p, "joint_weight",
                                  JointQuadraticSplit((2.0,), (1.0,)))),
        (SPLIT, lambda p: setattr(p, "degree", 3)),
        (SPLIT, lambda p: setattr(p, "quad", QuadSpec(8, 12))),
        # psi stays the zero weight, but the basis times g changes
        (Z_MINUS_W, lambda p: setattr(p, "joint_weight", JointLogDivisor(
            PolyW(2, {(1, 0): 1.0, (0, 1): -0.5, (0, 0): 0.25}), 1))),
        (Z_MINUS_W, lambda p: setattr(p, "family", FunctionalFamily(
            1, 1, {(2,): PolyW.constant(1.0, 1)}))),
    ], ids=["joint_weight", "degree", "quadrature", "divisor", "family"])
    def test_a_problem_changed_after_first_use(self, monkeypatch, weight, edit):
        calls = count_gram_calls(monkeypatch)
        prob = disc_problem(weight)
        W = [[0.3], [-0.2 + 0.4j]]
        kernel_on_fiber(prob, W, (0.1,))
        edit(prob)
        K = kernel_on_fiber(prob, W, (0.1,))
        assert len(calls) == 2
        assert np.array_equal(K, kernel_on_fiber(replace(prob), W, (0.1,)))


#: the problems of TestOneModelPerCall, and whether their fibers share
#: one model
SCAN_PROBLEMS = {
    "pstar": (pstar_problem, True),
    "control": (control_problem, True),
    "split": (lambda: disc_problem(JointQuadraticSplit((1.0,), (2.0,))), True),
    "pair": (lambda: disc_problem(JointPairQuadratic((1.0,))), False),
}
#: few values, so that circles, lines and the grid share centers and points
SCAN_COORD = st.sampled_from([0.0, 0.1, -0.2, 0.25j, 0.1 - 0.1j])


@st.composite
def scans(draw, n):
    """A fiber point z, base circles and joint circles about it, and a grid."""
    z = tuple(draw(SCAN_COORD) for _ in range(n))
    circles = []
    for _ in range(draw(st.integers(0, 3))):
        w0 = (draw(SCAN_COORD),)
        radius = draw(st.sampled_from([0.1, 0.2, 0.3]))
        samples = draw(st.sampled_from([16, 17, 32]))
        if draw(st.booleans()):
            circles.append(Circle(draw(st.sampled_from([None, z])), w0, radius,
                                  samples))
        else:
            z0 = draw(st.sampled_from([z, tuple(draw(SCAN_COORD) for _ in z)]))
            dz = tuple(draw(st.sampled_from([0.0, 0.5, -0.3j])) for _ in z)
            dw = (draw(st.sampled_from([0.5, 1.0, 0.5j])),)
            circles.append(Circle(z0, w0, radius, samples, "joint", dz, dw))
    return z, circles, draw(st.lists(SCAN_COORD, max_size=5))


class TestOneScanCall:
    """scan_psh takes every circle, line and the grid of a scan through one
    kernel call, and gives exactly what the per-circle wrappers give on
    fresh problems."""

    @pytest.mark.parametrize("name", sorted(SCAN_PROBLEMS))
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_equals_the_per_circle_wrappers(self, name, data):
        import xibergman.fiberwise as fw

        make, shared = SCAN_PROBLEMS[name]
        z, circles, grid = data.draw(scans(make().fiber_domain.arity))
        passes, grams = [], []
        with pytest.MonkeyPatch.context() as mp:
            for attr, log in (("_fiber_models", passes), ("assemble_gram", grams)):
                real = getattr(fw, attr)
                mp.setattr(fw, attr, lambda *a, _real=real, _log=log, **k:
                           _log.append(a) or _real(*a, **k))
            reports, lk = scan_psh(make(), z, circles, grid)
        calls = 1 if circles or grid else 0
        assert len(passes) == calls
        if shared:
            assert len(grams) == calls
        alone = [
            psh_verify_base(make(), z if c.z is None else c.z, c.w0, c.radius,
                            c.samples) if c.kind == "base" else
            psh_verify_joint(make(), c.z, c.w0, c.dz, c.dw, c.radius, c.samples)
            for c in circles
        ]
        assert reports == alone
        assert lk.tolist() == [v for _, _, v in scan_base(make(), z, grid)]


    def test_an_empty_scan_builds_no_model(self, monkeypatch):
        calls = count_gram_calls(monkeypatch)
        reports, lk = scan_psh(pstar_problem(), (0.0, 0.0))
        assert reports == [] and lk.shape == (0,) and calls == []

    @pytest.mark.parametrize("alphas, size", [(1, 5), (2, 13), (6, 28)])
    def test_rows_round_alike_whatever_shares_their_point(self, alphas, size):
        # a row's actions are one ordered sum over its alphas: the same bits
        # in a batch of 40, alone, tripled and over its nonzero alphas alone,
        # at one shared point and at points of their own
        from xibergman.bergman import _products

        rng = np.random.default_rng(alphas)
        X = rng.standard_normal((40, alphas)) + 1j * rng.standard_normal((40, alphas))
        X[rng.random(X.shape) < 0.3] = 0  # zero columns in some rows
        for points in (1, 9):
            U0 = rng.standard_normal((points, alphas, size)) * (1 + 0.5j)
            at = rng.integers(0, points, 40)
            at[:5] = points - 1  # a point shared by five rows, the others mostly alone
            u = _products(X, U0, at)
            for p in range(40):
                want = u[p].tobytes()
                assert _products(X[[p]], U0, at[[p]])[0].tobytes() == want
                tripled = _products(X[[p] * 3], U0, at[[p] * 3])
                assert {row.tobytes() for row in tripled} == {want}
                nz = np.flatnonzero(X[p])
                alone = _products(X[[p]][:, nz], U0[:, nz], at[[p]])[0]
                assert alone.tobytes() == want


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
