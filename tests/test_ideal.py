"""Unit tests for jet coefficient matrices, annihilators, and lambda scans.

Frozen oracles (hand expansions):
  F1 = z1, N=2:        basis {1, z1, z2}; single nonzero column (0,1,0);
                       annihilator rows are the Dirac and dz2 functionals.
  F1 = z1 - w z2, N=2: column (0, 1, -w); annihilator rows Dirac and
                       {dz1 -> w, dz2 -> 1} up to unit scaling.
  F1 = z - w,  n=1:    columns (-w, 1) and (0, -w); rank 2 = p, empty
                       annihilator, det C = +-w^2, U = {w != 0}.
"""

import contextlib
import itertools
import json
import math
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from xibergman import ideal, weights
from xibergman import fiberwise
from xibergman.bergman import QuadSpec, assemble_gram, kernels, orthonormalize
from xibergman.family import FunctionalFamily, PolyW
from xibergman.fiberwise import square_grid, submean_check
from xibergman.functional import (
    ArityMismatchError,
    Functional,
    TaylorData,
    apply,
    multi_indices_upto,
    recenter,
)
from xibergman.ideal import (
    AnnihilatorResult,
    DegenerateInputError,
    IdealFamily,
    OutsideUError,
    TermMatrix,
    _det_and_cofactors,
    annihilator,
    annihilator_to_json,
    build_annihilator,
    build_coeff_matrix,
    functionals_from_annihilator,
    ideal_from_json,
    ideal_to_json,
    krull_stabilize,
    lambda_scan,
    max_rank,
    membership_by_functionals,
    membership_oracle,
    multiplier_generators,
    oracle_membership,
    psi_scan,
)
from xibergman.family import _live, lub_check, poly_to_json
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
)

Z1 = IdealFamily(2, 1, [PolyW(3, {(1, 0, 0): 1.0})], 2)
PENCIL = IdealFamily(2, 1, [PolyW(3, {(1, 0, 0): 1.0, (0, 1, 1): -1.0})], 2)
SHIFT = IdealFamily(1, 1, [PolyW(2, {(1, 0): 1.0, (0, 1): -1.0})], 2)
GRID = [0.3, -0.2 + 0.1j, 0.5j]
CONFIGS = Path(__file__).resolve().parent.parent / "configs"

PSTAR_G = PolyW(3, {(1, 0, 0): 1.0, (0, 1, 1): -1.0})
PSTAR_WEIGHT = JointLogDivisor(PSTAR_G, 2)
#: g = z1 + w - 0.3 passes through the fiber origin only over w = 0.3
OFF_ORIGIN_G = PolyW(3, {(1, 0, 0): 1.0, (0, 0, 1): 1.0, (0, 0, 0): -0.3})


def functional_matches(fam: FunctionalFamily, expect: dict, w) -> bool:
    """Compare a functional at w against expected coefficients up to a unit."""
    xi = fam.eval((w,))
    keys = {k for k, v in expect.items() if abs(v) > 1e-12}
    if keys != set(xi.coeffs):
        return False
    k0 = next(iter(keys))
    unit = xi.coeffs[k0] / expect[k0]
    return all(
        abs(xi.coeffs[k] - unit * expect[k]) < 1e-9 * max(1.0, abs(unit))
        for k in keys
    )


class TestCoeffMatrix:
    def test_z1_hand_expansion(self):
        A = build_coeff_matrix(Z1)
        # graded order with ascending tie-break: 1, z2, z1
        assert A.basis == [(0, 0), (0, 1), (1, 0)]
        M = A.evaluate((0.7,))
        expected = np.zeros((3, 3), dtype=complex)
        expected[2, 0] = 1.0  # z1 row, beta = 0 column
        assert np.allclose(M, expected)

    def test_pencil_hand_expansion(self):
        A = build_coeff_matrix(PENCIL)
        w = 0.5 + 0.25j
        M = A.evaluate((w,))
        expected = np.zeros((3, 3), dtype=complex)
        expected[2, 0] = 1.0  # z1 coefficient
        expected[1, 0] = -w  # z2 coefficient
        assert np.allclose(M, expected)

    def test_shift_hand_expansion(self):
        A = build_coeff_matrix(SHIFT)
        w = 0.3
        M = A.evaluate((w,))
        assert np.allclose(M, np.array([[-w, 0.0], [1.0, -w]]))

    def test_row_count(self):
        for fam, p in [(Z1, 3), (SHIFT, 2)]:
            A = build_coeff_matrix(fam)
            n, N = fam.z_arity, fam.truncation
            assert A.p == p == math.comb(N - 1 + n, n)


def reference_coeff_terms(fam: IdealFamily) -> tuple[np.ndarray, np.ndarray]:
    """The exponents and coefficient array of A by a loop over generators,
    terms and jet monomials, adding each term into its cell."""
    n, m, N = fam.z_arity, fam.w_arity, fam.truncation
    basis = multi_indices_upto(n, N - 1)
    row_of = {a: i for i, a in enumerate(basis)}
    p = len(basis)
    w_exps = sorted({e[n:] for g in fam.generators for e in g.coeffs})
    t_of = {b: t for t, b in enumerate(w_exps)}
    coef = np.zeros((len(w_exps), p, p * len(fam.generators)), dtype=complex)
    for i, g in enumerate(fam.generators):
        for e, c in g.coeffs.items():
            gamma, t = e[:n], t_of[e[n:]]
            for j, beta in enumerate(basis):
                row = row_of.get(tuple(bi + gi for bi, gi in zip(beta, gamma)))
                if row is not None:
                    coef[t, row, i * p + j] += c
    exps = np.array(w_exps, dtype=np.int64).reshape(-1, m)
    live = coef.any(axis=(1, 2))
    return exps[live], coef[live]


@st.composite
def shared_z_ideals(draw):
    """Ideals with n <= 3, m <= 2 and N <= 5 whose terms draw their z-parts
    from a pool of at most three, so several terms share a z-part across
    different w-exponents; coefficients may carry signed zeros."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    pool = draw(st.lists(st.tuples(*[st.integers(0, 3)] * n), min_size=1,
                         max_size=3, unique=True))
    wmono = st.tuples(*[st.integers(0, 2)] * m)
    coeff = st.builds(complex, st.floats(-2, 2),
                      st.sampled_from([0.0, -0.0, 1.5, -0.25]))
    gens = []
    for _ in range(draw(st.integers(1, 2))):
        keys = draw(st.lists(st.tuples(st.sampled_from(pool), wmono), min_size=1,
                             max_size=6, unique=True))
        gens.append(PolyW(n + m, {z + w: draw(coeff) for z, w in keys}))
    return IdealFamily(n, m, gens, draw(st.integers(1, 5)))


class TestCoeffBroadcast:
    @given(shared_z_ideals())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_term_loop(self, fam):
        A = build_coeff_matrix(fam)
        exps, coef = reference_coeff_terms(fam)
        assert np.array_equal(A.terms.exps, exps)
        assert np.array_equal(A.terms.coef, coef)
        assert A.terms.coef.tobytes() == coef.tobytes()  # signed zeros too

    def test_ranks_follow_the_jet_basis(self):
        for n in range(4):
            for N in range(1, 7):
                basis = multi_indices_upto(n, N - 1)
                alpha = np.array(basis, dtype=np.int64).reshape(len(basis), n)
                assert ideal._grlex_rank(alpha).tolist() == list(range(len(basis)))


def reference_evaluate(A, w) -> np.ndarray:
    """A(w) rebuilt from the generators, not from ``build_coeff_matrix``:
    column (beta, i) holds the jet coefficients of z^beta f_i(z, w)."""
    fam = A.fam
    n = fam.z_arity
    basis = multi_indices_upto(n, fam.truncation - 1)
    row = {a: k for k, a in enumerate(basis)}
    M = np.zeros((len(basis), len(basis) * len(fam.generators)), dtype=complex)
    for i, g in enumerate(fam.generators):
        for j, beta in enumerate(basis):
            for e, c in g.coeffs.items():
                alpha = tuple(b + a for b, a in zip(beta, e[:n]))
                if alpha in row:
                    M[row[alpha], i * len(basis) + j] += c * np.prod(
                        [complex(x) ** k for x, k in zip(w, e[n:])]
                    )
    return M


def reference_max_rank(A, w_grid, seed=0, n_random=12):
    """The per-point rank search that ``max_rank`` batches."""
    m = A.fam.w_arity
    pts = [(w,) if m == 1 and np.isscalar(w) else tuple(w) for w in w_grid]
    pts = [tuple(complex(x) for x in w) for w in pts]
    rng = np.random.default_rng(seed)
    for _ in range(n_random):
        pts.append(
            tuple(
                complex(a, b)
                for a, b in zip(
                    0.6 * rng.uniform(-1, 1, m), 0.6 * rng.uniform(-1, 1, m)
                )
            )
        )
    best_r, witness = -1, pts[0]
    for w in pts:
        s = np.linalg.svd(reference_evaluate(A, w), compute_uv=False)
        r = 0 if s[0] == 0 else int(np.sum(s > 1e-9 * s[0]))
        if r > best_r:
            best_r, witness = r, w
    return best_r, witness


ALL_ZERO = IdealFamily(2, 2, [PolyW(4, {})], 2)
TWO_BASE = IdealFamily(1, 2, [PolyW(3, {(1, 1, 0): 1.0, (0, 0, 1): -1.0})], 2)


@st.composite
def ideal_families(draw):
    """Sparse small-integer generators in (z, w), n and m in {1, 2}, N <= 3,
    times a common power of two far from 1 or 1 (ranks are relative).

    A generator may be 0, and so may all of them (an all-zero A).
    """
    n, m = draw(st.sampled_from([1, 2])), draw(st.sampled_from([1, 2]))
    mono = st.tuples(*[st.integers(0, 2)] * (n + m))
    unit = draw(st.sampled_from([1.0, 2.0**-40, 2.0**40]))
    coeff = st.builds(complex, st.integers(-3, 3), st.integers(-3, 3)).map(
        lambda c: unit * c
    )
    gen = st.dictionaries(mono, coeff, max_size=4).map(lambda d: PolyW(n + m, d))
    gens = draw(st.lists(gen, min_size=1, max_size=2))
    return IdealFamily(n, m, gens, draw(st.integers(1, 3)))


def eighths():
    """Complex numbers on the lattice (Z + iZ) / 8 with |re|, |im| <= 3/4."""
    k = st.integers(-6, 6).map(lambda k: k / 8)
    return st.builds(complex, k, k)


def dyadic_points(m: int):
    """Base points on the lattice (Z + iZ) / 8, where A(w) is exact."""
    return st.lists(st.tuples(*[eighths()] * m), min_size=1, max_size=6)


class TestArrayEvaluator:
    @given(ideal_families(), st.data())
    @example(ALL_ZERO, None)
    @settings(max_examples=150, deadline=None)
    def test_matches_the_generators(self, fam, data):
        A = build_coeff_matrix(fam)
        m = fam.w_arity
        if data is None:
            W = [(0.3 - 0.2j,) * m, (0.0,) * m]
        else:
            # 0 or at least 1e-3 in size: products of subnormals underflow
            # in an order that depends on how the terms are grouped
            x = st.floats(-1.5, 1.5).filter(lambda x: x == 0 or abs(x) >= 1e-3)
            c = st.builds(complex, x, x)
            W = data.draw(st.lists(st.tuples(*[c] * m), min_size=1, max_size=5))
        got = A.values(W)
        assert got.shape == (len(W), A.p, A.q)
        for k, w in enumerate(W):
            want = reference_evaluate(A, w)
            scale = np.abs(want).max()
            assert np.abs(got[k] - want).max() <= 1e-13 * scale
            assert np.array_equal(A.evaluate(w), got[k])
        if all(not g.coeffs for g in fam.generators):
            assert not got.any()


class TestMaxRank:
    def test_examples(self):
        assert max_rank(build_coeff_matrix(Z1), GRID)[0] == 1
        assert max_rank(build_coeff_matrix(PENCIL), GRID)[0] == 1
        r, wit = max_rank(build_coeff_matrix(SHIFT), GRID)
        assert r == 2 and abs(wit[0]) > 1e-6

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            max_rank(build_coeff_matrix(Z1), [])

    @pytest.mark.parametrize("fam", [Z1, PENCIL, SHIFT], ids=["Z1", "PENCIL", "SHIFT"])
    def test_matches_the_per_point_search(self, fam):
        A = build_coeff_matrix(fam)
        for grid in (GRID, [0.0], [0.0, 0.3]):
            assert max_rank(A, grid) == reference_max_rank(A, grid)

    @given(ideal_families(), st.data(), st.integers(0, 3))
    @example(ALL_ZERO, None, 0)
    @example(SHIFT, None, 0)
    @settings(max_examples=150, deadline=None)
    def test_batched_search_matches_the_per_point_search(self, fam, data, seed):
        # both ways out are taken: the first point alone when it reaches
        # min(live rows, live columns), the whole batch otherwise (SHIFT at 0)
        A = build_coeff_matrix(fam)
        m = fam.w_arity
        grid = [(0.0,) * m] if data is None else data.draw(dyadic_points(m))
        assert max_rank(A, grid, seed=seed) == reference_max_rank(A, grid, seed)

    @staticmethod
    def spy_points(monkeypatch):
        """The number of points of each A.values and each SVD call."""
        calls = {"values": [], "svd": []}
        values, svd = TermMatrix.values, np.linalg.svd

        def spy_values(self, W):
            V = values(self, W)
            calls["values"].append(len(V))
            return V

        def spy_svd(M, *args, **kwargs):
            calls["svd"].append(len(M))
            return svd(M, *args, **kwargs)

        monkeypatch.setattr(TermMatrix, "values", spy_values)
        monkeypatch.setattr(np.linalg, "svd", spy_svd)
        return calls

    def test_dense_pair_rank_tests_one_point(self, monkeypatch):
        # the constant-jet row is zero, so 14 live rows bound the rank, and
        # the first grid point reaches it
        from xibergman.cli import _grid_points

        cfg = json.loads((CONFIGS / "annihilate_dense.json").read_text())
        A = build_coeff_matrix(ideal_from_json(cfg["ideal"]))
        grid = _grid_points(cfg["wGrid"])
        want = reference_max_rank(A, grid)
        calls = self.spy_points(monkeypatch)
        assert max_rank(A, grid) == want == (14, (grid[0],))
        assert calls == {"values": [1], "svd": [1]}

    def test_first_point_below_the_bound_takes_the_batch(self, monkeypatch):
        # A(0) = [[0, 0], [1, 0]] has rank 1 of a possible 2
        A = build_coeff_matrix(SHIFT)
        grid = [0.0, 0.3]
        want = reference_max_rank(A, grid)
        calls = self.spy_points(monkeypatch)
        assert max_rank(A, grid) == want == (2, (0.3 + 0j,))
        assert calls == {"values": [1, 14], "svd": [1, 14]}

    def test_point_of_the_wrong_length_rejected(self):
        A1, A2 = build_coeff_matrix(Z1), build_coeff_matrix(TWO_BASE)
        with pytest.raises(ValueError, match="2 coordinates, not 1"):
            max_rank(A1, [(0.3, 0.2)])
        with pytest.raises(ValueError, match="1 coordinates, not 2"):
            max_rank(A2, [0.3])
        with pytest.raises(ValueError, match="4 coordinates, not 2"):
            max_rank(A2, [(0.3, 0.2, 0.1, 0.4), (0.3, 0.2)])
        with pytest.raises(ValueError, match="1 coordinates, not 2"):
            A2.evaluate(0.3)

    def test_two_base_variables(self):
        # f = w1 z - w2, N = 2: A = [[-w2, 0], [w1, -w2]], det A = w2^2, so
        # the rank is 2 off w2 = 0, 1 on it away from 0, and 0 at w = 0
        fam = TWO_BASE
        A = build_coeff_matrix(fam)
        assert np.array_equal(
            A.evaluate((0.5, 0.25)), np.array([[-0.25, 0.0], [0.5, -0.25]])
        )
        grid = [(0.0, 0.0), (0.5, 0.0), (0.3, 0.2), (0.1, 0.4)]
        assert max_rank(A, grid) == (2, (0.3 + 0j, 0.2 + 0j))
        # no grid point reaches rank 2: the first generic point is the witness
        r, wit = max_rank(A, grid[:2])
        assert (r, wit) == reference_max_rank(A, grid[:2])
        assert r == 2 and wit not in grid
        res = build_annihilator(fam, grid)
        assert res.r == 2 and res.s == 0
        assert res.in_U((0.3, 0.2)) and not res.in_U((0.5, 0.0))


def reference_product_residual(res) -> float:
    """The certificate B(w) A(w) multiplied out in PolyW arithmetic, entry by
    entry: its largest coefficient over the scale of ``product_residual``."""
    A = res.matrix
    P = A.terms.polys()
    Ap = [[P[i][j] for j in res.col_perm] for i in res.row_perm]
    zero = PolyW(A.fam.w_arity, {})
    scale = max(A.terms.max_coeff(), 1.0) * max(res.b_terms.max_coeff(), 1.0)
    residual = 0.0
    for X in res.b_terms.polys():
        for c in range(A.q):
            acc = zero
            for l in range(A.p):
                if X[l].coeffs and Ap[l][c].coeffs:
                    acc = acc + X[l] * Ap[l][c]
            residual = max(residual, acc.max_coeff() / scale)
    return residual


@st.composite
def non_integer_ideals(draw):
    """Ideals in (z1, z2) over m in {1, 2} base variables, N in {2, 3}.

    Each generator has the terms z1 a w^b and z2 c w^d with a, c non-integer,
    plus up to two more terms divisible by some z_i, so the annihilator has
    rows with several non-integer entries whose products round.
    """
    m = draw(st.sampled_from([1, 2]))
    wmono = st.tuples(*[st.integers(0, 2)] * m)
    coeff = st.builds(
        lambda a, b: complex(a / 7, b / 5), st.integers(1, 6), st.integers(-6, 6)
    )
    zmono = st.sampled_from([(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)])
    gens = []
    for _ in range(draw(st.integers(1, 2))):
        terms = {(1, 0) + draw(wmono): draw(coeff), (0, 1) + draw(wmono): draw(coeff)}
        for _ in range(draw(st.integers(0, 2))):
            terms[draw(zmono) + draw(wmono)] = draw(coeff)
        gens.append(PolyW(2 + m, terms))
    return IdealFamily(2, m, gens, draw(st.integers(2, 3)))


def non_integer(B: np.ndarray) -> np.ndarray:
    """Entries (rows x cols) of a coefficient array with a non-integer part."""
    return ((B.real != np.round(B.real)) | (B.imag != np.round(B.imag))).any(axis=0)


class TestAnnihilator:
    def test_exact_polynomial_identity(self):
        for fam in (Z1, PENCIL, SHIFT):
            res = build_annihilator(fam, GRID)
            assert res.product_residual < 1e-10
            assert res.product_residual == reference_product_residual(res)

    @given(non_integer_ideals())
    @example(IdealFamily(2, 1, [PolyW(3, {(1, 0, 0): 3 / 7 + 0.2j,
                                          (0, 1, 1): 5 / 7 - 0.4j})], 2))
    @settings(max_examples=80, deadline=None)
    def test_product_matches_the_polyw_certificate(self, fam):
        # rows with two or more non-integer entries round in B(w) A(w), so
        # the residual is not 0 by construction, as it is on integer inputs
        res = build_annihilator(fam)
        assume((non_integer(res.b_terms.coef).sum(axis=1) >= 2).any())
        # the arrays hold what their PolyW views hold
        m = fam.w_arity
        assert_same_terms(res.matrix.terms, term_matrix(res.matrix.terms.polys(), m))
        assert_same_terms(res.b_terms, term_matrix(res.b_terms.polys(), m, res.p))
        ref = reference_product_residual(res)
        assert res.product_residual <= 1e-10 and ref <= 1e-10
        assert abs(res.product_residual - ref) <= 1e-13

    def test_z1_functionals(self):
        res = build_annihilator(Z1, GRID)
        assert res.s == 2
        fams = res.functionals()
        found = {
            "dirac": any(functional_matches(f, {(0, 0): 1.0}, 0.3) for f in fams),
            "dz2": any(functional_matches(f, {(0, 1): 1.0}, 0.3) for f in fams),
        }
        assert all(found.values())

    def test_pencil_functionals(self):
        res = build_annihilator(PENCIL, GRID)
        assert res.s == 2
        fams = res.functionals()
        w = 0.5
        assert any(functional_matches(f, {(0, 0): 1.0}, w) for f in fams)
        assert any(
            functional_matches(f, {(1, 0): w, (0, 1): 1.0}, w) for f in fams
        )

    def test_base_points_of_another_arity_are_refused(self):
        # (z1 - z2 w) at N = 3, m = 1: a point (0.1, 0.2) of two coordinates
        # is not two points
        res = build_annihilator(IdealFamily(2, 1, [PSTAR_G], 3), GRID)
        W = np.array([[0.1, 0.2]])
        with pytest.raises(ArityMismatchError, match="arity 1"):
            res.eval_B(W)
        with pytest.raises(ArityMismatchError, match="arity 1"):
            res.in_U(W)
        assert res.eval_B(W[:, :1]).shape == (1, res.s, res.p)
        assert res.in_U(W[:, :1]).shape == (1,)

    def test_shift_empty_annihilator(self):
        res = build_annihilator(SHIFT, GRID)
        assert res.s == 0
        assert functionals_from_annihilator(res) == []
        # det C = +-w^2 defines U = {w != 0}
        det = res.det_terms.polys()[0][0]
        assert abs(abs(det.evaluate((0.5,))) - 0.25) < 1e-12
        assert res.in_U(0.5) and not res.in_U(0.0)

    def test_degree_bound_and_lub(self):
        for fam in (Z1, PENCIL):
            res = build_annihilator(fam, GRID)
            for f in res.functionals():
                assert f.z_degree <= fam.truncation - 1
                table = lub_check(f, [(w,) for w in GRID], rhos=[0.5, 2.0])
                assert all(math.isfinite(v) for v in table.values())

    def test_exactness_on_random_u_points(self):
        rng = np.random.default_rng(11)
        for fam in (Z1, PENCIL, SHIFT):
            res = build_annihilator(fam, GRID)
            A = res.matrix
            count = 0
            while count < 50:
                w = complex(*rng.uniform(-0.7, 0.7, 2))
                if not res.in_U(w):
                    continue
                count += 1
                Aw = A.evaluate((w,))
                s_a = np.linalg.svd(Aw, compute_uv=False)
                rank_a = int(np.sum(s_a > 1e-9 * s_a[0])) if s_a[0] > 0 else 0
                assert rank_a == res.r
                if res.s:
                    Bw = res.eval_B(w)
                    s_b = np.linalg.svd(Bw, compute_uv=False)
                    assert int(np.sum(s_b > 1e-9 * s_b[0])) == res.s
                    # Im A = Ker B: the columns of A lie in Ker B and fill it
                    _, sv, Vh = np.linalg.svd(Bw)
                    kerB = Vh[res.s :].conj().T  # p x r, permuted-row coords
                    # rows of kerB are in permuted order; undo the permutation
                    kerB_orig = np.zeros_like(kerB)
                    for i, orig in enumerate(res.row_perm):
                        kerB_orig[orig] = kerB[i]
                    stacked = np.hstack([Aw, kerB_orig])
                    s_c = np.linalg.svd(stacked, compute_uv=False)
                    assert int(np.sum(s_c > 1e-9 * s_c[0])) == res.r

    def test_singular_witness_draws_another(self, monkeypatch):
        # z1 and w z2 at N = 2 have rank 2 wherever w != 0; at the witness
        # w = 0 the pivot block is singular, and a generic witness serves
        draws = []
        real_draw = ideal._generic_point
        monkeypatch.setattr(ideal, "_generic_point",
                            lambda *a: draws.append(a) or real_draw(*a))
        fam = IdealFamily(2, 1, [PolyW(3, {(1, 0, 0): 1.0}),
                                 PolyW(3, {(0, 1, 1): 1.0})], 2)
        A = build_coeff_matrix(fam)
        assert max_rank(A, GRID)[0] == 2
        res = annihilator(A, 2, (0.0,))
        assert len(draws) == 1
        assert res.product_residual < 1e-10
        assert res.product_residual == reference_product_residual(res)
        assert res.s == 1 and res.in_U(0.3) and not res.in_U(0.0)

    def test_nonsingular_witness_seeds_no_generator(self, monkeypatch):
        # the shipped dense pair's first witness has a nonsingular pivot
        # block, so no generic witness is drawn and no generator is seeded
        from xibergman.cli import _grid_points

        def no_rng(seed=None):
            raise AssertionError("generator seeded")

        cfg = json.loads((CONFIGS / "annihilate_dense.json").read_text())
        monkeypatch.setattr(np.random, "default_rng", no_rng)
        res = build_annihilator(ideal_from_json(cfg["ideal"]),
                                _grid_points(cfg["wGrid"]))
        assert res.r == 14 and res.product_residual < 1e-10

    def test_rank_above_the_maximum_exhausts_the_witnesses(self):
        # (z1 - z2 w) has rank 1: no 2 x 2 pivot block is nonsingular anywhere
        A = build_coeff_matrix(IdealFamily(2, 1, [PSTAR_G], 2))
        r = max_rank(A, GRID)[0]
        with pytest.raises(DegenerateInputError,
                           match="no nonsingular pivot block found after 10 witnesses"):
            annihilator(A, r + 1, (0.3,))

    def test_json_dump_structure(self):
        res = build_annihilator(PENCIL, GRID)
        obj = annihilator_to_json(res)
        assert obj["rank"] == 1 and obj["s"] == 2 and obj["p"] == 3
        assert len(obj["rows"]) == 2 and len(obj["rows"][0]) == 3


def reference_annihilator_json(res: AnnihilatorResult) -> dict:
    """``annihilator_to_json`` by way of PolyW: det C and B(w) as PolyW,
    each entry trimmed as PolyW trims it, written by ``poly_to_json``."""
    return {
        **annihilator_to_json(res),
        "detC": poly_to_json(res.det_terms.polys()[0][0]),
        "rows": [[poly_to_json(e) for e in row] for row in res.b_terms.polys()],
    }


@st.composite
def dense_ideals(draw):
    """One or two generators holding every z-monomial of degree 1 or 2 times
    every w-monomial of degree at most 1, with coefficients over up to 16
    decades, N in 2..4."""
    n, m = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    zmonos = [a for a in multi_indices_upto(n, 2) if sum(a) > 0]
    wmonos = multi_indices_upto(m, 1)
    part = st.floats(-1, 1).filter(lambda x: abs(x) > 1e-3)
    scale = st.sampled_from([1.0, 1.0, 1e-6, 1e-16])
    coeff = st.builds(lambda a, b, c: c * complex(a, b), part, part, scale)
    gens = [
        PolyW(n + m, {z + w: draw(coeff) for z in zmonos for w in wmonos})
        for _ in range(draw(st.integers(1, 2)))
    ]
    return IdealFamily(n, m, gens, draw(st.integers(2, 4)))


class TestAnnihilatorJson:
    @pytest.mark.parametrize(
        "name", ["annihilate_dense", "annihilate_pencil", "lambda_pstar"]
    )
    def test_shipped_ideals_match_the_polyw_output(self, name):
        cfg = json.loads((CONFIGS / f"{name}.json").read_text())
        res = build_annihilator(ideal_from_json(cfg["ideal"]), square_grid(0.6, 5))
        # repr tells the signed zeros apart
        assert repr(annihilator_to_json(res)) == repr(reference_annihilator_json(res))

    def test_trim_drops_what_polyw_drops(self):
        # det C = +-(1 + 10w)^14: its constant term is 7e-15 of its largest
        fam = IdealFamily(1, 1, [PolyW(2, {(1, 0): 1.0, (1, 1): 10.0})], 15)
        res = build_annihilator(fam)
        obj = annihilator_to_json(res)
        assert len(res.det_terms.exps) == 15 and len(obj["detC"]) == 14
        assert repr(obj) == repr(reference_annihilator_json(res))

    @given(dense_ideals())
    # det C = (w1 + 2 w2)^2: one entry whose terms grlex orders by w1 first
    @example(IdealFamily(1, 2, [PolyW(3, {(1, 0, 0): 1.0, (0, 1, 0): -1.0,
                                          (0, 0, 1): -2.0})], 2))
    @settings(max_examples=40, deadline=None)
    def test_dense_ideals_match_the_polyw_output(self, fam):
        try:
            res = build_annihilator(fam)
        except DegenerateInputError:
            assume(False)
        assert repr(annihilator_to_json(res)) == repr(reference_annihilator_json(res))


def term_matrix(M: list[list[PolyW]], m: int, cols: int = 0) -> TermMatrix:
    """The matrix of the PolyW entries M; ``cols`` sizes a matrix of no rows."""
    rows, cols = len(M), len(M[0]) if M else cols
    exps = sorted({a for row in M for e in row for a in e.coeffs})
    t_of = {a: t for t, a in enumerate(exps)}
    coef = np.zeros((len(exps), rows, cols), dtype=complex)
    for i, row in enumerate(M):
        for j, e in enumerate(row):
            for a, c in e.coeffs.items():
                coef[t_of[a], i, j] = c
    return TermMatrix(np.array(exps, dtype=np.int64).reshape(-1, m), coef)


def assert_same_terms(got: TermMatrix, want: TermMatrix):
    assert np.array_equal(got.exps, want.exps)
    assert np.array_equal(got.coef, want.coef)


def det_and_cofactors(M: list[list[PolyW]], m: int):
    """``_det_and_cofactors`` on PolyW rows: det C, trimmed as PolyW trims
    it, and the cofactor rows, as PolyW."""
    det, B = _det_and_cofactors(term_matrix(M, m))
    return det.polys()[0][0], B.polys()


def laplace_det(M: list[list[PolyW]], m: int) -> PolyW:
    """Reference determinant: first-column Laplace expansion in PolyW."""
    if not M:
        return PolyW.constant(1.0, m)
    total = PolyW(m, {})
    for i, row in enumerate(M):
        if row[0].coeffs:
            minor = [other[1:] for k, other in enumerate(M) if k != i]
            term = row[0] * laplace_det(minor, m)
            total = total + (-term if i % 2 else term)
    return total


def assert_same_poly(got: PolyW, want: PolyW, scale: float):
    # integer inputs make the reference exact; an exact zero must stay zero
    assert set(got.coeffs) == set(want.coeffs)
    for a, c in want.coeffs.items():
        assert abs(got.coeffs[a] - c) <= 1e-12 * scale


def check_against_laplace(M: list[list[PolyW]], m: int):
    """det C and every bordered cofactor agree with the reference."""
    p, r = len(M), len(M[0]) if M else 0
    det_c, rows = det_and_cofactors(M, m)
    ref_det = laplace_det(M[:r], m)
    entries = [abs(c) for row in M for e in row for c in e.coeffs.values()]
    scale = max(1.0, max(entries, default=0.0)) ** (r + 1) * math.factorial(r + 1)
    assert_same_poly(det_c, ref_det, scale)
    assert len(rows) == p - r
    for l, X in zip(range(r, p), rows):
        assert len(X) == p
        bordered = M[:r] + [M[l]]
        for k in range(r):
            minor = [row for i, row in enumerate(bordered) if i != k]
            want = laplace_det(minor, m)
            assert_same_poly(X[k], want if (k + r) % 2 == 0 else -want, scale)
        assert_same_poly(X[l], ref_det, scale)
        assert all(not X[i].coeffs for i in range(r, p) if i != l)


@st.composite
def sparse_poly_matrices(draw):
    """p x r matrices, r <= 6, of sparse integer polynomials in m <= 2 vars."""
    m = draw(st.sampled_from([1, 2]))
    r = draw(st.integers(0, 6))
    p = r + draw(st.integers(0, 2))
    mono = st.tuples(*[st.integers(0, 2)] * m)
    coeff = st.builds(complex, st.integers(-3, 3), st.integers(-3, 3))
    entry = st.one_of(
        st.just({}),
        st.dictionaries(mono, coeff, max_size=3),
    ).map(lambda d: PolyW(m, d))
    M = [[draw(entry) for _ in range(r)] for _ in range(p)]
    return M, m


@st.composite
def zero_bordered_matrices(draw):
    """sparse_poly_matrices with r >= 1 and at least one bordered row
    (row l >= r) identically zero."""
    M, m = draw(sparse_poly_matrices().filter(lambda c: c[0] and c[0][0]))
    r = len(M[0])
    zero = [PolyW(m, {})] * r
    if len(M) == r:
        return M + [zero], m
    for l in draw(st.sets(st.sampled_from(range(r, len(M))), min_size=1)):
        M[l] = zero
    return M, m


@contextlib.contextmanager
def sampled_picks():
    """Record the rows picked for every minor ``_sample_minors`` samples."""
    seen = []
    real = ideal._sample_minors

    def spy(V, picks, signs, K):
        seen.append(picks.tolist())
        return real(V, picks, signs, K)

    with mock.patch.object(ideal, "_sample_minors", spy):
        yield seen


@st.composite
def wide_range_triangular(draw):
    """Row-permuted upper-triangular matrices whose det spans many decades.

    The diagonal entries are 1 + a w^beta with a a power of two in
    [2^-10, 2^10], so det = +-prod(1 + a w^beta) has positive coefficients
    over up to twelve decades (within what PolyW keeps, 1e-14 of the
    largest); the entries above the diagonal, when drawn, are small sparse
    integer polynomials that do not change the determinant.
    """
    m = draw(st.sampled_from([1, 2]))
    r = draw(st.integers(1, 4))
    mono = st.tuples(*[st.integers(0, 2)] * m).filter(any)
    diag = [
        PolyW(m, {(0,) * m: 1.0, draw(mono): 2.0 ** draw(st.integers(-10, 10))})
        for _ in range(r)
    ]
    coeff = st.builds(complex, st.integers(-3, 3), st.integers(-3, 3))
    upper = st.dictionaries(mono, coeff, max_size=2).map(lambda d: PolyW(m, d))
    zero = PolyW(m, {})
    fill = draw(st.booleans())
    entry = upper if fill else st.just(zero)
    T = [
        [diag[i] if j == i else (draw(entry) if j > i else zero) for j in range(r)]
        for i in range(r)
    ]
    perm = draw(st.permutations(range(r)))
    sign = 1.0
    for i in range(r):
        for j in range(i + 1, r):
            if perm[i] > perm[j]:
                sign = -sign
    want = PolyW.constant(sign, m)
    for h in diag:
        want = want * h
    return [T[k] for k in perm], m, want, fill


def _upper_triangular_case() -> tuple:
    """A triangular draw whose upper entries, of degree 2 over diagonal
    entries of degree 1, put its row Hadamard bound ~1e6 above |det| on
    large tori; on that bound alone its w^4 coefficient kept 1.3e-7."""
    zero = PolyW(1, {})
    diag = [PolyW(1, {(0,): 1.0, (1,): a}) for a in (2.0**-7, 2.0**-7, 2.0**-10, 2.0**7)]
    upper = [PolyW(1, d) for d in ({(2,): 3 + 3j}, {(1,): 1j, (2,): 3j}, {(2,): 3 + 3j})]
    M = [[diag[i] if j == i else zero for j in range(4)] for i in range(4)]
    for i in range(3):
        M[i][3] = upper[i]
    want = diag[0] * diag[1] * diag[2] * diag[3]
    return M, 1, want, True


def torus_error(got: PolyW, want: PolyW) -> float:
    """Largest coefficient error over the largest term, on tori 2^-60..2^60."""
    keys = sorted(set(got.coeffs) | set(want.coeffs))
    A = np.array(keys, dtype=float).reshape(len(keys), want.arity)
    c = np.array([abs(want.coeffs.get(a, 0)) for a in keys])
    e = np.array([abs(got.coeffs.get(a, 0) - want.coeffs.get(a, 0)) for a in keys])
    axis = np.arange(-60, 60.5, 0.5)  # log2 of each radius
    S = np.stack(np.meshgrid(*[axis] * want.arity, indexing="ij"), -1)
    S = S.reshape(-1, want.arity)
    with np.errstate(divide="ignore"):
        terms = np.log2(c) + S @ A.T
        errs = np.log2(e) + S @ A.T
    return float(2.0 ** (errs.max(axis=1) - terms.max(axis=1)).max())


def power(h: PolyW, k: int) -> PolyW:
    out = PolyW.constant(1.0, h.arity)
    for _ in range(k):
        out = out * h
    return out


class TestDeterminant:
    @given(wide_range_triangular())
    @example(_upper_triangular_case())
    @settings(max_examples=100, deadline=None)
    def test_wide_dynamic_range(self, case):
        # No sampling resolves a coefficient far below the Newton polygon
        # better than its neighbours allow, so the claim is the one that
        # evaluation needs: on every torus the coefficient errors stay small
        # against the largest term.  The error bound is the smaller of the
        # row and column Hadamard bounds; entries above the diagonal inflate
        # the row bound and one column's (3000 draws reached 1.6e-10, 2.2e-9
        # on the row bound alone); without them it is the determinant's own
        # size, where the unit torus alone reaches 2e-6
        M, m, want, fill = case
        det_c, _ = det_and_cofactors(M, m)
        assert set(det_c.coeffs) <= set(want.coeffs)
        assert torus_error(det_c, want) < (1e-7 if fill else 1e-11)

    @pytest.mark.parametrize(
        "gens, n, N",
        [
            # one generator z (1 + 8w), N = 15: C is a permuted diag(h)
            ([PolyW(2, {(1, 0): 1.0, (1, 1): 8.0})], 1, 15),
            # the pair z1 h, z2 h at N = 5, the benchmark's shape (r = 14)
            ([PolyW(3, {(1, 0, 0): 1.0, (1, 0, 1): 8.0}),
              PolyW(3, {(0, 1, 0): 1.0, (0, 1, 1): 8.0})], 2, 5),
        ],
    )
    def test_det_spanning_thirteen_decades(self, gens, n, N):
        # det C = +-(1 + 8w)^14, coefficients from 1 to ~6e12: the constant
        # term must survive, so w = 0 stays inside U
        res = build_annihilator(IdealFamily(n, 1, gens, N))
        assert res.r == 14
        h14 = power(PolyW(1, {(0,): 1.0, (1,): 8.0}), 14)
        det = res.det_terms.polys()[0][0]
        sign = 1.0 if det.coeffs[(14,)].real > 0 else -1.0
        assert set(det.coeffs) == set(h14.coeffs)
        for a, c in h14.coeffs.items():
            assert det.coeffs[a] == pytest.approx(sign * c, rel=1e-12, abs=0)
        assert det.coeffs[(0,)] == pytest.approx(sign, rel=1e-12)
        assert res.in_U(0.0)
        assert res.product_residual < 1e-10

    def test_in_u_reads_the_untrimmed_determinant(self):
        # det C = +-(1 + 10w)^14 spans more than 14 decades: PolyW's trim at
        # TRIM_REL_TOL drops its constant term, yet det C(0) = +-1
        res = build_annihilator(
            IdealFamily(1, 1, [PolyW(2, {(1, 0): 1.0, (1, 1): 10.0})], 15)
        )
        assert res.r == 14 and (0,) not in res.det_terms.polys()[0][0].coeffs
        assert res.in_U(0.0)
        # B's array is trimmed as its PolyW view is: its det C entry has no
        # constant term either
        assert (0,) not in res.b_terms.polys()[0][14].coeffs
        assert_same_terms(res.b_terms, term_matrix(res.b_terms.polys(), 1, res.p))
        assert res.in_U(0.05) and res.in_U(-0.2)
        assert not res.in_U(-0.1)

    def test_mixed_scales_in_two_variables(self):
        # det = (1 + 100 w2)^4 (1 + w1 / 100)^4: w1^4 w2^0 needs a large
        # radius in w1 and a small one in w2 at once
        m = 2
        diag = [PolyW(m, {(0, 0): 1.0, (0, 1): 100.0})] * 4 + [
            PolyW(m, {(0, 0): 1.0, (1, 0): 0.01})
        ] * 4
        zero = PolyW(m, {})
        M = [[h if i == j else zero for j in range(8)] for i, h in enumerate(diag)]
        want = PolyW.constant(1.0, m)
        for h in diag:
            want = want * h
        det_c, _ = det_and_cofactors(M, m)
        assert set(det_c.coeffs) == set(want.coeffs)
        for a, c in want.coeffs.items():
            assert det_c.coeffs[a] == pytest.approx(c, rel=1e-12, abs=0)

    def test_sample_count_is_per_axis(self):
        # entries 1 + (w1 w2 w3 w4)^5: total degree 60 but 15 per axis, so
        # 16^4 samples rather than 61^4
        m = 4
        t = PolyW(m, {(5,) * m: 1.0})
        one, zero = PolyW.constant(1.0, m), PolyW(m, {})
        h = one + t
        M = [[h, one, zero], [zero, h, one], [one, zero, h]]
        check_against_laplace(M, m)

    def test_oversized_block_is_refused(self):
        # 121^4 samples would exhaust memory; refused before any is taken
        m = 4
        h = PolyW(m, {(0,) * m: 1.0, (40,) * m: 1.0})
        zero = PolyW(m, {})
        M = [[h if i == j else zero for j in range(3)] for i in range(3)]
        with pytest.raises(DegenerateInputError, match="too large"):
            _det_and_cofactors(term_matrix(M, m))

    @given(sparse_poly_matrices())
    @settings(max_examples=150, deadline=None)
    def test_matches_laplace_expansion(self, case):
        check_against_laplace(*case)

    def test_zero_row(self):
        w = PolyW(1, {(1,): 1.0})
        one = PolyW.constant(1.0, 1)
        zero = PolyW(1, {})
        M = [[w, one, one], [zero, zero, zero], [one, w, one], [one, one, w]]
        check_against_laplace(M, 1)
        det_c, rows = det_and_cofactors(M, 1)
        assert not det_c.coeffs

    def test_constant_entries(self):
        M = [[PolyW.constant(c, 2) for c in row]
             for row in ([2, 1, 0], [1, 3, 1], [0, 1, 4], [1, 1, 1])]
        check_against_laplace(M, 2)
        det_c, _ = det_and_cofactors(M, 2)
        assert det_c.coeffs.keys() == {(0, 0)}
        assert det_c.coeffs[(0, 0)] == pytest.approx(18.0, abs=1e-12)

    def test_empty_block(self):
        M = [[], []]
        det_c, rows = det_and_cofactors(M, 1)
        assert det_c.coeffs == {(0,): 1.0}
        assert [[e.coeffs for e in X] for X in rows] == [
            [{(0,): 1.0}, {}], [{}, {(0,): 1.0}]
        ]

    def test_dense_order_six_pair(self):
        # two generic generators of degree <= 2 in (z1, z2, w) vanishing on
        # z = 0: p = 21 jets, r = 20; Laplace expansion took ~100 s here
        rng = np.random.default_rng(6)
        monos = [(1, 0, 0), (0, 1, 0), (2, 0, 0), (1, 1, 0), (0, 2, 0),
                 (1, 0, 1), (0, 1, 1)]
        gens = [
            PolyW(3, {a: complex(*rng.normal(size=2)) for a in monos})
            for _ in range(2)
        ]
        t0 = time.perf_counter()
        res = build_annihilator(IdealFamily(2, 1, gens, 6))
        elapsed = time.perf_counter() - t0
        assert res.p == 21 and res.r == 20
        assert res.product_residual < 1e-10
        assert elapsed < 10.0

    @given(zero_bordered_matrices())
    @settings(max_examples=100, deadline=None)
    def test_no_sampled_minor_keeps_a_zero_row(self, case):
        # a minor that keeps an identically zero row is an exact 0 and is not
        # sampled; every other minor is, on every torus
        M, m = case
        r = len(M[0])
        zero = [not any(e.coeffs for e in row) for row in M]
        every = [list(range(r))] + [
            [i for i in range(r) if i != k] + [l]
            for l in range(r, len(M)) for k in range(r)
        ]
        live = [pick for pick in every if not any(zero[i] for i in pick)]
        with sampled_picks() as seen:
            check_against_laplace(M, m)
        assert seen and all(picks == live for picks in seen)

    def test_dense_pair_samples_only_det_c(self):
        # both generators of the shipped dense N = 5 pair vanish on z = 0, so
        # the constant-jet row of A(w) is zero; it is the one bordered row,
        # its 14 minors are exact zeros, and only det C is sampled
        cfg = json.loads((CONFIGS / "annihilate_dense.json").read_text())
        with sampled_picks() as seen:
            res = build_annihilator(ideal_from_json(cfg["ideal"]), square_grid(0.6, 5))
        assert res.p == 15 and res.r == 14 and res.s == 1
        assert seen and all(picks == [list(range(14))] for picks in seen)
        assert res.matrix.basis[0] == (0, 0) and res.row_perm[14] == 0
        row = res.b_terms.polys()[0]
        assert [l for l, e in enumerate(row) if e.coeffs] == [14]
        assert row[14].coeffs == res.det_terms.polys()[0][0].coeffs
        assert res.product_residual < 1e-10


# ---------------------------------------------------------------------------
# The determinant sampler against its earlier form
# ---------------------------------------------------------------------------

def reference_torus_sampler(M: TermMatrix, ks: np.ndarray, K: tuple[int, ...]):
    """``_torus_sampler`` as it was before the one-pass sampler."""
    rows, cols = M.shape
    E = M.exps
    if not len(E):
        return lambda s: np.zeros((len(ks), rows, cols), dtype=complex)
    coef = M.coef.reshape(len(E), rows * cols)
    turns = np.zeros((len(ks), len(E)))
    for i, Ki in enumerate(K):
        turns += np.outer(ks[:, i], E[:, i]) % Ki / Ki
    unit = np.exp(2j * np.pi * turns)
    return lambda s: ((unit * np.exp(E @ s)) @ coef).reshape(-1, rows, cols)


def reference_sample_minors(V, picks, signs, K):
    """``_sample_minors`` as it was before the one-pass sampler: a norm pass
    over every minor's block, another over V, and an m-dimensional FFT."""
    S, n, r = V.shape[0], len(picks), picks.shape[1]
    vals = np.empty((S, n), dtype=complex)
    log_cols = np.empty((S, n))
    step = max(1, ideal._BLOCK_ENTRIES // max(1, S * r * r))
    with np.errstate(divide="ignore"):
        for t in range(0, n, step):
            blocks = V[:, picks[t : t + step], :]
            vals[:, t : t + step] = np.linalg.det(blocks) * signs[t : t + step]
            log_cols[:, t : t + step] = np.log(np.linalg.norm(blocks, axis=-2)).sum(-1)
        log_rows = np.log(np.linalg.norm(V, axis=-1))
    log_bound = np.minimum(log_rows[:, picks].sum(axis=-1), log_cols).max(axis=0)
    coeffs = np.fft.fftn(vals.reshape(K + (n,)), axes=tuple(range(len(K))))
    return coeffs.reshape(S, n) / S, log_bound


def reference_det_and_cofactors(M: TermMatrix, radii: list
                                ) -> tuple[TermMatrix, TermMatrix]:
    """``_det_and_cofactors`` as it was before the one-pass sampler, which
    must give the same floats: every torus recomputes what the walk hoists.
    The log radii of each torus it samples go to radii."""
    p, r = M.shape
    m = M.exps.shape[1]

    def minor_bound(row_degs):
        return int(row_degs[:r].sum() + row_degs[r:].max(initial=0))

    in_row = M.coef.any(axis=2)[:, :, None]
    degs = np.where(in_row, np.c_[M.exps.sum(axis=1), M.exps][:, None, :], 0)
    degs = degs.max(axis=0, initial=0)
    D = minor_bound(degs[:, 0])
    K = tuple(1 + minor_bound(degs[:, 1 + i]) for i in range(m))
    S = math.prod(K)
    if S * max(p * r, len(M.exps)) > ideal.MAX_SAMPLE_ENTRIES:
        raise DegenerateInputError("pivot block too large to sample")
    ks = np.indices(K).reshape(m, -1).T
    sampler = recorded(reference_torus_sampler(M, ks, K), radii)
    picks = [list(range(r))]
    signs = [1.0]
    for l in range(r, p):
        for k in range(r):
            picks.append([i for i in range(r) if i != k] + [l])
            signs.append(-1.0 if (k + r) % 2 else 1.0)
    picks = np.array(picks, dtype=np.int64).reshape(len(picks), r)
    zero_row = ~M.coef.any(axis=(0, 2))
    live = np.flatnonzero(~zero_row[picks].any(axis=1))
    picks, signs = picks[live], np.array(signs)[live]
    n = len(picks)
    keep = np.flatnonzero(ks.sum(axis=1) <= D)
    alpha = ks[keep]
    log_tau = math.log(ideal.DET_NOISE_REL * (r + 1))
    best = np.zeros((len(keep), n), dtype=complex)
    log_err = np.full((len(keep), n), np.inf)

    def sample(s):
        coeffs, log_bound = reference_sample_minors(sampler(s), picks, signs, K)
        if s.any() and not (
            np.all(np.isfinite(coeffs))
            and np.all(log_bound <= ideal._LOG_RANGE)
            and np.all((log_bound >= -ideal._LOG_RANGE) | np.isneginf(log_bound0))
        ):
            return None
        shift = alpha @ s
        with np.errstate(invalid="ignore"):
            err = log_tau + log_bound - shift[:, None]
        better = err < log_err
        best[better] = (coeffs[keep] * np.exp(-shift)[:, None])[better]
        log_err[better] = err[better]
        return log_bound

    def visible():
        fl = np.exp(log_err)
        return (np.abs(best.real) > fl) | (np.abs(best.imag) > fl)

    ln_q = math.log(ideal.RADIUS_STEP)
    steps = 0 if D == 0 else min(ideal.MAX_RADIUS_STEPS,
                                 int(ideal._LOG_RANGE / (D * ln_q)))
    log_bound0 = sample(np.zeros(m))

    def walk(axis, direction):
        prev = log_bound0
        for step in range(1, steps + 1):
            s = np.zeros(m)
            s[axis] = direction * step * ln_q
            cur = sample(s)
            if cur is None:
                return step - 1
            with np.errstate(invalid="ignore"):
                slope = direction * (cur - prev) / ln_q
            a = alpha[:, axis : axis + 1]
            if direction < 0:
                more = slope > np.where(visible(), a, np.inf).min(axis=0) + 0.5
            else:
                more = slope < np.where(visible(), a, -np.inf).max(axis=0) - 0.5
            if not np.any(more):
                return step
            prev = cur
        return steps

    ladders = [range(-walk(i, -1), walk(i, 1) + 1) for i in range(m)]
    if m > 1:
        budget = ideal.MAX_PRODUCT_ENTRIES // max(1, S * p * r)
        for stride in range(1, 1 + max(map(len, ladders))):
            thinned = [lad[::stride] for lad in ladders]
            if math.prod(map(len, thinned)) <= budget:
                for idx in itertools.product(*thinned):
                    if sum(1 for j in idx if j) > 1:
                        sample(np.array(idx) * ln_q)
                break
    if not np.all(np.isfinite(best)):
        raise DegenerateInputError("minor coefficients overflow the float range")
    fl = np.exp(log_err)
    best.real[np.abs(best.real) <= fl] = 0.0
    best.imag[np.abs(best.imag) <= fl] = 0.0
    minors = np.zeros((len(alpha), 1 + (p - r) * r), dtype=complex)
    minors[:, live] = best
    det_c = _live(alpha, minors[:, :1, None])
    coef = np.zeros((len(alpha), p - r, p), dtype=complex)
    coef[:, :, :r] = minors[:, 1:].reshape(len(alpha), p - r, r)
    j = np.arange(p - r)
    coef[:, j, r + j] = minors[:, :1]
    return det_c, TermMatrix(alpha, coef).trimmed()


def assert_same_bits(got: TermMatrix, want: TermMatrix):
    """The same exponents and the same coefficient bits, signed zeros too."""
    assert got.exps.shape == want.exps.shape and np.array_equal(got.exps, want.exps)
    assert got.coef.shape == want.coef.shape
    assert got.coef.tobytes() == want.coef.tobytes()


def recorded(sampler, radii: list):
    """The torus sampler, listing the log radii of each torus it samples."""
    return lambda s: radii.append(s.tolist()) or sampler(s)


def assert_sampler_matches_reference(M: TermMatrix):
    """det C and B of M bit for bit as the reference gives them, on the same
    tori, or the same refusal."""
    want_radii, got_radii = [], []
    real = ideal._torus_sampler
    with mock.patch.object(ideal, "_torus_sampler",
                           lambda *a: recorded(real(*a), got_radii)):
        try:
            want = reference_det_and_cofactors(M, want_radii)
        except DegenerateInputError:
            with pytest.raises(DegenerateInputError):
                _det_and_cofactors(M)
            return
        got = _det_and_cofactors(M)
    assert got_radii == want_radii
    for g, ref in zip(got, want):
        assert_same_bits(g, ref)


def pivot_block(fam: IdealFamily, grid=None) -> TermMatrix:
    """The pivoted p x r matrix that ``annihilator`` hands the sampler."""
    res = build_annihilator(fam, grid)
    return res.matrix.terms.take(res.row_perm, res.col_perm[: res.r])


@st.composite
def sampler_ideals(draw):
    """Ideals with n and m in {1, 2} and 2 <= N <= 4: one or two generators
    of up to five terms, each a z-monomial of degree <= 2 times a w-monomial
    of degree <= 2 in each variable, with a small Gaussian integer times a
    power of two in [2^-6, 2^6], so the radius walks move.  Half the draws
    have no term of z-degree 0: the ideal is inside the maximal ideal and the
    constant-jet row is zero."""
    n, m = draw(st.sampled_from([1, 2])), draw(st.sampled_from([1, 2]))
    zmonos = multi_indices_upto(n, 2)[draw(st.integers(0, 1)):]
    mono = st.tuples(st.sampled_from(zmonos),
                     st.tuples(*[st.integers(0, 2)] * m)).map(lambda t: t[0] + t[1])
    coeff = st.builds(lambda a, b, k: complex(a, b) * 2.0**k, st.integers(-3, 3),
                      st.integers(-3, 3), st.integers(-6, 6))
    gen = st.dictionaries(mono, coeff, max_size=5).map(lambda d: PolyW(n + m, d))
    gens = draw(st.lists(gen, min_size=1, max_size=2))
    return IdealFamily(n, m, gens, draw(st.integers(2, 4)))


#: z1 - z2 w1 and z2^2 + (0.5+0.25i) z1 z2 w2 at N = 3, the command-line
#: example over two base variables: its minors walk both axes and sample
#: their product ladder
TWO_BASE_PAIR = IdealFamily(2, 2, [
    PolyW(4, {(1, 0, 0, 0): 1.0, (0, 1, 1, 0): -1.0}),
    PolyW(4, {(0, 2, 0, 0): 1.0, (1, 1, 0, 1): 0.5 + 0.25j}),
], 3)


class TestSamplerOracle:
    """det C and the cofactor rows B bit for bit as the sampler gave them
    before it took each torus in one pass."""

    @given(sampler_ideals())
    @example(TWO_BASE_PAIR)
    @example(PENCIL)  # two live minors, one of them bordered
    @example(SHIFT)  # not inside the maximal ideal: r = p
    @example(IdealFamily(1, 1, [PolyW(2, {(2, 0): 1.0})], 2))  # r = 0
    @settings(max_examples=150, deadline=None)
    def test_drawn_ideals(self, fam):
        try:
            M = pivot_block(fam)
        except DegenerateInputError:
            assume(False)
        assert_sampler_matches_reference(M)

    @pytest.mark.parametrize(
        "name", ["annihilate_dense", "annihilate_pencil", "lambda_pstar"]
    )
    def test_shipped_ideals(self, name):
        cfg = json.loads((CONFIGS / f"{name}.json").read_text())
        assert_sampler_matches_reference(
            pivot_block(ideal_from_json(cfg["ideal"]), square_grid(0.6, 5)))

    @pytest.mark.parametrize("seed", range(4))
    def test_dense_pairs(self, seed):
        # the benchmark's shape: two generators on every z-monomial of degree
        # 1 and 2 and z w, at N = 4 and 5 (r = 9 and 14, det C alone sampled)
        rng = np.random.default_rng(seed)
        monos = [(1, 0, 0), (0, 1, 0), (2, 0, 0), (1, 1, 0), (0, 2, 0),
                 (1, 0, 1), (0, 1, 1)]
        gens = [PolyW(3, {a: complex(*rng.normal(size=2)) for a in monos})
                for _ in range(2)]
        assert_sampler_matches_reference(
            pivot_block(IdealFamily(2, 1, gens, 4 + seed % 2), square_grid(0.6, 5)))

    @given(sparse_poly_matrices())
    @settings(max_examples=150, deadline=None)
    def test_drawn_matrices(self, case):
        # r = 0, zero rows and bordered minors in one and two variables
        assert_sampler_matches_reference(term_matrix(*case))

    @given(wide_range_triangular())
    @example(_upper_triangular_case())
    @settings(max_examples=60, deadline=None)
    def test_wide_range_matrices(self, case):
        # determinants over up to twelve decades: the walks go out and in
        M, m, _, _ = case
        assert_sampler_matches_reference(term_matrix(M, m))

    def test_product_ladder_is_sampled(self):
        # TWO_BASE_PAIR samples tori off both axes, the product ladder
        radii = []
        real = ideal._torus_sampler
        M = pivot_block(TWO_BASE_PAIR)
        with mock.patch.object(ideal, "_torus_sampler",
                               lambda *a: recorded(real(*a), radii)):
            _det_and_cofactors(M)
        assert any(np.count_nonzero(s) == 2 for s in radii)


class TestMembership:
    def test_spec_examples(self):
        res = build_annihilator(PENCIL, GRID)
        w = 0.5
        f_in = PolyW(2, {(1, 0): 1.0, (0, 1): -0.5})
        f_out = PolyW(2, {(1, 0): 1.0})
        f_m2 = PolyW(2, {(2, 0): 1.0})
        assert membership_by_functionals(res, w, f_in)
        assert not membership_by_functionals(res, w, f_out)
        assert membership_by_functionals(res, w, f_m2)
        A = res.matrix
        assert membership_oracle(PENCIL, w, f_in, A)
        assert not membership_oracle(PENCIL, w, f_out, A)
        assert membership_oracle(PENCIL, w, f_m2, A)

    def test_outside_u_refused(self):
        res = build_annihilator(SHIFT, GRID)
        with pytest.raises(OutsideUError):
            membership_by_functionals(res, 0.0, PolyW(1, {(0,): 1.0}))

    def test_equivalence_on_random_cases(self):
        rng = np.random.default_rng(23)
        for fam in (Z1, PENCIL, SHIFT):
            res = build_annihilator(fam, GRID)
            A = res.matrix
            betas = multi_indices_upto(fam.z_arity, fam.truncation + 1)
            count = 0
            while count < 200:
                w = complex(*rng.uniform(-0.7, 0.7, 2))
                if not res.in_U(w):
                    continue
                count += 1
                coeffs = {
                    b: complex(*rng.integers(-2, 3, 2))
                    for b in betas
                    if rng.random() < 0.4
                }
                f = PolyW(fam.z_arity, coeffs)
                assert membership_by_functionals(res, w, f) == membership_oracle(
                    fam, w, f, A
                )


class TestMultiplierGenerators:
    def test_smooth_weights_unit_ideal(self):
        for wt in (ZeroWeight(2), QuadraticWeight((1.0, 1.0))):
            gens = multiplier_generators(wt)
            assert len(gens) == 1 and gens[0].coeffs == {(0, 0): 1.0}

    def test_log_monomial_box(self):
        gens = multiplier_generators(LogMonomialWeight((1.5, 0.0)))
        assert gens[0].coeffs == {(1, 0): 1.0}
        gens = multiplier_generators(LogMonomialWeight((2.0,)))
        assert gens[0].coeffs == {(2,): 1.0}

    def test_divisor_through_origin(self):
        g = PolyW(2, {(1, 0): 1.0, (0, 1): -1.0})
        gens = multiplier_generators(LogDivisorWeight(g))
        assert gens[0].equals(g)


def psi_point(res, weight, w, degree):
    """The PsiPoint of psi_scan at the one base point w."""
    return psi_scan(res.matrix.fam, weight, [w], degree=degree, res=res)[1][0]


class TestPsiAndLambda:
    def test_psi_matches_pstar_closed_form(self):
        res = build_annihilator(Z1, GRID)
        for w in (0.3, -0.4 + 0.2j):
            pt = psi_point(res, PSTAR_WEIGHT, w, degree=6)
            assert pt.flag == "ok"
            expect = 2 * math.log(abs(w)) - 2 * math.log(math.pi)
            assert pt.psi == pytest.approx(expect, abs=1e-9)

    def test_psi_minus_inf_at_origin(self):
        res = build_annihilator(Z1, GRID)
        pt = psi_point(res, PSTAR_WEIGHT, 0.0, degree=6)
        assert pt.flag == "minus_inf" and pt.psi == -math.inf

    def test_psi_finite_for_trivial_weight(self):
        res = build_annihilator(Z1, GRID)
        for w in (0.0, 0.3):
            pt = psi_point(res, JointZero(2, 1), w, degree=6)
            assert pt.flag == "ok" and math.isfinite(pt.psi)

    def test_psi_submean_off_origin(self):
        res = build_annihilator(Z1, GRID)

        def fn(t):
            return psi_point(res, PSTAR_WEIGHT, 0.4 + t, degree=6).psi

        rep = submean_check(fn, ("psi",), 0.2, 32)
        assert rep.passed

    def test_lambda_scan_pstar_is_origin(self):
        grid = square_grid(0.6, 9)
        scan = lambda_scan(Z1, PSTAR_WEIGHT, grid, degree=6)
        assert scan.agree and not scan.skipped
        assert scan.lambda_points() == [(0j,)]

    def test_lambda_scan_same_germ_everywhere(self):
        grid = square_grid(0.6, 5)
        scan = lambda_scan(PENCIL, PSTAR_WEIGHT, grid, degree=6)
        assert scan.agree
        assert len(scan.lambda_psi) == len(grid) - len(scan.skipped)

    def test_lambda_scan_trivial_weight_empty(self):
        grid = square_grid(0.6, 5)
        scan = lambda_scan(Z1, JointZero(2, 1), grid, degree=6)
        assert scan.agree and scan.lambda_psi == []

    def test_lambda_scan_unit_ideal_full_grid(self):
        unit = IdealFamily(2, 1, [PolyW.constant(1.0, 3)], 2)
        grid = square_grid(0.6, 3)
        scan = lambda_scan(unit, PSTAR_WEIGHT, grid, degree=6)
        assert scan.agree
        assert len(scan.lambda_psi) == len(grid)

    def test_lambda_scan_evaluates_once_per_point(self, monkeypatch):
        # U and B(w), whose rows are the functionals, are evaluated once over
        # the grid, in one batch each, not once per base point, (generator,
        # beta) pair of the membership check or functional
        calls = {"in_U": 0, "eval_B": 0}

        def counted(cls, name):
            original = getattr(cls, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(cls, name, wrapper)

        counted(AnnihilatorResult, "in_U")
        counted(AnnihilatorResult, "eval_B")
        grid = square_grid(0.6, 3)
        scan = lambda_scan(PENCIL, PSTAR_WEIGHT, grid, degree=4)
        assert scan.agree and not scan.skipped and scan.res.s == 2
        assert calls == {"in_U": 1, "eval_B": 1}

    def test_membership_work_does_not_grow_with_the_grid(self, monkeypatch):
        # the oracle generators are read once as polynomials in (z, w), and
        # P = B J is evaluated once over the grid: no fiber weight, decoding
        # or PolyW product per base point
        calls = {}

        def counted(owner, name):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        counted(JointLogDivisor, "fiber")
        counted(weights, "substitute_base")
        counted(weights, "multiplier_generators")
        counted(ideal, "multiplier_generators")
        counted(PolyW, "__mul__")
        counted(PolyW, "__rmul__")
        weight = JointLogDivisor(OFF_ORIGIN_G, 2)
        per_grid = []
        for count in (3, 9):
            calls.clear()
            scan = lambda_scan(Z1, weight, square_grid(0.6, count), degree=2)
            # w = 0.3 is a point of the 9 x 9 grid only
            assert scan.agree and len(scan.lambda_psi) == int(count == 9)
            per_grid.append(dict(calls))
        assert per_grid[0] == per_grid[1]

    def test_lambda_scan_off_origin_divisor(self):
        # the fiber ideal of g = z1 + w - 0.3 is (z1) over w = 0.3 and the
        # unit ideal elsewhere, where the rows are tested on B(w) itself
        scan = lambda_scan(Z1, JointLogDivisor(OFF_ORIGIN_G, 2),
                           square_grid(0.6, 9), degree=6)
        assert scan.agree and not scan.skipped
        assert scan.lambda_membership == scan.lambda_psi
        assert [w for (w,) in scan.lambda_points()] == [pytest.approx(0.3)]

    def test_unit_ideal_near_lambda_tests_b_itself(self):
        # at w = 0.3 + 1e-10, g(0, w) = 1e-10 clears the unit-ideal test
        # (1e-12): the rows of B(w) are tested themselves and fail, where
        # B(w) times the jets of g z^beta, 1e-10 below MEMBERSHIP_TOL, passes;
        # over w = 0.3 the jets are tested
        res = build_annihilator(Z1)
        W = np.array([[0.3 + 1e-10], [0.3]])
        member = oracle_membership(res, JointLogDivisor(OFF_ORIGIN_G, 2), W,
                                   res.eval_B(W))
        assert member.tolist() == [False, True]

    def test_fractional_divisor_through_the_origin_is_refused(self):
        weight = JointLogDivisor(PSTAR_G, 2, c=0.5)
        with pytest.raises(UnsupportedWeightError,
                           match=r"no multiplier-ideal oracle .* c = 0\.5 != 1"):
            lambda_scan(Z1, weight, square_grid(0.6, 3), degree=2,
                        quad=QuadSpec(4, 4))

    def test_fractional_divisor_off_the_origin_runs(self):
        # on a 3 x 3 grid g = z1 + w - 0.3 never meets the fiber origin, so
        # every fiber ideal is the unit ideal and c = 0.5 needs no oracle
        weight = JointLogDivisor(OFF_ORIGIN_G, 2, c=0.5)
        scan = lambda_scan(Z1, weight, square_grid(0.6, 3), degree=2,
                           quad=QuadSpec(4, 4))
        assert scan.agree and not scan.skipped
        assert scan.lambda_psi == scan.lambda_membership == []

    def test_mixed_singular_sum_is_refused(self):
        base = SumWeight((LogMonomialWeight((1.0, 0.0)),
                          LogDivisorWeight(PolyW(2, {(0, 1): 1.0}))))
        with pytest.raises(UnsupportedWeightError,
                           match="no oracle for mixed singular sums"):
            lambda_scan(Z1, WIndependentJoint(base, 1), square_grid(0.6, 3),
                        degree=2)

    def test_actions_at_rounding_noise_are_a_zero(self):
        # g = z1 - (w^2 + 0.3 w) z2 generates its own fiber ideal, but at
        # w = -0.3 the fiber coefficient w^2 + 0.3 w and an entry of B(w) are
        # ~1e-17, not 0, so some kernels are ~1e-34 and not exactly 0: still
        # zeros against the coefficients of order 1 around them
        g = PolyW(3, {(1, 0, 0): 1.0, (0, 1, 2): -1.0, (0, 1, 1): -0.3})
        fam = IdealFamily(2, 1, [g], 2)
        weight = JointLogDivisor(g, 2)
        scan = lambda_scan(fam, weight, square_grid(0.6, 5), degree=4)
        # the premise, on the raw kernels of each point's own fiber model
        raw = [kernels(orthonormalize(assemble_gram(
                   Polydisc((1.0, 1.0)), weight.fiber(p.w), 4)),
                   scan.res.labels, p.B, (0.0, 0.0))[0] for p in scan.points]
        assert any(0 < max(K) < 1e-30 for K in raw)
        assert scan.agree and not scan.skipped
        assert len(scan.lambda_psi) == 25

    def test_split_zero_test_is_one(self):
        # g = z1 - z2 (w - a) at w = a (1 + 1e-15): the fiber kernels read
        # [-inf, -75.13] on the annihilator rows while Psi_N was -inf; the
        # provider and bergman.kernels now take the same zero test
        a = 0.1234 + 0.0567j
        g = PolyW(3, {(1, 0, 0): 1.0, (0, 1, 1): -1.0, (0, 1, 0): a})
        weight = JointLogDivisor(g, 2)
        w = a * (1 + 1e-15)
        res = build_annihilator(Z1)
        lk = [fiberwise.log_kernel_on_fiber(fiberwise.FamilyProblem(
                  Polydisc((1.0, 1.0)), Polydisc((1.0,)), weight, f, 6),
                  (w,), (0.0, 0.0)) for f in res.functionals()]
        assert lk == [-math.inf, -math.inf]
        model = orthonormalize(assemble_gram(Polydisc((1.0, 1.0)),
                                             weight.fiber((w,)), 6))
        assert kernels(model, res.labels, res.eval_B(w), (0.0, 0.0))[2].all()
        pt = psi_point(res, weight, w, degree=6)
        assert pt.flag == "minus_inf" and pt.kernels == [0.0, 0.0]

    @settings(max_examples=40, deadline=None)
    @given(ideal_families(), st.data())
    def test_kernels_match_recentered_functionals(self, fam, data):
        # psi_scan takes every row of B(w) from the fiber-model provider; the
        # reference acts with one Functional per row on the recentered basis
        n, m = fam.z_arity, fam.w_arity
        cplx = st.builds(complex, st.floats(-0.6, 0.6), st.floats(-0.6, 0.6))
        w = tuple(data.draw(cplx) for _ in range(m))
        z1 = (1,) + (0,) * (n - 1)
        zn = (0,) * (n - 1) + (1,)
        weight = data.draw(st.sampled_from([
            JointZero(n, m),
            WIndependentJoint(ConstantWeight(n, data.draw(st.floats(-60, 60))), m),
            JointQuadraticSplit((1.5,) * n, (0.5,) * m),
            JointLogDivisor(PolyW(n + m, {
                z1 + (0,) * m: 1.0,
                zn + (1,) + (0,) * (m - 1): data.draw(cplx),
                (0,) * (n + m): data.draw(cplx),
            }), n),
        ] + [JointPairQuadratic((2.0, 1.0)[:n])] * (n == m)))
        degree = data.draw(st.integers(1, 5))
        try:
            res = build_annihilator(fam)
        except DegenerateInputError:
            assume(False)
        pt = psi_point(res, weight, w, degree)
        assume(pt.flag != "outside_U")
        model = orthonormalize(
            assemble_gram(Polydisc((1.0,) * n), weight.fiber(w), degree)
        )
        origin = (0j,) * n
        taylors = [recenter(TaylorData(origin, dict(b.coeffs)), origin)
                   for b in model.basis]
        labels = [res.matrix.basis[i] for i in res.row_perm]
        rows = res.eval_B(w)
        assert len(pt.kernels) == len(rows)
        T = model.transform
        for K, row in zip(pt.kernels, rows.tolist()):
            xi = Functional(n, dict(zip(labels, row)))
            a = np.array([apply(xi, t) for t in taylors]) @ T
            # the same sum over moduli: 1e-12 relative to it
            mod = np.array([sum(abs(v) * abs(t.coeffs.get(al, 0.0))
                                for al, v in zip(labels, row)) for t in taylors])
            scale = np.sum((mod @ np.abs(T)) ** 2)
            assert abs(K - np.sum(np.abs(a) ** 2)) <= 1e-12 * scale

    def test_psi_scan_wraps_points(self):
        res, pts = psi_scan(Z1, PSTAR_WEIGHT, [0.3, 0.0], degree=6)
        assert [p.flag for p in pts] == ["ok", "minus_inf"]


@st.composite
def oracle_weights(draw, n: int, m: int):
    """(weight, a): a joint weight on n fiber and m base coordinates of each
    class with a multiplier-ideal oracle, and a base coordinate a.

    The joint divisor g = z1 + v zn w1 + u (w1 - a) meets the fiber origin
    over w1 = a; the w-independent weights run over the fiber classes.
    """
    z1, zn = (1,) + (0,) * (n - 1), (0,) * (n - 1) + (1,)
    w0, w1 = (0,) * m, (1,) + (0,) * (m - 1)
    a, u, v = draw(eighths()), draw(eighths()), draw(eighths())
    g = PolyW(n + m, {z1 + w0: 1.0, zn + w1: v, (0,) * n + w1: u,
                      (0,) * (n + m): -u * a})
    through = PolyW(n, {z1: 1.0, zn: -0.5}) if n > 1 else PolyW(1, {(2,): 1.0})
    fiber = draw(st.sampled_from([
        ConstantWeight(n, 0.5),
        LogMonomialWeight((1.5,) + (0.0,) * (n - 1)),
        LogDivisorWeight(through),
        LogDivisorWeight(PolyW(n, {(0,) * n: 0.5, z1: 1.0})),
        SumWeight((QuadraticWeight((1.0,) * n), LogDivisorWeight(through))),
    ]))
    weight = draw(st.sampled_from([
        JointLogDivisor(g, n),
        WIndependentJoint(fiber, m),
        JointZero(n, m),
        JointQuadraticSplit((1.5,) * n, (0.5,) * m),
    ] + [JointPairQuadratic((2.0, 1.0)[:n])] * (n == m)))
    return weight, a


class TestOracleMembership:
    @settings(max_examples=60, deadline=None)
    @given(ideal_families(), st.data())
    def test_matches_the_per_point_reference(self, fam, data):
        # the batched verdicts of lambda_scan against the per-point
        # reference: membership_by_functionals at each point in U, on each
        # oracle generator of the fiber times each jet monomial
        n, m = fam.z_arity, fam.w_arity
        weight, a = data.draw(oracle_weights(n, m))
        if isinstance(weight, JointLogDivisor) and data.draw(st.booleans()):
            # the fiber ideals of g itself: w1 = a lies in Lambda
            fam = IdealFamily(n, m, [weight.g], fam.truncation)
        grid = data.draw(dyadic_points(m)) + [(a,) + (0j,) * (m - 1)]
        try:
            res = build_annihilator(fam, grid)
        except DegenerateInputError:
            assume(False)
        scan = lambda_scan(fam, weight, grid, degree=1, quad=QuadSpec(4, 4), res=res)
        betas = multi_indices_upto(n, fam.truncation - 1)
        want = [
            i for i, w in enumerate(grid) if res.in_U(w) and all(
                membership_by_functionals(res, w, g * PolyW.monomial(beta))
                for g in multiplier_generators(weight.fiber(w)) for beta in betas)
        ]
        assert scan.lambda_membership == want


@st.composite
def stacked_cases(draw):
    """(fam, weight, grid, degree): an ideal family, a joint weight with an
    oracle, base points on the dyadic lattice and a fiber degree."""
    fam = draw(ideal_families())
    n, m = fam.z_arity, fam.w_arity
    weight, a = draw(oracle_weights(n, m))
    grid = draw(dyadic_points(m)) + [(a,) + (0j,) * (m - 1)]
    return fam, weight, grid, draw(st.integers(1, 4))


#: z1 (i + (1 - i) w1) at N = 3: a row of B(w) has the entry
#: -0.9999999999999998i + (-3+3i)w + 6w^2 + (-2.000000000000001-1.999999999999999i)w^3,
#: whose value at 0.5 + 0.125i took another last bit in a batch of two points
FOUND_ROW_CASE = (
    IdealFamily(2, 1, [PolyW(3, {(1, 0, 0): 1j, (1, 0, 1): 1 - 1j})], 3),
    JointZero(2, 1), [(0.5 + 0.125j,), (0.25 + 0j,)], 1,
)


#: (1+1i) z2 w^2 at N = 2 under g = z1 + (0.125-0.375i) w: B's one row has
#: one live column of three, whose action at -0.375+0.125i took another last
#: bit in a product over all three jet monomials (-5.26123510240075 against
#: the row family's -5.261235102400751)
FOUND_COLUMN_CASE = (
    IdealFamily(2, 1, [PolyW(3, {(0, 1, 2): 1 + 1j})], 2),
    JointLogDivisor(PolyW(3, {(1, 0, 0): 1.0, (0, 0, 1): 0.125 - 0.375j}), 2),
    [(-0.375 + 0.125j,), (0j,)], 1,
)


class TestStackedRows:
    @settings(max_examples=60, deadline=None)
    @given(stacked_cases())
    @example(FOUND_ROW_CASE)
    @example(FOUND_COLUMN_CASE)
    def test_match_one_call_per_row(self, case):
        # psi_scan hands the rows of B(w) at every point in U to one
        # fiber_kernels call, each row on the columns of its family.  The
        # reference is the per-row path: one call per row family of
        # res.functionals(), on its own alphas and its own fiber models.  On
        # the same values of B(w) the log-kernels are the same floats, and so
        # they are through log_kernel_on_fiber: a row family evaluates its
        # view of B's array by TermMatrix.values, as eval_B does, and a row
        # rounds alike whatever points and other rows share the call
        fam, weight, grid, degree = case
        n, quad = fam.z_arity, QuadSpec(4, 4)
        try:
            res = build_annihilator(fam, grid)
        except DegenerateInputError:
            assume(False)
        W = np.array(grid, dtype=complex)
        WU = W[res.in_U(W)]
        assume(len(WU) and res.s)
        fiber, origin = Polydisc((1.0,) * n), np.zeros((1, n), dtype=complex)
        B = res.eval_B(WU)
        got = ideal._row_log_kernels(res, weight, WU, B, fiber, degree, quad)
        rows = res.functionals()
        cols = [[res.labels.index(al) for al in f.alphas] for f in rows]
        # a row family holds its row of B's array: the same values
        assert all(np.array_equal(f.values(WU), B[:, k, c])
                   for k, (f, c) in enumerate(zip(rows, cols)))
        same_values = [fiberwise.fiber_kernels(
            fiber, weight, degree, quad, f.alphas, B[:, k, c], WU, origin, log=True)
            for k, (f, c) in enumerate(zip(rows, cols))]
        assert repr(got.T.tolist()) == repr(np.array(same_values).tolist())
        base = Polydisc(tuple((1.0 + np.abs(WU).max(axis=0)).tolist()))
        want = np.array([fiberwise.log_kernel_on_fiber(fiberwise.FamilyProblem(
            fiber, base, weight, f, degree, quad), WU, origin[0]) for f in rows]).T
        assert repr(got.tolist()) == repr(want.tolist())
        _, pts = psi_scan(fam, weight, grid, degree=degree, quad=quad, res=res)
        flags = [p.flag == "minus_inf" for p in pts if p.flag != "outside_U"]
        assert flags == np.all(want == -math.inf, axis=1).tolist()


class TestKrull:
    def test_pstar_stabilizes_at_two(self):
        grid = square_grid(0.6, 5)
        out = krull_stabilize(Z1, PSTAR_WEIGHT, grid, 3, degree=6)
        assert out.nested and out.stabilized_at == 2
        assert out.intersection() == {(0j,)}
        for scan in out.per_n.values():
            assert scan.agree

    def test_trivial_weight_always_empty(self):
        grid = square_grid(0.5, 3)
        out = krull_stabilize(Z1, JointZero(2, 1), grid, 3, degree=6)
        assert out.nested
        assert all(not s.lambda_psi for s in out.per_n.values())

    def test_pair_quadratic_takes_a_model_per_point(self, monkeypatch):
        # sum c_i |z_i - w_i|^2 moves its fiber weight with w: one fiber
        # model per point in U and jet order (N = 2, 3), shared by the rows
        # of B(w); Psi_N as the per-point models of bergman.kernels gave it
        calls = []
        real_gram = fiberwise.assemble_gram
        monkeypatch.setattr(fiberwise, "assemble_gram",
                            lambda *a, **k: calls.append(a[1]) or real_gram(*a, **k))
        fam = IdealFamily(2, 2, [PolyW(4, {(1, 0, 0, 0): 1.0})], 2)
        grid = [(0j, 0.3 + 0.1j), (0.4 + 0j, -0.2j), (0.1 - 0.2j, 0.2 + 0j)]
        out = krull_stabilize(fam, JointPairQuadratic((2.0, 1.0)), grid, 3, degree=6)
        expect = {
            2: [0.020946357114509328, 0.25657678880934576, 0.03657681082705259],
            3: [0.5375239798077915, 0.7620406248209844, 0.5420418726101072],
        }
        for N, scan in out.per_n.items():
            assert scan.agree and not scan.skipped and scan.lambda_psi == []
            assert [p.psi for p in scan.points] == pytest.approx(expect[N], abs=1e-12)
        assert out.nested and out.stabilized_at == 2
        assert len(calls) == 2 * len(grid)
        assert len(set(map(repr, calls))) == len(grid)

    def test_nmax_validation(self):
        with pytest.raises(ValueError):
            krull_stabilize(Z1, JointZero(2, 1), [0.1], 1)

    def test_shared_fiber_models_change_no_result(self, monkeypatch):
        # one psi_scan per N, one fiber model per psi_scan: the weight
        # psi + s(w) of P* has one model for every fiber and every row
        grid = square_grid(0.6, 3)
        alone = {
            N: lambda_scan(IdealFamily(2, 1, Z1.generators, N), PSTAR_WEIGHT,
                           grid, degree=6)
            for N in (2, 3, 4)
        }
        calls = []
        real_gram = fiberwise.assemble_gram

        def counting_gram(*args, **kwargs):
            calls.append(args[1])
            return real_gram(*args, **kwargs)

        monkeypatch.setattr(fiberwise, "assemble_gram", counting_gram)
        out = krull_stabilize(Z1, PSTAR_WEIGHT, grid, 4, degree=6)
        for N, scan in out.per_n.items():
            assert repr([(p.flag, p.psi, p.kernels) for p in scan.points]) == repr(
                [(p.flag, p.psi, p.kernels) for p in alone[N].points]
            )
            assert scan.lambda_psi == alone[N].lambda_psi
            assert scan.lambda_membership == alone[N].lambda_membership
        assert [scan.res.s for scan in out.per_n.values()] == [2, 3, 4]
        assert len(calls) == 3 and len(set(map(repr, calls))) == 1


class TestJson:
    @given(st.one_of(ideal_families(), shared_z_ideals(), st.just(PENCIL)))
    @settings(max_examples=100, deadline=None)
    def test_ideal_round_trip(self, fam):
        assert ideal_from_json(ideal_to_json(fam)) == fam
