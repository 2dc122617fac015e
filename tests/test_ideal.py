"""Unit tests for jet coefficient matrices, annihilators, and lambda scans.

Frozen oracles (hand expansions):
  F1 = z1, N=2:        basis {1, z1, z2}; single nonzero column (0,1,0);
                       annihilator rows are the Dirac and dz2 functionals.
  F1 = z1 - w z2, N=2: column (0, 1, -w); annihilator rows Dirac and
                       {dz1 -> w, dz2 -> 1} up to unit scaling.
  F1 = z - w,  n=1:    columns (-w, 1) and (0, -w); rank 2 = p, empty
                       annihilator, det C = +-w^2, U = {w != 0}.
"""

import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xibergman.family import FunctionalFamily, PolyW
from xibergman.fiberwise import square_grid, submean_check
from xibergman.functional import multi_indices_upto
from xibergman.ideal import (
    AnnihilatorResult,
    DegenerateInputError,
    IdealFamily,
    OutsideUError,
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
    psi_at,
    psi_scan,
)
from xibergman.family import lub_check
from xibergman.weights import (
    JointLogDivisor,
    JointZero,
    LogDivisorWeight,
    LogMonomialWeight,
    QuadraticWeight,
    ZeroWeight,
)

Z1 = IdealFamily(2, 1, [PolyW(3, {(1, 0, 0): 1.0})], 2)
PENCIL = IdealFamily(2, 1, [PolyW(3, {(1, 0, 0): 1.0, (0, 1, 1): -1.0})], 2)
SHIFT = IdealFamily(1, 1, [PolyW(2, {(1, 0): 1.0, (0, 1): -1.0})], 2)
GRID = [0.3, -0.2 + 0.1j, 0.5j]

PSTAR_G = PolyW(3, {(1, 0, 0): 1.0, (0, 1, 1): -1.0})
PSTAR_WEIGHT = JointLogDivisor(PSTAR_G, 2)


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


def reference_evaluate(A, w) -> np.ndarray:
    """A(w) entry by entry from its PolyW entries."""
    M = np.zeros((A.p, A.q), dtype=complex)
    for i, row in enumerate(A.entries):
        for j, e in enumerate(row):
            if e.coeffs:
                M[i, j] = e.evaluate(w)
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


def dyadic_points(m: int):
    """Base points on the lattice (Z + iZ) / 8, where A(w) is exact."""
    c = st.builds(complex, *[st.integers(-6, 6).map(lambda k: k / 8)] * 2)
    return st.lists(st.tuples(*[c] * m), min_size=1, max_size=6)


class TestArrayEvaluator:
    @given(ideal_families(), st.data())
    @example(ALL_ZERO, None)
    @settings(max_examples=150, deadline=None)
    def test_matches_the_polyw_entries(self, fam, data):
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
    @settings(max_examples=150, deadline=None)
    def test_batched_search_matches_the_per_point_search(self, fam, data, seed):
        A = build_coeff_matrix(fam)
        m = fam.w_arity
        grid = [(0.0,) * m] if data is None else data.draw(dyadic_points(m))
        assert max_rank(A, grid, seed=seed) == reference_max_rank(A, grid, seed)

    def test_two_base_variables(self):
        # f = w1 z - w2, N = 2: A = [[-w2, 0], [w1, -w2]], det A = w2^2, so
        # the rank is 2 off w2 = 0, 1 on it away from 0, and 0 at w = 0
        fam = IdealFamily(1, 2, [PolyW(3, {(1, 1, 0): 1.0, (0, 0, 1): -1.0})], 2)
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


class TestAnnihilator:
    def test_exact_polynomial_identity(self):
        for fam in (Z1, PENCIL, SHIFT):
            res = build_annihilator(fam, GRID)
            assert res.product_residual < 1e-10

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

    def test_shift_empty_annihilator(self):
        res = build_annihilator(SHIFT, GRID)
        assert res.s == 0
        assert functionals_from_annihilator(res) == []
        # det C = +-w^2 defines U = {w != 0}
        det = res.det_c
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

    def test_json_dump_structure(self):
        res = build_annihilator(PENCIL, GRID)
        obj = annihilator_to_json(res)
        assert obj["rank"] == 1 and obj["s"] == 2 and obj["p"] == 3
        assert len(obj["rows"]) == 2 and len(obj["rows"][0]) == 3


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
    det_c, rows, _ = _det_and_cofactors(M, m)
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
    @settings(max_examples=100, deadline=None)
    def test_wide_dynamic_range(self, case):
        # No sampling resolves a coefficient far below the Newton polygon
        # better than its neighbours allow, so the claim is the one that
        # evaluation needs: on every torus the coefficient errors stay small
        # against the largest term.  The error bound is Hadamard's, which
        # entries above the diagonal inflate (3000 draws reached 2e-8);
        # without them it is the determinant's own size (2.3e-13 at most),
        # where the unit torus alone reaches 2e-6
        M, m, want, fill = case
        det_c, _, _ = _det_and_cofactors(M, m)
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
        sign = 1.0 if res.det_c.coeffs[(14,)].real > 0 else -1.0
        assert set(res.det_c.coeffs) == set(h14.coeffs)
        for a, c in h14.coeffs.items():
            assert res.det_c.coeffs[a] == pytest.approx(sign * c, rel=1e-12, abs=0)
        assert res.det_c.coeffs[(0,)] == pytest.approx(sign, rel=1e-12)
        assert res.in_U(0.0)
        assert res.product_residual < 1e-10

    def test_in_u_reads_the_untrimmed_determinant(self):
        # det C = +-(1 + 10w)^14 spans more than 14 decades: PolyW's trim at
        # TRIM_REL_TOL drops its constant term, yet det C(0) = +-1
        res = build_annihilator(
            IdealFamily(1, 1, [PolyW(2, {(1, 0): 1.0, (1, 1): 10.0})], 15)
        )
        assert res.r == 14 and (0,) not in res.det_c.coeffs
        assert res.in_U(0.0)
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
        det_c, _, _ = _det_and_cofactors(M, m)
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
            _det_and_cofactors(M, m)

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
        det_c, rows, _ = _det_and_cofactors(M, 1)
        assert not det_c.coeffs

    def test_constant_entries(self):
        M = [[PolyW.constant(c, 2) for c in row]
             for row in ([2, 1, 0], [1, 3, 1], [0, 1, 4], [1, 1, 1])]
        check_against_laplace(M, 2)
        det_c, _, _ = _det_and_cofactors(M, 2)
        assert det_c.coeffs.keys() == {(0, 0)}
        assert det_c.coeffs[(0, 0)] == pytest.approx(18.0, abs=1e-12)

    def test_empty_block(self):
        M = [[], []]
        det_c, rows, _ = _det_and_cofactors(M, 1)
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


class TestPsiAndLambda:
    def test_psi_matches_pstar_closed_form(self):
        res = build_annihilator(Z1, GRID)
        for w in (0.3, -0.4 + 0.2j):
            pt = psi_at(res, PSTAR_WEIGHT, w, degree=6)
            assert pt.flag == "ok"
            expect = 2 * math.log(abs(w)) - 2 * math.log(math.pi)
            assert pt.psi == pytest.approx(expect, abs=1e-9)

    def test_psi_minus_inf_at_origin(self):
        res = build_annihilator(Z1, GRID)
        pt = psi_at(res, PSTAR_WEIGHT, 0.0, degree=6)
        assert pt.flag == "minus_inf" and pt.psi == -math.inf

    def test_psi_finite_for_trivial_weight(self):
        res = build_annihilator(Z1, GRID)
        for w in (0.0, 0.3):
            pt = psi_at(res, JointZero(2, 1), w, degree=6)
            assert pt.flag == "ok" and math.isfinite(pt.psi)

    def test_psi_submean_off_origin(self):
        res = build_annihilator(Z1, GRID)

        def fn(t):
            return psi_at(res, PSTAR_WEIGHT, 0.4 + t, degree=6).psi

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
        # U and the functionals are evaluated once per base point, not once
        # per (generator, beta) pair of the membership check
        calls = {"in_U": 0, "eval": 0}

        def counted(cls, name):
            original = getattr(cls, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(cls, name, wrapper)

        counted(AnnihilatorResult, "in_U")
        counted(FunctionalFamily, "eval")
        grid = square_grid(0.6, 3)
        scan = lambda_scan(PENCIL, PSTAR_WEIGHT, grid, degree=4)
        assert scan.agree and not scan.skipped
        assert calls == {"in_U": len(grid), "eval": len(grid) * scan.res.s}

    def test_psi_scan_wraps_points(self):
        res, pts = psi_scan(Z1, PSTAR_WEIGHT, [0.3, 0.0], degree=6)
        assert [p.flag for p in pts] == ["ok", "minus_inf"]


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

    def test_nmax_validation(self):
        with pytest.raises(ValueError):
            krull_stabilize(Z1, JointZero(2, 1), [0.1], 1)


class TestJson:
    def test_ideal_round_trip(self):
        again = ideal_from_json(ideal_to_json(PENCIL))
        assert again.z_arity == 2 and again.truncation == 2
        assert again.generators[0].equals(PENCIL.generators[0])
