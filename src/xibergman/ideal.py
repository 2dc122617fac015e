"""Cofactor annihilators for jet coefficient matrices and the Lambda scan.

Given polynomial generators F_1..F_t on a product polydisc, the truncated
ideal I_w + m^N on the fiber over w is the column span of a coefficient
matrix A(w) whose entries are polynomials in w.  A(w), the annihilator
B(w) and the pivot determinant det C(w) are each held once, as a coefficient
array (``TermMatrix``: the monomials in w and one coefficient block each).
Every evaluation is the product of a Vandermonde matrix in w with such an
array, over a batch of base points; ``max_rank`` rank-tests the first
witness alone and stops there when it reaches the structural bound
min(live rows, live columns) of A's array, and otherwise rank-tests the
whole witness grid in one call; the determinant sampling below slices
its pivot columns from A's array, and the certificate B(w) A(w) = 0 is one
product of two arrays.  A holomorphic left annihilator B(w) is built from
bordered-minor cofactors of a nonsingular pivot block; its rows are the
coefficient vectors of functionals that cut out the truncated ideal on the
open set U where the pivot determinant does not vanish.  Scanning the sup of
the log-kernels of these functionals over a base grid locates the inclusion
locus of the multiplier ideal: ``psi_scan`` tests U and evaluates B(W) once
over the grid, and hands the s rows of B(w) at every point in U, as the
coefficient rows over the jet monomials, to one call of the fiber-model
provider, ``fiberwise.fiber_kernels``, with its zero test: one fiber model
in all for a joint weight psi(z) + s(w), else one per point in U, each
row over every jet monomial and rounded as its functional family, on that
row's nonzero columns, rounds it (``bergman._products``);
``psi_at`` builds each point's record from the scan's arrays.  A command
reads its grid once into rows (``bergman._grid_rows``); every other base
point goes through ``bergman._rows``, the one reader.  ``lambda_scan`` decides
membership on the same B(W) before it takes any kernel.  The
membership check reads the oracle generators of the fiber multiplier ideal
once, as polynomials in (z, w) (``weights.multiplier_generators``), takes
their jet coefficient matrix J(w) as A(w) is taken, and evaluates the one
array product P(w) = B(w) J(w) once over the points in U; its common zeros
there are Lambda_N.  No ``Functional`` is built: ``functionals()`` gives
each row of B(w) as a functional family on a view of B's array, and
``annihilator_to_json`` writes the terms straight from the arrays.  Besides
the generators, PolyW appears only in the per-point references
``membership_by_functionals`` and ``membership_oracle``.

The pivot determinant det C(w) and the cofactors are found by
evaluation-interpolation.  K_i - 1, the sum over a block's rows of the
largest entry degree in w_i, bounds every minor's degree in w_i.  The
pivoted matrix is sampled on the tensor grid of K_i-th roots of unity in
each base variable, scaled to a torus of radii (rho_1, ..., rho_m); batched
``np.linalg.det`` calls give every minor at every sample, and an
m-dimensional FFT returns the coefficients, exact up to rounding.  A minor
that keeps an identically zero row of the pivoted matrix is an exact zero
and is not sampled: when every generator vanishes on z = 0 (an ideal inside
the maximal ideal), the constant-jet row of A(w) is zero and is never a
pivot row, so its r minors are skipped and its row of B is det C there.
One torus resolves a coefficient only to eps times the largest sampled
value over its own size there, which loses the small coefficients of a
determinant such as (1 + 8w)^14 on the unit circle.  So the radii walk out
and in along each axis by factors of RADIUS_STEP, then over the product of
those ladders when m > 1, and each coefficient keeps the estimate with the
smallest error bound, eps (r + 1) times the smaller of the row and the
column Hadamard bound over rho^alpha;
parts below that bound are rounding noise and set to zero, so exact zeros
stay zero.  An r x r minor costs O(prod(K_i) * r**3) per torus, polynomial
in r, where Laplace expansion costs O(2**r).  A torus is one pass: one
sampling of M, one |V|^2 for both Hadamard bounds, one batched det per
block of minors and one FFT (1-D when m = 1); what does not change between
tori is taken once.  A dense pair at jet order 5 (r = 14, one bordered row,
the zero constant-jet row) samples det C alone, on 5 to 8 tori (6.4 on
average over 30 drawn pairs, 7 for ``configs/annihilate_dense.json``), at
about 0.15 ms a torus with the block's set-up, of which the fifteen 14 x 14
determinants take about 0.045 ms (2-core Xeon, one OpenBLAS thread).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .bergman import QuadSpec, _grid_rows, _points_in, _rows
from .config import Table, integer, list_of
from .family import (
    POLY_TERMS, FunctionalFamily, PolyW, TermMatrix, _live, _terms_to_json,
)
from .fiberwise import fiber_kernels
from .functional import MultiIndex, multi_indices_upto
from .weights import (
    JointLogDivisor,
    Polydisc,
    _to_json,
    check_joint_weight,
    divisor_generator,
    lift,
    misses_origin,
    multiplier_generators,
)

RANK_TOL = 1e-9
DETC_TOL = 1e-8
MEMBERSHIP_TOL = 1e-9
ORACLE_RESIDUAL_TOL = 1e-8
#: LU rounding error of a sampled r x r minor, per unit of (r + 1) times its
#: Hadamard bound; an interpolated coefficient part below the resulting
#: error bound is noise and is set to 0
DET_NOISE_REL = 8 * np.finfo(float).eps
#: ratio of consecutive sampling radii, and the most radii tried on each side
#: of the unit torus
RADIUS_STEP = 4.0
MAX_RADIUS_STEPS = 16
#: most matrix entries (samples x rows x columns, summed over tori) sampled in
#: the product of the axis ladders (m > 1); the ladders are thinned to fit
MAX_PRODUCT_ENTRIES = 1 << 23
#: largest number of matrix entries sampled into one batched det call
_BLOCK_ENTRIES = 1 << 21
#: largest sampled matrix (samples x max(rows x columns, monomials)) before
#: the input is refused
MAX_SAMPLE_ENTRIES = 1 << 22
#: sampling radii keep minors and rescaled coefficients within e^+-_LOG_RANGE
_LOG_RANGE = 600.0


class OutsideUError(ValueError):
    """The base point is (numerically) outside the open set U."""


class DegenerateInputError(RuntimeError):
    """No nonsingular pivot block was found, or the block is too large to sample."""


@dataclass
class IdealFamily:
    z_arity: int
    w_arity: int
    generators: list[PolyW]  # polynomials in (z_1..z_n, w_1..w_m)
    truncation: int  # jet order N

    def __post_init__(self):
        if self.truncation < 1:
            raise ValueError("truncation order N must be >= 1")
        if not self.generators:
            raise ValueError("need at least one generator")
        for g in self.generators:
            if g.arity != self.z_arity + self.w_arity:
                raise ValueError("generator arity must be z_arity + w_arity")


@dataclass
class CoeffMatrixA:
    fam: IdealFamily
    basis: list[MultiIndex]  # row labels, grlex, |alpha| <= N-1
    cols: list[tuple[MultiIndex, int]]  # (beta, generator index)
    terms: TermMatrix  # the p x q matrix

    @property
    def p(self) -> int:
        return len(self.basis)

    @property
    def q(self) -> int:
        return len(self.cols)

    def values(self, W) -> np.ndarray:
        """A at each base point (row of W): points x p x q."""
        return self.terms.values(W)

    def evaluate(self, w: Sequence[complex]) -> np.ndarray:
        return self.values(_rows(w, self.fam.w_arity))[0]


def build_coeff_matrix(fam: IdealFamily) -> CoeffMatrixA:
    """Coefficient matrix of {z^beta f_i mod m^N} in the jet monomial basis.

    The term c z^gamma w^b of f_i lands in row gamma + beta of column
    (beta, i), at the monomial w^b: one broadcast over all the terms and
    all the beta, with the rows from ``_grlex_rank``.  No two terms of f_i
    share a cell, and an entry holds some of the terms of f_i, which PolyW
    trimmed against f_i's largest, so no entry needs a trim.
    """
    n, m, N = fam.z_arity, fam.w_arity, fam.truncation
    basis = multi_indices_upto(n, N - 1)
    p = len(basis)
    cols = [(beta, i) for i in range(len(fam.generators)) for beta in basis]
    w_exps = sorted({e[n:] for g in fam.generators for e in g.coeffs})
    t_of = {b: t for t, b in enumerate(w_exps)}
    terms = [
        (i, e, c) for i, g in enumerate(fam.generators) for e, c in g.coeffs.items()
    ]
    gen = np.array([i for i, _, _ in terms], dtype=np.int64)
    t = np.array([t_of[e[n:]] for _, e, _ in terms], dtype=np.int64)
    vals = np.array([c for _, _, c in terms], dtype=complex)
    gamma = np.array([e[:n] for _, e, _ in terms], dtype=np.int64).reshape(-1, n)
    alpha = gamma[:, None, :] + np.array(basis, dtype=np.int64).reshape(p, n)
    k, j = np.nonzero(alpha.sum(axis=2) <= N - 1)  # term k meets column beta_j
    coef = np.zeros((len(w_exps), p, len(cols)), dtype=complex)
    # += onto zeros, as a sum over the terms would: 0 + (-0.0) is +0.0
    coef[t[k], _grlex_rank(alpha[k, j]), gen[k] * p + j] += vals[k]
    exps = np.array(w_exps, dtype=np.int64).reshape(-1, m)
    return CoeffMatrixA(fam, basis, cols, _live(exps, coef))


def _grlex_rank(alpha: np.ndarray) -> np.ndarray:
    """The index of each row of alpha in ``multi_indices_upto`` order: the
    C(d - 1 + n, n) multi-indices of degree below d = |alpha|, plus those of
    degree d lexicographically below alpha, which for each coordinate i < n - 1
    are the C(R_i + n-1-i, n-1-i) - C(R_(i+1) + n-1-i, n-1-i) that agree with
    alpha before i and are smaller at i, R_i = d - alpha_0 - ... - alpha_(i-1)."""
    n = alpha.shape[1]
    d = alpha.sum(axis=1)
    top = int(d.max(initial=0)) + n
    comb = np.array(
        [[math.comb(a, b) for b in range(n + 1)] for a in range(top + 1)],
        dtype=np.int64,
    )
    R = d[:, None] - np.cumsum(alpha, axis=1) + alpha  # R[:, i] = R_i
    k = np.arange(n - 1, 0, -1)  # n - 1 - i for i < n - 1
    below = comb[R[:, :-1] + k, k] - comb[R[:, 1:] + k, k]
    # C(d - 1 + n, n) is 0 at d = 0, which also covers n = 0
    return comb[np.maximum(d + n - 1, 0), n] * (d > 0) + below.sum(axis=1)


def max_rank(
    A: CoeffMatrixA, w_grid: Sequence, seed: int = 0, n_random: int = 12
) -> tuple[int, tuple[complex, ...]]:
    """Max numerical rank over the grid plus automatic generic perturbations;
    the witness, a tuple of complex, is the first point of maximal rank.

    The grid is read once (``bergman._grid_rows``).  A row or column of A
    that is zero in every coefficient block is zero in A(w) for every w, so
    no point exceeds min(live rows, live columns).  The first grid point is
    rank-tested alone, and when it reaches that bound it is the witness.
    Otherwise the grid and n_random generic points are evaluated and
    rank-tested as one array.
    """
    m = A.fam.w_arity
    W = _grid_rows(w_grid, m)
    if not len(W):
        raise ValueError("empty grid")
    live = A.terms.coef.any(axis=0)
    bound = min(live.any(axis=1).sum(), live.any(axis=0).sum())
    r0 = _ranks(A.values(W[:1]))[0]
    if r0 == bound:
        return int(r0), tuple(W[0].tolist())
    rng = np.random.default_rng(seed)
    W = np.vstack([W, *(_generic_point(rng, m) for _ in range(n_random))])
    ranks = _ranks(A.values(W))
    best = int(np.argmax(ranks))
    return int(ranks[best]), tuple(W[best].tolist())


def _generic_point(rng: np.random.Generator, m: int) -> tuple[complex, ...]:
    """A random base point, each coordinate in the square of half-width 0.6."""
    re, im = 0.6 * rng.uniform(-1, 1, m), 0.6 * rng.uniform(-1, 1, m)
    return tuple(complex(a, b) for a, b in zip(re, im))


def _ranks(M: np.ndarray) -> np.ndarray:
    """Numerical rank of each matrix of the stack M, relative to its largest
    singular value."""
    s = np.linalg.svd(M, compute_uv=False)
    return np.sum(s > RANK_TOL * s[:, :1], axis=1)


def _torus_sampler(M: TermMatrix, ks: np.ndarray, K: tuple[int, ...]):
    """Values of a polynomial matrix on tori of K-th roots of unity.

    Returns a function of the log radii s (one per base variable) giving an
    array of shape (len(ks), rows, cols) whose sample t is M at the point
    (e^s_1 omega_1^k_1, ..., e^s_m omega_m^k_m), k = ks[t],
    omega_i = exp(2 pi i / K_i).
    """
    rows, cols = M.shape
    E = M.exps
    if not len(E):
        return lambda s: np.zeros((len(ks), rows, cols), dtype=complex)
    coef = M.coef.reshape(len(E), rows * cols)
    # omega^(k . alpha), each axis reduced mod K_i so large exponents stay exact
    turns = np.zeros((len(ks), len(E)))
    for i, Ki in enumerate(K):
        turns += np.outer(ks[:, i], E[:, i]) % Ki / Ki
    unit = np.exp(2j * np.pi * turns)
    return lambda s: ((unit * np.exp(E @ s)) @ coef).reshape(-1, rows, cols)


def _sample_minors(
    V: np.ndarray, picks: np.ndarray, signs: np.ndarray, K: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """Scaled coefficients and error scale of every minor of the samples V.

    Minor u keeps rows picks[u] of V, with sign signs[u].  Returns the
    coefficients of w -> minor_u(e^s w) in the C order of the sample grid
    (shape (samples, minors)), from an m-dimensional FFT (1-D when m = 1);
    each variable's degree is below its K_i, so there is no aliasing.  Also
    returns the log of each minor's largest Hadamard bound over the samples,
    per sample the smaller of the row and the column bound: the LU rounding
    error of a sampled minor is a small multiple of eps times either.
    Partial pivoting scales a column's rounding with the column, so entries
    far above the diagonal of a triangular block, which inflate its row
    bound, leave the column bound near |det|.  Both bounds come from one
    pass of |V|^2, formed as ``np.linalg.norm`` forms it: its sums along the
    rows, and its sums over each minor's rows.
    """
    S, n, r = V.shape[0], len(picks), picks.shape[1]
    vals = np.empty((S, n), dtype=complex)
    log_cols = np.empty((S, n))
    sq = (V.conj() * V).real
    step = max(1, _BLOCK_ENTRIES // max(1, S * r * r))
    with np.errstate(divide="ignore"):
        for t in range(0, n, step):
            pick = picks[t : t + step]
            vals[:, t : t + step] = np.linalg.det(V[:, pick]) * signs[t : t + step]
            log_cols[:, t : t + step] = np.log(np.sqrt(sq[:, pick].sum(axis=-2))).sum(-1)
        log_rows = np.log(np.sqrt(sq.sum(axis=-1)))
    log_bound = np.minimum(log_rows[:, picks].sum(axis=-1), log_cols).max(axis=0)
    if len(K) == 1:
        coeffs = np.fft.fft(vals, axis=0)
    else:
        coeffs = np.fft.fftn(vals.reshape(K + (n,)), axes=tuple(range(len(K))))
    return coeffs.reshape(S, n) / S, log_bound


def _det_and_cofactors(M: TermMatrix) -> tuple[TermMatrix, TermMatrix]:
    """det C, untrimmed (1 x 1), and the (p - r) x p cofactor rows B of a
    p x r polynomial matrix M, each entry of B trimmed as PolyW trims.

    C is the top r x r block of M.  For each row l >= r the (r+1) x r block
    [C; M_l] has the left null row X_l with X_l[l] = det C and X_l[k]
    (k < r) the signed r-minor that omits row k; every other entry is 0.
    All minors share each sampling of M and each FFT (see the module
    docstring); each costs O(prod(K) * r**3) per torus.  A minor that keeps
    an identically zero row of M is 0 and is not sampled.
    """
    p, r = M.shape
    m = M.exps.shape[1]

    def minor_bound(row_degs: np.ndarray) -> int:
        # a minor takes r rows of [C; M_l]: all of C's but one, plus M_l
        return int(row_degs[:r].sum() + row_degs[r:].max(initial=0))

    # per row, the largest total degree and the largest degree in each w_i
    in_row = M.coef.any(axis=2)[:, :, None]  # monomials x p x 1
    total = M.exps.sum(axis=1, keepdims=True)
    degs = np.where(in_row, np.concatenate([total, M.exps], axis=1)[:, None, :], 0)
    degs = degs.max(axis=0, initial=0)  # p x (1 + m)
    D = minor_bound(degs[:, 0])
    K = tuple(1 + minor_bound(degs[:, 1 + i]) for i in range(m))
    S = math.prod(K)
    n_exps = len(M.exps)
    if S * max(p * r, n_exps) > MAX_SAMPLE_ENTRIES:
        raise DegenerateInputError(
            f"pivot block too large to sample: {S} samples of a {p} x {r} "
            f"matrix with {n_exps} monomials"
        )
    ks = np.indices(K).reshape(m, -1).T
    sampler = _torus_sampler(M, ks, K)
    # minor u keeps rows picks[u], with sign signs[u]: C itself, then for
    # each row l >= r and each k < r the rows of C but k, and l, with sign
    # (-1)^(k + r)
    k, j = np.arange(r), np.arange(max(r - 1, 0))
    but_k = j + (j >= k[:, None])  # r x (r - 1)
    bordered = np.concatenate(
        [np.tile(but_k, (p - r, 1)), np.repeat(np.arange(r, p), r)[:, None]], axis=1
    ).reshape((p - r) * r, r)
    picks = np.concatenate([k[None], bordered])
    signs = np.concatenate([[1.0], np.tile(np.where((k + r) % 2, -1.0, 1.0), p - r)])
    # a minor that keeps an identically zero row (the constant-jet row of an
    # ideal inside the maximal ideal) is exactly 0 with Hadamard bound 0, as
    # LU gives it: only the others are sampled
    zero_row = ~M.coef.any(axis=(0, 2))
    live = np.flatnonzero(~zero_row[picks].any(axis=1))
    picks, signs = picks[live], signs[live]
    n = len(picks)
    keep = np.flatnonzero(ks.sum(axis=1) <= D)
    alpha = ks[keep]
    if len(keep) == S:  # every sample (m = 1): no copy of the coefficients
        keep = slice(None)
    log_tau = math.log(DET_NOISE_REL * (r + 1))
    # per coefficient, the estimate with the smallest error bound so far
    best = np.zeros((len(alpha), n), dtype=complex)
    log_err = np.full((len(alpha), n), np.inf)

    def sample(s: np.ndarray, floor: np.ndarray | None) -> np.ndarray | None:
        """Sample on the torus of log radii s; None if a minor's bound leaves
        [floor, e^_LOG_RANGE] or a coefficient the float range.  The unit
        torus (floor None) is always taken."""
        coeffs, log_bound = _sample_minors(sampler(s), picks, signs, K)
        if floor is not None and not (
            np.isfinite(coeffs).all()
            and ((log_bound >= floor) & (log_bound <= _LOG_RANGE)).all()
        ):
            return None
        shift = alpha @ s
        # shift is finite, so no inf - inf: log_bound's -inf stays -inf
        err = log_tau + log_bound - shift[:, None]
        better = err < log_err
        np.copyto(best, coeffs[keep] * np.exp(-shift)[:, None], where=better)
        np.copyto(log_err, err, where=better)
        return log_bound

    def visible() -> np.ndarray:
        # fmax keeps a part that is not NaN, as an | of the two tests would
        return np.fmax(np.abs(best.real), np.abs(best.imag)) > np.exp(log_err)

    # A coefficient w^alpha sampled on the torus of log radii s has error
    # bound tau * h(s) * e^(-alpha . s), h the Hadamard bound.  log h is
    # convex in s, its slope along axis i rising from the lowest to the
    # highest degree in w_i, so going inward along that axis helps the
    # coefficients with alpha_i below the slope and outward those above it.
    # Walk each axis each way until its extreme visible degree gains less
    # than a factor RADIUS_STEP**0.5 per step, then sample the product of
    # the axis ladders, which coefficients of mixed scale need when m > 1.
    ln_q = math.log(RADIUS_STEP)
    steps = 0 if D == 0 else min(MAX_RADIUS_STEPS, int(_LOG_RANGE / (D * ln_q)))
    log_bound0 = sample(np.zeros(m), None)
    # off the unit torus a minor's bound stays within e^+-_LOG_RANGE, unless
    # it is 0 there (a minor that vanishes identically)
    floor = np.where(np.isneginf(log_bound0), -np.inf, -_LOG_RANGE)

    def walk(axis: int, direction: int) -> int:
        prev = log_bound0
        # each coefficient's degree in w_axis, offset by the half degree the
        # slope must pass it by (exact: the degrees are small integers)
        lim = alpha[:, axis : axis + 1] - 0.5 * direction
        edge = np.inf if direction < 0 else -np.inf
        for step in range(1, steps + 1):
            s = np.zeros(m)
            s[axis] = direction * step * ln_q
            cur = sample(s, floor)
            if cur is None:
                return step - 1
            with np.errstate(invalid="ignore"):
                slope = direction * (cur - prev) / ln_q
            seen = np.where(visible(), lim, edge)
            if direction < 0:
                more = slope > seen.min(axis=0)
            else:
                more = slope < seen.max(axis=0)
            if not more.any():
                return step
            prev = cur
        return steps

    ladders = [range(-walk(i, -1), walk(i, 1) + 1) for i in range(m)]
    if m > 1:
        budget = MAX_PRODUCT_ENTRIES // max(1, S * p * r)
        for stride in range(1, 1 + max(map(len, ladders))):
            thinned = [lad[::stride] for lad in ladders]
            if math.prod(map(len, thinned)) <= budget:
                for idx in itertools.product(*thinned):
                    if sum(1 for j in idx if j) > 1:  # not on an axis ladder
                        sample(np.array(idx) * ln_q, floor)
                break
    if not np.all(np.isfinite(best)):
        raise DegenerateInputError("minor coefficients overflow the float range")
    fl = np.exp(log_err)
    best.real[np.abs(best.real) <= fl] = 0.0
    best.imag[np.abs(best.imag) <= fl] = 0.0
    minors = np.zeros((len(alpha), 1 + (p - r) * r), dtype=complex)
    minors[:, live] = best
    det_c = _live(alpha, minors[:, :1, None])
    # row j of B borders C with row l = r + j: the minors, then det C at l
    coef = np.zeros((len(alpha), p - r, p), dtype=complex)
    coef[:, :, :r] = minors[:, 1:].reshape(len(alpha), p - r, r)
    j = np.arange(p - r)
    coef[:, j, r + j] = minors[:, :1]
    return det_c, TermMatrix(alpha, coef).trimmed()


@dataclass
class AnnihilatorResult:
    matrix: CoeffMatrixA
    r: int
    row_perm: list[int]  # permuted row i of the pivoted matrix = original row_perm[i]
    col_perm: list[int]
    det_terms: TermMatrix  # det C untrimmed, read by in_U
    pivot_block: TermMatrix  # the r x r block C(w)
    product_residual: float  # max relative coefficient of B(w) A(w)
    b_terms: TermMatrix  # the s x p annihilator B(w), permuted-row coordinates

    @property
    def p(self) -> int:
        return self.matrix.p

    @property
    def s(self) -> int:
        return self.b_terms.shape[0]

    @property
    def labels(self) -> list[MultiIndex]:
        """The jet monomial of each column of B(w)."""
        return [self.matrix.basis[i] for i in self.row_perm]

    def eval_B(self, w) -> np.ndarray:
        """B(w); at an array (P, m) of base points, P x s x p."""
        B = self.b_terms.values(_rows(w, self.matrix.fam.w_arity))
        return B if np.ndim(w) == 2 else B[0]

    def in_U(self, w):
        """Whether w is in U, |det C(w)| > DETC_TOL max(1, max |C(w)|)^r; at
        an array (P, m) of base points, the mask of those in U."""
        W = _rows(w, self.matrix.fam.w_arity)
        if self.r == 0:
            inside = np.ones(len(W), dtype=bool)
        else:
            C = np.abs(self.pivot_block.values(W)).max(axis=(1, 2), initial=0.0)
            # not det_c: its trim can drop the constant term of (1 + 10w)^14
            det = self.det_terms.values(W)[:, 0, 0]
            inside = np.abs(det) > DETC_TOL * np.maximum(1.0, C) ** self.r
        return inside if np.ndim(w) == 2 else bool(inside[0])

    def functionals(self) -> list[FunctionalFamily]:
        return functionals_from_annihilator(self)


def annihilator(
    A: CoeffMatrixA, r: int, witness, seed: int = 0
) -> AnnihilatorResult:
    """Holomorphic left annihilator via bordered-minor cofactors.

    A rank-revealing pivot search at the witness selects the r x r block
    C(w); for each extra row the bordered (r+1) x r block [C; A_l] supplies
    cofactors forming a row X_j with X_j(w) A(w) = 0 identically (every
    (r+1)-minor of A vanishes since r is the maximal rank).  The polynomial
    product B(w) A(w) of the two coefficient arrays is then formed as an
    independent certificate (``product_residual``).
    """
    m = A.fam.w_arity
    p, q = A.p, A.q
    w0 = _rows(witness, m)
    row_perm = col_perm = None
    for attempt in range(10):
        A0 = A.evaluate(w0)
        if r == 0:
            row_perm, col_perm = list(range(p)), list(range(q))
            break
        from scipy.linalg import qr

        _, _, cp = qr(A0, pivoting=True)
        csel = list(cp[:r])
        _, _, rp = qr(A0[:, csel].conj().T, pivoting=True)
        rsel = list(rp[:r])
        block = A0[np.ix_(rsel, csel)]
        s = np.linalg.svd(block, compute_uv=False)
        if s[-1] > RANK_TOL * max(s[0], 1e-300):
            row_perm = rsel + [i for i in range(p) if i not in rsel]
            col_perm = csel + [j for j in range(q) if j not in csel]
            break
        if attempt == 0:  # only a singular witness draws another
            rng = np.random.default_rng(seed)
        w0 = _generic_point(rng, m)
    else:
        raise DegenerateInputError(
            "no nonsingular pivot block found after 10 witnesses"
        )

    det_terms, B = _det_and_cofactors(A.terms.take(row_perm, col_perm[:r]))
    # certify the exact polynomial identity B(w) A(w) = 0
    scale = max(A.terms.max_coeff(), 1.0) * max(B.max_coeff(), 1.0)
    residual = (B @ A.terms.take(row_perm, col_perm)).max_coeff() / scale
    C = A.terms.take(row_perm[:r], col_perm[:r])
    return AnnihilatorResult(A, r, row_perm, col_perm, det_terms, C, residual, B)


def functionals_from_annihilator(res: AnnihilatorResult) -> list[FunctionalFamily]:
    """One holomorphic functional family per annihilator row, deg <= N-1:
    the row of ``b_terms`` on its columns that are not identically zero."""
    n, labels = res.matrix.fam.z_arity, res.labels
    return [
        FunctionalFamily.from_matrix(n, [labels[j] for j in cols],
                                     res.b_terms.take([i], cols))
        for i, cols in enumerate(map(np.flatnonzero, res.b_terms.coef.any(axis=0)))
    ]


def _truncated_coeff_vector(f: PolyW, basis: list[MultiIndex]) -> np.ndarray:
    return np.array([f.coeffs.get(a, 0.0) for a in basis], dtype=complex)


def membership_by_functionals(res: AnnihilatorResult, w, f: PolyW) -> bool:
    """f in I_w + m^N, decided by vanishing of all functional actions at 0."""
    W = _rows(w, res.matrix.fam.w_arity)
    if not res.in_U(W)[0]:
        raise OutsideUError(
            f"base point {tuple(W[0].tolist())} outside U (pivot determinant ~ 0)")
    B = res.eval_B(W)[0]
    jet = _truncated_coeff_vector(f, res.labels)[:, None]
    return bool(_annihilates(B[None], (B @ jet)[None], np.array([[f.max_coeff()]]))[0])


def _annihilates(B: np.ndarray, P: np.ndarray, fmax: np.ndarray) -> np.ndarray:
    """At each point, whether every row of B = B(w) (points x s x p)
    vanishes on every jet column of F(w), given P = B(w) F(w) (points x s x q)
    and the largest coefficient modulus fmax (points x q) of each column's
    polynomial: |P_ij| <= MEMBERSHIP_TOL max(1, max |B_i|) max(1, fmax_j)."""
    xscale = np.maximum(1.0, np.abs(B).max(axis=2, initial=0.0))
    bound = MEMBERSHIP_TOL * xscale[:, :, None] * np.maximum(1.0, fmax)[:, None, :]
    return np.all(np.abs(P) <= bound, axis=(1, 2))


def membership_oracle(
    fam: IdealFamily, w, f: PolyW, A: CoeffMatrixA | None = None
) -> bool:
    """Independent check: is the jet of f in the column span of A(w)?"""
    if A is None:
        A = build_coeff_matrix(fam)
    W = _rows(w, fam.w_arity)  # a point of another arity is refused even at f = 0
    b = _truncated_coeff_vector(f, A.basis)
    if np.linalg.norm(b) == 0:
        return True
    Aw = A.evaluate(W)
    x, _, _, _ = np.linalg.lstsq(Aw, b, rcond=None)
    resid = np.linalg.norm(Aw @ x - b)
    return resid <= ORACLE_RESIDUAL_TOL * max(1.0, np.linalg.norm(b))


def build_annihilator(
    fam: IdealFamily, w_grid: Sequence | None = None, seed: int = 0
) -> AnnihilatorResult:
    """Full pipeline: coefficient matrix, max rank, cofactor annihilator."""
    A = build_coeff_matrix(fam)
    if w_grid is None:
        w_grid = [(0.3,) * fam.w_arity]
    r, witness = max_rank(A, w_grid, seed=seed)
    return annihilator(A, r, witness, seed=seed)


# ---------------------------------------------------------------------------
# Psi_N and the Lambda scan
# ---------------------------------------------------------------------------

@dataclass
class PsiPoint:
    w: tuple[complex, ...]
    flag: str  # "ok" | "minus_inf" | "outside_U"
    psi: float  # -inf when flagged minus_inf; nan when outside U
    kernels: list[float]
    # B(w), whose rows are the annihilator functionals at w; None outside U
    B: np.ndarray | None = field(default=None, repr=False)


def psi_at(res: AnnihilatorResult, w: tuple[complex, ...], B: np.ndarray | None,
           logk: list[float] | None, kernels: list[float] | None) -> PsiPoint:
    """The record of Psi_N(w), the sup over the annihilator functionals of
    the log-kernel at the fiber origin, built from the scan's arrays
    (``_psi_points``): B = B(w), the log-kernels logk of its rows and their
    kernels.  It reads no point and makes no numpy call.  B is None where w
    is outside U.  Psi_N is -inf when every kernel vanishes, by the one zero
    test of ``bergman.zero_kernels``.
    """
    if B is None:
        return PsiPoint(w, "outside_U", math.nan, [])
    # with no functionals (s = 0, I_w + m^N is everything) this holds vacuously
    psi = max(logk, default=-math.inf)
    return PsiPoint(w, "ok" if psi > -math.inf else "minus_inf", psi, kernels, B)


def psi_scan(
    fam: IdealFamily,
    phi_joint,
    w_grid: Sequence,
    fiber_domain: Polydisc | None = None,
    degree: int = 8,
    quad: QuadSpec | None = None,
    res: AnnihilatorResult | None = None,
    seed: int = 0,
) -> tuple[AnnihilatorResult, list[PsiPoint]]:
    """The annihilator (built here when res is None) and Psi_N at every grid
    point, one ``psi_at`` each.

    U is tested and B(W) evaluated once over the grid (``_in_U``).  The
    log-kernels of every row of B(w) at every point in U come from one
    ``fiberwise.fiber_kernels`` call at the fiber origin
    (``_row_log_kernels``).
    """
    check_joint_weight(phi_joint, fam.z_arity, fam.w_arity)
    res, W, inside, B = _in_U(fam, w_grid, res, seed)
    return res, _psi_points(res, phi_joint, W, inside, B, fiber_domain, degree,
                            quad)


def _in_U(fam: IdealFamily, w_grid: Sequence, res: AnnihilatorResult | None,
          seed: int):
    """The grid read once as rows W (``bergman._grid_rows``), the annihilator
    (built on W when res is None), the mask of W in U, and B(W[mask])."""
    W = _grid_rows(w_grid, fam.w_arity)
    if res is None:
        res = build_annihilator(fam, W, seed=seed)
    inside = res.in_U(W)
    return res, W, inside, res.eval_B(W[inside])


def _psi_points(res: AnnihilatorResult, phi_joint, W: np.ndarray,
                inside: np.ndarray, B: np.ndarray, fiber_domain: Polydisc | None,
                degree: int, quad: QuadSpec | None) -> list[PsiPoint]:
    """``psi_at`` at every row of W, from B = B(W[inside]), the log-kernels
    of its rows (``_row_log_kernels``) and their kernels, one ``np.exp``
    over the scan."""
    logk = _row_log_kernels(res, phi_joint, W[inside], B, fiber_domain, degree,
                            quad)
    with np.errstate(over="ignore"):
        kernels = np.exp(logk).tolist()
    at = np.cumsum(inside) - 1
    rows = logk.tolist()  # Python floats and complexes: no numpy scalars
    return [psi_at(res, tuple(w), B[i], rows[i], kernels[i]) if ok
            else psi_at(res, tuple(w), None, None, None)
            for w, ok, i in zip(W.tolist(), inside, at)]


def _row_log_kernels(res: AnnihilatorResult, phi_joint, WU: np.ndarray,
                     B: np.ndarray, fiber_domain: Polydisc | None, degree: int,
                     quad: QuadSpec | None) -> np.ndarray:
    """The log-kernels (points x s) of the rows of B = B(WU) at the fiber
    origin, each row over its own point: one ``fiberwise.fiber_kernels``
    call on the jet monomials ``res.labels``.  A row is 0 off the columns of
    its functional family (where its array in B's ``TermMatrix`` is
    identically zero), and a row's actions are one ordered sum that those
    zeros leave as it is, so it rounds as that family does.  The fiber
    models are those of any other kernel call, one model of psi for a joint
    weight psi(z) + s(w), else one per point.
    """
    n = res.matrix.fam.z_arity
    if fiber_domain is None:
        fiber_domain = Polydisc((1.0,) * n)
    logk = np.zeros((len(WU), res.s))
    if logk.size:
        origin = _points_in(fiber_domain, (0j,) * n, "evaluation point")
        logk = fiber_kernels(
            fiber_domain, phi_joint, degree, quad or QuadSpec(), res.labels,
            B.reshape(-1, res.p), np.repeat(WU, res.s, axis=0), origin, log=True,
        ).reshape(logk.shape)
    return logk


@dataclass
class LambdaScanResult:
    res: AnnihilatorResult
    points: list[PsiPoint]
    lambda_psi: list[int]  # grid indices with Psi_N = -inf
    lambda_membership: list[int]  # grid indices passing the functional check
    skipped: list[int]  # indices outside U
    mismatches: list[int]

    @property
    def agree(self) -> bool:
        return not self.mismatches

    def lambda_points(self) -> list[tuple[complex, ...]]:
        return [self.points[i].w for i in self.lambda_psi]


def lambda_scan(
    fam: IdealFamily,
    phi_joint,
    w_grid: Sequence,
    fiber_domain: Polydisc | None = None,
    degree: int = 8,
    quad: QuadSpec | None = None,
    res: AnnihilatorResult | None = None,
    seed: int = 0,
) -> LambdaScanResult:
    """Grid section of the inclusion locus, cross-checked two ways.

    (a) Psi_N flags from the kernel sup; (b) direct membership of every
    oracle generator of the fiber multiplier ideal (times jet monomials)
    under the annihilator functionals, at every point in U at once
    (``oracle_membership``).  Both must coincide on U.  U is tested and
    B(w), whose rows are the functionals, evaluated once, as ``psi_scan``
    does; membership is decided first, so a weight without an oracle is
    refused before any fiber model is built.
    """
    check_joint_weight(phi_joint, fam.z_arity, fam.w_arity)
    res, W, inside, B = _in_U(fam, w_grid, res, seed)
    member = np.zeros(len(W), dtype=bool)
    if inside.any():
        member[inside] = oracle_membership(res, phi_joint, W[inside], B)
    pts = _psi_points(res, phi_joint, W, inside, B, fiber_domain, degree, quad)
    minus_inf = np.array([p.flag == "minus_inf" for p in pts], dtype=bool)
    # Lambda by Psi_N and by membership, outside U, and disagreeing in U
    masks = (minus_inf, member, ~inside, inside & (minus_inf != member))
    return LambdaScanResult(res, pts, *(np.flatnonzero(k).tolist() for k in masks))


def oracle_membership(res: AnnihilatorResult, phi_joint, W: np.ndarray,
                      B: np.ndarray) -> np.ndarray:
    """At each base point w of W (rows, all in U), whether the rows of
    B = B(W) annihilate every oracle generator of the fiber multiplier ideal
    times every jet monomial, by the rule of ``membership_by_functionals``.

    The generators are read once as polynomials in (z, w): g itself for a
    joint divisor 2 log|g(z, w)|, and otherwise the fiber's generators
    (``weights.multiplier_generators``), which do not depend on w, with zero
    w-exponents.  Their jets times the jet monomials are the coefficient
    matrix J(w) (``build_coeff_matrix``), its rows in B's column order, and
    P = B J is one ``TermMatrix`` product, evaluated once over W; its common
    zeros in U are Lambda_N.  Where a generator misses the fiber origin
    (``weights.misses_origin``), the fiber ideal is the unit ideal and the
    rows are tested on B(w) itself.  A weight without an oracle raises
    UnsupportedWeightError, a joint divisor with c != 1 only when some
    point of W has g(0, w) = 0.
    """
    fam = res.matrix.fam
    n, m = fam.z_arity, fam.w_arity
    if isinstance(phi_joint, JointLogDivisor):
        gens = [phi_joint.g]
    else:
        gens = [lift(g, m) for g in multiplier_generators(phi_joint.fiber(W[0]))]
    # each generator's z-coefficients at each point: its column beta = 0 at a
    # jet order that holds all of its terms
    top = 1 + max((sum(e[:n]) for g in gens for e in g.coeffs), default=0)
    G = build_coeff_matrix(IdealFamily(n, m, gens, top))
    g_w = G.values(W)[:, :, ::G.p]  # points x z-monomials x generators
    gmax = np.abs(g_w).max(axis=1)
    unit = misses_origin(g_w[:, 0], gmax).any(axis=1)
    if isinstance(phi_joint, JointLogDivisor) and not unit.all():
        divisor_generator(phi_joint)  # refuses c != 1 through the origin
    A = build_coeff_matrix(IdealFamily(n, m, gens, fam.truncation))
    P = (res.b_terms @ A.terms.take(res.row_perm, range(A.q))).values(W)
    fmax = np.repeat(gmax, res.p, axis=1)  # column (beta, i) holds z^beta g_i
    return np.where(unit, _annihilates(B, B, np.zeros((len(W), 1))),
                    _annihilates(B, P, fmax))


@dataclass
class KrullResult:
    per_n: dict[int, LambdaScanResult]
    stabilized_at: int | None
    nested: bool

    def intersection(self) -> set:
        sets = [
            {scan.points[i].w for i in scan.lambda_psi}
            for scan in self.per_n.values()
        ]
        out = sets[0]
        for s in sets[1:]:
            out &= s
        return out


def krull_stabilize(
    fam: IdealFamily,
    phi_joint,
    w_grid: Sequence,
    n_max: int,
    fiber_domain: Polydisc | None = None,
    degree: int = 8,
    quad: QuadSpec | None = None,
    seed: int = 0,
) -> KrullResult:
    """Lambda_N grid sets for N = 2..n_max with the Krull nesting check:
    one ``lambda_scan`` per N, each handed the grid read once as rows."""
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    W = _grid_rows(w_grid, fam.w_arity)
    per_n = {
        N: lambda_scan(IdealFamily(fam.z_arity, fam.w_arity, fam.generators, N),
                       phi_joint, W, fiber_domain, degree, quad, seed=seed)
        for N in range(2, n_max + 1)
    }
    nested = True
    stabilized = None
    prev = None
    for N in range(2, n_max + 1):
        cur = {per_n[N].points[i].w for i in per_n[N].lambda_psi}
        if prev is not None:
            if not cur.issubset(prev):
                nested = False
            if cur == prev and stabilized is None:
                stabilized = N - 1
        prev = cur
    return KrullResult(per_n, stabilized, nested)


# ---------------------------------------------------------------------------
# JSON / CSV helpers
# ---------------------------------------------------------------------------

#: the key table of an ideal family: its arities, jet order and generators
#: (polynomials in (z, w), each a term list); ``ideal_to_json`` writes it
IDEAL = Table(
    {"zArity": integer, "wArity": integer, "truncation": integer,
     "generators": list_of(POLY_TERMS)},
    lambda n, m, N, gens: IdealFamily(n, m, [PolyW(n + m, g) for g in gens], N),
)


def ideal_to_json(fam: IdealFamily) -> dict:
    return _to_json(fam, IDEAL.names)


def ideal_from_json(obj: dict) -> IdealFamily:
    return IDEAL(obj)


def annihilator_to_json(res: AnnihilatorResult) -> dict:
    return {
        "rank": res.r,
        "p": res.p,
        "s": res.s,
        "rowPermutation": list(res.row_perm),
        "columnPermutation": list(res.col_perm),
        "detC": _terms_to_json(res.det_terms)[0][0],
        "productResidual": res.product_residual,
        "rows": _terms_to_json(res.b_terms),
        "basis": [list(a) for a in res.matrix.basis],
    }

