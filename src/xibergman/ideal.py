"""Cofactor annihilators for jet coefficient matrices and the Lambda scan.

Given polynomial generators F_1..F_t on a product polydisc, the truncated
ideal I_w + m^N on the fiber over w is the column span of a coefficient
matrix A(w) whose entries are polynomials in w.  A(w) is held as one
coefficient array (``TermMatrix``: the monomials in w and one p x q
coefficient block each).  Every evaluation of A, of its blocks and of the
annihilator rows is the product of a Vandermonde matrix in w with such an
array, over a batch of base points; ``max_rank`` evaluates and rank-tests
its whole witness grid in one call, and the determinant sampling below
slices its pivot columns from the same array.  A holomorphic left
annihilator B(w) with B(w) A(w) = 0 is built from bordered-minor cofactors
of a nonsingular pivot block; its rows are the coefficient vectors of
functionals that cut out the truncated ideal on the open set U where the
pivot determinant does not vanish.  Scanning the sup of the log-kernels of
these functionals over a base grid locates the inclusion locus of the
multiplier ideal.

The pivot determinant det C(w) and the cofactors are found by
evaluation-interpolation.  K_i - 1, the sum over a block's rows of the
largest entry degree in w_i, bounds every minor's degree in w_i.  The
pivoted matrix is sampled on the tensor grid of K_i-th roots of unity in
each base variable, scaled to a torus of radii (rho_1, ..., rho_m); batched
``np.linalg.det`` calls give every minor at every sample, and an
m-dimensional FFT returns the coefficients, exact up to rounding.  One torus
resolves a coefficient only to eps times the largest sampled value over its
own size there, which loses the small coefficients of a determinant such as
(1 + 8w)^14 on the unit circle.  So the radii walk out and in along each
axis by factors of RADIUS_STEP, then over the product of those ladders when
m > 1, and each coefficient keeps the estimate with the smallest error
bound, eps (r + 1) times the Hadamard bound over rho^alpha; parts below that
bound are rounding noise and set to zero, so exact zeros stay zero.  An
r x r minor costs O(prod(K_i) * r**3) per torus, polynomial in r, where
Laplace expansion costs O(2**r); a dense pair at jet order 5 takes about
six tori.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .bergman import QuadSpec, assemble_gram, orthonormalize, xi_kernel
from .family import FunctionalFamily, PolyW
from .functional import Functional, MultiIndex, multi_indices_upto
from .weights import (
    ConstantWeight,
    LogDivisorWeight,
    LogMonomialWeight,
    Polydisc,
    QuadraticWeight,
    SumWeight,
    UnsupportedWeightError,
    ZeroWeight,
)

RANK_TOL = 1e-9
DETC_TOL = 1e-8
MEMBERSHIP_TOL = 1e-9
ORACLE_RESIDUAL_TOL = 1e-8
KERNEL_ZERO_TOL = 1e-14
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


def _split_generator(g: PolyW, n: int, m: int) -> dict[MultiIndex, PolyW]:
    """Collect a (z, w)-polynomial as z-monomial -> polynomial in w."""
    out: dict[MultiIndex, PolyW] = {}
    for exps, c in g.coeffs.items():
        alpha, beta = exps[:n], exps[n:]
        p = out.get(alpha)
        add = PolyW(m, {beta: c})
        out[alpha] = p + add if p is not None else add
    return out


@dataclass(frozen=True)
class TermMatrix:
    """A matrix of polynomials in w held as one coefficient array.

    Entry (i, j) is sum_t coef[t, i, j] w^exps[t].  The exponents are
    distinct, in lexicographic order, and each has a nonzero coefficient.
    """

    exps: np.ndarray  # monomials x m, int64
    coef: np.ndarray  # monomials x rows x cols, complex

    @staticmethod
    def from_polys(M: list[list[PolyW]], m: int, cols: int = 0) -> "TermMatrix":
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

    @property
    def shape(self) -> tuple[int, int]:
        return self.coef.shape[1:]

    def take(self, rows: Sequence[int], cols: Sequence[int]) -> "TermMatrix":
        """The block of the given rows and columns, in that order."""
        coef = self.coef[:, rows][:, :, cols]
        live = coef.any(axis=(1, 2))
        return TermMatrix(self.exps[live], coef[live])

    def max_coeff(self) -> float:
        # np.hypot is Python's abs(complex), which PolyW.max_coeff takes
        return float(np.hypot(self.coef.real, self.coef.imag).max(initial=0.0))

    def values(self, W) -> np.ndarray:
        """The matrix at each base point (row of W): points x rows x cols."""
        W = np.asarray(W, dtype=complex).reshape(-1, self.exps.shape[1])
        flat = self.coef.reshape(len(self.coef), math.prod(self.shape))
        # einsum, not BLAS: it adds the terms in exponent order with plain
        # multiplies and adds, as PolyW.evaluate does, so an entry whose
        # terms PolyW holds in that order gets the same bits; the
        # column-pivoted QR in ``annihilator`` breaks exact ties between
        # shifted columns by those bits
        powers = np.prod(W[:, None, :] ** self.exps[None, :, :], axis=2)
        V = np.einsum("pt,tk->pk", powers, flat)
        return V.reshape(len(W), *self.shape)


@dataclass
class CoeffMatrixA:
    fam: IdealFamily
    basis: list[MultiIndex]  # row labels, grlex, |alpha| <= N-1
    cols: list[tuple[MultiIndex, int]]  # (beta, generator index)
    entries: list[list[PolyW]]  # p x q, for the exact certificate
    terms: TermMatrix  # the same p x q matrix, read by every evaluation

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
        return self.values([_as_w(w, self.fam.w_arity)])[0]


def build_coeff_matrix(fam: IdealFamily) -> CoeffMatrixA:
    """Coefficient matrix of {z^beta f_i mod m^N} in the jet monomial basis."""
    n, m, N = fam.z_arity, fam.w_arity, fam.truncation
    basis = multi_indices_upto(n, N - 1)
    row_of = {a: i for i, a in enumerate(basis)}
    zero = PolyW(m, {})
    splits = [_split_generator(g, n, m) for g in fam.generators]
    cols: list[tuple[MultiIndex, int]] = []
    entries: list[list[PolyW]] = [[] for _ in basis]
    for i in range(len(fam.generators)):
        for beta in basis:
            cols.append((beta, i))
            col = {a: zero for a in basis}
            for gamma, pw in splits[i].items():
                alpha = tuple(bi + gi for bi, gi in zip(beta, gamma))
                if sum(alpha) <= N - 1:
                    col[alpha] = col[alpha] + pw
            for a in basis:
                entries[row_of[a]].append(col[a])
    return CoeffMatrixA(fam, basis, cols, entries, TermMatrix.from_polys(entries, m))


def max_rank(
    A: CoeffMatrixA, w_grid: Sequence, seed: int = 0, n_random: int = 12
) -> tuple[int, tuple[complex, ...]]:
    """Max numerical rank over the grid plus automatic generic perturbations.

    All points are evaluated and rank-tested in one batch; the witness is
    the first point of maximal rank.
    """
    m = A.fam.w_arity
    pts = [_as_w(w, m) for w in w_grid]
    if not pts:
        raise ValueError("empty grid")
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
    s = np.linalg.svd(A.values(pts), compute_uv=False)
    ranks = np.sum(s > RANK_TOL * s[:, :1], axis=1)
    best = int(np.argmax(ranks))
    return int(ranks[best]), pts[best]


def _as_w(w, m: int) -> tuple[complex, ...]:
    if np.isscalar(w) or isinstance(w, complex):
        w = (w,) if m == 1 else w
    return tuple(complex(x) for x in w)


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
    (shape (samples, minors)), from an m-dimensional FFT; each variable's
    degree is below its K_i, so there is no aliasing.  Also returns the log
    of each minor's largest Hadamard bound over the samples: the LU rounding
    error of a sampled minor is a small multiple of eps times that bound.
    """
    S, n, r = V.shape[0], len(picks), picks.shape[1]
    vals = np.empty((S, n), dtype=complex)
    step = max(1, _BLOCK_ENTRIES // max(1, S * r * r))
    for t in range(0, n, step):
        blocks = V[:, picks[t : t + step], :]
        vals[:, t : t + step] = np.linalg.det(blocks) * signs[t : t + step]
    with np.errstate(divide="ignore"):
        log_rows = np.log(np.linalg.norm(V, axis=-1))
    log_bound = log_rows[:, picks].sum(axis=-1).max(axis=0)
    coeffs = np.fft.fftn(vals.reshape(K + (n,)), axes=tuple(range(len(K))))
    return coeffs.reshape(S, n) / S, log_bound


def _det_and_cofactors(M: list[list[PolyW]] | TermMatrix, m: int):
    """det C, the bordered cofactor rows of a p x r polynomial matrix, and
    det C before PolyW trims it (a 1 x 1 ``TermMatrix``).

    M is a ``TermMatrix`` or a list of rows of PolyW entries.
    C is the top r x r block of M.  For each row l >= r the (r+1) x r block
    [C; M_l] has the left null row X_l with X_l[l] = det C and X_l[k]
    (k < r) the signed r-minor that omits row k; every other entry is 0.
    All minors share each sampling of M and each FFT (see the module
    docstring); each costs O(prod(K) * r**3) per torus.
    """
    if not isinstance(M, TermMatrix):
        M = TermMatrix.from_polys(M, m)
    p, r = M.shape

    def minor_bound(row_degs: np.ndarray) -> int:
        # a minor takes r rows of [C; M_l]: all of C's but one, plus M_l
        return int(row_degs[:r].sum() + row_degs[r:].max(initial=0))

    # per row, the largest total degree and the largest degree in each w_i
    in_row = M.coef.any(axis=2)[:, :, None]  # monomials x p x 1
    degs = np.where(in_row, np.c_[M.exps.sum(axis=1), M.exps][:, None, :], 0)
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
    # minor u keeps rows picks[u]; the first is C itself
    picks = [list(range(r))]
    signs = [1.0]
    for l in range(r, p):
        for k in range(r):
            picks.append([i for i in range(r) if i != k] + [l])
            signs.append(-1.0 if (k + r) % 2 else 1.0)
    picks = np.array(picks, dtype=np.int64).reshape(len(picks), r)
    signs = np.array(signs)
    n = len(picks)
    keep = np.flatnonzero(ks.sum(axis=1) <= D)
    alpha = ks[keep]
    log_tau = math.log(DET_NOISE_REL * (r + 1))
    # per coefficient, the estimate with the smallest error bound so far
    best = np.zeros((len(keep), n), dtype=complex)
    log_err = np.full((len(keep), n), np.inf)

    def sample(s: np.ndarray) -> np.ndarray | None:
        """Sample on the torus of log radii s; None if out of float range."""
        coeffs, log_bound = _sample_minors(sampler(s), picks, signs, K)
        if s.any() and not (
            np.all(np.isfinite(coeffs))
            and np.all(log_bound <= _LOG_RANGE)
            and np.all((log_bound >= -_LOG_RANGE) | np.isneginf(log_bound0))
        ):
            return None
        with np.errstate(invalid="ignore"):
            err = log_tau + log_bound - (alpha @ s)[:, None]
        better = err < log_err
        best[better] = (coeffs[keep] * np.exp(-(alpha @ s))[:, None])[better]
        log_err[better] = err[better]
        return log_bound

    def visible() -> np.ndarray:
        fl = np.exp(log_err)
        return (np.abs(best.real) > fl) | (np.abs(best.imag) > fl)

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
    log_bound0 = sample(np.zeros(m))

    def walk(axis: int, direction: int) -> int:
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
        budget = MAX_PRODUCT_ENTRIES // max(1, S * p * r)
        for stride in range(1, 1 + max(map(len, ladders))):
            thinned = [lad[::stride] for lad in ladders]
            if math.prod(map(len, thinned)) <= budget:
                for idx in itertools.product(*thinned):
                    if sum(1 for j in idx if j) > 1:  # not on an axis ladder
                        sample(np.array(idx) * ln_q)
                break
    if not np.all(np.isfinite(best)):
        raise DegenerateInputError("minor coefficients overflow the float range")
    fl = np.exp(log_err)
    best.real[np.abs(best.real) <= fl] = 0.0
    best.imag[np.abs(best.imag) <= fl] = 0.0
    exps = [tuple(int(a) for a in ks[t]) for t in keep]
    polys = [
        PolyW(m, {exps[t]: complex(best[t, u]) for t in np.flatnonzero(best[:, u])})
        for u in range(n)
    ]
    det_c = polys[0]
    zero = PolyW(m, {})
    rows: list[list[PolyW]] = []
    for j, l in enumerate(range(r, p)):
        X = [zero] * p
        X[:r] = polys[1 + j * r : 1 + (j + 1) * r]
        X[l] = det_c
        rows.append(X)
    live = best[:, 0] != 0
    return det_c, rows, TermMatrix(alpha[live], best[live, :1, None])


@dataclass
class AnnihilatorResult:
    matrix: CoeffMatrixA
    r: int
    row_perm: list[int]  # permuted row i of the pivoted matrix = original row_perm[i]
    col_perm: list[int]
    rows: list[list[PolyW]]  # s x p annihilator in permuted-row coordinates
    det_c: PolyW
    det_terms: TermMatrix  # det C untrimmed, read by in_U
    pivot_block: TermMatrix  # the r x r block C(w)
    product_residual: float  # max relative coefficient of B(w) A(w)
    b_terms: TermMatrix  # the rows as one coefficient array, read by eval_B
    _families: list[FunctionalFamily] | None = field(default=None, repr=False)

    @property
    def p(self) -> int:
        return self.matrix.p

    @property
    def s(self) -> int:
        return len(self.rows)

    def eval_B(self, w) -> np.ndarray:
        return self.b_terms.values([_as_w(w, self.matrix.fam.w_arity)])[0]

    def in_U(self, w) -> bool:
        if self.r == 0:
            return True
        w = [_as_w(w, self.matrix.fam.w_arity)]
        scale = max(1.0, np.abs(self.pivot_block.values(w)).max()) ** self.r
        # not det_c: its trim can drop the constant term of (1 + 10w)^14
        det = self.det_terms.values(w)[0, 0, 0]
        return abs(det) > DETC_TOL * scale

    def functionals(self) -> list[FunctionalFamily]:
        if self._families is None:
            self._families = functionals_from_annihilator(self)
        return self._families


def annihilator(
    A: CoeffMatrixA, r: int, witness, seed: int = 0
) -> AnnihilatorResult:
    """Holomorphic left annihilator via bordered-minor cofactors.

    A rank-revealing pivot search at the witness selects the r x r block
    C(w); for each extra row the bordered (r+1) x r block [C; A_l] supplies
    cofactors forming a row X_j with X_j(w) A(w) = 0 identically (every
    (r+1)-minor of A vanishes since r is the maximal rank).  The symbolic
    product B(w) A(w) is then formed in exact PolyW arithmetic as an
    independent certificate (``product_residual``).
    """
    m = A.fam.w_arity
    p, q = A.p, A.q
    rng = np.random.default_rng(seed)
    w0 = _as_w(witness, m)
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
        w0 = tuple(
            complex(a, b)
            for a, b in zip(0.6 * rng.uniform(-1, 1, m), 0.6 * rng.uniform(-1, 1, m))
        )
    else:
        raise DegenerateInputError(
            "no nonsingular pivot block found after 10 witnesses"
        )

    det_c, rows, det_terms = _det_and_cofactors(
        A.terms.take(row_perm, col_perm[:r]), m
    )
    B = TermMatrix.from_polys(rows, m, cols=p)

    # certify the exact polynomial identity B(w) A(w) = 0
    Ap = [[A.entries[i][j] for j in col_perm] for i in row_perm]
    zero = PolyW(m, {})
    residual = 0.0
    scale = max(A.terms.max_coeff(), 1.0) * max(B.max_coeff(), 1.0)
    for X in rows:
        for c in range(q):
            acc = zero
            for l in range(p):
                if X[l].coeffs and Ap[l][c].coeffs:
                    acc = acc + X[l] * Ap[l][c]
            residual = max(residual, acc.max_coeff() / scale)
    C = A.terms.take(row_perm[:r], col_perm[:r])
    return AnnihilatorResult(
        A, r, row_perm, col_perm, rows, det_c, det_terms, C, residual, B
    )


def functionals_from_annihilator(res: AnnihilatorResult) -> list[FunctionalFamily]:
    """One holomorphic functional family per annihilator row, deg <= N-1."""
    n, m = res.matrix.fam.z_arity, res.matrix.fam.w_arity
    fams = []
    for row in res.rows:
        terms = {}
        for l, e in enumerate(row):
            if e.coeffs:
                terms[res.matrix.basis[res.row_perm[l]]] = e
        fams.append(FunctionalFamily(n, m, terms))
    return fams


def _truncated_coeff_vector(f: PolyW, basis: list[MultiIndex]) -> np.ndarray:
    return np.array([f.coeffs.get(a, 0.0) for a in basis], dtype=complex)


def membership_by_functionals(res: AnnihilatorResult, w, f: PolyW) -> bool:
    """f in I_w + m^N, decided by vanishing of all functional actions at 0."""
    w = _as_w(w, res.matrix.fam.w_arity)
    if not res.in_U(w):
        raise OutsideUError(f"base point {w} outside U (pivot determinant ~ 0)")
    return _annihilated(f, [fam.eval(w) for fam in res.functionals()])


def _annihilated(f: PolyW, xis: list[Functional]) -> bool:
    """Every functional xi(w) of the annihilator vanishes on the jet of f."""
    fscale = max(1.0, f.max_coeff())
    for xi in xis:
        val = sum(v * f.coeffs.get(a, 0.0) for a, v in xi.coeffs.items())
        xscale = max(1.0, max((abs(v) for v in xi.coeffs.values()), default=0.0))
        if abs(val) > MEMBERSHIP_TOL * xscale * fscale:
            return False
    return True


def membership_oracle(
    fam: IdealFamily, w, f: PolyW, A: CoeffMatrixA | None = None
) -> bool:
    """Independent check: is the jet of f in the column span of A(w)?"""
    if A is None:
        A = build_coeff_matrix(fam)
    w = _as_w(w, fam.w_arity)
    b = _truncated_coeff_vector(f, A.basis)
    if np.linalg.norm(b) == 0:
        return True
    Aw = A.evaluate(w)
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

def multiplier_generators(weight) -> list[PolyW]:
    """Generators of the multiplier ideal germ at 0 for oracle weights."""
    if isinstance(weight, (ZeroWeight, ConstantWeight, QuadraticWeight)):
        return [PolyW.constant(1.0, weight.arity)]
    if isinstance(weight, SumWeight):
        parts = [p for p in weight.parts if not isinstance(p, (ZeroWeight, ConstantWeight, QuadraticWeight))]
        if not parts:
            return [PolyW.constant(1.0, weight.arity)]
        if len(parts) == 1:
            return multiplier_generators(parts[0])
        raise UnsupportedWeightError("no oracle for mixed singular sums")
    if isinstance(weight, LogMonomialWeight):
        a = []
        for ci in weight.coeffs:
            t = ci - 1.0
            ai = int(math.floor(t)) + 1 if abs(t - round(t)) < 1e-12 and t >= 0 else max(
                0, int(math.ceil(t))
            )
            a.append(max(0, ai))
        return [PolyW.monomial(tuple(a))]
    if isinstance(weight, LogDivisorWeight):
        g0 = weight.g.evaluate((0.0,) * weight.g.arity)
        if abs(g0) > 1e-12 * max(1.0, weight.g.max_coeff()):
            return [PolyW.constant(1.0, weight.g.arity)]
        if abs(weight.c - 1.0) > 1e-12:
            raise UnsupportedWeightError("divisor oracle supports c = 1 only")
        return [weight.g]
    raise UnsupportedWeightError(
        f"no multiplier-ideal oracle for variant {weight.variant!r}"
    )


@dataclass
class PsiPoint:
    w: tuple[complex, ...]
    flag: str  # "ok" | "minus_inf" | "outside_U"
    psi: float  # -inf when flagged minus_inf; nan when outside U
    kernels: list[float]
    # the annihilator functionals at w; empty outside U
    functionals: list[Functional] = field(default_factory=list, repr=False)


def psi_at(
    res: AnnihilatorResult,
    phi_joint,
    w,
    fiber_domain: Polydisc | None = None,
    degree: int = 8,
    quad: QuadSpec | None = None,
) -> PsiPoint:
    """sup over annihilator functionals of log kernel at the fiber origin."""
    fam = res.matrix.fam
    w = _as_w(w, fam.w_arity)
    if fiber_domain is None:
        fiber_domain = Polydisc((1.0,) * fam.z_arity)
    if not res.in_U(w):
        return PsiPoint(w, "outside_U", math.nan, [])
    model = orthonormalize(
        assemble_gram(fiber_domain, phi_joint.fiber(w), degree, quad or QuadSpec())
    )
    origin = (0.0,) * fam.z_arity
    xis = [f.eval(w) for f in res.functionals()]
    kernels = [xi_kernel(model, xi, origin) for xi in xis]
    if not kernels:
        # vacuous annihilator: I_w + m^N is everything, inclusion always holds
        return PsiPoint(w, "minus_inf", -math.inf, [])
    top = max(kernels)
    if top <= KERNEL_ZERO_TOL:
        return PsiPoint(w, "minus_inf", -math.inf, kernels, xis)
    return PsiPoint(w, "ok", math.log(top), kernels, xis)


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
    if res is None:
        res = build_annihilator(fam, w_grid, seed=seed)
    pts = [
        psi_at(res, phi_joint, w, fiber_domain, degree, quad) for w in w_grid
    ]
    return res, pts


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
    under the annihilator functionals.  Both must coincide on U.  Each base
    point's test of U and its functionals come from ``psi_at``, once.
    """
    res, pts = psi_scan(
        fam, phi_joint, w_grid, fiber_domain, degree, quad, res, seed
    )
    n, N = fam.z_arity, fam.truncation
    betas = multi_indices_upto(n, N - 1)
    lam_a, lam_b, skipped, mismatches = [], [], [], []
    for i, pt in enumerate(pts):
        if pt.flag == "outside_U":
            skipped.append(i)
            continue
        in_a = pt.flag == "minus_inf"
        gens = multiplier_generators(phi_joint.fiber(pt.w))
        in_b = all(
            _annihilated(g * PolyW.monomial(beta), pt.functionals)
            for g in gens
            for beta in betas
        )
        if in_a:
            lam_a.append(i)
        if in_b:
            lam_b.append(i)
        if in_a != in_b:
            mismatches.append(i)
    return LambdaScanResult(res, pts, lam_a, lam_b, skipped, mismatches)


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
    scan: LambdaScanResult | None = None,
) -> KrullResult:
    """Lambda_N grid sets for N = 2..n_max with the Krull nesting check.

    ``scan``, when given, is a ``lambda_scan`` already made with these
    generators, weight, grid and settings; it is reused for its own order
    instead of scanning that order again.
    """
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    per_n: dict[int, LambdaScanResult] = {}
    for N in range(2, n_max + 1):
        if scan is not None and scan.res.matrix.fam.truncation == N:
            per_n[N] = scan
            continue
        famN = IdealFamily(fam.z_arity, fam.w_arity, fam.generators, N)
        per_n[N] = lambda_scan(
            famN, phi_joint, w_grid, fiber_domain, degree, quad, seed=seed
        )
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

def ideal_to_json(fam: IdealFamily) -> dict:
    from .family import poly_to_json

    return {
        "zArity": fam.z_arity,
        "wArity": fam.w_arity,
        "truncation": fam.truncation,
        "generators": [poly_to_json(g) for g in fam.generators],
    }


def ideal_from_json(obj: dict) -> IdealFamily:
    from .family import poly_from_json

    n, m = int(obj["zArity"]), int(obj["wArity"])
    gens = [poly_from_json(g, n + m) for g in obj["generators"]]
    return IdealFamily(n, m, gens, int(obj["truncation"]))


def annihilator_to_json(res: AnnihilatorResult) -> dict:
    from .family import poly_to_json

    return {
        "rank": res.r,
        "p": res.p,
        "s": res.s,
        "rowPermutation": list(res.row_perm),
        "columnPermutation": list(res.col_perm),
        "detC": poly_to_json(res.det_c),
        "productResidual": res.product_residual,
        "rows": [[poly_to_json(e) for e in row] for row in res.rows],
        "basis": [list(a) for a in res.matrix.basis],
    }
