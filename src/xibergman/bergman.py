"""Truncated models of weighted Bergman spaces and extremal kernels.

A GramModel holds a finite monomial (or divisor-factored) basis together
with the Gram matrix of the weighted inner product.  After eigenvalue
orthonormalization, the kernel value at z for a functional xi is the squared
norm of the vector of actions of xi on the orthonormal basis, which equals
the extremal ratio sup |xi.f(z)|^2 / ||f||^2 on the truncated space.

Every catalog weight but a divisor has a per-coordinate form
(``weights.coordinate_form``): its Gram is exact diagonal moments when it is
radial about the domain center, else an entrywise product of one-disc
quadrature Grams.  A divisor part 2 log|g| (c = 1) factors out of the basis,
and the rest of the weight takes that dispatch.  Only joint views take a
tensor quadrature.

The basis is stored as coefficient arrays over global monomials: exponents
E (one row per term), coefficients C and the basis element S of each term.
The shifted monomials (z - center)^alpha are expanded by Pascal's rule on
a dense exponent box; on a centered domain they are the identity (E =
labels, C = 1).  A divisor basis g (z - center)^alpha is an outer sum of exponents
and an outer product of coefficients with the terms of g.  Both follow the
rounding and trimming of the PolyW products they replace bit for bit, and
``GramModel.basis`` materializes PolyW views only on request.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
from scipy.special import gammainc, gammaln

from .family import PolyW
from .functional import TRIM_REL_TOL, Functional, MultiIndex, multi_indices_upto
from .weights import (
    LogDivisorWeight,
    Polydisc,
    SumWeight,
    UnsupportedWeightError,
    ZeroWeight,
    coordinate_form,
)

EIG_CUTOFF_REL = 1e-12


class KernelZeroError(ValueError):
    """No extremal function exists: the kernel vanishes (annihilation)."""


@dataclass(frozen=True)
class QuadSpec:
    radial_nodes: int = 32
    angular_nodes: int = 64
    inner_cutoff: float = 0.0

    def __post_init__(self):
        if self.radial_nodes < 4 or self.angular_nodes < 4:
            raise ValueError("quadrature node counts must be >= 4")
        if self.inner_cutoff < 0:
            raise ValueError("inner cutoff must be >= 0")

    def validate_for(self, domain: Polydisc) -> None:
        if self.inner_cutoff >= min(domain.radii) / 10.0:
            raise ValueError("inner cutoff too large for domain")


@dataclass
class GramModel:
    """A truncated basis, its Gram matrix and (once orthonormalized) V / sqrt(lam).

    Basis element j is the polynomial sum_t coeffs[t] z^exps[t] over the
    terms t with seg[t] == j; seg is nondecreasing, so the terms of each
    element are contiguous.  These arrays are the only representation of the
    basis: ``basis`` materializes them as PolyW on first use.
    """

    domain: Polydisc
    weight: object
    degree: int
    basis_labels: list[MultiIndex]
    exps: np.ndarray  # (terms, arity) int
    coeffs: np.ndarray  # (terms,) complex
    seg: np.ndarray  # (terms,) int
    gram: np.ndarray
    transform: np.ndarray | None = None
    rank: int | None = None
    eigenvalues: np.ndarray | None = None

    @property
    def arity(self) -> int:
        return self.domain.arity

    @property
    def size(self) -> int:
        return len(self.basis_labels)

    @cached_property
    def basis(self) -> tuple[PolyW, ...]:
        bounds = np.searchsorted(self.seg, np.arange(self.size + 1))
        E, C = self.exps.tolist(), self.coeffs.tolist()
        return tuple(
            PolyW(self.arity, {tuple(E[t]): C[t] for t in range(lo, hi)})
            for lo, hi in zip(bounds[:-1], bounds[1:])
        )

    def poly_from_coeffs(self, c: Sequence[complex]) -> PolyW:
        """sum_j c_j b_j, summed term by term in basis order."""
        c = np.asarray(c, dtype=complex)
        live = c[self.seg] != 0
        E, S = self.exps[live], self.seg[live]
        if not len(E):
            return PolyW(self.arity, {})
        re, im = _cmul(c[S], self.coeffs[live])
        first, re, im = _sum_repeated(
            np.ravel_multi_index(E.T, E.max(axis=0) + 1), re, im
        )
        return PolyW(
            self.arity,
            {tuple(e): complex(x, y) for e, x, y in zip(E[first].tolist(), re, im)},
        )

    def norm_sq(self, c: Sequence[complex]) -> float:
        c = np.asarray(c, dtype=complex)
        return float(np.real(np.conj(c) @ self.gram @ c))


def _cmul(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of u * v, rounded as Python's complex product."""
    return u.real * v.real - u.imag * v.imag, u.real * v.imag + u.imag * v.real


def _sum_repeated(code, re, im):
    """Sum the terms that share a key, each in term order, as PolyW does.

    Returns the index of each key's first term and the sums, in order of
    first appearance.
    """
    keys, first, group = np.unique(code, return_index=True, return_inverse=True)
    order = np.argsort(first)
    return (
        first[order],
        np.bincount(group, re, len(keys))[order],
        np.bincount(group, im, len(keys))[order],
    )


def _trim_terms(re, im, seg, size):
    """Mask of the terms above TRIM_REL_TOL of their element's largest, as PolyW."""
    mag = np.hypot(re, im)
    scale = np.zeros(size)
    np.maximum.at(scale, seg, mag)
    return mag > scale[seg] * TRIM_REL_TOL


def _shifted_monomials(center: tuple[complex, ...], labels: list[MultiIndex]):
    """Terms (E, C, S) of the (z - center)^alpha, alpha in labels.

    On a centered domain this is the identity.  Otherwise each element is
    expanded on a dense box of exponents one factor (z_i - c_i) at a time
    (Pascal's rule), dropping after every factor the terms at or below
    TRIM_REL_TOL of the element's largest: the rounding, the trimming and
    the term order (descending lex) are those of the PolyW product.
    """
    n = len(center)
    A = np.array(labels, dtype=int).reshape(len(labels), n)
    # PolyW drops the constant of z_i - c_i when |c_i| <= TRIM_REL_TOL
    shift = [c if abs(c) > TRIM_REL_TOL else 0j for c in center]
    if not any(shift) or not len(A):
        return A, np.ones(len(A), dtype=complex), np.arange(len(A))
    L = len(A)
    dims = tuple(A.max(axis=0) + 1)
    re = np.zeros((L,) + dims)
    im = np.zeros((L,) + dims)
    re[(slice(None),) + (0,) * n] = 1.0
    for i, c in enumerate(shift):
        ax = i + 1
        lead = (slice(None),) * ax
        for step in range(1, int(A[:, i].max()) + 1):
            rows = np.nonzero(A[:, i] >= step)[0]
            ur, ui = re[rows], im[rows]
            # u * (z_i - c_i): u shifted up along axis i, plus u * (-c_i)
            nr, ni = np.zeros_like(ur), np.zeros_like(ui)
            nr[lead + (slice(1, None),)] = ur[lead + (slice(None, -1),)]
            ni[lead + (slice(1, None),)] = ui[lead + (slice(None, -1),)]
            if c:
                vr, vi = -c.real, -c.imag
                nr += ur * vr - ui * vi
                ni += ur * vi + ui * vr
                mag = np.hypot(nr, ni)
                scale = mag.reshape(len(rows), -1).max(axis=1)
                cut = (scale * TRIM_REL_TOL).reshape((-1,) + (1,) * n)
                nr[mag <= cut] = 0.0
                ni[mag <= cut] = 0.0
            re[rows], im[rows] = nr, ni
    # C order of the box is ascending lex; read it backwards
    re = re.reshape(L, -1)[:, ::-1]
    im = im.reshape(L, -1)[:, ::-1]
    seg, pos = np.nonzero((re != 0) | (im != 0))
    E = np.stack(np.unravel_index(math.prod(dims) - 1 - pos, dims), axis=1)
    C = np.empty(len(seg), dtype=complex)
    C.real, C.imag = re[seg, pos], im[seg, pos]
    return E, C, seg


def _times_poly(g: PolyW, E, C, S, size):
    """Terms of g * b_j for every element b_j given by (E, C, S).

    Each product is summed and trimmed as the PolyW product g * b_j: terms
    in order of first appearance over (term of g, term of b_j), sums over
    the terms of g in their order.
    """
    gE = np.array(list(g.coeffs), dtype=int).reshape(len(g.coeffs), g.arity)
    gC = np.array(list(g.coeffs.values()), dtype=complex)
    T = len(gC)
    # candidate r * T + t: term t of g times term r of the basis
    cand = (E[:, None, :] + gE[None, :, :]).reshape(-1, g.arity)
    re, im = (x.ravel() for x in _cmul(gC[None, :], C[:, None]))
    seg = np.repeat(S, T)
    if len(C) == size:
        # one term per element: no key repeats, and the order is already
        # element, then term of g
        re, im = re + 0.0, im + 0.0
    else:
        # order by element, then term of g, then term of b_j
        order = np.argsort(seg * T + np.tile(np.arange(T), len(C)), kind="stable")
        cand, seg, re, im = cand[order], seg[order], re[order], im[order]
        dims = cand.max(axis=0, initial=0) + 1
        code = seg * math.prod(dims) + np.ravel_multi_index(cand.T, dims)
        first, re, im = _sum_repeated(code, re, im)
        cand, seg = cand[first], seg[first]
    keep = _trim_terms(re, im, seg, size)
    C = np.empty(int(keep.sum()), dtype=complex)
    C.real, C.imag = re[keep], im[keep]
    return cand[keep], C, seg[keep]


def _local_form(weight, domain: Polydisc):
    """(form, shift, c, radial): ``coordinate_form`` read on a polydisc.

    form is None for a weight without one.  c keeps the log exponents whose
    pole z_i = 0 is the domain center: only those exclude (z - center)^alpha
    from L^2.  radial: e^{-psi} is a product of functions of |z_i - center_i|.
    A log exponent >= 1 at a pole in the closed disc off its center leaves no
    (z - center)^alpha square integrable (quadrature would return a
    grid-dependent number): UnsupportedWeightError.
    """
    dec = coordinate_form(weight)
    if dec is None:
        return None, 0.0, [0.0] * domain.arity, False
    form, shift = dec
    c, radial = [], True
    for i, ((qi, ai, ci), center, R) in enumerate(
        zip(form, domain.center, domain.radii)
    ):
        if center == 0:
            c.append(ci)
        elif ci >= 1 and abs(center) <= R:
            raise UnsupportedWeightError(
                f"|z_{i + 1}|^(-2c) with c = {ci} >= 1 is not integrable at its"
                " pole, which lies in the disc off its center"
            )
        else:
            c.append(0.0)
            radial = radial and ci == 0
        radial = radial and (qi == 0 or ai == center)
    return form, shift, c, radial


def _radial_moment(e: float, q: float, R: float) -> float:
    """Integral of |z|^(2e - 2) exp(-q |z|^2) over the disc |z| < R.

    Equals pi Gamma(e) P(e, q R^2) / q^e (DLMF 8.2.4), and pi R^(2e) / e at
    q = 0; +inf when e <= 0.
    """
    if e <= 0:
        return math.inf
    x = q * R * R
    if x >= e:
        # past the mean of the Gamma(e) law P(e, x) > 1/2: no underflow
        return math.pi * math.exp(
            gammaln(e) + math.log(gammainc(e, x)) - e * math.log(q)
        )
    # DLMF 8.7.1: Gamma(e) P(e, x) = x^e e^{-x} sum_k x^k / (e (e+1) ... (e+k));
    # gammainc itself underflows to 0 here (P(50, 1e-6) < 1e-300)
    total, term, k = 1.0, 1.0, 0
    while term > 1e-17 * total:
        k += 1
        term *= x / (e + k)
        total += term
    return math.pi * R ** (2.0 * e) / e * math.exp(-x) * total


def radial_moments(weight, domain: Polydisc, labels) -> np.ndarray | None:
    """Diagonal Gram entries of the (z - center)^alpha, alpha in labels.

    When the weight is radial about the domain center (zero, constants,
    quadratics centered there, log-monomials with their poles at the local
    origin, and sums of these) the Gram matrix is diagonal with entries
    e^{-shift} prod_i pi Gamma(e_i) P(e_i, q_i R_i^2) / q_i^{e_i}, where
    e_i = alpha_i - c_i + 1.  Returns None for any other weight.
    """
    form, shift, c, radial = _local_form(weight, domain)
    return _moment_diagonal(domain, labels, form, c, shift) if radial else None


def _moment_diagonal(domain: Polydisc, labels, form, c, shift) -> np.ndarray:
    """The radial_moments diagonal for the q_i of a form, c and a shift."""
    labels = np.array(labels, dtype=int).reshape(len(labels), domain.arity)
    diag = np.ones(len(labels))
    for i, (R, (qi, _, _), ci) in enumerate(zip(domain.radii, form, c)):
        top = int(labels[:, i].max(initial=0))
        table = np.array([_radial_moment(k - ci + 1.0, qi, R) for k in range(top + 1)])
        diag *= table[labels[:, i]]
    return diag * math.exp(-shift)


def _radial_quadrature_axes(domain: Polydisc, quad: QuadSpec, max_deg: int):
    """Per-coordinate polar node sets (r, wr, theta)."""
    t, wt = np.polynomial.legendre.leggauss(quad.radial_nodes)
    na = max(quad.angular_nodes, 2 * max_deg + 4)
    theta = 2.0 * math.pi * np.arange(na) / na
    axes = []
    for R in domain.radii:
        a, b = quad.inner_cutoff, R
        r = 0.5 * (b - a) * t + 0.5 * (b + a)
        wr = 0.5 * (b - a) * wt
        axes.append((r, wr, theta))
    return axes


def _product_quadrature_gram(domain: Polydisc, labels, form, shift, quad):
    """Gram of the (z - center)^alpha for a weight with a per-coordinate form.

    e^{-psi} is a product over the discs, so the Gram is e^{-shift} times the
    entrywise product of the one-disc Grams M_i[alpha_i, beta_i], where
    M_i = P_i^H diag(w_i dens_i) P_i on the polar Gauss-Legendre nodes of
    disc i and P_i is the Vandermonde matrix of z_i - center_i.  A node on a
    pole contributes 0, as on the tensor path.
    """
    A = np.array(labels, dtype=int).reshape(len(labels), domain.arity)
    axes = _radial_quadrature_axes(domain, quad, int(A.max(initial=0)))
    G = np.full((len(labels), len(labels)), math.exp(-shift), dtype=complex)
    for i, ((r, wr, theta), (q, a, c), center) in enumerate(
        zip(axes, form, domain.center)
    ):
        u = (r[:, None] * np.exp(1j * theta)[None, :]).ravel()
        wts = (wr[:, None] * r[:, None] * np.ones_like(theta)[None, :]).ravel() * (
            2.0 * math.pi / len(theta)
        )
        z = u + center
        with np.errstate(divide="ignore", invalid="ignore"):
            dens = np.exp(-q * np.abs(z - a) ** 2) * np.abs(z) ** (-2.0 * c)
        dens[~np.isfinite(dens)] = 0.0
        P = np.vander(u, int(A[:, i].max(initial=0)) + 1, increasing=True)
        M = np.conj(P).T @ (P * (wts * dens)[:, None])
        G *= M[np.ix_(A[:, i], A[:, i])]
    return G


def _tensor_quadrature_gram(model: GramModel, quad: QuadSpec) -> np.ndarray:
    """Gram of the model's basis by tensor Gauss-Legendre quadrature."""
    domain, weight = model.domain, model.weight
    n = domain.arity
    d = int(model.exps.max(initial=0))
    axes = _radial_quadrature_axes(domain, quad, d)
    node_count = math.prod(len(r) * len(th) for r, _, th in axes)
    if node_count * max(model.size, 1) > 5e7:
        raise UnsupportedWeightError(
            "tensor quadrature grid too large; use a radial weight or lower degree"
        )
    # build full grids of points and weights
    grids = []
    for i, (r, wr, theta) in enumerate(axes):
        zi = (r[:, None] * np.exp(1j * theta)[None, :]).ravel()
        wi = (wr[:, None] * r[:, None] * np.ones_like(theta)[None, :]).ravel() * (
            2.0 * math.pi / len(theta)
        )
        grids.append((zi + domain.center[i], wi))
    Z = np.stack(
        np.meshgrid(*[g[0] for g in grids], indexing="ij"), axis=-1
    ).reshape(-1, n)
    W = grids[0][1]
    for g in grids[1:]:
        W = np.multiply.outer(W, g[1])
    W = W.reshape(-1)
    psi = np.array([weight.evaluate(tuple(z)) for z in Z])
    dens = np.where(np.isneginf(psi), 0.0, np.exp(-np.where(np.isneginf(psi), 0.0, psi)))
    V = np.zeros((len(Z), model.size), dtype=complex)
    for e, c, j in zip(model.exps.tolist(), model.coeffs.tolist(), model.seg):
        term = np.full(len(Z), c, dtype=complex)
        for i, ai in enumerate(e):
            if ai:
                term = term * Z[:, i] ** ai
        V[:, j] += term
    return np.conj(V).T @ (V * (W * dens)[:, None])


def assemble_gram(
    domain: Polydisc,
    weight,
    degree: int,
    quad: QuadSpec | None = None,
    method: str = "auto",
    labels: Sequence[MultiIndex] | None = None,
) -> GramModel:
    """Build a truncated weighted-Bergman model on a polydisc.

    The basis is (z - center)^alpha for alpha in labels (default: every
    |alpha| <= degree), times g for a weight 2 log|g| + rest with one c = 1
    divisor part (a log-divisor weight, or a sum with one such part): its
    Gram is that of the (z - center)^alpha under rest, which takes the
    dispatch below.  Labels whose monomial is not square integrable at a log
    pole are dropped.  method: "auto" takes the exact moments of
    ``radial_moments`` for weights radial about the domain center (zero,
    constants, centered quadratics, log-monomials with their poles at the
    local origin, and sums of these), one polar Gauss-Legendre grid per
    coordinate for every other weight with a ``coordinate_form``
    (off-center quadratics and log poles), and tensor Gauss-Legendre
    quadrature only for weights without one (the joint views of
    ``extension``); "quadrature" integrates numerically, on the
    per-coordinate grids wherever the weight has a per-coordinate form;
    "closed" forces the exact moments (UnsupportedWeightError when the
    weight is not radial, and for every divisor weight).
    """
    if degree < 0:
        raise ValueError("basis degree must be >= 0")
    if method not in ("auto", "closed", "quadrature"):
        raise ValueError(f"unknown Gram method {method!r}")
    quad = quad or QuadSpec()
    quad.validate_for(domain)
    n = domain.arity
    if labels is None:
        labels = multi_indices_upto(n, degree)
    else:
        labels = [tuple(a) for a in labels]

    divisor, rest = _divisor_split(weight)
    if divisor is not None:
        if method == "closed":
            raise UnsupportedWeightError("no closed form for divisor weights")
        if abs(divisor.c - 1.0) > 1e-12:
            raise UnsupportedWeightError(
                "factored divisor basis requires exponent c = 1"
            )
        if divisor.g.arity != n:
            raise ValueError("divisor generator arity mismatch")
        # |g b|^2 e^{-2 log|g| - rest} = |b|^2 e^{-rest}: the Gram of the
        # (z - c)^alpha under the remaining parts
        inner = _assemble(domain, rest, degree, quad, method, labels)
        E, C, S = _times_poly(
            divisor.g, inner.exps, inner.coeffs, inner.seg, inner.size
        )
        return GramModel(
            domain, weight, degree, inner.basis_labels, E, C, S, inner.gram
        )
    return _assemble(domain, weight, degree, quad, method, labels)


def _divisor_split(weight):
    """(divisor, rest) for weight = 2 log|g| + rest; (None, weight) without one.

    Nested sums are flattened; rest is ZeroWeight when nothing remains.  A sum
    with two divisor parts has no factored basis: UnsupportedWeightError.
    """
    def flat(w):
        if isinstance(w, SumWeight):
            return [q for p in w.parts for q in flat(p)]
        return [w]

    parts = flat(weight)
    divisors = [p for p in parts if isinstance(p, LogDivisorWeight)]
    if not divisors:
        return None, weight
    if len(divisors) > 1:
        raise UnsupportedWeightError(
            "a sum of two divisor weights has no factored basis"
        )
    rest = [p for p in parts if not isinstance(p, LogDivisorWeight)]
    if not rest:
        return divisors[0], ZeroWeight(weight.arity)
    return divisors[0], rest[0] if len(rest) == 1 else SumWeight(tuple(rest))


def _assemble(domain, weight, degree, quad, method, labels) -> GramModel:
    """assemble_gram for a weight without a divisor part."""
    # analytic exclusion of non-square-integrable monomials (only a log
    # exponent c_i >= 1 excludes any)
    form, shift, cvec, radial = _local_form(weight, domain)
    if any(ci >= 1 for ci in cvec):
        labels = [
            a for a in labels if all(ai - ci + 1.0 > 0 for ai, ci in zip(a, cvec))
        ]
    E, C, S = _shifted_monomials(domain.center, labels)
    model = GramModel(domain, weight, degree, labels, E, C, S, None)
    if not labels:
        model.gram = np.zeros((0, 0), dtype=complex)
        return model

    if method == "closed" and not radial:
        raise UnsupportedWeightError("closed-form moments unavailable for this weight")
    if form is None:
        model.gram = _tensor_quadrature_gram(model, quad)
    elif radial and method != "quadrature":
        diag = _moment_diagonal(domain, labels, form, cvec, shift)
        model.gram = np.diag(diag).astype(complex)
    else:
        model.gram = _product_quadrature_gram(domain, labels, form, shift, quad)
    return model


def orthonormalize(model: GramModel) -> GramModel:
    """Eigendecompose the Gram matrix and retain the numerically stable part."""
    if model.size == 0:
        model.transform = np.zeros((0, 0), dtype=complex)
        model.rank = 0
        model.eigenvalues = np.zeros(0)
        return model
    G = 0.5 * (model.gram + np.conj(model.gram).T)
    lam, V = np.linalg.eigh(G)
    lmax = float(lam[-1]) if len(lam) else 0.0
    if lmax <= 0:
        keep = np.zeros(0, dtype=bool)
    else:
        keep = lam > EIG_CUTOFF_REL * lmax
    model.eigenvalues = lam
    model.transform = V[:, keep] / np.sqrt(lam[keep])[None, :]
    model.rank = int(keep.sum())
    return model


def basis_action(model: GramModel, xi: Functional, z: Sequence[complex]) -> np.ndarray:
    """Vector of actions (xi . b_j)(z) over the stored basis, exactly."""
    if xi.arity != model.arity:
        raise ValueError("functional arity mismatch")
    return taylor_action(model.exps, model.coeffs, model.seg, model.size, xi, z)


def taylor_action(E, C, S, size: int, xi: Functional, z: Sequence[complex]):
    """Actions (xi . p_j)(z) on the polynomials p_j = sum_{S[t] = j} C[t] z^E[t].

    Uses the binomial Taylor-shift identity: for a monomial z^gamma, the
    coefficient of (z - z0)^alpha is C(gamma, alpha) z0^{gamma - alpha}.
    """
    z0 = np.asarray([complex(x) for x in z])
    u = np.zeros(size, dtype=complex)
    if len(E) == 0:
        return u
    for alpha, v in xi.coeffs.items():
        a = np.asarray(alpha, dtype=int)
        mask = np.all(E >= a[None, :], axis=1)
        if not mask.any():
            continue
        Em = E[mask]
        contrib = C[mask] * v
        for i in range(len(a)):
            k = Em[:, i] - a[i]
            # exact binomials: scipy's float comb(31, 14) is 265182524.99999997
            contrib = contrib * np.array(
                [math.comb(e, a[i]) for e in Em[:, i].tolist()], dtype=float
            )
            pw = np.where(k == 0, 1.0 + 0j, z0[i] ** np.maximum(k, 0))
            contrib = contrib * pw
        np.add.at(u, S[mask], contrib)
    return u


def _ensure_transform(model: GramModel) -> None:
    if model.transform is None:
        orthonormalize(model)


def xi_kernel(model: GramModel, xi: Functional, z: Sequence[complex]) -> float:
    """Truncated-space extremal kernel value sum_k |(xi . e_k)(z)|^2."""
    if not model.domain.contains(z, slack=1e-9):
        raise ValueError(f"evaluation point {z} outside domain")
    if model.size == 0:
        return 0.0
    _ensure_transform(model)
    u = basis_action(model, xi, z)
    a = model.transform.T @ u
    return float(np.sum(np.abs(a) ** 2))


def extremal_function(
    model: GramModel, xi: Functional, z: Sequence[complex]
) -> np.ndarray:
    """Basis coefficients of the extremal F0 attaining the kernel value."""
    _ensure_transform(model)
    if model.size == 0:
        raise KernelZeroError("model is empty; kernel is 0")
    u = basis_action(model, xi, z)
    a = model.transform.T @ u
    K = float(np.sum(np.abs(a) ** 2))
    if K <= 1e-30:
        raise KernelZeroError("kernel vanishes: functional annihilates the model")
    return model.transform @ np.conj(a)


def boundedness_constant(model: GramModel, xi: Functional, grid) -> float:
    """Optimal constant sup over the grid of the kernel values."""
    grid = list(grid)
    if not grid:
        raise ValueError("empty grid")
    return max(xi_kernel(model, xi, z) for z in grid)


def model_summary_json(model: GramModel) -> dict:
    _ensure_transform(model)
    from .family import poly_to_json

    return {
        "arity": model.arity,
        "degree": model.degree,
        "basisSize": model.size,
        "rank": model.rank,
        "eigenvalues": [float(x) for x in np.atleast_1d(model.eigenvalues)],
        "basis": [poly_to_json(b) for b in model.basis],
    }
