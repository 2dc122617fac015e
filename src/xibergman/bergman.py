"""Truncated models of weighted Bergman spaces and extremal kernels.

A GramModel holds a finite monomial (or divisor-factored) basis together
with the Gram G of the weighted inner product: its diagonal where G is
exactly diagonal (decided once, where the moments are taken), else the
p x p matrix.  After eigenvalue orthonormalization, the kernel value at z
for a functional xi is the squared norm of the vector of actions of xi on
the orthonormal basis, the extremal ratio sup |xi.f(z)|^2 / ||f||^2 on
the truncated space.  ``orthonormal_frame`` is the one orthonormalization
of a Gram, for the kernels and the extension solve of ``extension``: the
eigenvalues are those of the equilibrated Gram D^-1/2 G D^-1/2
(D = diag G), so the relative cutoff drops the nearly dependent directions
of the basis, not the elements of small norm.  Its ``Frame`` takes the
form of G: for a diagonal the kept column indices and their scales, with
no eigendecomposition and no p x p array, for a matrix the dense matrix of
``eigh``.  The frame applies itself wherever it is used (the kernels'
actions, the extremal function, the free solve of the extension), so no
caller reads its form; ``GramModel.transform`` and ``GramModel.gram`` are
the dense matrices of the frame and of G, built on request.

Every catalog weight but a divisor has a per-coordinate form
(``weights.coordinate_form``): its Gram is an entrywise product of one-disc
Grams, exact radial moments on a disc whose factor is radial about its
center and a ``weights.polar_rule`` quadrature elsewhere.  A divisor part
2 log|g| (c = 1) factors out of the basis (``weights.divisor_split``), and
the rest of the weight takes that dispatch.
A joint weight is a weight on the product domain and takes the same
dispatch: a joint divisor 2 log|g(z, w)| with c = 1, or a w-independent
weight over a divisor, gets the basis g(z, w) (z - center)^alpha (w - w0)^k,
whose Gram is that of the rest: exact moments for the joint divisor.  Only
the weights with neither form, the pair quadratic and lone divisors (fiber
or joint) with c != 1, take a tensor quadrature.

The basis is stored as coefficient arrays in the domain's local
coordinates u = z - center: exponents E (one row per term), coefficients C
and the basis element S of each term.  The monomials u^alpha are the
identity (E = labels, C = 1) on every domain, and a divisor basis
g_loc(u) u^alpha, g_loc(u) = g(u + center), takes the terms of g_loc, one
``recenter`` of g, once per element.  Every consumer moves its points
instead: the kernels evaluate at z - center and the tensor rule on the
local nodes.  ``GramModel.basis`` gives global PolyW views of the elements
only on request, and ``poly_from_coeffs`` sums them.

``TaylorShift`` is the one evaluator of functional actions, by one rule: its
``tables`` hold the action of each e_alpha on the w^e_k part of each element
at each point (the binomial Taylor shift), and a row X of functional
coefficients at point g over w acts by sum_k w^e_k (X @ U[g, k]), each
product one ordered sum over alpha (``_products``): a row's actions, and so
its kernel, are the same floats whatever rows, points or all-zero columns
share its call.
``_kernel_rows`` is the one kernel body, with ``zero_kernels`` the one zero
test of a kernel: ``kernels`` (so ``xi_kernel``, ``extremal_function`` and
``boundedness_constant``) is one call of it, the fiber kernels of
``fiberwise``, which give Psi_N of ``ideal``, one call per block of rows.
``basis_action`` and the Jensen actions of ``extension`` read ``actions``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .config import Table, integer, real
from .family import PolyW, poly_to_json
from .functional import (
    ArityMismatchError,
    Functional,
    MultiIndex,
    TaylorData,
    multi_indices_upto,
    recenter,
)
from .weights import (
    JointLogDivisor,
    LogDivisorWeight,
    Polydisc,
    UnsupportedWeightError,
    coordinate_form,
    divisor_split,
    polar_rule,
)

EIG_CUTOFF_REL = 1e-12
#: a kernel is zero when K lam_max <= KERNEL_ZERO_TOL times the squared
#: bound of its actions (see ``zero_kernels``)
KERNEL_ZERO_TOL = 1e-14
#: the ``method`` values of ``assemble_gram``
GRAM_METHODS = ("auto", "closed", "quadrature")


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


#: the key table of a ``quadrature`` object; an absent key keeps its default
QUADRATURE = Table({"radialNodes": (integer, QuadSpec.radial_nodes),
                    "angularNodes": (integer, QuadSpec.angular_nodes),
                    "innerCutoff": (real, QuadSpec.inner_cutoff)}, QuadSpec)


@dataclass
class GramModel:
    """A truncated basis, its Gram G and (once orthonormalized) its frame.

    Basis element j is the polynomial sum_t coeffs[t] u^exps[t] over the
    terms t with seg[t] == j, in the local coordinates u = z - center of the
    domain; seg is nondecreasing, so the terms of each element are
    contiguous.  Without a divisor the basis is the u^alpha themselves:
    exps = labels, coeffs = 1.  These arrays are the only representation of
    the basis: ``basis`` gives global PolyW views of the elements, in powers
    of z, on request, and ``poly_from_coeffs`` the PolyW sum of those views.
    ``orthonormalize`` sets ``frame``, the ``Frame`` that orthonormalizes
    the basis, and ``eigenvalues``, those of the equilibrated Gram.
    ``gram`` and ``transform`` are views built on each read: the p x p
    Gram, read-only, and the dense p x rank frame.
    """

    domain: Polydisc
    weight: object
    degree: int
    basis_labels: list[MultiIndex]
    exps: np.ndarray  # (terms, arity) int
    coeffs: np.ndarray  # (terms,) complex
    seg: np.ndarray  # (terms,) int
    G: np.ndarray  # the Gram: (p,), its diagonal, when exactly diagonal
    frame: Frame | None = None
    eigenvalues: np.ndarray | None = None
    quad: QuadSpec | None = None  # the rule assemble_gram was given

    @property
    def arity(self) -> int:
        return self.domain.arity

    @property
    def size(self) -> int:
        return len(self.basis_labels)

    @property
    def gram(self) -> np.ndarray:
        return gram_matrix(self.G)

    @property
    def transform(self) -> np.ndarray | None:
        """The frame as a dense p x rank matrix (None before orthonormalize)."""
        return None if self.frame is None else self.frame.dense()

    @property
    def rank(self) -> int | None:
        return None if self.frame is None else self.frame.shape[1]

    @cached_property
    def basis(self) -> tuple[PolyW, ...]:
        bounds = np.searchsorted(self.seg, np.arange(self.size + 1))
        E, C = self.exps.tolist(), self.coeffs.tolist()
        return tuple(
            self._global(
                PolyW(self.arity, {tuple(E[t]): C[t] for t in range(lo, hi)})
            )
            for lo, hi in zip(bounds[:-1], bounds[1:])
        )

    def poly_from_coeffs(self, c: Sequence[complex]) -> PolyW:
        """sum_j c_j b_j in powers of z."""
        return sum((b * complex(cj) for cj, b in zip(c, self.basis)),
                   PolyW(self.arity, {}))

    def _global(self, p: PolyW) -> PolyW:
        return _recentered(p, self.domain.center, (0j,) * self.arity)

    def norm_sq(self, c: Sequence[complex]) -> float:
        c = np.asarray(c, dtype=complex)
        cG = np.conj(c) * self.G if self.G.ndim == 1 else np.conj(c) @ self.G
        return float(np.real(cG @ c))


def gram_matrix(G: np.ndarray) -> np.ndarray:
    """A stored Gram as a read-only p x p matrix, diag(G) for a 1-D G."""
    M = np.diag(G) if G.ndim == 1 else G.view()
    M.flags.writeable = False
    return M


def _recentered(p: PolyW, old, new) -> PolyW:
    """p, in powers of z - old, in powers of z - new (``recenter``).

    The identity when the centers agree, so a centered domain keeps the
    terms of p in their order.
    """
    if tuple(old) == tuple(new):
        return p
    return PolyW(p.arity, recenter(TaylorData(tuple(old), p.coeffs), new).coeffs)


def _times_poly(g: PolyW, A: np.ndarray):
    """Terms (E, C, S) of the basis g u^alpha, one element per row alpha of A.

    g is in the basis coordinates u; element j takes the terms of g in their
    order, times u^A[j].
    """
    gE = np.array(list(g.coeffs), dtype=int).reshape(len(g.coeffs), g.arity)
    gC = np.array(list(g.coeffs.values()), dtype=complex)
    E = (A[:, None, :] + gE[None, :, :]).reshape(-1, g.arity)
    return E, np.tile(gC, len(A)), np.repeat(np.arange(len(A)), len(gC))


def _local_form(weight, domain: Polydisc):
    """(form, shift, c, exact): ``coordinate_form`` read on a polydisc.

    form is None for a weight without one.  c keeps the log exponents whose
    pole z_i = 0 is the domain center: only those exclude (z - center)^alpha
    from L^2.  exact[i]: the factor of disc i is radial about its center
    (its pole at the center or absent, its quadratic centered there or
    absent), so its one-disc Gram is the diagonal of ``_radial_moment``.  A
    log exponent >= 1 at a pole in the closed disc off its center leaves no
    (z - center)^alpha square integrable (quadrature would return a
    grid-dependent number): UnsupportedWeightError.
    """
    dec = coordinate_form(weight)
    if dec is None:
        return None, 0.0, [0.0] * domain.arity, [False] * domain.arity
    form, shift = dec
    c, exact = [], []
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
        exact.append((center == 0 or ci == 0) and (qi == 0 or ai == center))
    return form, shift, c, exact


def _refuse_divisor_zeros(weight, domain: Polydisc) -> None:
    """Refuse a lone divisor 2c log|g|, fiber or joint, that may vanish on the
    closed domain where |g|^(-2c) may not be integrable.

    Across a zero of g of multiplicity mu, |g|^(-2c) is integrable when
    c mu < 1, and mu <= deg g; where it is not, no basis element is square
    integrable and the tensor rule would return a grid-dependent number:
    UnsupportedWeightError.  So c deg g < 1 passes, and so does the
    certificate that g has no zero there: in the local coordinates
    u = z - center, the constant term dominates,
    |g_0| > sum_{beta != 0} |g_beta| R^beta.  (A c = 1 divisor takes the
    factored basis and never reaches the tensor rule.)
    """
    if not isinstance(weight, (JointLogDivisor, LogDivisorWeight)):
        return
    g = _recentered(weight.g, (0j,) * domain.arity, domain.center).coeffs
    deg = max((sum(beta) for beta, v in g.items() if v != 0), default=0)
    if weight.c * deg < 1:
        return
    bound = sum(abs(v) * math.prod(R**b for R, b in zip(domain.radii, beta))
                for beta, v in g.items() if any(beta))
    if not abs(g.get((0,) * domain.arity, 0)) > bound:
        raise UnsupportedWeightError(
            f"|g|^(-2c) with c = {weight.c} and deg g = {deg} (c deg g >= 1)"
            " may not be integrable where g vanishes, and g may vanish in the"
            " closed domain"
        )


def _radial_moment(e: float, q: float, R: float) -> float:
    """Integral of |z|^(2e - 2) exp(-q |z|^2) over the disc |z| < R.

    Equals pi Gamma(e) P(e, q R^2) / q^e (DLMF 8.2.4), and pi R^(2e) / e at
    q = 0; +inf when e <= 0 or when it overflows.  P is one series of
    positive terms (DLMF 8.7.1), free of cancellation at any x = q R^2, up
    to x = e + 9 sqrt(e) + 40; past that 1 - P(e, x) < 1e-21 for e <= 300
    and < 1.2e-19 for any e, under half an ulp, so the moment is its P = 1
    limit pi Gamma(e) / q^e.  Where pi R^(2e) overflows, or (x >= e) R^(2e)
    e^{-x} underflows, the power and the exponential are one exponential.
    """
    if e <= 0:
        return math.inf
    x = q * R * R
    try:
        if x > e + 9.0 * math.sqrt(e) + 40.0:
            return math.pi * math.exp(math.lgamma(e) - e * math.log(q))
        # DLMF 8.7.1: Gamma(e) P(e, x) = x^e e^{-x} sum_k x^k / (e (e+1) ... (e+k));
        # the terms rise while e + k < x, then fall
        total, term, k = 1.0, 1.0, 0
        while term > 1e-17 * total:
            k += 1
            term *= x / (e + k)
            total += term
        if x < e:
            try:
                m = math.pi * R ** (2.0 * e) / e * math.exp(-x) * total
            except OverflowError:  # R^(2e) alone leaves the float range
                m = math.inf
            if m < math.inf:
                return m
        # R^(2e) e^{-x} may underflow, R^(2e) or pi total / e overflow
        return math.exp(2.0 * e * math.log(R) - x
                        + math.log(math.pi * total) - math.log(e))
    except OverflowError:
        return math.inf


def radial_moments(weight, domain: Polydisc, labels) -> np.ndarray | None:
    """Diagonal Gram entries of the (z - center)^alpha, alpha in labels.

    When the weight is radial about the domain center (zero, constants,
    quadratics centered there, log-monomials with their poles at the local
    origin, and sums of these) the Gram matrix is diagonal with entries
    e^{-shift} prod_i pi Gamma(e_i) P(e_i, q_i R_i^2) / q_i^{e_i}, where
    e_i = alpha_i - c_i + 1: the ``_coordinate_gram`` of exact factors.
    Returns None for any other weight.
    """
    form, shift, c, exact = _local_form(weight, domain)
    if not all(exact):
        return None
    A = np.array(labels, dtype=int).reshape(len(labels), domain.arity)
    return _coordinate_gram(domain, A, form, c, shift, exact, None).real.copy()


def _coordinate_gram(domain: Polydisc, A, form, c, shift, exact, quad):
    """Gram of the (z - center)^alpha, alpha the rows of A, for a weight with
    a per-coordinate form.

    e^{-psi} is e^{-shift} times a product of one-disc densities, so the Gram
    is e^{-shift} times the entrywise product of the one-disc Grams
    M_i[alpha_i, beta_i].  M_i is the diagonal of ``_radial_moment`` where
    exact[i] (``_local_form``), and otherwise P_i^H diag(w_i dens_i) P_i on
    the ``polar_rule`` nodes of disc i, P_i the Vandermonde matrix of
    z_i - center_i; a node on a pole contributes 0, as on the tensor path.
    When every factor is diagonal the Gram is the diagonal product of the
    moment vectors, returned as that complex vector.  A diagonal entry that
    is not finite, or (every factor exact) underflows to 0, is outside the
    float range: UnsupportedWeightError names its monomial and the radii.
    """
    diagonal = all(exact)
    try:
        scale = math.exp(-shift)
    except OverflowError:
        scale = math.inf
    # one angular node count on every disc, from the largest exponent, as
    # the tensor rule takes it
    angular = 2 * int(A.max(initial=0)) + 4
    G = 1.0
    with np.errstate(over="ignore", under="ignore", invalid="ignore",
                     divide="ignore"):
        for i, (R, (q, a, ci), center) in enumerate(
            zip(domain.radii, form, domain.center)
        ):
            ai = A[:, i]
            top = int(ai.max(initial=0))
            if exact[i]:
                m = np.array([_radial_moment(k - c[i] + 1.0, q, R)
                              for k in range(top + 1)])[ai]
                G = G * (m if diagonal else m[:, None] * (ai[:, None] == ai))
            else:
                u, w = polar_rule(R, quad.radial_nodes,
                                  max(quad.angular_nodes, angular),
                                  quad.inner_cutoff)
                z = u + center
                dens = np.exp(-q * np.abs(z - a) ** 2) * np.abs(z) ** (-2.0 * ci)
                dens[~np.isfinite(dens)] = 0.0
                P = np.vander(u, top + 1, increasing=True)
                M = np.conj(P).T @ (P * (w * dens)[:, None])
                G = G * M[np.ix_(ai, ai)]
        G = G * scale
    diag = G if diagonal else G.diagonal().real
    bad = ~((diag > 0) & (diag < math.inf)) if diagonal else ~np.isfinite(diag)
    if bad.any():
        alpha = tuple(A[np.argmax(bad)].tolist())
        raise UnsupportedWeightError(
            f"the Gram moment of (z - center)^{alpha} (degree {sum(alpha)}) on"
            f" radii {domain.radii} is {diag[bad][0]}, outside the float range:"
            " lower the degree"
        )
    return G.astype(complex, copy=False)


def _tensor_quadrature_gram(model: GramModel, quad: QuadSpec) -> np.ndarray:
    """Gram of the model's basis by tensor Gauss-Legendre quadrature."""
    domain, weight = model.domain, model.weight
    n = domain.arity
    na = max(quad.angular_nodes, 2 * int(model.exps.max(initial=0)) + 4)
    if (quad.radial_nodes * na) ** n * max(model.size, 1) > 5e7:
        raise UnsupportedWeightError(
            "tensor quadrature grid too large; use a radial weight or lower degree"
        )
    # full grids of local nodes u = z - center and of their weights
    grids = [polar_rule(R, quad.radial_nodes, na, quad.inner_cutoff)
             for R in domain.radii]
    U = np.stack(
        np.meshgrid(*[g[0] for g in grids], indexing="ij"), axis=-1
    ).reshape(-1, n)
    W = grids[0][1]
    for g in grids[1:]:
        W = np.multiply.outer(W, g[1])
    W = W.reshape(-1)
    psi = np.array([weight.evaluate(tuple(z)) for z in U + np.array(domain.center)])
    dens = np.where(np.isneginf(psi), 0.0, np.exp(-np.where(np.isneginf(psi), 0.0, psi)))
    V = np.zeros((len(U), model.size), dtype=complex)
    for e, c, j in zip(model.exps.tolist(), model.coeffs.tolist(), model.seg):
        term = np.full(len(U), c, dtype=complex)
        for i, ai in enumerate(e):
            if ai:
                term = term * U[:, i] ** ai
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
    |alpha| <= degree), times g for a weight 2 log|g| + rest that
    ``weights.divisor_split`` splits (a c = 1 divisor, a sum with one such
    part, a c = 1 joint divisor, or a w-independent weight over one): its
    Gram is that of the (z - center)^alpha under rest, which takes the
    dispatch below.  Labels whose monomial is not square integrable at a log
    pole are dropped.  method: "auto" takes, for every weight with a
    ``coordinate_form``, the per-coordinate Gram of ``_coordinate_gram``:
    exact moments on each disc whose factor is radial about its center (its
    quadratic centered there or absent, its log pole at the center or
    absent), so the diagonal ``radial_moments`` for a weight radial about the
    domain center, and the ``polar_rule`` quadrature on every other disc
    (off-center quadratics and log poles); tensor Gauss-Legendre quadrature
    only for weights without one (the pair quadratic and lone divisors with
    c != 1, fiber or joint).  "quadrature", or a nonzero ``inner_cutoff``
    (it removes |z_i - center_i| < inner_cutoff), takes the polar rule on
    every disc; "closed" forces the exact moments (UnsupportedWeightError
    when a factor is not radial, for a cutoff and for every divisor weight).
    """
    if degree < 0:
        raise ValueError("basis degree must be >= 0")
    if method not in GRAM_METHODS:
        raise ValueError(f"unknown Gram method {method!r}")
    quad = quad or QuadSpec()
    quad.validate_for(domain)
    n = domain.arity
    if weight.arity != n:
        raise ArityMismatchError(
            f"weight arity {weight.arity} does not match the domain arity {n}"
        )
    if labels is None:
        labels = multi_indices_upto(n, degree)
    else:
        labels = [tuple(a) for a in labels]

    divisor, rest = divisor_split(weight)
    if divisor is not None:
        if method == "closed":
            raise UnsupportedWeightError("no closed form for divisor weights")
        # |g b|^2 e^{-2 log|g| - rest} = |b|^2 e^{-rest}: the Gram of the
        # (z - c)^alpha under the remaining parts
        inner = _assemble(domain, rest, degree, quad, method, labels)
        g = _recentered(divisor.g, (0j,) * n, domain.center)
        E, C, S = _times_poly(g, inner.exps)
        model = GramModel(domain, weight, degree, inner.basis_labels, E, C, S,
                          inner.G)
    else:
        model = _assemble(domain, weight, degree, quad, method, labels)
    model.quad = quad
    return model


def _assemble(domain, weight, degree, quad, method, labels) -> GramModel:
    """assemble_gram for a weight without a divisor part."""
    # analytic exclusion of non-square-integrable monomials (only a log
    # exponent c_i >= 1 excludes any)
    form, shift, cvec, exact = _local_form(weight, domain)
    if any(ci >= 1 for ci in cvec):
        labels = [
            a for a in labels if all(ai - ci + 1.0 > 0 for ai, ci in zip(a, cvec))
        ]
    E = np.array(labels, dtype=int).reshape(len(labels), domain.arity)
    model = GramModel(domain, weight, degree, labels, E,
                      np.ones(len(E), dtype=complex), np.arange(len(E)), None)
    if not labels:
        model.G = np.zeros(0, dtype=complex)
        return model

    if method == "quadrature" or quad.inner_cutoff:
        exact = [False] * domain.arity  # the cutoff's annulus on every disc
    if method == "closed" and not all(exact):
        raise UnsupportedWeightError("no closed form for this weight or inner cutoff")
    if form is None:
        _refuse_divisor_zeros(weight, domain)
        model.G = _tensor_quadrature_gram(model, quad)
    else:
        model.G = _coordinate_gram(domain, E, form, cvec, shift, exact, quad)
    return model


class Frame:
    """An orthonormal frame T of a Gram's basis (``orthonormal_frame``), p x
    rank, in one of two forms that apply themselves alike:

    - dense: ``T`` is the matrix itself (``cols`` None);
    - scaled columns of the identity, for a Gram stored as its diagonal:
      T[cols[k], k] = T[k], the one nonzero of column k, and no p x p array.

    ``act``, ``coefficients`` and ``solve`` are every use of the frame, so no
    caller reads its form, and ``dense`` gives the matrix on request.  It
    also keeps the constants of ``zero_kernels``: the largest eigenvalue
    lam_max of s G s (0 when there is none) and the scales s = diag G^-1/2
    (0 where diag G <= 0), finite for every positive float on the diagonal,
    where 1 / diag G overflows on a subnormal one.
    """

    __slots__ = ("T", "cols", "size", "lam_max", "s")

    def __init__(self, T: np.ndarray, cols: np.ndarray | None, s: np.ndarray,
                 lam_max: float):
        self.T, self.cols, self.size = T, cols, len(s)
        self.lam_max, self.s = lam_max, s

    @property
    def shape(self) -> tuple[int, int]:
        return self.size, self.T.shape[-1]

    def act(self, u: np.ndarray) -> np.ndarray:
        """u @ T for rows u over the basis: their actions on the frame, C
        ordered as the product is, so that the kernels' row sums round alike
        (``u[:, cols]`` comes Fortran ordered)."""
        if self.cols is None:
            return _matmul(u, self.T)
        return u.take(self.cols, axis=1) * self.T

    def coefficients(self, a: np.ndarray) -> np.ndarray:
        """T @ a: the basis coefficients of sum_k a_k e_k."""
        if self.cols is None:
            return self.T @ a
        c = np.zeros(self.size, dtype=np.result_type(a, complex))
        c[self.cols] = self.T * a
        return c

    def solve(self, r: np.ndarray) -> np.ndarray:
        """T (T^H r): the pseudo-inverse of the Gram, under the frame's
        cutoff, applied to r."""
        if self.cols is None:
            return self.T @ (np.conj(self.T).T @ r)
        return self.coefficients(self.T * r[self.cols])

    def dense(self) -> np.ndarray:
        """T as a p x rank complex matrix."""
        if self.cols is None:
            return self.T
        T = np.zeros(self.shape, dtype=complex)
        T[self.cols, np.arange(len(self.cols))] = self.T
        return T


def orthonormal_frame(G: np.ndarray):
    """(frame, lam): the ``Frame`` T orthonormalizes the basis of the Gram G,
    on its Hermitian part H, and lam holds the eigenvalues of the
    equilibrated s H s, ascending, s = D^-1/2 (D = diag G, s = 0 where
    D <= 0).  A 1-D G is the diagonal of an exactly diagonal Gram; a
    p x p G always takes ``eigh``, whatever its entries.

    The one eigendecomposition of a Gram matrix: ``orthonormalize`` and the
    Schur solve of ``extension`` read it.  With s H s = V diag(lam) V^H,
    T = s V / sqrt(lam) on the kept pairs, lam > EIG_CUTOFF_REL lam_max
    (none when lam_max <= 0), so T^H G T = I and T T^H is the pseudo-inverse
    of G with the dropped directions removed: lstsq's rcond on the PSD
    s H s, in the coordinates y / s.  The cutoff is taken on s H s, so that
    elements whose norms span more than 1 / EIG_CUTOFF_REL, each well
    conditioned (pi R^(2k + 2) / (k + 1) over k <= 40 on a disc of radius
    2), are all kept: it drops the nearly dependent directions of the
    basis, not the elements of small norm.  For a 1-D G, its own Hermitian
    part, lam is the equilibrated diagonal s_j^2 D_j, sorted, and the frame
    keeps, in that order, the column indices j of the kept entries and their
    scales s_j / sqrt(lam), the one nonzero of each column of T, with no
    p x p array.  Tied eigenvalues may then come in another order than
    ``eigh`` gives them.
    """
    diagonal = G.ndim == 1
    H = G if diagonal else 0.5 * (G + np.conj(G).T)
    d = (H if diagonal else H.diagonal()).real.copy()
    s = np.zeros(len(d))
    s[d > 0] = 1.0 / np.sqrt(d[d > 0])
    if diagonal:
        # (s d) s and s (1 / sqrt(lam)) round as the entries of the dense
        # s H s and s V / sqrt(lam) do (numpy's complex quotient)
        e = s * d * s
        order = np.argsort(e, kind="stable")
        lam = e[order]
    else:
        lam, V = np.linalg.eigh(s[:, None] * H * s)
    lmax = float(lam[-1]) if len(lam) else 0.0
    keep = lam > max(EIG_CUTOFF_REL * lmax, 0.0)
    if diagonal:
        cols = order[keep]
        T = s[cols] * (1.0 / np.sqrt(lam[keep]))
    else:
        cols, T = None, s[:, None] * V[:, keep] / np.sqrt(lam[keep])
    return Frame(T, cols, s, lmax), lam


def orthonormalize(model: GramModel) -> GramModel:
    """Orthonormalize the basis on the Hermitian part of its Gram
    (``orthonormal_frame``): ``frame`` holds the frame, ``eigenvalues``
    those of the equilibrated Gram, which do not move under psi -> psi + c,
    and ``rank`` (the frame's column count) the number of kept directions.
    """
    model.frame, model.eigenvalues = orthonormal_frame(model.G)
    return model


def basis_action(model: GramModel, xi: Functional, z: Sequence[complex]) -> np.ndarray:
    """Vector of actions (xi . b_j)(z) over the stored basis, exactly."""
    alphas, X = _functional_row(model, xi)
    shift = TaylorShift(alphas, model.exps, model.coeffs, model.seg, model.arity,
                        model.size)
    U = _rows(z, model.arity) - np.array(model.domain.center)
    return shift.actions(X, shift.tables(shift.z_factors(U), len(U)))[0]


def _functional_row(model: GramModel, xi: Functional):
    """The alphas of xi and its coefficients over them, as one row."""
    if xi.arity != model.arity:
        raise ValueError("functional arity mismatch")
    return list(xi.coeffs), [list(xi.coeffs.values())]


def _rows(x, arity: int) -> np.ndarray:
    """Points as (P, arity) complex rows; a scalar or a 1-D sequence is one."""
    a = np.asarray(x, dtype=complex)
    if a.ndim < 2:
        a = a.reshape(1, -1)
    if a.ndim != 2 or a.shape[1] != arity:
        raise ArityMismatchError(
            f"points of arity {arity} expected, got shape {np.shape(x)}"
        )
    return a


def _points_in(domain: Polydisc, x, what: str) -> np.ndarray:
    """x as (P, arity) rows (``_rows``); ValueError names the first point
    outside the domain."""
    P = _rows(x, domain.arity)
    outside = ~domain.contains(P)
    if outside.any():
        raise ValueError(f"{what} {tuple(P[outside][0])} outside domain")
    return P


class TaylorShift:
    """Actions of functionals sum_alpha X_alpha e_alpha on the basis
    b_j = sum_{S[t] = j} C[t] u^Ez[t] w^Ew[t], at batches of points.

    u is the coordinate the terms are written in, z - center for a model's
    basis, and the points are given in it.  E holds the exponents (Ez, Ew)
    of each term; a model's terms have no Ew.  S may list the elements in
    any order, and an element may have no term.  For a monomial u^gamma the
    coefficient of (u - u0)^alpha is C(gamma, alpha) u0^(gamma - alpha), so
    the action of e_alpha on b_j at (u0, w) is the sum over the terms t of
    b_j of C[t] C(gamma_t, alpha) u0^(gamma_t - alpha) w^Ew[t].  A functional
    is a row X of coefficients over the alphas (a family's values
    xi_alpha(w)).

    ``tables`` sums the terms per point and per w-monomial w^e_k, k the
    mixed-radix index of e_k on the dense grid up to ``wtop`` (k = 0 alone
    without Ew terms), and ``actions`` applies the one rule to them.
    """

    def __init__(self, alphas, E, C, S, n: int, size: int):
        self.Ez, self.Ew, self.S = E[:, :n], E[:, n:], S
        self.ztop = self.Ez.max(axis=0, initial=0)
        self.wtop = self.Ew.max(axis=0, initial=0)
        self.size = size
        self.monomials = math.prod(int(top) + 1 for top in self.wtop)
        self.monomial = np.zeros(len(S), dtype=np.intp)  # k of each term
        for i, top in enumerate(self.wtop):
            self.monomial = self.monomial * (top + 1) + self.Ew[:, i]
        # per alpha: C[t] C(gamma_t, alpha), and the exponents gamma_t - alpha
        self.shifts = []
        for alpha in alphas:
            coef = C.copy()
            for i, a in enumerate(alpha):
                coef *= _binomials(int(self.ztop[i]), a)[self.Ez[:, i]]
            self.shifts.append((coef, np.maximum(self.Ez - np.array(alpha), 0)))

    def z_factors(self, Z: np.ndarray) -> list[np.ndarray]:
        """Per alpha, C[t] C(gamma_t, alpha) u^(gamma_t - alpha): rows of Z x terms.
        Each product is of two arrays of its shape: numpy rounds a complex
        product of one element otherwise when broadcast or in place."""
        tables = [np.vander(Z[:, i], top + 1, increasing=True)
                  for i, top in enumerate(self.ztop)]
        out = []
        for coef, k in self.shifts:
            f = coef[None, :] * tables[0][:, k[:, 0]]
            for i in range(1, len(tables)):
                f = f * tables[i][:, k[:, i]]
            out.append(f)
        return out

    def tables(self, zf, count: int) -> np.ndarray:
        """U[g, k, alpha, j]: the action of e_alpha on the w^e_k part of b_j at
        point g of the ``count`` points whose z-factors are ``zf``, summed
        over the terms in their order; real when zf is (``zero_kernels``)."""
        f = np.stack(zf, axis=1) if zf else np.zeros((count, 0, len(self.S)))
        K, A = self.monomials, f.shape[1]
        # f[g, alpha, t] adds into U[g, k_t, alpha, S_t]
        bins = (((np.arange(count)[:, None, None] * K + self.monomial) * A
                 + np.arange(A)[:, None]) * self.size + self.S).ravel()
        U = np.empty((count, K, A, self.size), dtype=f.dtype)
        for part, into in ([(f.real, U.real), (f.imag, U.imag)]
                           if np.iscomplexobj(f) else [(f, U)]):
            into[...] = np.bincount(bins, part.ravel(), U.size).reshape(U.shape)
        return U

    def actions(self, X, U, W=None, at=None) -> np.ndarray:
        """u[p, j] = (xi_p . b_j) = sum_k w_p^e_k (X[p] @ U[at[p], k]) per row p
        of X, U the ``tables`` (at None: every row at the first point) and W
        the base points, read only with Ew terms; real when X, U and W are."""
        X = np.asarray(X)
        if at is None:
            at = np.zeros(len(X), dtype=np.intp)
        u = _products(X, U[:, 0], at)
        if self.monomials > 1:
            powers = np.ones((len(W), 1), dtype=W.dtype)
            for i, top in enumerate(self.wtop):
                wi = np.vander(W[:, i], top + 1, increasing=True)
                powers = (powers[:, :, None] * wi[:, None, :]).reshape(len(W), -1)
            for k in range(1, self.monomials):  # x w: numpy rounds w x otherwise
                u += _products(X, U[:, k], at) * powers[:, k, None]
        return u


@lru_cache(maxsize=256)
def _binomials(top: int, a: int) -> np.ndarray:
    """C(e, a) for e <= top, as floats of the exact binomials (a float
    formula can give 265182524.99999997 for C(31, 14)).  Computed once per
    (top, a): the array is shared, so it is read-only."""
    b = np.array([math.comb(e, a) for e in range(top + 1)], dtype=float)
    b.flags.writeable = False
    return b


def _matmul(X: np.ndarray, M: np.ndarray) -> np.ndarray:
    """X @ M; BLAS rounds a one-row product otherwise, so it takes two."""
    return X @ M if len(X) != 1 else (np.repeat(X, 2, axis=0) @ M)[:1]


def _products(X: np.ndarray, U0: np.ndarray, at: np.ndarray) -> np.ndarray:
    """u[p] = sum_alpha X[p, alpha] U0[at[p], alpha], summed in alpha order
    by elementwise products and adds on the gathered rows U0[at, alpha]: the
    one product behind every action.  A row's sum is the same floats
    whatever rows, points or all-zero columns share its call (a zero term
    adds a signed zero); a matrix product rounds by its batch shape, and
    numpy rounds a product against a row broadcast down the batch otherwise
    than against a full array."""
    dtype = np.result_type(X, U0)
    X = X.astype(dtype, copy=False)
    u = np.zeros((len(X), U0.shape[2]), dtype=dtype)
    for a in range(X.shape[1]):
        u += X[:, a, None] * U0[at, a]
    return u


def zero_kernels(model: GramModel, shift: TaylorShift, K, X, zf, W=None,
                 at=None) -> np.ndarray:
    """The mask of the kernels K that vanish: the one zero test of a kernel,
    K lam_max <= KERNEL_ZERO_TOL ||s r||^2.

    K[p] is the kernel of row p of X at its point, from ``shift.actions(X,
    shift.tables(zf, ...), W, at)`` on a basis whose Gram is that of model,
    orthonormalized by model's frame: the model's own basis, or that
    basis times a divisor g(z, w) (``fiberwise``), whose Gram is the same.
    lam_max is the largest eigenvalue of the equilibrated Gram s G s
    (``orthonormal_frame``), s = D^-1/2; both are read from the frame, built
    once per model.  r bounds the actions u
    on the basis: the actions of max_alpha |X[p, alpha]| on every alpha with
    X[p, alpha] != 0, over the moduli of the terms' z-factors and of w, so
    |u[p, j]| <= r[p, j] for every functional whose coefficients are at most
    those of row p in modulus and vanish where row p does.  Both sides
    scale as |xi|^2, and neither moves under psi -> psi + c, which scales K
    and s^2 by e^c and leaves lam_max.  K lam_max is at least the squared
    norm of s u on the kept eigenvectors, so only actions that vanish, or
    sit at the rounding noise of the coefficients of xi and of the basis,
    pass.  r is first taken on every alpha, at the largest modulus of each
    z-factor and |w_i| of the call, where it is termwise at least that of
    every row; the rows this bound does not clear take their own, by the
    one action rule on the ``tables`` of the moduli.
    """
    lam_max, s = model.frame.lam_max, model.frame.s
    X = np.asarray(X)
    top2 = np.abs(X).max(axis=1, initial=0.0) ** 2

    def vanish(rows, r):
        bound = np.square(r * s).sum(axis=-1)
        return K[rows] * lam_max <= KERNEL_ZERO_TOL * bound * top2[rows]

    peak = sum((np.abs(f).max(axis=0) for f in zf), np.zeros(len(shift.S)))
    if shift.wtop.any():
        peak *= np.prod(np.abs(W).max(axis=0, initial=0.0) ** shift.Ew, axis=1)
    zero = vanish(slice(None), np.bincount(shift.S, peak, shift.size))
    rows = np.flatnonzero(zero & (K > 0)) if zero.any() else ()
    if len(rows):  # K = 0 vanishes under any r; K > 0 takes an alpha
        moduli = [np.abs(f) for f in zf]
        zero[rows] = vanish(rows, shift.actions(
            (X[rows] != 0).astype(float), shift.tables(moduli, len(moduli[0])),
            None if W is None else np.abs(W[rows]), None if at is None else at[rows]))
    return zero


def _distinct(U: np.ndarray, count: int):
    """The distinct rows of U (one, or count), and each row's index among them."""
    if len(U) == 1:
        return U, np.zeros(count, dtype=np.intp)
    U = np.ascontiguousarray(U)
    keys = U.view(np.dtype((np.void, U.itemsize * U.shape[1]))).ravel()
    _, first, at = np.unique(keys, return_index=True, return_inverse=True)
    return U[first], at


def _kernel_rows(model: GramModel, shift: TaylorShift, X, U, W=None):
    """The kernel body: (K, a, zero) of the rows of X, as ``kernels`` gives
    them, on the basis shift acts on, at the points U in its coordinate (one,
    or one per row) over the base points W; its arrays are those of the
    rows and the ``tables`` of their distinct points (``_distinct``)."""
    points, at = _distinct(U, len(X))
    zf = shift.z_factors(points)
    a = model.frame.act(shift.actions(X, shift.tables(zf, len(points)), W, at))
    K = np.sum(a.real**2 + a.imag**2, axis=1)
    return K, a, zero_kernels(model, shift, K, X, zf, W, at)


def kernels(model: GramModel, alphas, X, z):
    """Kernels of the functionals sum_alpha X[p, alpha] e_alpha at z.

    z is one point, shared by every row of X, or one point per row.  Returns
    K[p] = sum_k |a[p, k]|^2, the actions a[p, k] = (xi_p . e_k)(z_p) on the
    orthonormal basis e = b T (T the model's ``Frame``), and the mask of the
    kernels that vanish (``zero_kernels``): one ``_kernel_rows`` call, the
    fiber kernels' body, at z - center.  Another point count, or a point outside the
    domain, raises ValueError.
    """
    Z = _points_in(model.domain, z, "evaluation point")
    if len(Z) not in (1, len(X)):
        raise ValueError(f"{len(X)} functionals but {len(Z)} evaluation points")
    if model.frame is None:
        orthonormalize(model)
    shift = TaylorShift(alphas, model.exps, model.coeffs, model.seg, model.arity,
                        model.size)
    return _kernel_rows(model, shift, X, Z - np.array(model.domain.center))


def xi_kernel(model: GramModel, xi: Functional, z: Sequence[complex]) -> float:
    """Truncated-space extremal kernel value sum_k |(xi . e_k)(z)|^2, and 0
    where ``zero_kernels`` finds it vanishing, as the fiber kernels read it."""
    K, _, zero = kernels(model, *_functional_row(model, xi), z)
    return 0.0 if zero[0] else float(K[0])


def extremal_function(
    model: GramModel, xi: Functional, z: Sequence[complex]
) -> np.ndarray:
    """Basis coefficients of the extremal F0 attaining the kernel value."""
    _, a, zero = kernels(model, *_functional_row(model, xi), z)
    if zero[0]:
        raise KernelZeroError("kernel vanishes: functional annihilates the model")
    return model.frame.coefficients(np.conj(a[0]))


def boundedness_constant(model: GramModel, xi: Functional, grid) -> float:
    """Optimal constant sup over the grid of the kernel values."""
    grid = list(grid)
    if not grid:
        raise ValueError("empty grid")
    alphas, X = _functional_row(model, xi)
    return float(kernels(model, alphas, X * len(grid), grid)[0].max())


def model_summary_json(model: GramModel) -> dict:
    if model.frame is None:
        orthonormalize(model)
    return {
        "arity": model.arity,
        "degree": model.degree,
        "basisSize": model.size,
        "rank": model.rank,
        "eigenvalues": [float(x) for x in np.atleast_1d(model.eigenvalues)],
        "basis": [poly_to_json(b) for b in model.basis],
    }
