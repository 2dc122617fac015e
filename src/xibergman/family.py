"""Holomorphic functional-valued families with polynomial dependence.

``TermMatrix`` holds a matrix of polynomials in w as one coefficient array
and evaluates it at a batch of base points, adding each entry's terms in
exponent order, so an entry rounds alike whatever points share the call.  A
family is one row of it, a column per alpha; holomorphy is automatic.
PolyW, a sparse multivariate polynomial, serves the JSON edge, the exact
algebra of joint polynomials and per-point reference checks.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

from .config import Table, coefficients, integer, terms
from .functional import (
    TRIM_REL_TOL,
    ArityMismatchError,
    Functional,
    MultiIndex,
    _check_keys,
    _trim,
    grlex_key,
)

#: two polynomials are considered identical when coefficients agree within
#: this absolute tolerance after scaling by the largest coefficient
POLY_ID_TOL = 1e-10


@dataclass
class PolyW:
    """Sparse polynomial in ``arity`` complex variables."""

    arity: int
    coeffs: dict[MultiIndex, complex] = field(default_factory=dict)

    def __post_init__(self):
        _check_keys(self.arity, self.coeffs)
        self.coeffs = _trim(self.coeffs)

    def __hash__(self) -> int:
        # agrees with the dataclass __eq__; nothing mutates a PolyW once built
        return hash((self.arity, frozenset(self.coeffs.items())))

    # -- constructors --------------------------------------------------

    @staticmethod
    def constant(c: complex, arity: int) -> "PolyW":
        return PolyW(arity, {(0,) * arity: complex(c)})

    @staticmethod
    def monomial(exponents: MultiIndex, c: complex = 1.0) -> "PolyW":
        return PolyW(len(exponents), {tuple(exponents): complex(c)})

    @staticmethod
    def variable(i: int, arity: int) -> "PolyW":
        e = [0] * arity
        e[i] = 1
        return PolyW(arity, {tuple(e): 1.0 + 0.0j})

    # -- queries ---------------------------------------------------------

    @property
    def degree(self) -> float:
        if not self.coeffs:
            return -math.inf
        return max(sum(a) for a in self.coeffs)

    def is_zero(self, rel_scale: float = 1.0) -> bool:
        if not self.coeffs:
            return True
        return max(abs(v) for v in self.coeffs.values()) <= POLY_ID_TOL * max(
            1.0, rel_scale
        )

    def max_coeff(self) -> float:
        return max((abs(v) for v in self.coeffs.values()), default=0.0)

    def evaluate(self, w: Sequence[complex]) -> complex:
        if len(w) != self.arity:
            raise ArityMismatchError("evaluation point arity mismatch")
        total = 0.0 + 0.0j
        for alpha, c in self.coeffs.items():
            term = c
            for wi, ai in zip(w, alpha):
                term *= wi**ai
            total += term
        return total

    def items_grlex(self):
        return sorted(self.coeffs.items(), key=lambda kv: grlex_key(kv[0]))

    # -- exact arithmetic -------------------------------------------------

    def __add__(self, other: "PolyW") -> "PolyW":
        if self.arity != other.arity:
            raise ArityMismatchError("polynomial arities differ")
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0.0) + v
        return PolyW(self.arity, out)

    def __sub__(self, other: "PolyW") -> "PolyW":
        return self + (-1.0) * other

    def __mul__(self, other):
        if isinstance(other, PolyW):
            if self.arity != other.arity:
                raise ArityMismatchError("polynomial arities differ")
            out: dict[MultiIndex, complex] = {}
            for a, u in self.coeffs.items():
                for b, v in other.coeffs.items():
                    k = tuple(ai + bi for ai, bi in zip(a, b))
                    out[k] = out.get(k, 0.0) + u * v
            return PolyW(self.arity, out)
        return PolyW(self.arity, {k: other * v for k, v in self.coeffs.items()})

    __rmul__ = __mul__

    def __neg__(self) -> "PolyW":
        return (-1.0) * self

    def equals(self, other: "PolyW") -> bool:
        diff = self - other
        scale = max(self.max_coeff(), other.max_coeff(), 1.0)
        return diff.is_zero(rel_scale=scale)


def poly_to_json(p: PolyW) -> list[dict]:
    return [
        {"beta": list(a), "re": v.real, "im": v.imag} for a, v in p.items_grlex()
    ]


#: the reader of a polynomial's terms {beta, re, im}, to {beta: complex}
POLY_TERMS = coefficients("beta")
#: the key table of a polynomial: its arity and its terms
POLY = Table({"arity": integer, "terms": POLY_TERMS}, PolyW)


def poly_from_json(terms: list[dict], arity: int) -> PolyW:
    return PolyW(arity, POLY_TERMS(terms))


@dataclass(frozen=True)
class TermMatrix:
    """A matrix of polynomials in w held as one coefficient array.

    Entry (i, j) is sum_t coef[t, i, j] w^exps[t].  The exponents are
    distinct, in lexicographic order, and each has a nonzero coefficient.
    """

    exps: np.ndarray  # monomials x m, int64
    coef: np.ndarray  # monomials x rows x cols, complex

    @property
    def shape(self) -> tuple[int, int]:
        return self.coef.shape[1:]

    def take(self, rows: Sequence[int], cols: Sequence[int]) -> "TermMatrix":
        """The block of the given rows and columns, in that order."""
        return _live(self.exps, self.coef[:, rows][:, :, cols])

    def max_coeff(self) -> float:
        # np.hypot is Python's abs(complex), which PolyW.max_coeff takes
        return float(np.hypot(self.coef.real, self.coef.imag).max(initial=0.0))

    def values(self, W) -> np.ndarray:
        """The matrix at each base point (row of W): points x rows x cols."""
        W = np.asarray(W, dtype=complex).reshape(-1, self.exps.shape[1])
        flat = self.coef.reshape(len(self.coef), math.prod(self.shape))
        # einsum, not BLAS: it adds the terms in exponent order with plain
        # multiplies and adds, as PolyW.evaluate does in one base variable,
        # so an entry gets the same bits whatever points share the call; the
        # column-pivoted QR in ``ideal.annihilator`` breaks exact ties
        # between shifted columns by those bits
        powers = np.prod(W[:, None, :] ** self.exps[None, :, :], axis=2)
        V = np.einsum("pt,tk->pk", powers, flat)
        return V.reshape(len(W), *self.shape)

    def trimmed(self) -> "TermMatrix":
        """Each entry without its coefficients at or below TRIM_REL_TOL times
        its largest, the trim PolyW applies to a polynomial."""
        mod = np.hypot(self.coef.real, self.coef.imag)
        keep = mod > TRIM_REL_TOL * mod.max(axis=0, initial=0.0)
        return _live(self.exps, np.where(keep, self.coef, 0))

    def __matmul__(self, other: "TermMatrix") -> "TermMatrix":
        """The product of polynomial matrices, untrimmed: the exponents add
        pairwise, the coefficient blocks multiply, and the products of equal
        exponent are summed."""
        m = self.exps.shape[1]
        exps = (self.exps[:, None] + other.exps[None]).reshape(-1, m)
        blocks = self.coef[:, None] @ other.coef[None]
        uniq, inv = np.unique(exps, axis=0, return_inverse=True)
        coef = np.zeros((len(uniq), self.shape[0], other.shape[1]), dtype=complex)
        np.add.at(coef, inv.reshape(-1), blocks.reshape(len(exps), *coef.shape[1:]))
        return _live(uniq, coef)

    def polys(self) -> list[list[PolyW]]:
        """The entries as PolyW, for output."""
        E = [tuple(e) for e in self.exps.tolist()]
        rows, cols = self.shape
        out: list[list[dict]] = [[{} for _ in range(cols)] for _ in range(rows)]
        for t, i, j in zip(*np.nonzero(self.coef)):
            out[i][j][E[t]] = complex(self.coef[t, i, j])
        return [[PolyW(self.exps.shape[1], d) for d in row] for row in out]


def _live(exps: np.ndarray, coef: np.ndarray) -> TermMatrix:
    """The matrix of the monomials that have a nonzero coefficient."""
    live = coef.any(axis=(1, 2))
    return TermMatrix(exps[live], coef[live])


def _terms_to_json(M: TermMatrix) -> list[list[list[dict]]]:
    """The entries of M as ``poly_to_json`` writes them as PolyW: the terms
    above TRIM_REL_TOL times the entry's largest, in grlex order, read from
    the coefficient array."""
    T = M.trimmed()
    rows, cols = T.shape
    order = np.lexsort((*T.exps.T[::-1], T.exps.sum(axis=1)))  # grlex_key
    coef = T.coef[order]
    t, i, j = np.nonzero(coef)  # each entry gets its terms in grlex order
    vals = coef[t, i, j]
    betas = T.exps[order].tolist()
    out = [[[] for _ in range(cols)] for _ in range(rows)]
    for a, b, c, re, im in zip(i.tolist(), j.tolist(), t.tolist(),
                               vals.real.tolist(), vals.imag.tolist()):
        out[a][b].append({"beta": list(betas[c]), "re": re, "im": im})
    return out


class FunctionalFamily:
    """Map alpha -> polynomial-in-w coefficient; holomorphic by construction.

    Built from {alpha: PolyW}, it holds the alphas in the given order and a
    one-row ``TermMatrix`` (``matrix``) with a column per alpha; ``terms``
    is a read-only view of the columns as PolyW.
    """

    def __init__(self, z_arity: int, w_arity: int,
                 terms: Mapping[MultiIndex, PolyW] | None = None):
        terms = terms or {}
        for alpha, p in terms.items():
            if len(alpha) != z_arity:
                raise ArityMismatchError(f"term index {alpha} has wrong arity")
            if p.arity != w_arity:
                raise ArityMismatchError(f"coefficient of {alpha} has wrong w-arity")
        exps = sorted({b for p in terms.values() for b in p.coeffs})
        coef = [[p.coeffs.get(b, 0j) for p in terms.values()] for b in exps]
        self.z_arity, self.w_arity, self.alphas = z_arity, w_arity, tuple(terms)
        self.matrix = TermMatrix(
            np.array(exps, dtype=np.int64).reshape(len(exps), w_arity),
            np.array(coef, dtype=complex).reshape(len(exps), 1, len(terms)),
        )

    @classmethod
    def from_matrix(cls, z_arity: int, alphas, matrix: TermMatrix) -> "FunctionalFamily":
        """The family whose coefficient of alphas[j] is column j of matrix."""
        fam = cls(z_arity, matrix.exps.shape[1])
        fam.alphas, fam.matrix = tuple(alphas), matrix
        return fam

    @property
    def terms(self) -> Mapping[MultiIndex, PolyW]:
        return MappingProxyType(dict(zip(self.alphas, self.matrix.polys()[0])))

    def __eq__(self, other) -> bool:
        return isinstance(other, FunctionalFamily) and (
            (self.z_arity, self.w_arity, dict(self.terms))
            == (other.z_arity, other.w_arity, dict(other.terms)))

    @property
    def z_degree(self) -> float:
        live = self.matrix.coef.any(axis=(0, 1))
        return max((sum(a) for a, ok in zip(self.alphas, live) if ok),
                   default=-math.inf)

    @property
    def holomorphic(self) -> bool:
        return True

    def eval(self, w: Sequence[complex]) -> Functional:
        V = self.values([tuple(w)])[0]
        return Functional(self.z_arity, dict(zip(self.alphas, V.tolist())))

    def values(self, W) -> np.ndarray:
        """xi_alpha(w) at the base points (rows of W), one column per alpha;
        the coefficients are not trimmed."""
        W = np.asarray(W, dtype=complex)
        if W.ndim != 2 or W.shape[1] != self.w_arity:
            raise ArityMismatchError("base point arity mismatch")
        return self.matrix.values(W)[:, 0]

    def __add__(self, other: "FunctionalFamily") -> "FunctionalFamily":
        if (self.z_arity, self.w_arity) != (other.z_arity, other.w_arity):
            raise ArityMismatchError("family arities differ")
        out = dict(self.terms)
        for a, p in other.terms.items():
            out[a] = out[a] + p if a in out else p
        return FunctionalFamily(self.z_arity, self.w_arity, out)

    def __rmul__(self, c: complex) -> "FunctionalFamily":
        return FunctionalFamily(
            self.z_arity, self.w_arity, {a: c * p for a, p in self.terms.items()}
        )


def eval_family(fam, w: Sequence[complex]) -> Functional:
    """Evaluate a family (or control wrapper) at a base point."""
    return fam.eval(w)


def lub_check(fam, grid: Iterable[Sequence[complex]], rhos: Sequence[float]) -> dict:
    """Sup over a finite grid of the rho-weighted l1 norms, per rho.

    Always finite for polynomial families of finite degree; this is the
    machine-checkable form of the locally-uniformly-bounded property.
    """
    W = np.array(list(grid), dtype=complex)
    if not len(W):
        raise ValueError("empty grid")
    for rho in rhos:
        if rho <= 0:
            raise ValueError(f"rho must be positive, got {rho}")
    V = np.abs(fam.values(W))
    degrees = np.array([sum(a) for a in fam.alphas], dtype=float)
    return {rho: float((V * rho**degrees).sum(axis=1).max()) for rho in rhos}


@dataclass
class AntiHolomorphicControl:
    """Negative control: evaluates the family at the conjugated base point.

    Breaks holomorphy on purpose so the verification harness can be exercised
    on a family whose log-kernel need not be plurisubharmonic.
    """

    base: FunctionalFamily

    @property
    def z_arity(self) -> int:
        return self.base.z_arity

    @property
    def holomorphic(self) -> bool:
        return False

    def eval(self, w: Sequence[complex]) -> Functional:
        return self.base.eval(tuple(complex(x).conjugate() for x in w))

    @property
    def alphas(self) -> tuple[MultiIndex, ...]:
        return self.base.alphas

    def values(self, W) -> np.ndarray:
        return self.base.values(np.conj(np.asarray(W, dtype=complex)))


def anti_holomorphic_control(fam: FunctionalFamily) -> AntiHolomorphicControl:
    return AntiHolomorphicControl(fam)


# --- JSON wire format -------------------------------------------------------

def family_to_json(fam: FunctionalFamily) -> dict:
    polys = _terms_to_json(fam.matrix)[0]
    order = sorted(range(len(fam.alphas)), key=lambda j: grlex_key(fam.alphas[j]))
    return {
        "zArity": fam.z_arity,
        "wArity": fam.w_arity,
        "terms": [{"alpha": list(fam.alphas[j]), "poly": polys[j]} for j in order],
    }


#: the key table of a family: its arities and its terms {alpha, poly}
FAMILY = Table(
    {"zArity": integer, "wArity": integer,
     "terms": terms("alpha", {"poly": POLY_TERMS}, lambda poly: poly)},
    lambda n, m, polys: FunctionalFamily(
        n, m, {a: PolyW(m, p) for a, p in polys.items()}
    ),
)


def family_from_json(obj: dict) -> FunctionalFamily:
    return FAMILY(obj)


def dumps(fam: FunctionalFamily) -> str:
    return json.dumps(family_to_json(fam))


def loads(s: str) -> FunctionalFamily:
    return family_from_json(json.loads(s))
