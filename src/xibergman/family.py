"""Holomorphic functional-valued families with polynomial dependence.

PolyW is a sparse multivariate polynomial with complex coefficients.  It is
used both for the base-variable dependence of functional families and, with
a larger arity, for polynomials in the joint variables.  Holomorphy of a
family is automatic: every coefficient map is a polynomial.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .config import Table, coefficients, integer, terms
from .functional import (
    ArityMismatchError,
    Functional,
    MultiIndex,
    _check_keys,
    _trim,
    grlex_key,
    norm_at_rho,
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


@dataclass
class FunctionalFamily:
    """Map alpha -> polynomial-in-w coefficient; holomorphic by construction."""

    z_arity: int
    w_arity: int
    terms: dict[MultiIndex, PolyW] = field(default_factory=dict)

    def __post_init__(self):
        for alpha, p in self.terms.items():
            if len(alpha) != self.z_arity:
                raise ArityMismatchError(f"term index {alpha} has wrong arity")
            if p.arity != self.w_arity:
                raise ArityMismatchError(f"coefficient of {alpha} has wrong w-arity")

    @property
    def z_degree(self) -> float:
        live = [a for a, p in self.terms.items() if p.coeffs]
        if not live:
            return -math.inf
        return max(sum(a) for a in live)

    @property
    def holomorphic(self) -> bool:
        return True

    def eval(self, w: Sequence[complex]) -> Functional:
        w = tuple(complex(x) for x in w)
        if len(w) != self.w_arity:
            raise ArityMismatchError("base point arity mismatch")
        return Functional(
            self.z_arity, {a: p.evaluate(w) for a, p in self.terms.items()}
        )

    def values(self, W) -> np.ndarray:
        """xi_alpha(w) at the base points (rows of W), one column per term.

        The columns follow ``terms``; the coefficients are not trimmed.
        """
        W = np.asarray(W, dtype=complex)
        if W.ndim != 2 or W.shape[1] != self.w_arity:
            raise ArityMismatchError("base point arity mismatch")
        out = np.zeros((len(W), len(self.terms)), dtype=complex)
        for j, p in enumerate(self.terms.values()):
            for beta, c in p.coeffs.items():
                term = np.full(len(W), c)
                for i, b in enumerate(beta):
                    if b:
                        term *= W[:, i] ** b
                out[:, j] += term
        return out

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
    grid = [tuple(complex(x) for x in w) for w in grid]
    if not grid:
        raise ValueError("empty grid")
    for rho in rhos:
        if rho <= 0:
            raise ValueError(f"rho must be positive, got {rho}")
    table = {}
    for rho in rhos:
        table[rho] = max(norm_at_rho(fam.eval(w), rho) for w in grid)
    return table


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
    def w_arity(self) -> int:
        return self.base.w_arity

    @property
    def z_degree(self) -> float:
        return self.base.z_degree

    @property
    def holomorphic(self) -> bool:
        return False

    def eval(self, w: Sequence[complex]) -> Functional:
        return self.base.eval(tuple(complex(x).conjugate() for x in w))

    @property
    def terms(self) -> dict:
        return self.base.terms

    def values(self, W) -> np.ndarray:
        return self.base.values(np.conj(np.asarray(W, dtype=complex)))


def anti_holomorphic_control(fam: FunctionalFamily) -> AntiHolomorphicControl:
    return AntiHolomorphicControl(fam)


# --- JSON wire format -------------------------------------------------------

def family_to_json(fam: FunctionalFamily) -> dict:
    return {
        "zArity": fam.z_arity,
        "wArity": fam.w_arity,
        "terms": [
            {"alpha": list(a), "poly": poly_to_json(p)}
            for a, p in sorted(fam.terms.items(), key=lambda kv: grlex_key(kv[0]))
        ],
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
