"""Finite-support linear functionals acting on Taylor data.

A functional is a sparse collection of complex coefficients indexed by
multi-indices alpha in N^n.  Acting on a holomorphic function F with Taylor
expansion F(z) = sum_a a_alpha (z - z0)^alpha, the value of the action is
sum_alpha xi_alpha * a_alpha.  Everything here is restricted to finite
support, so all sums are exact finite sums.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations_with_replacement
from typing import Iterable, Mapping

from .config import Table, coefficients, integer

MultiIndex = tuple[int, ...]

#: coefficients with modulus at or below this (relative to the largest
#: coefficient) are dropped when trimming sparse maps
TRIM_REL_TOL = 1e-14


class ArityMismatchError(ValueError):
    """Raised when objects with incompatible numbers of variables meet."""


class InsufficientTruncationError(ValueError):
    """Raised when Taylor data is truncated below the functional's degree."""


def grlex_key(alpha: MultiIndex) -> tuple:
    """Sort key realizing graded-lexicographic order."""
    return (sum(alpha), alpha)


def multi_indices_upto(arity: int, degree: int) -> list[MultiIndex]:
    """All multi-indices alpha in N^arity with |alpha| <= degree, grlex order."""
    return list(_multi_indices_upto(arity, degree))


@lru_cache(maxsize=64)
def _multi_indices_upto(arity: int, degree: int) -> tuple[MultiIndex, ...]:
    if degree < 0:
        return ()
    out: list[MultiIndex] = []
    for d in range(degree + 1):
        block = set()
        for combo in combinations_with_replacement(range(arity), d):
            alpha = [0] * arity
            for i in combo:
                alpha[i] += 1
            block.add(tuple(alpha))
        out.extend(sorted(block))
    return tuple(out)


def _check_keys(arity: int, coeffs: Mapping[MultiIndex, complex]) -> None:
    for alpha in coeffs:
        if len(alpha) != arity:
            raise ArityMismatchError(
                f"multi-index {alpha} has arity {len(alpha)}, expected {arity}"
            )
        if any(a < 0 for a in alpha):
            raise ValueError(f"negative entry in multi-index {alpha}")


def _trim(coeffs: Mapping[MultiIndex, complex]) -> dict[MultiIndex, complex]:
    vals = [abs(v) for v in coeffs.values()]
    scale = max(vals) if vals else 0.0
    cut = scale * TRIM_REL_TOL
    return {
        tuple(int(a) for a in k): complex(v)
        for k, v in coeffs.items()
        if abs(v) > cut
    }


@dataclass
class Functional:
    """Finite-support element of the sequence space acting on Taylor data;
    it keeps every coefficient it is given, as a family's row does."""

    arity: int
    coeffs: dict[MultiIndex, complex] = field(default_factory=dict)

    def __post_init__(self):
        _check_keys(self.arity, self.coeffs)
        self.coeffs = {tuple(int(a) for a in k): complex(v)
                       for k, v in self.coeffs.items()}

    @property
    def degree(self) -> float:
        """Max |alpha| over the nonzero support; -inf for the zero functional."""
        return max((sum(a) for a, v in self.coeffs.items() if v != 0),
                   default=-math.inf)

    def items_grlex(self):
        return sorted(self.coeffs.items(), key=lambda kv: grlex_key(kv[0]))

    def __add__(self, other: "Functional") -> "Functional":
        if self.arity != other.arity:
            raise ArityMismatchError("functional arities differ")
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0.0) + v
        return Functional(self.arity, out)

    def __rmul__(self, c: complex) -> "Functional":
        return Functional(self.arity, {k: c * v for k, v in self.coeffs.items()})

    def __mul__(self, c: complex) -> "Functional":
        return self.__rmul__(c)


@dataclass
class TaylorData:
    """Taylor coefficients of a function at a center.

    ``truncation_degree`` is None for exact polynomial data; otherwise only
    coefficients with |alpha| <= truncation_degree are trusted.
    """

    center: tuple[complex, ...]
    coeffs: dict[MultiIndex, complex] = field(default_factory=dict)
    truncation_degree: int | None = None

    def __post_init__(self):
        self.center = tuple(complex(c) for c in self.center)
        _check_keys(len(self.center), self.coeffs)
        self.coeffs = _trim(self.coeffs)

    @property
    def arity(self) -> int:
        return len(self.center)

    def evaluate(self, z: tuple[complex, ...]) -> complex:
        if len(z) != self.arity:
            raise ArityMismatchError("point arity mismatch")
        total = 0.0 + 0.0j
        for alpha, a in self.coeffs.items():
            term = a
            for zi, ci, ai in zip(z, self.center, alpha):
                term *= (zi - ci) ** ai
            total += term
        return total


def apply(xi: Functional, taylor: TaylorData) -> complex:
    """Act a functional on Taylor data: sum of xi_alpha * a_alpha."""
    if xi.arity != taylor.arity:
        raise ArityMismatchError(
            f"functional arity {xi.arity} != Taylor arity {taylor.arity}"
        )
    if taylor.truncation_degree is not None and xi.coeffs:
        if taylor.truncation_degree < xi.degree:
            raise InsufficientTruncationError(
                f"Taylor data truncated at {taylor.truncation_degree}, "
                f"functional has degree {xi.degree}"
            )
    return sum(
        (v * taylor.coeffs[a] for a, v in xi.coeffs.items() if a in taylor.coeffs),
        start=0.0 + 0.0j,
    )


def recenter(poly: TaylorData, new_center: Iterable[complex]) -> TaylorData:
    """Exact binomial Taylor shift of a polynomial to a new center."""
    if poly.truncation_degree is not None:
        raise ValueError("recenter requires exact polynomial data")
    c2 = tuple(complex(c) for c in new_center)
    if len(c2) != poly.arity:
        raise ArityMismatchError("new center arity mismatch")
    shift = tuple(c2i - c1i for c1i, c2i in zip(poly.center, c2))
    out: dict[MultiIndex, complex] = {}
    for gamma, a in poly.coeffs.items():
        # (z-c1)^gamma = ((z-c2) + shift)^gamma, expanded per coordinate
        stack: list[tuple[MultiIndex, complex]] = [((), a)]
        for gi, si in zip(gamma, shift):
            nxt = []
            for prefix, coef in stack:
                for bi in range(gi + 1):
                    nxt.append((prefix + (bi,), coef * math.comb(gi, bi) * si ** (gi - bi)))
            stack = nxt
        for beta, coef in stack:
            out[beta] = out.get(beta, 0.0) + coef
    return TaylorData(center=c2, coeffs=out)


def norm_at_rho(xi: Functional, rho: float) -> float:
    """Weighted l1 norm sum |xi_alpha| rho^{|alpha|}; finite by finite support."""
    if rho <= 0:
        raise ValueError(f"rho must be positive, got {rho}")
    return sum(abs(v) * rho ** sum(a) for a, v in xi.coeffs.items())


def tail_bound(xi: Functional, k: int, rho: float, R: float, M: float) -> float:
    """Certified bound M/(rho*R)^k * norm_at_rho for the degree->k tail.

    Dominates sum over |alpha| > k of |xi_alpha| * M / R^{|alpha|} whenever
    rho*R > 1 (the contraction making the geometric tail summable).
    """
    if R <= 0 or M <= 0:
        raise ValueError("R and M must be positive")
    if k < 0:
        raise ValueError("k must be non-negative")
    if rho * R <= 1:
        raise ValueError(f"rho*R = {rho * R} <= 1: bound is not contractive")
    return M / (rho * R) ** k * norm_at_rho(xi, rho)


def exact_tail(xi: Functional, k: int, R: float, M: float) -> float:
    """Brute-force tail sum over |alpha| > k; oracle for tail_bound tests."""
    return sum(
        abs(v) * M / R ** sum(a) for a, v in xi.coeffs.items() if sum(a) > k
    )


# --- JSON wire format -------------------------------------------------------

def functional_to_json(xi: Functional) -> dict:
    return {
        "arity": xi.arity,
        "terms": [
            {"alpha": list(a), "re": v.real, "im": v.imag}
            for a, v in xi.items_grlex()
        ],
    }


#: the key table of a functional: its arity and its terms {alpha, re, im}
FUNCTIONAL = Table({"arity": integer, "terms": coefficients("alpha")}, Functional)


def functional_from_json(obj: dict) -> Functional:
    return FUNCTIONAL(obj)


def dumps(xi: Functional) -> str:
    return json.dumps(functional_to_json(xi))


def loads(s: str) -> Functional:
    return functional_from_json(json.loads(s))
