"""Catalog of plurisubharmonic weights on polydiscs.

Every entry is psh by construction: sums of convex functions of |z_i|,
2c*log of the modulus of a holomorphic polynomial, and sums thereof.
User-supplied black-box weights are deliberately not accepted, since the
verification harness is only meaningful for certified-psh inputs.

A joint weight psi(z, w) (a ``JointWeight``) is one weight on the product
of the fiber and base polydiscs, of arity z_arity + w_arity, and each fiber
weight ``fiber(w)`` is its restriction to {w} x fiber.  ``check_joint_weight``
is the one test that a weight is joint and fits its domains.

``coordinate_form`` is the one decoder of the per-coordinate form of a
weight, fiber or joint; the Gram dispatch of ``bergman`` reads it.
``divisor_split`` is the one rule for a divisor part 2 log|g| with c = 1,
fiber or joint, which factors out of the basis: ``bergman``, ``fiberwise``
and ``extension`` read it.
``multiplier_generators`` is the one decoder of the multiplier ideals of
the catalog: the membership oracle and the Lambda scan of ``ideal`` read
it.  A joint weight of the form psi(z) + s(w) states that split
once, in its ``shift_split``; ``fiberwise`` builds one fiber model of psi for
all of its fibers.  ``WEIGHT`` is the one schema of a weight's JSON object,
one key table per variant (see ``config``), which ``weight_to_json`` writes
as it reads; ``DOMAIN`` reads a polydisc.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .config import Table, integer, list_of, point, real, reals, variants
from .family import POLY_TERMS, PolyW, poly_to_json
from .functional import ArityMismatchError, MultiIndex, multi_indices_upto


class UnsupportedWeightError(ValueError):
    """Raised when an operation is asked of a weight outside its subcatalog."""


@dataclass(frozen=True)
class Polydisc:
    """Product of discs; radii positive, center defaults to the origin."""

    radii: tuple[float, ...]
    center: tuple[complex, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "radii", tuple(float(r) for r in self.radii))
        if any(r <= 0 for r in self.radii):
            raise ValueError("polydisc radii must be positive")
        c = self.center if self.center else (0.0,) * len(self.radii)
        object.__setattr__(self, "center", tuple(complex(x) for x in c))
        if len(self.center) != len(self.radii):
            raise ArityMismatchError("center/radii arity mismatch")

    @property
    def arity(self) -> int:
        return len(self.radii)

    def contains(self, z, slack: float = 1e-9):
        """Whether the point z lies in the polydisc widened by the relative
        slack, |z_i - center_i| < radius_i (1 + slack) on every disc; given
        (count, arity) rows, the row mask.  The one containment rule: the
        point gates of the kernels read it.

        The slack admits points of the closed polydisc that rounding moved
        out.  A point put on the circle as center + R e^{it} (or read back
        from a decimal config) lies at |z - center| = R (1 + delta), with
        |delta| a few ulps times 1 + |center| / R: an error that scales with
        R, not a fixed length.  1e-9 is about 4.5e6 ulps (eps = 2.2e-16), so
        it holds that rounding for |center| / R up to about 1e6, while a
        point 1 + 1e-9 radii out or further is refused, whatever the radius.
        slack = 0 is the open polydisc.
        """
        P = np.asarray(z, dtype=complex)
        if P.ndim > 2 or P.shape[-1:] != (self.arity,):
            raise ArityMismatchError("point arity mismatch")
        inside = np.all(np.abs(P - np.array(self.center))
                        < np.array(self.radii) * (1.0 + slack), axis=-1)
        return inside if P.ndim == 2 else bool(inside)


# ---------------------------------------------------------------------------
# Fiber weights (functions of z alone)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ZeroWeight:
    arity: int
    variant = "zero"

    def evaluate(self, z: Sequence[complex]) -> float:
        return 0.0


@dataclass(frozen=True)
class ConstantWeight:
    arity: int
    value: float
    variant = "constant"

    def evaluate(self, z: Sequence[complex]) -> float:
        return self.value


@dataclass(frozen=True)
class QuadraticWeight:
    """psi = sum c_i |z_i - a_i|^2 with c_i >= 0."""

    coeffs: tuple[float, ...]
    center: tuple[complex, ...] = ()
    variant = "quadratic"

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
        if any(c < 0 for c in self.coeffs):
            raise ValueError("quadratic weight coefficients must be >= 0")
        if self.center and len(self.center) != len(self.coeffs):
            raise ValueError(
                f"quadratic weight has {len(self.center)} center coordinates for"
                f" {len(self.coeffs)} coefficient{'s' * (len(self.coeffs) != 1)}"
            )
        a = self.center if self.center else (0.0,) * len(self.coeffs)
        object.__setattr__(self, "center", tuple(complex(x) for x in a))

    @property
    def arity(self) -> int:
        return len(self.coeffs)

    def evaluate(self, z: Sequence[complex]) -> float:
        return sum(
            c * abs(zi - ai) ** 2 for c, zi, ai in zip(self.coeffs, z, self.center)
        )


@dataclass(frozen=True)
class LogMonomialWeight:
    """psi = 2 sum c_i log|z_i| with c_i >= 0; -inf on the coordinate axes."""

    coeffs: tuple[float, ...]
    variant = "log_monomial"

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
        if any(c < 0 for c in self.coeffs):
            raise ValueError("log-monomial exponents must be >= 0")

    @property
    def arity(self) -> int:
        return len(self.coeffs)

    def evaluate(self, z: Sequence[complex]) -> float:
        total = 0.0
        for c, zi in zip(self.coeffs, z):
            if c == 0:
                continue
            m = abs(zi)
            if m == 0:
                return -math.inf
            total += 2.0 * c * math.log(m)
        return total


@dataclass(frozen=True)
class LogDivisorWeight:
    """psi = 2c log|g(z)| for a polynomial g; -inf exactly on the divisor."""

    g: PolyW
    c: float = 1.0
    variant = "log_divisor"

    def __post_init__(self):
        if self.c <= 0:
            raise ValueError("divisor weight exponent must be positive")

    @property
    def arity(self) -> int:
        return self.g.arity

    def evaluate(self, z: Sequence[complex]) -> float:
        m = abs(self.g.evaluate(tuple(z)))
        if m == 0:
            return -math.inf
        return 2.0 * self.c * math.log(m)


@dataclass(frozen=True)
class SumWeight:
    parts: tuple
    variant = "sum"

    def __post_init__(self):
        arities = {p.arity for p in self.parts}
        if len(arities) > 1:
            raise ArityMismatchError("summed weights have differing arities")

    @property
    def arity(self) -> int:
        return self.parts[0].arity

    def evaluate(self, z: Sequence[complex]) -> float:
        return sum(p.evaluate(z) for p in self.parts)


def eval_weight(spec, z: Sequence[complex], w: Sequence[complex] | None = None) -> float:
    """Pointwise weight value; joint variants require the base point w."""
    z = tuple(complex(x) for x in z)
    if isinstance(spec, JointWeight):
        if w is None:
            raise ValueError("joint weight requires a base point w")
        z += tuple(complex(x) for x in w)
    if len(z) != spec.arity:
        raise ArityMismatchError("point arity mismatch")
    return spec.evaluate(z)


# ---------------------------------------------------------------------------
# Joint weights psi(z, w) with fiber restriction
# ---------------------------------------------------------------------------

def substitute_base(g: PolyW, n: int, w: Sequence[complex]) -> PolyW:
    """Restrict a polynomial in (z, w) to a fiber: substitute the last
    arity-n variables by w, returning a polynomial in z alone."""
    m = g.arity - n
    w = tuple(complex(x) for x in w)
    if len(w) != m:
        raise ArityMismatchError("base point arity mismatch")
    out: dict[MultiIndex, complex] = {}
    for exps, c in g.coeffs.items():
        alpha, beta = exps[:n], exps[n:]
        val = c
        for wi, bi in zip(w, beta):
            val *= wi**bi
        out[alpha] = out.get(alpha, 0.0) + val
    return PolyW(n, out)


class JointWeight:
    """A weight on the product of a fiber and a base polydisc.

    Its points are p = z + w, z_arity fiber coordinates then w_arity base
    coordinates, and its value is that of its fiber over w at z.
    """

    @property
    def arity(self) -> int:
        return self.z_arity + self.w_arity

    def evaluate(self, p: Sequence[complex]) -> float:
        p, n = tuple(complex(x) for x in p), self.z_arity
        return self.fiber(p[n:]).evaluate(p[:n])


def check_joint_weight(spec, n: int, m: int) -> None:
    """Refuse all but a joint weight on n fiber and m base coordinates."""
    if not isinstance(spec, JointWeight):
        raise ValueError(f"a joint weight is required, not {spec.variant!r}")
    if spec.arity != n + m:
        raise ArityMismatchError(
            f"weight arity {spec.arity} does not match the domain arity {n + m}"
        )
    if spec.z_arity != n:
        raise ArityMismatchError(
            f"weight fiber arity {spec.z_arity} does not match the fiber"
            f" domain arity {n}"
        )


@dataclass(frozen=True)
class JointZero(JointWeight):
    z_arity: int
    w_arity: int
    variant = "joint_zero"

    def fiber(self, w):
        return ZeroWeight(self.z_arity)

    def shift_split(self, W: np.ndarray):
        """(psi, s) with psi(z, w) = psi(z) + s(w), s over the rows of W."""
        return ZeroWeight(self.z_arity), np.zeros(len(W))


@dataclass(frozen=True)
class JointLogDivisor(JointWeight):
    """psi(z, w) = 2c log|g(z, w)| with g polynomial in the joint variables."""

    g: PolyW
    z_arity: int
    c: float = 1.0
    variant = "joint_log_divisor"

    @property
    def w_arity(self) -> int:
        return self.g.arity - self.z_arity

    def fiber(self, w):
        return LogDivisorWeight(substitute_base(self.g, self.z_arity, w), self.c)


@dataclass(frozen=True)
class JointQuadraticSplit(JointWeight):
    """psi(z, w) = sum cz_i |z_i|^2 + sum cw_j |w_j|^2."""

    cz: tuple[float, ...]
    cw: tuple[float, ...]
    variant = "joint_quadratic_split"

    def __post_init__(self):
        if any(c < 0 for c in self.cz + self.cw):
            raise ValueError("quadratic weight coefficients must be >= 0")

    @property
    def z_arity(self) -> int:
        return len(self.cz)

    @property
    def w_arity(self) -> int:
        return len(self.cw)

    def fiber(self, w):
        quad, shift = self.shift_split(np.array([w], dtype=complex))
        if shift[0] == 0:
            return quad
        return SumWeight((quad, ConstantWeight(self.z_arity, float(shift[0]))))

    def shift_split(self, W: np.ndarray):
        """(psi, s) with psi(z, w) = psi(z) + s(w), s over the rows of W."""
        return QuadraticWeight(self.cz), np.sum(np.abs(W) ** 2 * self.cw, axis=1)


@dataclass(frozen=True)
class JointPairQuadratic(JointWeight):
    """psi(z, w) = sum c_i |z_i - w_i|^2; requires matching arities."""

    coeffs: tuple[float, ...]
    variant = "joint_pair_quadratic"

    @property
    def z_arity(self) -> int:
        return len(self.coeffs)

    w_arity = z_arity

    def fiber(self, w):
        return QuadraticWeight(self.coeffs, tuple(w))


@dataclass(frozen=True)
class WIndependentJoint(JointWeight):
    """Joint weight that ignores w entirely: psi(z, w) = base(z)."""

    base: object
    w_arity: int
    variant = "w_independent"

    @property
    def z_arity(self) -> int:
        return self.base.arity

    def fiber(self, w):
        return self.base

    def shift_split(self, W: np.ndarray):
        """(psi, s) with psi(z, w) = psi(z) + s(w), s over the rows of W."""
        return self.base, np.zeros(len(W))


# ---------------------------------------------------------------------------
# Moments and separability
# ---------------------------------------------------------------------------

def monomial_moment(
    radii: Sequence[float], alpha: MultiIndex, c: Sequence[float] | None = None
) -> float:
    """Exact weighted moment of |z^alpha|^2 on a polydisc.

    integral over the polydisc of |z^alpha|^2 prod |z_i|^{-2 c_i} equals
    prod_i pi * R_i^{2 e_i} / e_i with e_i = alpha_i - c_i + 1, provided
    every e_i > 0; otherwise the basis element is not square-integrable and
    the moment is +inf.
    """
    if c is None:
        c = (0.0,) * len(alpha)
    total = 1.0
    for Ri, ai, ci in zip(radii, alpha, c):
        e = ai - ci + 1.0
        if e <= 0:
            return math.inf
        total *= math.pi * Ri ** (2.0 * e) / e
    return total


def coordinate_form(spec):
    """(form, shift) with psi = sum_i q_i |z_i - a_i|^2 + 2 c_i log|z_i| + shift.

    form[i] = (q_i, a_i, c_i), plain floats (this runs once per fiber
    model).  A joint weight is read on its product domain, z then w: the
    joint zero as zeros, the split quadratic as cz then cw, a w-independent
    weight as its base then zeros in w.  None for divisors and the joint
    weights whose fibers move with w (the pair quadratic and joint
    divisors).  The quadratics of a sum on one coordinate combine by
    completing the square, A = sum q_k a_k / Q, with sum q_k |a_k|^2 -
    Q |A|^2 added to the shift; a coordinate served by one center keeps it
    exactly and adds nothing.
    """
    n = spec.arity
    if isinstance(spec, (ZeroWeight, JointZero)):
        return [(0.0, 0j, 0.0)] * n, 0.0
    if isinstance(spec, ConstantWeight):
        return [(0.0, 0j, 0.0)] * n, spec.value
    if isinstance(spec, QuadraticWeight):
        return [(q, a, 0.0) for q, a in zip(spec.coeffs, spec.center)], 0.0
    if isinstance(spec, JointQuadraticSplit):
        return [(float(q), 0j, 0.0) for q in spec.cz + spec.cw], 0.0
    if isinstance(spec, WIndependentJoint):
        dec = coordinate_form(spec.base)
        return dec and (dec[0] + [(0.0, 0j, 0.0)] * spec.w_arity, dec[1])
    if isinstance(spec, LogMonomialWeight):
        return [(0.0, 0j, c) for c in spec.coeffs], 0.0
    if not isinstance(spec, SumWeight):
        return None
    forms = [coordinate_form(p) for p in spec.parts]
    if None in forms:
        return None
    shift = sum(f[1] for f in forms)
    form = []
    for terms in zip(*(f[0] for f in forms)):
        q = sum(t[0] for t in terms)
        c = sum(t[2] for t in terms)
        centers = {t[1] for t in terms if t[0]}
        if len(centers) <= 1:
            a = centers.pop() if centers else 0j
        else:
            a = sum(t[0] * t[1] for t in terms) / q
            shift += sum(t[0] * abs(t[1]) ** 2 for t in terms) - q * abs(a) ** 2
        form.append((q, a, c))
    return form, shift


def divisor_split(weight):
    """(divisor, rest) for weight = 2 log|g| + rest; (None, weight) without one.

    The one rule for the factored basis g (z - center)^alpha, on fiber and
    joint weights alike: its Gram is that of the (z - center)^alpha under
    rest, since |g b|^2 e^{-2 log|g|} = |b|^2.  Nested sums are flattened;
    rest is ZeroWeight when nothing remains.  A joint weight is read on its
    product domain, z then w: a joint divisor 2 log|g(z, w)| splits into
    LogDivisorWeight(g) and the joint zero, and a w-independent weight over
    a divisor part into that divisor, g read in (z, w) with zero
    w-exponents, and the w-independent rest.  A lone divisor with c != 1,
    fiber or joint, is not split and keeps the tensor rule.  A divisor part
    with c != 1 of a sum or of a w-independent weight, and a sum with two
    divisor parts, have no factored basis: UnsupportedWeightError.
    """
    if isinstance(weight, JointLogDivisor):
        split = (LogDivisorWeight(weight.g, weight.c),
                 JointZero(weight.z_arity, weight.w_arity))
    elif isinstance(weight, WIndependentJoint):
        divisor, rest = _fiber_divisor_split(weight.base)
        if divisor is None:
            return None, weight
        m = weight.w_arity
        split = (LogDivisorWeight(lift(divisor.g, m), divisor.c),
                 WIndependentJoint(rest, m))
    else:
        split = _fiber_divisor_split(weight)
        if split[0] is None:
            return split
    if abs(split[0].c - 1.0) > 1e-12:
        if isinstance(weight, (JointLogDivisor, LogDivisorWeight)):
            return None, weight
        raise UnsupportedWeightError("factored divisor basis requires exponent c = 1")
    return split


def lift(g: PolyW, m: int) -> PolyW:
    """A polynomial in z read in (z, w), w of arity m: zero w-exponents."""
    return PolyW(g.arity + m, {a + (0,) * m: c for a, c in g.coeffs.items()})


def _fiber_divisor_split(weight):
    """``divisor_split`` of a fiber weight, whatever the divisor's c."""
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
        rest = [ZeroWeight(weight.arity)]
    return divisors[0], rest[0] if len(rest) == 1 else SumWeight(tuple(rest))


# ---------------------------------------------------------------------------
# Multiplier-ideal oracles
# ---------------------------------------------------------------------------

def poly_quotient(g: PolyW, f: PolyW, tol: float = 1e-9) -> PolyW | None:
    """h with f = g h in the polynomial ring, by least squares; None when g
    does not divide f."""
    if not f.coeffs:
        return PolyW(f.arity, {})
    gmin = min(sum(a) for a in g.coeffs)
    hdeg = int(f.degree - gmin)
    if hdeg < 0:
        return None
    betas = multi_indices_upto(f.arity, hdeg)
    # rows: exponents appearing in any product; columns: candidate h terms
    rows: dict[MultiIndex, int] = {}
    cols = []
    for j, beta in enumerate(betas):
        col = {}
        for a, c in g.coeffs.items():
            k = tuple(ai + bi for ai, bi in zip(a, beta))
            col[k] = col.get(k, 0.0) + c
        cols.append(col)
        for k in col:
            rows.setdefault(k, len(rows))
    for k in f.coeffs:
        rows.setdefault(k, len(rows))
    A = np.zeros((len(rows), len(betas)), dtype=complex)
    for j, col in enumerate(cols):
        for k, v in col.items():
            A[rows[k], j] = v
    b = np.zeros(len(rows), dtype=complex)
    for k, v in f.coeffs.items():
        b[rows[k]] = v
    h = np.linalg.lstsq(A, b, rcond=None)[0]
    if np.linalg.norm(A @ h - b) > tol * max(1.0, np.linalg.norm(b)):
        return None
    return PolyW(f.arity, dict(zip(betas, h.tolist())))


#: the weights whose multiplier ideal is the unit ideal
_SMOOTH = (ZeroWeight, ConstantWeight, QuadraticWeight)


def multiplier_generators(weight) -> list[PolyW]:
    """Generators of the multiplier ideal germ at 0 for oracle weights.

    The one decoder of the catalog's multiplier ideals: the unit ideal for a
    smooth weight; (z^e) with e_i = max(0, floor(c_i - 1) + 1) for a
    log-monomial weight, since |z^alpha|^2 |z_i|^{-2 c_i} is integrable iff
    alpha_i > c_i - 1; (g) for a divisor 2 log|g| with c = 1 through the
    origin, and the unit ideal when g(0) != 0; and for a sum, that of its
    one singular part.
    """
    if isinstance(weight, _SMOOTH):
        return [PolyW.constant(1.0, weight.arity)]
    if isinstance(weight, SumWeight):
        parts = [p for p in weight.parts if not isinstance(p, _SMOOTH)]
        if not parts:
            return [PolyW.constant(1.0, weight.arity)]
        if len(parts) == 1:
            return multiplier_generators(parts[0])
        raise UnsupportedWeightError("no oracle for mixed singular sums")
    if isinstance(weight, LogMonomialWeight):
        return [PolyW.monomial(
            tuple(max(0, math.floor(c - 1.0) + 1) for c in weight.coeffs)
        )]
    if isinstance(weight, LogDivisorWeight):
        g = weight.g
        if misses_origin(g.evaluate((0.0,) * g.arity), g.max_coeff()):
            return [PolyW.constant(1.0, g.arity)]  # bounded near the origin
        return [divisor_generator(weight)]
    raise UnsupportedWeightError(
        f"no multiplier-ideal oracle for weight variant {weight.variant!r}"
    )


def misses_origin(g0, gmax):
    """Whether a divisor g with g(0) = g0 and largest coefficient modulus
    gmax misses the origin, |g0| > 1e-12 max(1, gmax), so that 2c log|g| is
    bounded near it and its multiplier ideal is the unit ideal; elementwise
    on arrays."""
    return np.abs(g0) > 1e-12 * np.maximum(1.0, gmax)


def divisor_generator(weight) -> PolyW:
    """g, the generator of the multiplier ideal of 2c log|g| (fiber or
    joint) through the origin; UnsupportedWeightError unless c = 1."""
    if abs(weight.c - 1.0) > 1e-12:
        raise UnsupportedWeightError(
            f"no multiplier-ideal oracle for a divisor through the origin"
            f" with c = {weight.c} != 1"
        )
    return weight.g


def multiplier_membership_oracle(spec, f: PolyW) -> bool:
    """Exact germ membership of f in the multiplier ideal of the weight at 0.

    f is tested against the one generator of ``multiplier_generators``:
    exponent by exponent against a monomial z^e, by divisibility
    (``poly_quotient``) against a divisor g.  An f of another arity than
    the weight raises ArityMismatchError.
    """
    if f.arity != spec.arity:
        raise ArityMismatchError(
            f"f has arity {f.arity}, the weight arity {spec.arity}"
        )
    (gen,) = multiplier_generators(spec)
    if len(gen.coeffs) == 1:
        (e,) = gen.coeffs
        return all(all(a >= b for a, b in zip(alpha, e)) for alpha in f.coeffs)
    return poly_quotient(gen, f) is not None


# ---------------------------------------------------------------------------
# Quadrature rule: ``polar_rule``, shared by the Gram quadratures and extension
# ---------------------------------------------------------------------------

@lru_cache(maxsize=32)
def gauss_legendre(count: int) -> tuple[np.ndarray, np.ndarray]:
    """The count-point Gauss-Legendre nodes and weights on [-1, 1].

    One rule per node count, computed once: ``leggauss(16)`` alone takes
    about 0.3 ms.  The arrays are shared, so they are read-only.
    """
    t, wt = np.polynomial.legendre.leggauss(count)
    t.flags.writeable = wt.flags.writeable = False
    return t, wt


def polar_rule(R: float, radial_nodes: int, angular_nodes: int,
               inner: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """(u, w): the polar Gauss-Legendre rule on the annulus inner < |u| < R.

    Gauss-Legendre radii times equally spaced angles, radius by radius; w
    carries the area element r dr dtheta, so sum_k w_k f(u_k) approximates
    the integral of f over the annulus.
    """
    t, wt = gauss_legendre(radial_nodes)
    r = 0.5 * (R - inner) * t + 0.5 * (R + inner)
    theta = 2.0 * math.pi * np.arange(angular_nodes) / angular_nodes
    u = (r[:, None] * np.exp(1j * theta)[None, :]).ravel()
    w = np.repeat(0.5 * (R - inner) * wt * r, angular_nodes) * (
        2.0 * math.pi / angular_nodes)
    return u, w


# ---------------------------------------------------------------------------
# JSON descriptors
# ---------------------------------------------------------------------------

def weight_to_json(spec) -> dict:
    """The JSON object of a weight: the keys of its variant's table in
    ``WEIGHT``, each the attribute of its name."""
    table = WEIGHT.tables.get(spec.variant)
    if table is None:
        raise UnsupportedWeightError(f"cannot serialize weight variant {spec.variant!r}")
    return _to_json(spec, table.names)


def _to_json(x, names=()):
    """x as the lab writes it in JSON.  With names, (key, attribute) pairs,
    the object of each attribute's value under its key; else a PolyW as its
    terms (``poly_to_json``), a complex number as [re, im], a tuple or list
    as a list, a weight by ``weight_to_json``, and anything else as it is."""
    if names:
        return {k: _to_json(getattr(x, a)) for k, a in names}
    if isinstance(x, (float, int, str)):  # the commonest, tested first
        return x
    if isinstance(x, (tuple, list)):
        return [_to_json(v) for v in x]
    if isinstance(x, complex):
        return [x.real, x.imag]
    if isinstance(x, PolyW):
        return poly_to_json(x)
    return weight_to_json(x) if hasattr(type(x), "variant") else x


#: the reader of a weight: one key table per variant
WEIGHT = variants(
    zero=Table({"arity": integer}, ZeroWeight),
    constant=Table({"arity": integer, "value": real}, ConstantWeight),
    quadratic=Table({"coeffs": reals, "center": (point, ())}, QuadraticWeight),
    log_monomial=Table({"coeffs": reals}, LogMonomialWeight),
    log_divisor=Table(
        {"c": (real, 1.0), "arity": integer, "g": POLY_TERMS},
        lambda c, n, g: LogDivisorWeight(PolyW(n, g), c)),
    sum=Table({"parts": list_of(lambda x: WEIGHT(x))}, SumWeight),
    joint_zero=Table({"zArity": integer, "wArity": integer}, JointZero),
    joint_log_divisor=Table(
        {"zArity": integer, "c": (real, 1.0), "arity": integer, "g": POLY_TERMS},
        lambda n, c, arity, g: JointLogDivisor(PolyW(arity, g), n, c)),
    joint_quadratic_split=Table({"cz": reals, "cw": reals}, JointQuadraticSplit),
    joint_pair_quadratic=Table({"coeffs": reals}, JointPairQuadratic),
    w_independent=Table({"base": lambda x: WEIGHT(x), "wArity": integer},
                        WIndependentJoint),
)

#: the key table of a polydisc: its radii and (default the origin) center
DOMAIN = Table({"radii": reals, "center": (point, ())}, Polydisc)


def weight_from_json(obj: dict):
    return WEIGHT(obj)
