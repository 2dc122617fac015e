"""Fiberwise kernel maps and numerical log-psh verification.

kernel_on_fiber(problem, W, Z) evaluates the fiberwise xi-Bergman kernel
K_{xi(w)}(z) at an array of base points W, with one fiber point z shared by
all of them or one per base point, in one batch.  Base points whose fibers
share a Gram matrix, up to a scalar, share one model:

- a divisor part 2 log|g(z, w)| (c = 1), split off by
  ``weights.divisor_split`` from a joint divisor or a w-independent weight,
  leaves every fiber the Gram of the rest, since
  |g_w b|^2 e^{-2 log|g_w|} = |b|^2; only the factor g(z, w) of the basis
  g(z, w) (z - center)^alpha moves, polynomially in w.  The rest is modeled
  as below, and its basis times g is one joint basis, in the fiber's local
  coordinate z - center and in the global w;
- a joint weight psi(z) + s(w) (``shift_split``: the zero, w-independent
  and split quadratic weights) has the fiber Gram e^{-s(w)} G_psi, so one
  model of psi serves every fiber and K_w = e^{s(w)} K_psi: the relative
  eigenvalue cutoff keeps the same rank and eigenvectors under the scalar.
  That model, and its ``TaylorShift``, is built once per ``FamilyProblem``:
  every circle, line and grid of a problem shares it;
- any other joint weight (the pair quadratic, whose centers move with w,
  and joint divisors with c != 1) gets one fiber model per distinct base
  point in each call, and the problem keeps none of them.

``log_kernel_on_fiber`` returns log K_psi + s(w) without exponentiating, so
a large shift neither overflows the kernel nor underflows the Gram.  The
actions of xi(w) on a basis, from the family values at all base points,
come from ``bergman.TaylorShift``, one call per fiber model, at the fiber
points moved to z - center; the kernels are their squared norms in the
model's orthonormal basis.  The verifiers check
the submean-value inequality of the log-kernel on circles in the base, in
the fiber, and along mixed complex lines, one batch per circle: a direct
numerical rendering of log-plurisubharmonicity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .bergman import (
    GramModel,
    QuadSpec,
    TaylorShift,
    _inside,
    _points_in,
    _recentered,
    _times_poly,
    assemble_gram,
    orthonormalize,
)
from .weights import Polydisc, check_joint_weight, divisor_split

SUBMEAN_TOL = 1e-3


@dataclass
class FamilyProblem:
    """A joint weight and a functional family over a fiber and a base
    polydisc, for one command.  For a joint weight psi(z) + s(w) it keeps
    the model of psi that its first kernel call builds (``_fiber_models``).
    """

    fiber_domain: Polydisc
    base_domain: Polydisc
    joint_weight: object
    family: object  # FunctionalFamily or AntiHolomorphicControl
    degree: int
    quad: QuadSpec = field(default_factory=QuadSpec)
    # (model of psi, (divisor, alphas), TaylorShift): see _fiber_models
    _kept: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        check_joint_weight(
            self.joint_weight, self.fiber_domain.arity, self.base_domain.arity
        )

    @property
    def holomorphic(self) -> bool:
        return getattr(self.family, "holomorphic", True)


@dataclass
class PshReport:
    center: tuple
    radius: float
    samples: int
    center_value: float
    circle_average: float
    max_violation: float
    infinity_count: int
    verdict: str
    tolerance: float
    diagnostic: str = ""

    @property
    def passed(self) -> bool:
        return self.verdict == "PASS"

    def to_json(self) -> dict:
        def enc(x):
            if isinstance(x, complex):
                return [x.real, x.imag]
            return x

        return {
            "center": [enc(c) for c in self.center],
            "radius": self.radius,
            "samples": self.samples,
            "centerValue": self.center_value,
            "circleAverage": self.circle_average,
            "maxViolation": self.max_violation,
            "infinityCount": self.infinity_count,
            "verdict": self.verdict,
            "tolerance": self.tolerance,
            "diagnostic": self.diagnostic,
        }


def _as_point(x, arity: int) -> tuple[complex, ...]:
    if np.isscalar(x) or isinstance(x, complex):
        x = (x,) if arity == 1 else x
    return tuple(complex(v) for v in x)


def kernel_on_fiber(problem: FamilyProblem, w, z, log: bool = False,
                    model: GramModel | None = None):
    """Kernels K_{xi(w)}(z) of the fibers over the base points w.

    w is one base point or an array of them (P, m); z is one fiber point,
    shared by every base point, or an array (P, n) of them.  Returns a float
    when both are single points, else an array of P kernels.  For a joint
    weight psi(z) + s(w) the kernel is e^{s(w)} K_psi, which is inf where
    that overflows; with log=True the result is log K_psi + s(w), taken by
    one ``np.log`` call over the kernels that are positive, -inf exactly
    where K_psi vanishes, and nothing is exponentiated.  model is a fiber model
    already built by ``assemble_gram`` with its default labels and method,
    which serves in place of a new one where it is the same (see
    ``_fiber_models``).
    """
    W = _points_in(problem.base_domain, w, "base point")
    Z = _points_in(problem.fiber_domain, z, "evaluation point")
    if len(Z) not in (1, len(W)):
        raise ValueError(f"{len(W)} base points but {len(Z)} fiber points")
    if problem.family.z_arity != problem.fiber_domain.arity:
        raise ValueError("functional arity mismatch")
    X = problem.family.values(W)
    U = Z - np.array(problem.fiber_domain.center)
    K = np.zeros(len(W))
    models, s = _fiber_models(problem, W, model)
    for basis, members in models:
        for rows, transform in members:
            u = basis.actions(X[rows], U if len(U) == 1 else U[rows], W[rows])
            a = u @ transform
            K[rows] = np.sum(a.real**2 + a.imag**2, axis=1)
    if log:
        K = np.log(K, out=np.full(len(K), -math.inf), where=K > 0) + s
    else:
        with np.errstate(over="ignore"):
            K = np.where(K > 0, K * np.exp(s), 0.0)
    return float(K[0]) if np.ndim(w) < 2 and np.ndim(z) < 2 else K


def log_kernel_on_fiber(problem: FamilyProblem, w, z,
                        model: GramModel | None = None):
    """log of ``kernel_on_fiber``: log K_psi + s(w), -inf where K_psi vanishes."""
    return kernel_on_fiber(problem, w, z, log=True, model=model)


def _fiber_models(problem: FamilyProblem, W: np.ndarray,
                  given: GramModel | None = None):
    """The fiber models over W, and the shift s(w) of each row.

    The models come as [(basis, [(rows, transform), ...]), ...]; the kernel
    of row i is e^{s_i} times that of its model.  A divisor part
    2 log|g(z, w)| (``weights.divisor_split``) is split off once: the rest
    is modeled like any other joint weight, and its basis times g(z, w) is
    one joint basis, local in z and global in w.  A joint weight psi(z) + s(w) has one model,
    of psi, for every fiber, up to the scalar shift s(w); the problem keeps
    it with its ``TaylorShift`` and the divisor part and family terms that
    shift was built from, and a later call reuses both where its psi passes
    the test below and those are equal.  Any other joint
    weight gets one model per distinct row of W, and models whose terms
    agree share one ``TaylorShift``.  A given model (the central fiber model
    of ``extension``) replaces the one a fiber weight would get when its
    weight, domain, degree and quadrature are those of that fiber
    (``_is_model_of``): the Gram would be assembled and orthonormalized
    again, identically.
    """
    n, m = problem.fiber_domain.arity, problem.base_domain.arity
    alphas = list(problem.family.terms)
    divisor, jw = divisor_split(problem.joint_weight)
    if divisor is not None:
        # g(z, w) in the fiber's local coordinates u = z - center, w global
        center = problem.fiber_domain.center + (0j,) * m
        g = _recentered(divisor.g, (0j,) * (n + m), center)
    shared = hasattr(jw, "shift_split")
    if shared:
        psi, s = jw.shift_split(W)
        kept = problem._kept
        if kept and kept[1] == (divisor, alphas) and _is_model_of(
                kept[0], problem, psi):
            return [(kept[2], [(np.arange(len(W)), kept[0].transform)])], s
        fibers = [(psi, np.arange(len(W)))]
    else:
        s = np.zeros(len(W))
        groups: dict[tuple, list[int]] = {}
        for i, w in enumerate(W.tolist()):
            groups.setdefault(tuple(w), []).append(i)
        fibers = [(jw.fiber(w), np.array(rows)) for w, rows in groups.items()]
    classes: dict[bytes, tuple] = {}
    for fw, rows in fibers:
        if _is_model_of(given, problem, fw):
            model = given if given.transform is not None else orthonormalize(given)
        else:
            model = orthonormalize(assemble_gram(
                problem.fiber_domain, fw, problem.degree, problem.quad))
        E, C, S = model.exps, model.coeffs, model.seg
        if divisor is not None:
            # |g b|^2 e^{-2 log|g| - rest} = |b|^2 e^{-rest}: the basis g(z, w) b
            E, C, S = _times_poly(g, np.hstack([E, np.zeros((len(E), m), dtype=int)]))
        key = E.tobytes() + C.tobytes() + S.tobytes()
        if key not in classes:
            classes[key] = (TaylorShift(alphas, E, C, S, n, model.size), [])
        classes[key][1].append((rows, model.transform))
    if shared:
        problem._kept = (model, (divisor, alphas), classes[key][0])
    return list(classes.values()), s


def _is_model_of(model: GramModel | None, problem: FamilyProblem, weight) -> bool:
    """Whether model is the one problem's fiber domain, degree and quadrature
    give the fiber weight: built again, it would be identical."""
    return model is not None and (model.domain, model.degree, model.quad) == (
        problem.fiber_domain, problem.degree, problem.quad) and model.weight == weight


def _circle(radius: float, samples: int) -> list[complex]:
    """The equispaced circle parameters radius e^{i theta_k}, k < samples."""
    if samples < 16:
        raise ValueError("need at least 16 circle samples")
    thetas = 2.0 * math.pi * np.arange(samples) / samples
    return [radius * complex(math.cos(t), math.sin(t)) for t in thetas]


def submean_check(
    fn: Callable[[complex], float],
    center_label: tuple,
    radius: float,
    samples: int,
    tol: float = SUBMEAN_TOL,
) -> PshReport:
    """Generic circle submean verdict for a log-scale scalar function.

    fn maps the circle parameter t (complex, |t| <= radius) to a log value,
    possibly -inf.  Conventions: a -inf center passes trivially; -inf circle
    samples against a finite center are a hard FAIL (reported with count).
    """
    ts = _circle(radius, samples)
    return _submean_verdict(center_label, radius, fn(0.0 + 0.0j),
                            [fn(t) for t in ts], tol)


def _submean_verdict(
    center_label: tuple, radius: float, center_value: float, vals: list, tol: float
) -> PshReport:
    """The submean_check verdict on a center value and the circle samples."""
    samples = len(vals)
    inf_count = sum(1 for v in vals if v == -math.inf)
    if center_value == -math.inf:
        avg = -math.inf if inf_count == samples else float(
            np.mean([v for v in vals if v != -math.inf] or [-math.inf])
        )
        return PshReport(
            center_label, radius, samples, center_value, avg, -math.inf, inf_count,
            "PASS", tol, "center at -inf: submean holds trivially",
        )
    if inf_count > 0:
        return PshReport(
            center_label, radius, samples, center_value, -math.inf, math.inf,
            inf_count, "FAIL", tol,
            f"{inf_count} circle samples at -inf while center is finite",
        )
    avg = float(np.mean(vals))
    violation = center_value - avg
    verdict = "PASS" if violation <= tol else "FAIL"
    return PshReport(
        center_label, radius, samples, center_value, avg, violation, inf_count,
        verdict, tol,
    )


def _circle_verdict(problem, center_label, radius, tol, W, Z) -> PshReport:
    """Submean verdict of log K at (W, Z): the center first, then the circle."""
    lk = log_kernel_on_fiber(problem, W, Z).tolist()
    return _submean_verdict(center_label, radius, lk[0], lk[1:], tol)


def psh_verify_base(
    problem: FamilyProblem,
    z,
    w0,
    r: float,
    samples: int = 64,
    direction=None,
    tol: float = SUBMEAN_TOL,
) -> PshReport:
    """Submean check of log K on a base-disc circle at fixed fiber point z."""
    m = problem.base_domain.arity
    w0t = _as_point(w0, m)
    zt = _as_point(z, problem.fiber_domain.arity)
    if direction is None:
        direction = (1.0,) + (0.0,) * (m - 1)
    dirt = tuple(complex(d) for d in direction)
    ts = [0j] + _circle(r, samples)
    W = np.array([[wi + t * di for wi, di in zip(w0t, dirt)] for t in ts])
    if not _inside(problem.base_domain, W).all():
        raise ValueError("circle leaves the base domain")
    return _circle_verdict(problem, zt + w0t, r, tol, W, zt)


def psh_verify_joint(
    problem: FamilyProblem,
    z0,
    w0,
    dz,
    dw,
    radius: float,
    samples: int = 64,
    tol: float = SUBMEAN_TOL,
) -> PshReport:
    """Submean check of log K along an arbitrary complex line in (z, w)."""
    n = problem.fiber_domain.arity
    m = problem.base_domain.arity
    z0t, w0t = _as_point(z0, n), _as_point(w0, m)
    dzt, dwt = _as_point(dz, n), _as_point(dw, m)
    ts = [0j] + _circle(radius, samples)
    Z = np.array([[zi + t * di for zi, di in zip(z0t, dzt)] for t in ts])
    W = np.array([[wi + t * di for wi, di in zip(w0t, dwt)] for t in ts])
    if not _inside(problem.fiber_domain, Z).all():
        raise ValueError("line leaves the fiber domain")
    if not _inside(problem.base_domain, W).all():
        raise ValueError("line leaves the base domain")
    return _circle_verdict(problem, z0t + w0t, radius, tol, W, Z)


def usc_spot_check(
    problem: FamilyProblem,
    z0,
    w0,
    scales: Sequence[float],
    samples_per_level: int = 24,
    tol: float = SUBMEAN_TOL,
    seed: int = 0,
    value_fn: Callable | None = None,
) -> dict:
    """limsup spot check of upper-semicontinuity near (z0, w0).

    Samples nested random offsets scaled down level by level and compares
    the per-level max of the log-kernel against the center value.  value_fn
    may replace the kernel (used by FAIL-path fixtures).
    """
    scales = [float(s) for s in scales]
    if len(scales) < 3:
        raise ValueError("need at least 3 neighborhood levels")
    if any(s2 >= s1 for s1, s2 in zip(scales, scales[1:])):
        raise ValueError("scales must be strictly decreasing")
    n = problem.fiber_domain.arity
    m = problem.base_domain.arity
    z0t, w0t = _as_point(z0, n), _as_point(w0, m)
    if value_fn is None:
        value_fn = lambda z, w: log_kernel_on_fiber(problem, w, z)
    rng = np.random.default_rng(seed)
    # nested offsets: one draw at unit scale, shrunk per level
    offs = rng.standard_normal((samples_per_level, n + m, 2))
    offs = offs[:, :, 0] + 1j * offs[:, :, 1]
    offs /= np.maximum(np.abs(offs).max(axis=1, keepdims=True), 1.0)
    center = value_fn(z0t, w0t)
    levels = []
    for s in scales:
        best = -math.inf
        for row in offs:
            z = tuple(zi + s * d for zi, d in zip(z0t, row[:n]))
            w = tuple(wi + s * d for wi, d in zip(w0t, row[n:]))
            if not (
                problem.fiber_domain.contains(z, slack=0)
                and problem.base_domain.contains(w, slack=0)
            ):
                continue
            best = max(best, value_fn(z, w))
        levels.append(best)
    trend_ok = all(b <= a + tol for a, b in zip(levels, levels[1:]))
    if center == -math.inf:
        # limsup must sink toward -inf as the neighborhood shrinks
        final_ok = levels[-1] == -math.inf or levels[-1] <= levels[0] - 1.0
    else:
        # the gap between the neighborhood max and the center value must
        # shrink with the scale (it is O(scale) for a continuous function)
        gaps = [lv - center for lv in levels]
        final_ok = gaps[-1] <= tol or gaps[-1] <= 0.5 * gaps[0]
    return {
        "center": center,
        "levels": levels,
        "scales": scales,
        "verdict": "PASS" if (trend_ok and final_ok) else "FAIL",
        "tolerance": tol,
    }


def scan_base(problem: FamilyProblem, z, w_grid) -> list[tuple[float, float, float]]:
    """Log-kernel surface rows (w_re, w_im, logK) over a base grid (m = 1)."""
    if problem.base_domain.arity != 1:
        raise ValueError("scan_base requires a one-dimensional base")
    zt = _as_point(z, problem.fiber_domain.arity)
    ws = [complex(w) for w in w_grid]
    lk = log_kernel_on_fiber(problem, np.array(ws).reshape(-1, 1), zt)
    return [(w.real, w.imag, v) for w, v in zip(ws, lk.tolist())]


def square_grid(half_width: float, count: int) -> list[complex]:
    """count x count complex grid on [-h, h]^2, deterministic ordering."""
    xs = np.linspace(-half_width, half_width, count)
    return [complex(a, b) for a in xs for b in xs]
