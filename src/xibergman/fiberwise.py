"""Fiberwise kernel maps and numerical log-psh verification.

fiber_kernels(fiber_domain, joint_weight, degree, quad, alphas, X, W, Z) is
the one fiber-model provider.  It evaluates, in one batch, the kernel of
each row p of the coefficient rows X, the functional
sum_alpha X[p, alpha] e_alpha, at a fiber point (one shared by all rows, or
one per row) over the base point W[p].  ``kernel_on_fiber(problem, W, Z)``
is its front for a functional family: it checks the points and passes the
family's values xi_alpha(W) as the rows; ``ideal.psi_scan`` passes the
annihilator rows B(w) of every point in U at once.  Base points whose
fibers share a Gram matrix, up to a scalar, share one model:

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
  That model is built once per kernel call, and ``scan_psh`` takes every
  circle, line and grid of a scan in one call;
- any other joint weight (the pair quadratic, whose centers move with w,
  and joint divisors with c != 1) gets one fiber model per distinct base
  point in each call.

Each model has one ``bergman.TaylorShift``, and its rows run the kernel
body of ``bergman.kernels`` at z - center in blocks of at most ``ROWS``; a
row's kernel depends on its own coefficients alone, so rows of any number
of functionals, each zero off its own alphas, share one run.
``log_kernel_on_fiber`` returns log K_psi + s(w) without exponentiating, so
a large shift neither overflows the kernel nor underflows the Gram.  Psi_N
of ``ideal`` and the Jensen kernels of ``extension`` read the provider too.
``scan_psh`` checks the submean-value inequality of the log-kernel on base
circles and complex lines, and scans a base grid, in one kernel call: a
direct numerical rendering of log-plurisubharmonicity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .bergman import (
    GramModel,
    QuadSpec,
    TaylorShift,
    _distinct,
    _kernel_rows,
    _points_in,
    _recentered,
    _times_poly,
    assemble_gram,
    orthonormalize,
)
from .config import ConfigError, _key
from .weights import Polydisc, _to_json, check_joint_weight, divisor_split

SUBMEAN_TOL = 1e-3
#: rows per block of ``fiber_kernels``, each block with the tables of its own
#: fiber points: its arrays do not grow with a batch
ROWS = 512


@dataclass
class FamilyProblem:
    """A joint weight and a functional family over a fiber and a base
    polydisc.  It holds no model: each kernel call builds its own
    (``_fiber_models``)."""

    fiber_domain: Polydisc
    base_domain: Polydisc
    joint_weight: object
    family: object  # FunctionalFamily or AntiHolomorphicControl
    degree: int
    quad: QuadSpec = field(default_factory=QuadSpec)

    def __post_init__(self):
        check_joint_weight(
            self.joint_weight, self.fiber_domain.arity, self.base_domain.arity
        )


@dataclass
class PshReport:
    """One circle's submean verdict; ``to_json`` writes each field under the
    camelCase of its name (``config._key``), center_value as centerValue."""

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
        return _to_json(self, _REPORT_NAMES)


_REPORT_NAMES = tuple((_key(f.name), f.name) for f in fields(PshReport))


def kernel_on_fiber(problem: FamilyProblem, w, z, log: bool = False,
                    model: GramModel | None = None):
    """Kernels K_{xi(w)}(z) of the fibers over the base points w.

    w is one base point or an array of them (P, m); z is one fiber point,
    shared by every base point, or an array (P, n) of them.  Returns a float
    when both are single points, else an array of P kernels.  This checks
    the points and takes the family's values at them; ``fiber_kernels``
    does the rest, with the same log and model.
    """
    W = _points_in(problem.base_domain, w, "base point")
    Z = _points_in(problem.fiber_domain, z, "evaluation point")
    if len(Z) not in (1, len(W)):
        raise ValueError(f"{len(W)} base points but {len(Z)} fiber points")
    if problem.family.z_arity != problem.fiber_domain.arity:
        raise ValueError("functional arity mismatch")
    K = fiber_kernels(problem.fiber_domain, problem.joint_weight, problem.degree,
                      problem.quad, problem.family.alphas,
                      problem.family.values(W), W, Z, log, model)
    return float(K[0]) if np.ndim(w) < 2 and np.ndim(z) < 2 else K


def fiber_kernels(fiber_domain: Polydisc, joint_weight, degree: int,
                  quad: QuadSpec, alphas, X: np.ndarray, W: np.ndarray,
                  Z: np.ndarray, log: bool = False,
                  model: GramModel | None = None) -> np.ndarray:
    """The kernel of each row p of X, the functional
    sum_alpha X[p, alpha] e_alpha, at the fiber point Z[p] (or the one row
    of Z) over the base point W[p]: the core of ``kernel_on_fiber``, on
    points it has checked.

    The rows of each fiber model (``_fiber_models``) run the kernel body of
    ``bergman.kernels`` (``bergman._kernel_rows``), and are rounded as it
    rounds them, in blocks of at most ``ROWS`` rows on the tables of their
    own fiber points: a row's kernel is that of its nonzero coefficients
    alone, whatever shares its block.  A kernel is 0 where
    ``bergman.zero_kernels`` finds it vanishing.  For a joint weight
    psi(z) + s(w) the kernel is e^{s(w)} K_psi, which is inf where that
    overflows; with log=True the result is log K_psi + s(w), taken by one
    ``np.log`` call over the kernels that are positive, -inf exactly where
    K_psi vanishes, and nothing is exponentiated.  model is a fiber model
    already built by ``assemble_gram`` with its default labels and method,
    which serves in place of a new one where it is the same (see
    ``_fiber_models``).
    """
    U = Z - np.array(fiber_domain.center)
    K = np.zeros(len(W))
    models, s = _fiber_models(fiber_domain, joint_weight, degree, quad, alphas,
                              W, model)
    for shift, rows, fiber in models:
        for lo in range(0, len(rows), ROWS):
            r = rows[lo:lo + ROWS]
            k, _, zero = _kernel_rows(fiber, shift, X[r],
                                      U if len(U) == 1 else U[r], W[r])
            K[r] = np.where(zero, 0.0, k)
    if log:
        return np.log(K, out=np.full(len(K), -math.inf), where=K > 0) + s
    with np.errstate(over="ignore"):
        return np.where(K > 0, K * np.exp(s), 0.0)


def log_kernel_on_fiber(problem: FamilyProblem, w, z,
                        model: GramModel | None = None):
    """log of ``kernel_on_fiber``: log K_psi + s(w), -inf where K_psi vanishes."""
    return kernel_on_fiber(problem, w, z, log=True, model=model)


def _fiber_models(fiber_domain: Polydisc, joint_weight, degree: int,
                  quad: QuadSpec, alphas, W: np.ndarray,
                  given: GramModel | None = None):
    """The fiber models over W, and the shift s(w) of each row.

    The models come as [(shift, rows, model), ...], one per fiber model:
    its ``TaylorShift`` over alphas, the rows it serves and the model,
    orthonormalized; the kernel of row i is e^{s_i} times that of its model
    (``bergman._kernel_rows``).  A divisor part 2 log|g(z, w)|
    (``weights.divisor_split``) is split off once: the rest is modeled like
    any other joint weight, and its basis times g(z, w) is one joint basis,
    local in z and global in w.  A joint weight psi(z) + s(w) has one model,
    of psi, for every fiber, up to the scalar shift s(w).  Any other joint
    weight (the pair quadratic, joint divisors with c != 1) gets one model
    per distinct row of W (``bergman._distinct``, by bytes).  The models live
    for this call only.  A given model (the central fiber model of
    ``extension``) replaces the one a fiber weight would get when its
    weight, domain, degree and quadrature are those of that fiber: the Gram
    would be assembled and orthonormalized again, identically.
    """
    n, m = fiber_domain.arity, W.shape[1]
    divisor, jw = divisor_split(joint_weight)
    if divisor is not None:
        # g(z, w) in the fiber's local coordinates u = z - center, w global
        center = fiber_domain.center + (0j,) * m
        g = _recentered(divisor.g, (0j,) * (n + m), center)
    if hasattr(jw, "shift_split"):
        psi, s = jw.shift_split(W)
        fibers = [(psi, np.arange(len(W)))]
    else:
        s = np.zeros(len(W))
        points, at = _distinct(W, len(W))
        rows = np.split(np.argsort(at, kind="stable"), np.cumsum(np.bincount(at))[:-1])
        fibers = [(jw.fiber(w), r) for w, r in zip(points.tolist(), rows)]
    models = []
    for fw, rows in fibers:
        if given is not None and (given.domain, given.degree, given.quad,
                                  given.weight) == (fiber_domain, degree, quad, fw):
            model = given if given.frame is not None else orthonormalize(given)
        else:
            model = orthonormalize(assemble_gram(fiber_domain, fw, degree, quad))
        E, C, S = model.exps, model.coeffs, model.seg
        if divisor is not None:
            # |g b|^2 e^{-2 log|g| - rest} = |b|^2 e^{-rest}: the basis g(z, w) b
            E, C, S = _times_poly(g, np.hstack([E, np.zeros((len(E), m), dtype=int)]))
        models.append((TaylorShift(alphas, E, C, S, n, model.size), rows, model))
    return models, s


class Circle(NamedTuple):
    """A ``scan-psh`` circle: (z + t dz, w0 + t dw), or (z, w0 + t) for a
    base circle, at t = 0 and ``samples`` t with |t| = radius."""

    z: tuple | None
    w0: tuple
    radius: float
    samples: int = 64
    kind: str = "base"
    dz: tuple | None = None
    dw: tuple | None = None


def _circle(radius: float, samples: int):
    """Re and Im of t = 0, then of radius e^{i theta_k}, k < samples."""
    if samples < 16:
        raise ConfigError("need at least 16 circle samples", ["samples"])
    if not radius > 0:
        raise ConfigError(f"must be positive, not {radius!r}", ["radius"])
    thetas = 2.0 * math.pi * np.arange(samples) / samples
    t = np.zeros((2, samples + 1))
    t[0, 1:] = radius * np.cos(thetas)
    t[1, 1:] = radius * np.sin(thetas)
    return t


def _coordinates(x, arity: int, key: str) -> np.ndarray:
    """A point as an array of its arity complex coordinates."""
    p = np.atleast_1d(np.asarray(x, dtype=complex))
    if p.shape != (arity,):
        raise ConfigError(f"{p.size} coordinates, not {arity}", [key])
    return p


def _line(p0: np.ndarray, d: np.ndarray, tr: np.ndarray, ti: np.ndarray):
    """The rows p0 + t d, t = tr + i ti, rounded as Python's complex product."""
    P = np.empty((len(tr), len(p0)), dtype=complex)
    P.real = p0.real + (tr[:, None] * d.real - ti[:, None] * d.imag)
    P.imag = p0.imag + (tr[:, None] * d.imag + ti[:, None] * d.real)
    return P


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
    tr, ti = _circle(radius, samples)
    vals = [fn(complex(a, b)) for a, b in zip(tr.tolist(), ti.tolist())]
    return _submean_verdict(center_label, radius, vals[0], vals[1:], tol)


def _submean_verdict(
    center_label: tuple, radius: float, center_value: float, vals, tol: float
) -> PshReport:
    """The submean_check verdict on a center value and the circle samples."""
    vals = np.asarray(vals, dtype=float)
    samples = len(vals)
    inf_count = int(np.count_nonzero(vals == -math.inf))
    if center_value == -math.inf:
        live = vals[vals != -math.inf]
        avg = float(np.mean(live)) if len(live) else -math.inf
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


def _track(problem: FamilyProblem, c: Circle, z: np.ndarray):
    """A circle's rows (W, Z), center first (Z None: all at z), and label."""
    fiber, base = problem.fiber_domain, problem.base_domain
    z0 = z if c.z is None else _coordinates(c.z, fiber.arity, "z")
    w0 = _coordinates(c.w0, base.arity, "w0")
    tr, ti = _circle(c.radius, c.samples)
    if c.kind == "joint":
        if c.dz is None or c.dw is None:
            raise ConfigError("a joint circle needs dz and dw")
        dw = _coordinates(c.dw, base.arity, "dw")
        Z = _line(z0, _coordinates(c.dz, fiber.arity, "dz"), tr, ti)
        if not fiber.contains(Z).all():
            raise ConfigError("line leaves the fiber domain")
    else:
        dw, Z = np.eye(1, base.arity, dtype=complex)[0], None
    if any(abs(wk - ck) + c.radius * abs(dk) >= rk for wk, dk, ck, rk in zip(
            w0.tolist(), dw.tolist(), base.center, base.radii)):
        raise ConfigError("circle radius exceeds the base domain")
    return _line(w0, dw, tr, ti), Z, tuple(z0.tolist() + w0.tolist())


def scan_psh(
    problem: FamilyProblem,
    z,
    circles: Sequence[Circle] = (),
    grid=(),
    tol: float = SUBMEAN_TOL,
) -> tuple[list[PshReport], np.ndarray]:
    """The circles' reports, and log K at the grid points (m = 1) at z, from
    one kernel call.  ``ConfigError`` names the key (``circles[1].dz``) of a
    point of another arity, a radius <= 0 or a track leaving a domain."""
    n, m = problem.fiber_domain.arity, problem.base_domain.arity
    z = _coordinates(z, n, "z")
    grid = np.asarray(grid, dtype=complex).ravel()
    if len(grid) and m != 1:
        raise ValueError("a base grid requires a one-dimensional base")
    tracks = []
    for i, c in enumerate(circles):
        try:
            tracks.append(_track(problem, c, z))
        except ConfigError as exc:
            exc.path[:0] = ["circles", i]
            raise
    tracks.append((grid.reshape(-1, m), None, None))
    if any(Z is not None for _, Z, _ in tracks):  # lines: a fiber point per row
        z = np.vstack([np.broadcast_to(z, (len(W), n)) if Z is None else Z
                       for W, Z, _ in tracks])
    W = np.vstack([W for W, _, _ in tracks])
    lk = log_kernel_on_fiber(problem, W, z) if len(W) else np.zeros(0)
    reports, lo = [], 0
    for c, (_, _, label) in zip(circles, tracks):
        hi = lo + 1 + c.samples
        reports.append(_submean_verdict(label, c.radius, float(lk[lo]),
                                        lk[lo + 1:hi], tol))
        lo = hi
    return reports, lk[lo:]


def psh_verify_base(
    problem: FamilyProblem,
    z,
    w0,
    r: float,
    samples: int = 64,
    direction=None,
    tol: float = SUBMEAN_TOL,
) -> PshReport:
    """Submean check of log K on a base-disc circle at fixed fiber point z,
    along the first base coordinate or along ``direction``."""
    circle = Circle(None, w0, r, samples)
    if direction is not None:  # the line of direction (0, direction)
        circle = circle._replace(kind="joint", dz=(0,) * problem.fiber_domain.arity,
                                 dw=direction)
    return scan_psh(problem, z, [circle], tol=tol)[0][0]


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
    circle = Circle(z0, w0, radius, samples, "joint", dz, dw)
    return scan_psh(problem, z0, [circle], tol=tol)[0][0]


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
    the per-level max of the log-kernel against the center value, all from
    one kernel call.  value_fn, called per point, may replace the kernel
    (used by FAIL-path fixtures).
    """
    scales = [float(s) for s in scales]
    if len(scales) < 3:
        raise ValueError("need at least 3 neighborhood levels")
    if any(s2 >= s1 for s1, s2 in zip(scales, scales[1:])):
        raise ValueError("scales must be strictly decreasing")
    n = problem.fiber_domain.arity
    m = problem.base_domain.arity
    z0, w0 = _coordinates(z0, n, "z0"), _coordinates(w0, m, "w0")
    rng = np.random.default_rng(seed)
    # nested offsets: one draw at unit scale, shrunk per level
    offs = rng.standard_normal((samples_per_level, n + m, 2))
    offs = offs[:, :, 0] + 1j * offs[:, :, 1]
    offs /= np.maximum(np.abs(offs).max(axis=1, keepdims=True), 1.0)
    Z, W, level = [z0[None]], [w0[None]], [-1]
    for k, s in enumerate(scales):
        Zs, Ws = z0 + s * offs[:, :n], w0 + s * offs[:, n:]
        keep = (problem.fiber_domain.contains(Zs, slack=0)
                & problem.base_domain.contains(Ws, slack=0))
        Z.append(Zs[keep])
        W.append(Ws[keep])
        level += [k] * int(keep.sum())
    Z, W, level = np.vstack(Z), np.vstack(W), np.array(level)
    if value_fn is None:
        vals = log_kernel_on_fiber(problem, W, Z)
    else:
        vals = np.array([value_fn(z, w) for z, w in zip(Z, W)], dtype=float)
    center = float(vals[0])
    levels = [float(vals[level == k].max(initial=-math.inf))
              for k in range(len(scales))]
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
    ws = np.asarray(w_grid, dtype=complex).ravel()
    lk = scan_psh(problem, z, grid=ws)[1]
    return list(zip(ws.real.tolist(), ws.imag.tolist(), lk.tolist()))


def square_grid(half_width: float, count: int) -> list[complex]:
    """count x count complex grid on [-h, h]^2, deterministic ordering."""
    xs = np.linspace(-half_width, half_width, count)
    return [complex(a, b) for a in xs for b in xs]
