"""Fiberwise kernel maps and numerical log-psh verification.

For a family problem, kernel_on_fiber(w, z) assembles the fiber model for
the restricted weight, evaluates the functional family at w, and returns the
extremal kernel value.  The verifiers check the submean-value inequality of
the log-kernel on circles in the base, in the fiber, and along mixed complex
lines — a direct numerical rendering of log-plurisubharmonicity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .bergman import GramModel, QuadSpec, assemble_gram, orthonormalize, xi_kernel
from .weights import Polydisc

SUBMEAN_TOL = 1e-3


@dataclass
class FamilyProblem:
    fiber_domain: Polydisc
    base_domain: Polydisc
    joint_weight: object
    family: object  # FunctionalFamily or AntiHolomorphicControl
    degree: int
    quad: QuadSpec = field(default_factory=QuadSpec)

    @property
    def holomorphic(self) -> bool:
        return getattr(self.family, "holomorphic", True)

    def fiber_model(self, w: tuple[complex, ...]) -> GramModel:
        fw = self.joint_weight.fiber(tuple(complex(x) for x in w))
        return orthonormalize(
            assemble_gram(self.fiber_domain, fw, self.degree, self.quad)
        )


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


def kernel_on_fiber(problem: FamilyProblem, w, z) -> float:
    """Kernel of the fiber over w for the functional xi(w), evaluated at z."""
    wt = _as_point(w, problem.base_domain.arity)
    zt = _as_point(z, problem.fiber_domain.arity)
    if not problem.base_domain.contains(wt, slack=1e-9):
        raise ValueError(f"base point {wt} outside base domain")
    model = problem.fiber_model(wt)
    xi = problem.family.eval(wt)
    return xi_kernel(model, xi, zt)


def log_kernel_on_fiber(problem: FamilyProblem, w, z) -> float:
    K = kernel_on_fiber(problem, w, z)
    return math.log(K) if K > 0 else -math.inf


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
    if samples < 16:
        raise ValueError("need at least 16 circle samples")
    center_value = fn(0.0 + 0.0j)
    thetas = 2.0 * math.pi * np.arange(samples) / samples
    vals = [fn(radius * complex(math.cos(t), math.sin(t))) for t in thetas]
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

    def at(t: complex):
        w = tuple(wi + t * di for wi, di in zip(w0t, dirt))
        if not problem.base_domain.contains(w, slack=1e-9):
            raise ValueError("circle leaves the base domain")
        return log_kernel_on_fiber(problem, w, zt)

    return submean_check(at, zt + w0t, r, samples, tol)


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

    def at(t: complex):
        z = tuple(zi + t * di for zi, di in zip(z0t, dzt))
        w = tuple(wi + t * di for wi, di in zip(w0t, dwt))
        if not problem.fiber_domain.contains(z, slack=1e-9):
            raise ValueError("line leaves the fiber domain")
        if not problem.base_domain.contains(w, slack=1e-9):
            raise ValueError("line leaves the base domain")
        return log_kernel_on_fiber(problem, w, z)

    return submean_check(at, z0t + w0t, radius, samples, tol)


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
    rows = []
    for w in w_grid:
        wc = complex(w)
        rows.append((wc.real, wc.imag, log_kernel_on_fiber(problem, (wc,), zt)))
    return rows


def square_grid(half_width: float, count: int) -> list[complex]:
    """count x count complex grid on [-h, h]^2, deterministic ordering."""
    xs = np.linspace(-half_width, half_width, count)
    return [complex(a, b) for a in xs for b in xs]
