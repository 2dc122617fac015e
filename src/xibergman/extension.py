"""Minimum-norm holomorphic extension from a central fiber.

Given a polynomial datum f on the fiber over w0 of a polydisc-times-disc
product, the minimizer of the joint weighted norm among truncated-basis
functions restricting to f on the fiber is found by a Schur-complement
solve: restriction to w = w0 fixes the coefficients b of the w-constant basis
elements to those of f, and the free ones solve G_FF y = -G_FC b.  The joint
Gram matrix comes from ``assemble_gram`` on the product domain, so a joint
weight radial about (center, w0) takes exact moments.  The optimal-constant
check compares the joint norm per unit base area against the fiber norm: the
ratio is at most 1 (with equality for base-independent weights), which is the
sharp constant pi r^2.  The Jensen diagnostic averages over a polar grid of
base nodes handled as arrays: one ``bergman.TaylorShift`` call on the (z, w)
terms of F gives the Taylor coefficients of F_w at z0 as polynomials in w,
evaluated by one Vandermonde matrix, and the log-kernels log K(w) come from
one batched ``fiberwise.log_kernel_on_fiber`` call, in log space throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .bergman import (
    EIG_CUTOFF_REL,
    GramModel,
    QuadSpec,
    TaylorShift,
    assemble_gram,
    extremal_function,
    orthonormalize,
)
from .family import PolyW
from .fiberwise import FamilyProblem, log_kernel_on_fiber
from .functional import (
    MultiIndex,
    TaylorData,
    multi_indices_upto,
    recenter,
)
from .weights import Polydisc, eval_weight, substitute_base

KKT_TOL = 1e-9
#: an optimal-constant ratio above 1 + RATIO_SLACK breaks the sharp bound 1
RATIO_SLACK = 5e-3
RESTRICTION_TOL = 1e-12


def _as_taylor(p: PolyW) -> TaylorData:
    return TaylorData((0.0,) * p.arity, dict(p.coeffs))


class InconsistentConstraintError(ValueError):
    """The fiber datum is not representable in the joint truncated basis."""


class ZeroFiberNormError(ValueError):
    """The fiber datum has zero weighted norm; the ratio is undefined."""


@dataclass(frozen=True)
class _JointView:
    """Pointwise view of a joint weight as a weight on the product domain."""

    joint: object
    z_arity: int
    variant = "joint_view"

    @property
    def arity(self) -> int:
        return self.z_arity + self.joint.w_arity

    def evaluate(self, p: Sequence[complex]) -> float:
        z, w = tuple(p[: self.z_arity]), tuple(p[self.z_arity :])
        return eval_weight(self.joint, z, w)


@dataclass
class ExtensionProblem:
    fiber_domain: Polydisc
    base_radius: float
    joint_weight: object  # joint weight with .fiber(w)
    w0: complex
    f: PolyW  # fiber datum, polynomial in z
    dz: int
    dw: int
    quad: QuadSpec = field(default_factory=QuadSpec)

    def __post_init__(self):
        if self.base_radius <= 0:
            raise ValueError("base disc radius must be positive")
        if getattr(self.joint_weight, "w_arity", 1) != 1:
            raise ValueError("extension supports a one-dimensional base only")
        self.w0 = complex(self.w0)
        if abs(self.w0) != 0 and not math.isfinite(abs(self.w0)):
            raise ValueError("bad base center")
        if self.f.arity != self.fiber_domain.arity:
            raise ValueError("fiber datum arity mismatch")

    @property
    def n(self) -> int:
        return self.fiber_domain.arity

    def joint_domain(self) -> Polydisc:
        return Polydisc(
            self.fiber_domain.radii + (self.base_radius,),
            self.fiber_domain.center + (self.w0,),
        )

    def joint_labels(self) -> list[tuple[MultiIndex, int]]:
        return [
            (a, k)
            for a in multi_indices_upto(self.n, self.dz)
            for k in range(self.dw + 1)
        ]


def _joint_gram(prob: ExtensionProblem) -> GramModel:
    """Gram model on the product domain with the (dz, dw) bidegree basis."""
    weight = prob.joint_weight.as_product_weight()
    if weight is None:
        weight = _JointView(prob.joint_weight, prob.n)
    labels = [a + (k,) for a, k in prob.joint_labels()]
    return assemble_gram(
        prob.joint_domain(), weight, prob.dz + prob.dw, prob.quad, labels=labels
    )


@dataclass
class ExtensionResult:
    problem: ExtensionProblem
    model: GramModel  # joint Gram model
    coeffs: np.ndarray  # joint coefficient vector in the local basis
    kkt_residual: float
    null_basis: np.ndarray  # columns spanning the free (k > 0) coefficients

    def joint_poly(self) -> PolyW:
        return self.model.poly_from_coeffs(self.coeffs)

    def restrict(self, w: complex) -> PolyW:
        return substitute_base(self.joint_poly(), self.problem.n, (complex(w),))

    @property
    def joint_norm(self) -> float:
        return self.model.norm_sq(self.coeffs)


def minimal_extension(prob: ExtensionProblem) -> ExtensionResult:
    """Minimize the joint weighted norm subject to exact fiber restriction.

    The joint basis is local at (center, w0), so restriction to w = w0 keeps
    exactly the basis elements with k = 0 (the fixed set C), and fixes their
    coefficients b to those of f in (z - center)^alpha.  The free coefficients
    y minimize the norm: G_FF y = -G_FC b (Schur complement).
    """
    model = _joint_gram(prob)
    fixed = {a[:-1]: j for j, a in enumerate(model.basis_labels) if a[-1] == 0}
    c = np.zeros(model.size, dtype=complex)
    local = recenter(_as_taylor(prob.f), prob.fiber_domain.center)
    for a, v in local.coeffs.items():
        if a in fixed:
            c[fixed[a]] = v
        elif v != 0:
            raise InconsistentConstraintError(
                f"fiber datum monomial {a} outside the joint model span"
                f" (degree {prob.dz})"
            )
    free = np.array(
        [j for j, a in enumerate(model.basis_labels) if a[-1] != 0], dtype=int
    )
    G = 0.5 * (model.gram + np.conj(model.gram).T)
    if len(free):
        # c is still zero on F, so G[F] @ c is G_FC b
        y, *_ = np.linalg.lstsq(
            G[np.ix_(free, free)], -G[free] @ c, rcond=EIG_CUTOFF_REL
        )
        c[free] = y
    # the residual of c over its largest modulus: the norms of a steep
    # extension (|c| ~ 1e285) overflow
    top = np.abs(c).max(initial=0.0)
    u = c / top if top > 0 else c
    scale = max(1.0, float(np.linalg.norm(G, ord=2)) * float(np.linalg.norm(u)))
    kkt = float(np.linalg.norm(G[free] @ u)) / scale
    N = np.eye(model.size, dtype=complex)[:, free]
    return ExtensionResult(prob, model, c, kkt, N)


def fiber_norm(prob: ExtensionProblem) -> float:
    """Weighted fiber norm of the datum on the central fiber."""
    fmodel = assemble_gram(
        prob.fiber_domain,
        prob.joint_weight.fiber((prob.w0,)),
        prob.dz,
        prob.quad,
    )
    index = {a: i for i, a in enumerate(fmodel.basis_labels)}
    local = recenter(_as_taylor(prob.f), prob.fiber_domain.center)
    c = np.zeros(fmodel.size, dtype=complex)
    for a, v in local.coeffs.items():
        if a not in index:
            raise InconsistentConstraintError(
                f"fiber datum monomial {a} outside the fiber model span"
            )
        c[index[a]] = v
    return fmodel.norm_sq(c)


def optimal_constant_check(
    prob: ExtensionProblem, result: ExtensionResult, fn: float | None = None
) -> float:
    """ratio = joint norm per unit base area over the fiber norm; <= 1 is sharp.

    ``fn`` is the fiber norm when it is already known.
    """
    if fn is None:
        fn = fiber_norm(prob)
    if fn <= 0:
        raise ZeroFiberNormError("fiber datum has zero weighted norm")
    area = math.pi * prob.base_radius**2
    return result.joint_norm / (area * fn)


def extension_report(prob: ExtensionProblem, result: ExtensionResult) -> dict:
    fn = fiber_norm(prob)
    return {
        "ratio": optimal_constant_check(prob, result, fn),
        "fiberNorm": fn,
        "jointNorm": result.joint_norm,
        "kktResidual": result.kkt_residual,
    }


def _jensen_actions(F: PolyW, n: int, family, w: np.ndarray, z0) -> np.ndarray:
    """xi(w) . F_w at z0 for each base node w, F a polynomial in (z, w).

    One ``TaylorShift`` call takes the actions at z0 of every e_alpha on F's
    terms, summed per power of w: with powers[node, k] = w^k,
    (powers @ shift)[node, j] is the alpha_j-th Taylor coefficient of F_w.
    """
    E = np.array(list(F.coeffs), dtype=int).reshape(len(F.coeffs), n + 1)
    C = np.array(list(F.coeffs.values()), dtype=complex)
    top = int(E[:, n].max(initial=0))
    alphas = list(family.terms)
    shift = TaylorShift(alphas, E[:, :n], C, E[:, n], n, top + 1).actions(
        np.eye(len(alphas)), np.array([z0])
    )
    powers = np.vander(w, top + 1, increasing=True)
    return np.sum(family.values(w[:, None]) * (powers @ shift.T), axis=1)


def jensen_diagnostic(
    prob_template: ExtensionProblem,
    family,
    z0: Sequence[complex],
    radial_nodes: int = 16,
    angular_nodes: int = 32,
    tol: float = 1e-3,
) -> dict:
    """Average of log|xi(w).F_w(z0)|^2 - log K(w) over the base disc.

    Takes the extremal fiber datum for xi(w0) at z0, extends it minimally,
    and checks the averaged lower bound against log of the fiber norm.  The
    inequality is the mechanism that transfers the extremal problem across
    fibers.  family is a FunctionalFamily in one base variable.  A z0 of
    the wrong arity (ArityMismatchError) or outside the fiber disc
    (ValueError) is refused by ``extremal_function``, before the extension
    is solved.
    """
    n = prob_template.n
    z0 = tuple(complex(x) for x in z0)
    w0, r = prob_template.w0, prob_template.base_radius

    fmodel = orthonormalize(
        assemble_gram(
            prob_template.fiber_domain,
            prob_template.joint_weight.fiber((w0,)),
            prob_template.dz,
            prob_template.quad,
        )
    )
    xi0 = family.eval((w0,))
    c = extremal_function(fmodel, xi0, z0)
    f = fmodel.poly_from_coeffs(c)

    prob = ExtensionProblem(
        prob_template.fiber_domain,
        r,
        prob_template.joint_weight,
        w0,
        f,
        prob_template.dz,
        prob_template.dw,
        prob_template.quad,
    )
    ext = minimal_extension(prob)
    F = ext.joint_poly()
    lhs = math.log(fiber_norm(prob))

    t, wt = np.polynomial.legendre.leggauss(radial_nodes)
    rr = 0.5 * r * (t + 1.0)
    wr = 0.5 * r * wt
    thetas = 2.0 * math.pi * np.arange(angular_nodes) / angular_nodes
    w = (w0 + rr[:, None] * (np.cos(thetas) + 1j * np.sin(thetas))[None, :]).ravel()
    da = np.repeat(wr * rr * (2.0 * math.pi / angular_nodes), angular_nodes)

    act = _jensen_actions(F, n, family, w, z0)
    base = Polydisc((r,), (w0,))
    # log K_psi + s(w): a large shift neither underflows a fiber Gram nor
    # overflows its kernel
    logK = log_kernel_on_fiber(
        FamilyProblem(prob.fiber_domain, base, prob.joint_weight, family,
                      prob.dz, prob.quad),
        w[:, None], z0,
    )

    live = (act != 0) & (logK > -math.inf)
    terms = np.full(len(w), -math.inf)
    # 2 log|act|, not log |act|^2: the square overflows beyond |act| ~ 1e154
    terms[live] = 2 * np.log(np.abs(act[live])) - logK[live]
    rhs = float(da @ terms) / (math.pi * r**2)
    return {
        "lhs": lhs,
        "rhs": rhs,
        "margin": lhs - rhs,
        "areaCheck": float(da.sum()) / (math.pi * r**2),
        "holds": bool(lhs >= rhs - tol),
        "tolerance": tol,
    }
