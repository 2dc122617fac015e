"""Minimum-norm holomorphic extension from a central fiber.

Given a polynomial datum f on the fiber over w0 of a polydisc-times-disc
product, the minimizer of the joint weighted norm among truncated-basis
functions restricting to f on the fiber is found by a Schur-complement
solve: restriction to w = w0 fixes the coefficients b of the w-constant basis
elements to those of f, and the free ones solve G_FF y = -G_FC b.  The joint
weight is a weight on the product domain (``weights.JointWeight``), so the
joint Gram matrix is ``assemble_gram`` of the joint weight itself: a joint
weight radial about (center, w0) takes exact moments, a joint divisor
2 log|g(z, w)| (c = 1) or a w-independent weight over a divisor the basis
g(z, w) (z - center)^alpha (w - w0)^k, and the pair quadratic and joint
divisors with c != 1 the tensor rule.  The optimal-constant check compares
the joint norm per unit base area against the fiber norm: the ratio is at
most 1 (with equality for base-independent weights), which is the sharp
constant pi r^2.  The solve and the fiber norm read the datum alike, on the
model's basis polynomials: on a divisor basis its coefficients are those of
f / g(., w0) (``_datum_coeffs``), so the divisor's k = 0 joint elements are
exactly the fiber model's basis.  The Jensen diagnostic stays on
coefficient arrays, with no PolyW between the extremal function and the
log-kernels: the extremal coefficient of the fiber label alpha is the
datum's coefficient on the joint element alpha + (0,), extended by the
Schur step of every datum (``_fill_free``), and its fiber norm is the
fiber model's quadratic form on those coefficients.  Over a polar grid of
base nodes, the terms c_j C[t] of F, read from the joint model's term
arrays in its local coordinates (z - center, w - w0), are one element that
keeps its w-exponents, and ``bergman.TaylorShift.actions``, the rule of
every kernel, gives the action of xi(w) on F_w at z0 at each node; the
family is evaluated at the nodes once, and its values serve those actions
and one ``fiberwise.fiber_kernels`` call for the log-kernels log K(w), in
log space throughout.

An ``ExtensionResult`` keeps what its solve used beside the solution: the
joint model, the Hermitian part of its Gram (1-D, as the model stores an
exactly diagonal Gram), the fixed and free index sets, the free rows G[F]
of that Gram (none for a diagonal, where G_FC = 0 and the free
coefficients are 0), the factor T of the free block G_FF (its
``bergman.orthonormal_frame``, the frame the kernels use, so T T^H is the
pseudo-inverse of G_FF under the EIG_CUTOFF_REL cutoff; a ``bergman.Frame``,
which ``Frame.solve`` applies) and the KKT scale ||G||_inf.  None depends
on the datum, so the diagnostic solves its extremal datum against the same
joint model and factorization (``with_datum``).  The result's central
fiber model, built once, gives both fiber norms and the extremal function,
and serves the Jensen kernels too where their fiber weight is its weight
(a w-independent weight, or a split quadratic at w0 = 0): one joint Gram,
one factorization and one central fiber model per command.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .bergman import (
    Frame,
    GramModel,
    QuadSpec,
    TaylorShift,
    _recentered,
    assemble_gram,
    extremal_function,
    gram_matrix,
    orthonormal_frame,
)
from .family import PolyW
from .fiberwise import fiber_kernels
from .functional import MultiIndex, multi_indices_upto
from .weights import (
    Polydisc,
    check_joint_weight,
    divisor_split,
    poly_quotient,
    polar_rule,
    substitute_base,
)

#: an optimal-constant ratio above 1 + RATIO_SLACK breaks the sharp bound 1
RATIO_SLACK = 5e-3


class InconsistentConstraintError(ValueError):
    """The fiber datum is not representable in the joint or fiber basis."""


class ZeroFiberNormError(ValueError):
    """The fiber datum has zero weighted norm; the ratio is undefined."""


@dataclass
class ExtensionProblem:
    fiber_domain: Polydisc
    base_radius: float
    joint_weight: object  # a JointWeight on fiber_domain x disc
    w0: complex
    f: PolyW  # fiber datum, polynomial in z
    dz: int
    dw: int
    quad: QuadSpec = field(default_factory=QuadSpec)

    def __post_init__(self):
        # a NaN radius passes a bare `<= 0` test and fails only in LAPACK
        if not (math.isfinite(self.base_radius) and self.base_radius > 0):
            raise ValueError(
                f"base disc radius must be finite and positive, got"
                f" {self.base_radius!r}"
            )
        if self.dz < 0 or self.dw < 0:
            raise ValueError(
                f"joint bidegree must be >= 0, got dz = {self.dz}, dw = {self.dw}"
            )
        check_joint_weight(self.joint_weight, self.fiber_domain.arity, 1)
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

    def joint_labels(self) -> list[MultiIndex]:
        """The bidegree labels alpha + (k,), |alpha| <= dz and k <= dw."""
        return [
            a + (k,)
            for a in multi_indices_upto(self.n, self.dz)
            for k in range(self.dw + 1)
        ]


def _joint_gram(prob: ExtensionProblem) -> GramModel:
    """Gram model on the product domain with the (dz, dw) bidegree basis."""
    return assemble_gram(prob.joint_domain(), prob.joint_weight,
                         prob.dz + prob.dw, prob.quad, labels=prob.joint_labels())


@dataclass
class ExtensionResult:
    """The minimal extension of a problem's datum, and what its solve used.

    The Hermitian part of the joint Gram, the fixed and free index sets, the
    factor of the free block G_FF and the KKT scale depend on the
    problem but not on its datum, so ``with_datum`` solves another datum on
    the same fiber against them, with no second factorization.  The central
    fiber model is built on first use and shared with those results.
    """

    problem: ExtensionProblem
    model: GramModel  # joint Gram model
    coeffs: np.ndarray  # joint coefficient vector in the local basis
    kkt_residual: float
    H: np.ndarray  # Hermitian part of the joint Gram: (p,) or (p, p)
    fixed: dict[MultiIndex, int]  # fiber label alpha -> its k = 0 element
    free: np.ndarray  # the k > 0 elements
    coupling: np.ndarray | None  # H[free]; None for a 1-D H, where G_FC = 0
    factor: Frame  # the orthonormal frame T of G_FF: T T^H = pinv(G_FF)
    gram_norm: float  # ||G||_inf >= ||G||_2, the scale of the KKT residual
    fiber: GramModel | None = None  # central fiber model, see fiber_model

    @property
    def gram(self) -> np.ndarray:
        return gram_matrix(self.H)

    def joint_poly(self) -> PolyW:
        return self.model.poly_from_coeffs(self.coeffs)

    def restrict(self, w: complex) -> PolyW:
        return substitute_base(self.joint_poly(), self.problem.n, (complex(w),))

    @property
    def joint_norm(self) -> float:
        return self.model.norm_sq(self.coeffs)

    @property
    def null_basis(self) -> np.ndarray:
        """Columns spanning the free (k > 0) coefficients: the identity's at free."""
        return (np.arange(self.model.size)[:, None] == self.free).astype(complex)

    def fiber_model(self) -> GramModel:
        """The model of the fiber weight at w0 in degree dz, built once."""
        if self.fiber is None:
            self.fiber = _fiber_gram(self.problem)
        return self.fiber

    def with_datum(self, f: PolyW) -> ExtensionResult:
        """The minimal extension of the fiber datum f against this joint model."""
        return _solve(replace(self.problem, f=f), self.model, self.H,
                      self.fixed, self.free, self.coupling, self.factor,
                      self.gram_norm, self.fiber_model())


def minimal_extension(prob: ExtensionProblem) -> ExtensionResult:
    """Minimize the joint weighted norm subject to exact fiber restriction.

    The joint basis is local at (center, w0), so restriction to w = w0 keeps
    exactly the basis elements with k = 0 (the fixed set C), and fixes their
    coefficients b to those of f in (z - center)^alpha, or of f / g(., w0) on
    a divisor basis g (z - center)^alpha (w - w0)^k.  The free coefficients
    y minimize the norm: G_FF y = -G_FC b (Schur complement), solved on the
    orthonormal frame of G_FF (``bergman.orthonormal_frame``), which the
    result keeps for ``with_datum``.  The KKT scale is ||G||_inf, the
    largest absolute row sum: max |lambda(G)| when G is diagonal, and a
    bound on it otherwise.  An exactly diagonal joint Gram (the closed-form
    and divisor paths), stored as its diagonal h, is its own Hermitian part:
    G_FC = 0, so y = 0, and h gives the scale and the frame of G_FF.
    """
    model = _joint_gram(prob)
    fixed = {a[:-1]: j for j, a in enumerate(model.basis_labels) if a[-1] == 0}
    free = np.flatnonzero([a[-1] != 0 for a in model.basis_labels])
    if model.G.ndim == 1:
        H, coupling = model.G, None
        gram_norm = float(np.abs(H).max(initial=0.0))
        factor = orthonormal_frame(H[free])[0]
    else:
        H = 0.5 * (model.G + np.conj(model.G).T)
        gram_norm = float(np.abs(H).sum(axis=1).max(initial=0.0))
        coupling = H[free]
        factor = orthonormal_frame(coupling[:, free])[0]
    return _solve(prob, model, H, fixed, free, coupling, factor, gram_norm)


def _fill_free(c: np.ndarray, coupling: np.ndarray | None, free: np.ndarray,
               T: Frame) -> np.ndarray:
    """c, zero on the free elements F, with c[F] = y solving G_FF y = -G_FC b
    for its fixed part b: the joint coefficients of the minimal extension.

    coupling is G[F] (None when G_FC = 0, where y = 0 and c is returned as
    it is).  T is the orthonormal frame of G_FF, so y = T T^H (-G_FC b) is
    the minimum-norm least-squares solution under the frame's cutoff."""
    if coupling is not None and len(free):
        # c is still zero on F, so G[F] @ c is G_FC b
        c[free] = T.solve(-coupling @ c)
    return c


def _solve(prob, model, H, fixed, free, coupling, factor, gram_norm,
           fiber=None) -> ExtensionResult:
    """The Schur-complement solve of ``minimal_extension`` for prob.f."""
    c = _fill_free(
        _datum_coeffs(prob.f, model, fixed, f"joint model span (degree {prob.dz})"),
        coupling, free, factor,
    )
    top = np.abs(c).max(initial=0.0)
    if coupling is None:
        # G_FC = 0 and c is 0 on the free elements, so G[free] @ c is 0, or
        # NaN where c is not finite
        kkt = math.nan if len(free) and not np.isfinite(top) else 0.0
    else:
        # the residual of c over its largest modulus: the norms of a steep
        # extension (|c| ~ 1e285) overflow
        u = c / top if top > 0 else c
        scale = max(1.0, gram_norm * float(np.linalg.norm(u)))
        kkt = float(np.linalg.norm(coupling @ u)) / scale
    return ExtensionResult(prob, model, c, kkt, H, fixed, free, coupling, factor,
                           gram_norm, fiber)


def _fiber_gram(prob: ExtensionProblem) -> GramModel:
    """Gram model of the fiber weight at w0 in degree dz."""
    return assemble_gram(
        prob.fiber_domain,
        prob.joint_weight.fiber((prob.w0,)),
        prob.dz,
        prob.quad,
    )


def fiber_norm(prob: ExtensionProblem, fmodel: GramModel | None = None) -> float:
    """Weighted fiber norm of the datum on the central fiber.

    ``fmodel`` is the central fiber model when it is already built (see
    ``ExtensionResult.fiber_model``).  The datum is read on the model's basis
    polynomials (``_datum_coeffs``).
    """
    if fmodel is None:
        fmodel = _fiber_gram(prob)
    index = {a: i for i, a in enumerate(fmodel.basis_labels)}
    return fmodel.norm_sq(_datum_coeffs(prob.f, fmodel, index, "fiber model span"))


def _datum_coeffs(f: PolyW, model: GramModel, index: dict, span: str):
    """The coefficients of the fiber datum f on the elements index[alpha].

    index maps alpha to the element (z - center)^alpha of a fiber model, or
    to (z - center)^alpha (w - w0)^0 of a joint model.  On a divisor basis
    g (z - center)^alpha the datum is read as f / g(., w0), whose
    restriction to the central fiber is f; a central fiber inside the
    divisor (g(., w0) = 0), a datum outside that span, or one with a nonzero
    coefficient outside index, raises InconsistentConstraintError.
    """
    n = f.arity
    divisor = divisor_split(model.weight)[0]
    if divisor is not None:
        w0 = model.domain.center[n:]
        g = substitute_base(divisor.g, n, w0)
        if not g.coeffs:
            fiber = " w0 = " + ", ".join(
                f"{w:g}" if w.imag else f"{w.real:g}" for w in w0
            ) if w0 else ""
            raise InconsistentConstraintError(
                f"the central fiber{fiber} lies in the divisor g = 0, where"
                " every basis element vanishes"
            )
        f = poly_quotient(g, f)
        if f is None:
            raise InconsistentConstraintError(
                "fiber datum outside the span of the divisor basis g (z - center)^alpha"
            )
    # the identity on a centered domain
    local = _recentered(f, (0j,) * n, model.domain.center[:n])
    return _placed(local.coeffs.items(), index, model.size, span)


def _placed(terms, index: dict, size: int, span: str) -> np.ndarray:
    """The vector of the given size with v at index[alpha] for each term
    (alpha, v); a nonzero v on an alpha outside index raises
    InconsistentConstraintError."""
    c = np.zeros(size, dtype=complex)
    for a, v in terms:
        if a in index:
            c[index[a]] = v
        elif v != 0:
            raise InconsistentConstraintError(
                f"fiber datum monomial {a} outside the {span}"
            )
    return c


def optimal_constant_check(
    prob: ExtensionProblem, result: ExtensionResult, fn: float | None = None
) -> float:
    """ratio = joint norm per unit base area over the fiber norm; <= 1 is sharp.

    ``fn`` is the fiber norm when it is already known.
    """
    if fn is None:
        fn = fiber_norm(prob, result.fiber_model())
    if fn <= 0:
        raise ZeroFiberNormError("fiber datum has zero weighted norm")
    area = math.pi * prob.base_radius**2
    return result.joint_norm / (area * fn)


def extension_report(prob: ExtensionProblem, result: ExtensionResult) -> dict:
    """ratio, fiber and joint norms and KKT residual; result extends prob."""
    fn = fiber_norm(prob, result.fiber_model())
    return {
        "ratio": optimal_constant_check(prob, result, fn),
        "fiberNorm": fn,
        "jointNorm": result.joint_norm,
        "kktResidual": result.kkt_residual,
    }


def _jensen_actions(model: GramModel, coeffs, alphas, xi: np.ndarray,
                    w: np.ndarray, z0) -> np.ndarray:
    """xi(w) . F_w at z0 for each base node w, F = sum_j coeffs_j b_j on a
    joint model, from the family's values xi (nodes x alphas).

    F is one element whose terms c_j C[t] u^Ez[t] v^Ew[t] come straight
    from the model's term arrays, in its local coordinates u = z - center
    and v = w - w0, and keep their w-exponents: ``TaylorShift.actions`` of
    the rows xi at u0 = z0 - center over the base points v, the rule of
    every kernel, gives each node's action.
    """
    n = model.arity - 1
    c = np.asarray(coeffs, dtype=complex)
    live = c[model.seg] != 0
    center = np.array(model.domain.center)
    C = c[model.seg[live]] * model.coeffs[live]
    shift = TaylorShift(alphas, model.exps[live], C, np.zeros(len(C), dtype=int),
                        n, 1)
    U = shift.tables(shift.z_factors(np.array([z0]) - center[:n]))
    return shift.actions(xi, U, (w - center[n])[:, None])[:, 0]


def jensen_diagnostic(
    prob_template: ExtensionProblem,
    family,
    z0: Sequence[complex],
    radial_nodes: int = 16,
    angular_nodes: int = 32,
    tol: float = 1e-3,
    result: ExtensionResult | None = None,
) -> dict:
    """Average of log|xi(w).F_w(z0)|^2 - log K(w) over the base disc.

    Takes the extremal fiber datum for xi(w0) at z0, extends it minimally,
    and checks the averaged lower bound against log of the fiber norm.  The
    inequality is the mechanism that transfers the extremal problem across
    fibers.  family is a FunctionalFamily in one base variable.  result is
    ``minimal_extension(prob_template)``, computed here when omitted: its
    central fiber model gives the extremal function and the fiber norm, and
    the extremal coefficients, placed on the joint model's k = 0 elements,
    are extended against its factorization.  A z0 of the wrong
    arity (ArityMismatchError) or outside the fiber disc (ValueError) is
    refused by ``extremal_function``, before the datum is extended.
    """
    if result is None:
        result = minimal_extension(prob_template)
    elif result.problem != prob_template:
        raise ValueError("result is not the extension of prob_template")
    z0 = tuple(complex(x) for x in z0)
    w0, r = prob_template.w0, prob_template.base_radius

    fmodel = result.fiber_model()
    c = extremal_function(fmodel, family.eval((w0,)), z0)
    lhs = math.log(fmodel.norm_sq(c))
    # the fiber model's basis is the joint model's k = 0 elements
    b = _placed(zip(fmodel.basis_labels, c.tolist()), result.fixed,
                result.model.size, f"joint model span (degree {prob_template.dz})")
    coeffs = _fill_free(b, result.coupling, result.free, result.factor)

    u, da = polar_rule(r, radial_nodes, angular_nodes)
    w = w0 + u
    # one evaluation of the family at the nodes serves actions and kernels
    xi = family.values(w[:, None])
    act = _jensen_actions(result.model, coeffs, family.alphas, xi, w, z0)
    # log K_psi + s(w): a large shift neither underflows a fiber Gram nor
    # overflows its kernel
    logK = fiber_kernels(prob_template.fiber_domain, prob_template.joint_weight,
                         prob_template.dz, prob_template.quad, family.alphas, xi,
                         w[:, None], np.array([z0]), log=True, model=fmodel)

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
